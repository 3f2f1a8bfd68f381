"""Blocked triangular solve (paper Algorithm 2).

Solves ``T X = B`` for X where T is n×n upper triangular and B is n×m, by
successive substitution on b×b blocks; X overwrites B.  As with matmul, the
blocked algorithm is CA for any loop nesting but **write-avoiding only when
the update (reduction) loop k is innermost**: then each B(i,j) block is
loaded once, updated in fast memory by all T(i,k)·X(k,j) products, solved,
and stored once — writes to slow memory = n·m, the output size.

The right-looking variant (:func:`blocked_trsm` with
``variant="right-looking"``) instead scatters each freshly computed X(i,j)
into all blocks above it immediately, evicting a dirty block per update:
Θ(n²m/b) writes — CA but not WA.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.blockio import BlockSlot
from repro.machine.hierarchy import MemoryHierarchy
from repro.util import check_multiple, check_positive_int, require

__all__ = ["blocked_trsm", "trsm_expected_counts"]


def trsm_expected_counts(n: int, m: int, b: int) -> dict:
    """Predicted traffic of the WA (left-looking) blocked TRSM.

    From Algorithm 2's annotations (generalized to n×m right-hand sides):

    * writes to fast ≈ n²m/b (T and X streams) + 1.5·n·m (B loads + diag)
    * writes to slow = n·m (each X block stored once)
    """
    check_multiple(n, b, "n")
    check_multiple(m, b, "m")
    nb = n // b
    # Off-diagonal T(i,k) and X(k,j) loads: for each j, sum_i (nb-i) pairs.
    pairs = nb * (nb - 1) // 2
    loads = (
        n * m  # B(i,j) blocks
        + 2 * pairs * (m // b) * b * b  # T(i,k) + X(k,j)
        + nb * (m // b) * b * b  # diagonal T(i,i) per (i,j)
    )
    return {"loads": loads, "stores": n * m, "writes_to_slow": n * m}


def blocked_trsm(
    T: np.ndarray,
    B: np.ndarray,
    *,
    b: int,
    hier: Optional[MemoryHierarchy] = None,
    variant: str = "left-looking",
    level: int = 1,
) -> np.ndarray:
    """Solve ``T X = B`` (T upper triangular) in b×b blocks, in place.

    Parameters
    ----------
    T:
        (n, n) upper triangular (lower part ignored).
    B:
        (n, m) right-hand sides; overwritten with X.
    variant:
        ``"left-looking"`` (paper Algorithm 2; WA, k innermost) or
        ``"right-looking"`` (immediate trailing updates; CA but not WA).

    Returns B (= X).
    """
    import scipy.linalg

    require(variant in ("left-looking", "right-looking"),
            f"unknown variant {variant!r}")
    T = np.asarray(T)
    B = np.asarray(B)
    require(T.ndim == 2 and T.shape[0] == T.shape[1],
            f"T must be square, got {T.shape}")
    n = T.shape[0]
    require(B.ndim == 2 and B.shape[0] == n,
            f"B must be ({n}, m), got {B.shape}")
    m = B.shape[1]
    check_positive_int(b, "b")
    check_multiple(n, b, "n")
    check_multiple(m, b, "m")
    nb, mb = n // b, m // b
    bb = b * b
    if hier is not None:
        require(3 * bb <= hier.sizes[level - 1],
                f"three {b}x{b} blocks exceed fast memory")
        hier.alloc(level, 3 * bb)

    slot_t = BlockSlot(hier, level)
    slot_x = BlockSlot(hier, level)
    slot_b = BlockSlot(hier, level, dirty_on_load=True)

    def tb(i, k):
        return T[i * b : (i + 1) * b, k * b : (k + 1) * b]

    def bb_(i, j):
        return B[i * b : (i + 1) * b, j * b : (j + 1) * b]

    try:
        if variant == "left-looking":
            for j in range(mb):
                for i in range(nb - 1, -1, -1):
                    slot_b.ensure(("B", i, j), bb)
                    for k in range(i + 1, nb):
                        slot_t.ensure(("T", i, k), bb)
                        slot_x.ensure(("B", k, j), bb)
                        bb_(i, j)[...] -= tb(i, k) @ bb_(k, j)
                    slot_t.ensure(("T", i, i), bb)
                    bb_(i, j)[...] = scipy.linalg.solve_triangular(
                        tb(i, i), bb_(i, j), lower=False
                    )
            slot_b.flush()
        else:
            # Right-looking: solve X(i,j), write it out, then immediately
            # update every B(i',j) above it.  Each partially-updated block
            # is evicted dirty — Θ(n²m/b) writes to slow memory.
            for j in range(mb):
                for i in range(nb - 1, -1, -1):
                    slot_b.ensure(("B", i, j), bb)
                    slot_t.ensure(("T", i, i), bb)
                    bb_(i, j)[...] = scipy.linalg.solve_triangular(
                        tb(i, i), bb_(i, j), lower=False
                    )
                    # X(i,j) is final: store it, keep it resident as the
                    # read-only source for the scatter below.
                    slot_b.writeback()
                    for ip in range(i - 1, -1, -1):
                        slot_t.ensure(("T", ip, i), bb)
                        slot_x.ensure(("B", ip, j), bb)
                        slot_x.mark_dirty()
                        bb_(ip, j)[...] -= tb(ip, i) @ bb_(i, j)
                    # Evict the last partially-updated block so the next
                    # solve loads a coherent copy from slow memory.
                    slot_x.flush()
            slot_b.discard()
    finally:
        if hier is not None:
            hier.free(level, 3 * bb)
    return B
