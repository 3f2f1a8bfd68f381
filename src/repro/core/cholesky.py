"""Blocked Cholesky factorization (paper Algorithm 3).

Factors a symmetric positive-definite A = L·Lᵀ in b×b blocks, L overwriting
the lower triangle of A.  The **left-looking** order (paper Algorithm 3) is
write-avoiding: block column i of L is fully computed by reading already-
finished columns to its left, and each output block is stored exactly once —
writes to slow memory ≈ n²/2, the output size.

The **right-looking** order uses each finished block column to immediately
update the whole trailing Schur complement, evicting a dirty block per
update: Θ(n³/b) writes to slow memory — CA but not WA.  This is the
asymmetry the paper conjectures extends to LU, QR and other one-sided
factorizations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.blockio import BlockSlot
from repro.machine.hierarchy import MemoryHierarchy
from repro.util import check_multiple, check_positive_int, require

__all__ = ["blocked_cholesky", "cholesky_expected_counts"]


def cholesky_expected_counts(n: int, b: int) -> dict:
    """Predicted traffic of WA (left-looking) blocked Cholesky.

    From Algorithm 3's annotations: writes to slow ≈ n²/2 + nb/2 (the lower
    triangle, diagonal blocks counted half), writes to fast ≈ n³/(3b).
    """
    check_multiple(n, b, "n")
    nb = n // b
    diag_words = nb * (b * b)  # we move full diagonal blocks (see below)
    offdiag_words = (nb * (nb - 1) // 2) * b * b
    return {
        "writes_to_slow": diag_words + offdiag_words,
        "output_words": diag_words + offdiag_words,
    }


def blocked_cholesky(
    A: np.ndarray,
    *,
    b: int,
    hier: Optional[MemoryHierarchy] = None,
    variant: str = "left-looking",
    level: int = 1,
) -> np.ndarray:
    """Blocked Cholesky, in place on the lower triangle of A.

    Parameters
    ----------
    A:
        (n, n) symmetric positive definite; only the lower triangle is read,
        and L overwrites it (the strict upper triangle is left untouched).
    variant:
        ``"left-looking"`` (paper Algorithm 3, WA) or ``"right-looking"``
        (immediate Schur-complement updates, not WA).

    Notes
    -----
    Unlike the paper's half-block accounting for diagonal blocks we move
    full b×b diagonal blocks (simpler addressing); this changes counts only
    by the lower-order term n·b/2.
    """
    import scipy.linalg

    require(variant in ("left-looking", "right-looking"),
            f"unknown variant {variant!r}")
    A = np.asarray(A)
    require(A.ndim == 2 and A.shape[0] == A.shape[1],
            f"A must be square, got {A.shape}")
    n = A.shape[0]
    check_positive_int(b, "b")
    check_multiple(n, b, "n")
    nb = n // b
    bbw = b * b
    if hier is not None:
        require(3 * bbw <= hier.sizes[level - 1],
                f"three {b}x{b} blocks exceed fast memory")
        hier.alloc(level, 3 * bbw)

    slot_l = BlockSlot(hier, level)   # read-only left blocks
    slot_r = BlockSlot(hier, level)   # second read-only operand
    slot_o = BlockSlot(hier, level, dirty_on_load=True)  # block being built

    def blk(i, k):
        return A[i * b : (i + 1) * b, k * b : (k + 1) * b]

    try:
        if variant == "left-looking":
            for i in range(nb):
                # -- diagonal block: A(i,i) -= sum_k A(i,k) A(i,k)^T
                slot_o.ensure(("A", i, i), bbw)
                for k in range(i):
                    slot_l.ensure(("A", i, k), bbw)
                    blk(i, i)[...] -= blk(i, k) @ blk(i, k).T
                blk(i, i)[...] = np.linalg.cholesky(
                    np.tril(blk(i, i)) + np.tril(blk(i, i), -1).T
                )
                slot_o.flush()  # store finished L(i,i)
                # -- off-diagonal blocks of column i
                for j in range(i + 1, nb):
                    slot_o.ensure(("A", j, i), bbw)
                    for k in range(i):
                        slot_l.ensure(("A", i, k), bbw)
                        slot_r.ensure(("A", j, k), bbw)
                        blk(j, i)[...] -= blk(j, k) @ blk(i, k).T
                    slot_l.ensure(("A", i, i), bbw)
                    # Solve Tmp * L(i,i)^T = A(j,i)  =>  L(j,i)
                    blk(j, i)[...] = scipy.linalg.solve_triangular(
                        blk(i, i), blk(j, i).T, lower=True
                    ).T
                    slot_o.flush()  # store finished L(j,i)
        else:
            # Right-looking: factor panel i, then update the whole trailing
            # Schur complement with it, dirtying every trailing block.
            for i in range(nb):
                slot_o.ensure(("A", i, i), bbw)
                blk(i, i)[...] = np.linalg.cholesky(
                    np.tril(blk(i, i)) + np.tril(blk(i, i), -1).T
                )
                slot_o.writeback()  # L(i,i) final
                for j in range(i + 1, nb):
                    slot_r.ensure(("A", j, i), bbw)
                    # slot_o still holds L(i,i)
                    blk(j, i)[...] = scipy.linalg.solve_triangular(
                        blk(i, i), blk(j, i).T, lower=True
                    ).T
                    # L(j,i) final: store via a dirty eviction of slot_r on
                    # its next ensure; force the store now for clarity.
                    slot_r.mark_dirty()
                    slot_r.writeback()
                # Trailing update: A(j,k) -= L(j,i) L(k,i)^T, j >= k > i.
                for k in range(i + 1, nb):
                    slot_l.ensure(("A", k, i), bbw)
                    for j in range(k, nb):
                        slot_r.ensure(("A", j, i), bbw)
                        slot_o.ensure(("A", j, k), bbw)
                        blk(j, k)[...] -= blk(j, i) @ blk(k, i).T
            slot_o.flush()
    finally:
        if hier is not None:
            hier.free(level, 3 * bbw)
    # Zero nothing: strict upper triangle intentionally left as-is.
    return A
