"""Sequential blocked LU without pivoting — the paper's conjecture, tested.

Section 4.3 conjectures that "similar conclusions hold for LU, QR, and
related factorizations" based on the left-/right-looking asymmetry of
Cholesky.  This module implements both orders for unpivoted LU so the
conjecture is checkable:

* **left-looking** — each block column is fully updated by reading the
  finished factors to its left, then factored; every output block is
  stored exactly once: writes to slow memory = n² (the packed L\\U
  output).  Write-avoiding.
* **right-looking** — each panel immediately updates the whole trailing
  submatrix, evicting a dirty block per update: Θ(n³/b) writes.  CA only.

L and U are packed in place (unit diagonal of L implicit), as LAPACK does.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.blockio import BlockSlot
from repro.machine.hierarchy import MemoryHierarchy
from repro.util import check_multiple, check_positive_int, require

__all__ = ["blocked_lu", "unpack_lu", "lu_expected_counts"]


def lu_expected_counts(n: int, b: int) -> dict:
    """Predicted writes to slow memory of the WA (left-looking) LU: one
    store per output block = n² words."""
    check_multiple(n, b, "n")
    return {"writes_to_slow": n * n, "output_words": n * n}


def _factor_inplace(blk: np.ndarray) -> None:
    """Unpivoted LU of a block, packed (unit-L below, U on/above diag)."""
    k = blk.shape[0]
    for i in range(k):
        require(abs(blk[i, i]) > 1e-300,
                "zero pivot: unpivoted LU needs nonsingular leading minors")
        blk[i + 1:, i] /= blk[i, i]
        blk[i + 1:, i + 1:] -= np.outer(blk[i + 1:, i], blk[i, i + 1:])


def unpack_lu(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a packed L\\U matrix into (L, U), L with unit diagonal."""
    L = np.tril(A, -1) + np.eye(A.shape[0])
    U = np.triu(A)
    return L, U


def blocked_lu(
    A: np.ndarray,
    *,
    b: int,
    hier: Optional[MemoryHierarchy] = None,
    variant: str = "left-looking",
    level: int = 1,
) -> np.ndarray:
    """Blocked unpivoted LU, in place (packed L\\U).

    The caller must supply a matrix with nonsingular leading principal
    minors (e.g. diagonally dominant).
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

    slot_l = BlockSlot(hier, level)
    slot_r = BlockSlot(hier, level)
    slot_o = BlockSlot(hier, level, dirty_on_load=True)

    def blk(i, k):
        return A[i * b : (i + 1) * b, k * b : (k + 1) * b]

    def lpart(i):
        """Unit-lower factor of a packed diagonal block."""
        return np.tril(blk(i, i), -1) + np.eye(b)

    try:
        if variant == "left-looking":
            for J in range(nb):
                for I in range(nb):
                    slot_o.ensure(("A", I, J), bbw)
                    for K in range(min(I, J)):
                        # K < I and K < J: blk(I,K) is pure L and
                        # blk(K,J) is pure U (packing only mixes factors
                        # on diagonal blocks).
                        slot_l.ensure(("A", I, K), bbw)
                        slot_r.ensure(("A", K, J), bbw)
                        blk(I, J)[...] -= blk(I, K) @ blk(K, J)
                    if I < J:
                        # U(I,J) = L(I,I)^{-1} · A(I,J)
                        slot_l.ensure(("A", I, I), bbw)
                        blk(I, J)[...] = scipy.linalg.solve_triangular(
                            lpart(I), blk(I, J), lower=True,
                            unit_diagonal=True)
                    elif I == J:
                        _factor_inplace(blk(I, J))
                    else:
                        # L(I,J) = A(I,J) · U(J,J)^{-1}
                        slot_l.ensure(("A", J, J), bbw)
                        blk(I, J)[...] = scipy.linalg.solve_triangular(
                            np.triu(blk(J, J)).T, blk(I, J).T,
                            lower=True).T
                    slot_o.flush()  # every output block stored once
        else:
            for K in range(nb):
                slot_o.ensure(("A", K, K), bbw)
                _factor_inplace(blk(K, K))
                slot_o.writeback()
                # Panel solves; each result stored once.
                for J in range(K + 1, nb):
                    slot_r.ensure(("A", K, J), bbw)
                    slot_r.mark_dirty()
                    blk(K, J)[...] = scipy.linalg.solve_triangular(
                        lpart(K), blk(K, J), lower=True, unit_diagonal=True)
                    slot_r.writeback()
                for I in range(K + 1, nb):
                    slot_r.ensure(("A", I, K), bbw)
                    slot_r.mark_dirty()
                    blk(I, K)[...] = scipy.linalg.solve_triangular(
                        np.triu(blk(K, K)).T, blk(I, K).T, lower=True).T
                    slot_r.writeback()
                slot_o.discard()
                # Trailing update: every block round-trips.
                for I in range(K + 1, nb):
                    slot_l.ensure(("A", I, K), bbw)
                    for J in range(K + 1, nb):
                        slot_r.ensure(("A", K, J), bbw)
                        slot_o.ensure(("A", I, J), bbw)
                        blk(I, J)[...] -= blk(I, K) @ blk(K, J)
                slot_o.flush()
    finally:
        if hier is not None:
            hier.free(level, 3 * bbw)
    return A
