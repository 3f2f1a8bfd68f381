"""Multi-level WA TRSM and Cholesky (paper Sections 4.2–4.3 inductions).

The paper extends Algorithms 2 and 3 to r memory levels by replacing the
inner block operations with recursive calls: TRSM calls multi-level matmul
and itself; Cholesky calls multi-level matmul (plain and transposed), a
right-sided triangular solve, and itself.  The induction shows writes to
each level stay Θ(#flops/√M_level) with only the output reaching the
slowest level.

This module implements that construction with one engine holding a block
slot triple per level (the same residency model as
:mod:`repro.core.multilevel`); the numeric leaves are numpy/scipy calls on
the innermost tiles, and tests verify both the factorizations and the
per-level write counts.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.blockio import BlockSlot
from repro.machine.hierarchy import MemoryHierarchy
from repro.util import check_multiple, check_positive_int, require

__all__ = ["trsm_multilevel", "cholesky_multilevel"]


class _Engine:
    """Per-level slot state plus the recursive building blocks.

    All operands are regions of global matrices addressed by absolute
    offsets, so slot keys — ``(matrix name, abs row tile, abs col tile)``
    — are globally unique and reuse detection works across the whole
    factorization, not just one sub-call.
    """

    def __init__(self, hier: Optional[MemoryHierarchy],
                 block_sizes: Sequence[int]):
        require(len(block_sizes) >= 1, "need at least one blocking size")
        prev = None
        for b in block_sizes:
            check_positive_int(b, "block size")
            if prev is not None:
                check_multiple(prev, b, "parent block size")
            prev = b
        self.bs = list(block_sizes)
        self.nlev = len(block_sizes)
        self.hier = hier
        if hier is not None:
            require(hier.r == self.nlev,
                    f"hierarchy has {hier.r} levels, "
                    f"{self.nlev} blocking sizes given")
            for d, b in enumerate(block_sizes):
                level = self.nlev - d
                require(3 * b * b <= hier.sizes[level - 1],
                        f"three {b}x{b} blocks exceed L{level}")
                hier.alloc(level, 3 * b * b)
        self.slots = []
        for d in range(self.nlev):
            level = self.nlev - d
            self.slots.append((
                BlockSlot(hier, level),
                BlockSlot(hier, level),
                BlockSlot(hier, level, dirty_on_load=True),
            ))

    def release(self) -> None:
        for d in range(self.nlev - 1, -1, -1):
            self.slots[d][2].flush()
        if self.hier is not None:
            for d, b in enumerate(self.bs):
                self.hier.free(self.nlev - d, 3 * b * b)

    # -------------------------------------------------------------- #
    # building blocks; every method operates on one span² region at
    # recursion depth d (span == bs[d-1], or the whole problem at d=0)
    # -------------------------------------------------------------- #
    def matmul(self, d, X, Y, Z, xn, yn, zn, xi, xk, yk, yj, zi, zj,
               span_i, span_j, span_k, *, transY=False, sign=-1.0):
        """Z[zi:,zj:] += sign · X[xi:,xk:] @ op(Y) over the given spans.

        ``transY`` reads Y tiles as Yᵀ (the SYRK-style updates of
        Cholesky: op(Y)[k, j] = Y[yk + j, yj + k] region transposed).
        """
        b = self.bs[d]
        sx, sy, sz = self.slots[d]
        bb = b * b
        last = d == self.nlev - 1
        for i in range(0, span_i, b):
            for j in range(0, span_j, b):
                sz.ensure((zn, zi + i, zj + j), bb)
                for k in range(0, span_k, b):
                    sx.ensure((xn, xi + i, xk + k), bb)
                    if not transY:
                        sy.ensure((yn, yk + k, yj + j), bb)
                    else:
                        sy.ensure((yn, yj + j, yk + k), bb)
                    if last:
                        Xt = X[xi + i:xi + i + b, xk + k:xk + k + b]
                        if not transY:
                            Yt = Y[yk + k:yk + k + b, yj + j:yj + j + b]
                        else:
                            Yt = Y[yj + j:yj + j + b,
                                   yk + k:yk + k + b].T
                        Z[zi + i:zi + i + b, zj + j:zj + j + b] += (
                            sign * (Xt @ Yt))
                    else:
                        self.matmul(d + 1, X, Y, Z, xn, yn, zn,
                                    xi + i, xk + k, yk + k, yj + j,
                                    zi + i, zj + j, b, b, b,
                                    transY=transY, sign=sign)

    def trsm_left_upper(self, d, T, B, tn, bn, t0, bi, bj, span_n, span_m):
        """Solve T[t0:,t0:]·X = B[bi:,bj:] in place (T upper triangular)."""
        import scipy.linalg

        b = self.bs[d]
        st, sx, sb = self.slots[d]
        bb = b * b
        last = d == self.nlev - 1
        for j in range(0, span_m, b):
            for i in range(span_n - b, -1, -b):
                sb.ensure((bn, bi + i, bj + j), bb)
                for k in range(i + b, span_n, b):
                    st.ensure((tn, t0 + i, t0 + k), bb)
                    sx.ensure((bn, bi + k, bj + j), bb)
                    if last:
                        B[bi + i:bi + i + b, bj + j:bj + j + b] -= (
                            T[t0 + i:t0 + i + b, t0 + k:t0 + k + b]
                            @ B[bi + k:bi + k + b, bj + j:bj + j + b])
                    else:
                        self.matmul(d + 1, T, B, B, tn, bn, bn,
                                    t0 + i, t0 + k, bi + k, bj + j,
                                    bi + i, bj + j, b, b, b)
                st.ensure((tn, t0 + i, t0 + i), bb)
                if last:
                    B[bi + i:bi + i + b, bj + j:bj + j + b] = (
                        scipy.linalg.solve_triangular(
                            T[t0 + i:t0 + i + b, t0 + i:t0 + i + b],
                            B[bi + i:bi + i + b, bj + j:bj + j + b],
                            lower=False))
                else:
                    self.trsm_left_upper(d + 1, T, B, tn, bn,
                                         t0 + i, bi + i, bj + j, b, b)

    def trsm_right_lowerT(self, d, L, B, ln, bn, l0, bi, bj, span_m,
                          span_n):
        """Solve X·L[l0:,l0:]ᵀ = B[bi:,bj:] in place (L lower triangular).

        Column blocks of X depend left-to-right; the update for column k
        uses already-solved columns j < k: X(:,k) -= X(:,j)·L(k,j)ᵀ.
        """
        import scipy.linalg

        b = self.bs[d]
        sl, sx, sb = self.slots[d]
        bb = b * b
        last = d == self.nlev - 1
        for i in range(0, span_m, b):
            for k in range(0, span_n, b):
                sb.ensure((bn, bi + i, bj + k), bb)
                for j in range(0, k, b):
                    sx.ensure((bn, bi + i, bj + j), bb)
                    sl.ensure((ln, l0 + k, l0 + j), bb)
                    if last:
                        B[bi + i:bi + i + b, bj + k:bj + k + b] -= (
                            B[bi + i:bi + i + b, bj + j:bj + j + b]
                            @ L[l0 + k:l0 + k + b, l0 + j:l0 + j + b].T)
                    else:
                        self.matmul(d + 1, B, L, B, bn, ln, bn,
                                    bi + i, bj + j, l0 + j, l0 + k,
                                    bi + i, bj + k, b, b, b, transY=True)
                sl.ensure((ln, l0 + k, l0 + k), bb)
                if last:
                    B[bi + i:bi + i + b, bj + k:bj + k + b] = (
                        scipy.linalg.solve_triangular(
                            L[l0 + k:l0 + k + b, l0 + k:l0 + k + b],
                            B[bi + i:bi + i + b, bj + k:bj + k + b].T,
                            lower=True).T)
                else:
                    self.trsm_right_lowerT(d + 1, L, B, ln, bn,
                                           l0 + k, bi + i, bj + k, b, b)

    def cholesky(self, d, A, an, a0, span):
        """Factor A[a0:a0+span, a0:a0+span] = L·Lᵀ in place (lower)."""
        import scipy.linalg

        b = self.bs[d]
        sl, sr, so = self.slots[d]
        bb = b * b
        last = d == self.nlev - 1
        for i in range(0, span, b):
            # Diagonal block: A(i,i) -= sum_k A(i,k)·A(i,k)ᵀ, then factor.
            so.ensure((an, a0 + i, a0 + i), bb)
            for k in range(0, i, b):
                sl.ensure((an, a0 + i, a0 + k), bb)
                if last:
                    Aik = A[a0 + i:a0 + i + b, a0 + k:a0 + k + b]
                    A[a0 + i:a0 + i + b, a0 + i:a0 + i + b] -= Aik @ Aik.T
                else:
                    self.matmul(d + 1, A, A, A, an, an, an,
                                a0 + i, a0 + k, a0 + k, a0 + i,
                                a0 + i, a0 + i, b, b, b, transY=True)
            if last:
                diag = A[a0 + i:a0 + i + b, a0 + i:a0 + i + b]
                diag[...] = np.linalg.cholesky(
                    np.tril(diag) + np.tril(diag, -1).T)
            else:
                self.cholesky(d + 1, A, an, a0 + i, b)
            so.flush()
            # Off-diagonal panel.
            for j in range(i + b, span, b):
                so.ensure((an, a0 + j, a0 + i), bb)
                for k in range(0, i, b):
                    sl.ensure((an, a0 + i, a0 + k), bb)
                    sr.ensure((an, a0 + j, a0 + k), bb)
                    if last:
                        A[a0 + j:a0 + j + b, a0 + i:a0 + i + b] -= (
                            A[a0 + j:a0 + j + b, a0 + k:a0 + k + b]
                            @ A[a0 + i:a0 + i + b, a0 + k:a0 + k + b].T)
                    else:
                        self.matmul(d + 1, A, A, A, an, an, an,
                                    a0 + j, a0 + k, a0 + k, a0 + i,
                                    a0 + j, a0 + i, b, b, b, transY=True)
                sl.ensure((an, a0 + i, a0 + i), bb)
                if last:
                    A[a0 + j:a0 + j + b, a0 + i:a0 + i + b] = (
                        scipy.linalg.solve_triangular(
                            A[a0 + i:a0 + i + b, a0 + i:a0 + i + b],
                            A[a0 + j:a0 + j + b, a0 + i:a0 + i + b].T,
                            lower=True).T)
                else:
                    self.trsm_right_lowerT(d + 1, A, A, an, an,
                                           a0 + i, a0 + j, a0 + i, b, b)
                so.flush()


def trsm_multilevel(
    T: np.ndarray,
    B: np.ndarray,
    *,
    block_sizes: Sequence[int],
    hier: Optional[MemoryHierarchy] = None,
) -> np.ndarray:
    """Multi-level WA triangular solve ``T X = B`` (T upper), in place."""
    T = np.asarray(T)
    B = np.asarray(B)
    require(T.ndim == 2 and T.shape[0] == T.shape[1],
            f"T must be square, got {T.shape}")
    n = T.shape[0]
    require(B.ndim == 2 and B.shape[0] == n,
            f"B must be ({n}, m), got {B.shape}")
    b_top = block_sizes[0]
    check_multiple(n, b_top, "n")
    check_multiple(B.shape[1], b_top, "m")
    eng = _Engine(hier, block_sizes)
    try:
        eng.trsm_left_upper(0, T, B, "T", "B", 0, 0, 0, n, B.shape[1])
    finally:
        eng.release()
    return B


def cholesky_multilevel(
    A: np.ndarray,
    *,
    block_sizes: Sequence[int],
    hier: Optional[MemoryHierarchy] = None,
) -> np.ndarray:
    """Multi-level WA Cholesky, L overwriting the lower triangle of A."""
    A = np.asarray(A)
    require(A.ndim == 2 and A.shape[0] == A.shape[1],
            f"A must be square, got {A.shape}")
    check_multiple(A.shape[0], block_sizes[0], "n")
    eng = _Engine(hier, block_sizes)
    try:
        eng.cholesky(0, A, "A", 0, A.shape[0])
    finally:
        eng.release()
    return A
