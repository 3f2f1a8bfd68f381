"""Conventional conjugate gradient with slow-memory traffic counting.

The baseline of Section 8: each CG iteration streams the matrix and the
four working vectors (x, p, r, w) through fast memory, performing ≈ 4n
writes to slow memory when n ≫ M₁ — ``W12 = Ω(N·n)`` over N iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.util import require

__all__ = ["KSMTraffic", "cg", "CGResult"]


@dataclass
class KSMTraffic:
    """Word/flop counters for a Krylov solve (slow-memory perspective)."""

    reads: int = 0
    writes: int = 0
    flops: int = 0

    def add(self, other: "KSMTraffic") -> None:
        self.reads += other.reads
        self.writes += other.writes
        self.flops += other.flops


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residuals: List[float]
    traffic: KSMTraffic
    converged: bool

    @property
    def writes_per_iteration(self) -> float:
        return self.traffic.writes / max(1, self.iterations)


def cg(
    A,
    b: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    maxiter: int = 1000,
) -> CGResult:
    """Conjugate gradient (paper Algorithm 6) for SPD A.

    Traffic model (n ≫ M₁): per iteration one SpMV reads the matrix
    (nnz values + column indices) and the vector; the vector updates write
    x, r, p and the SpMV writes w — 4n words to slow memory per iteration.
    """
    import scipy.sparse as sp

    b = np.asarray(b, dtype=float)
    n = len(b)
    require(A.shape == (n, n), f"A must be ({n},{n}), got {A.shape}")
    require(tol > 0 and maxiter >= 1, "tol and maxiter must be positive")
    nnz = A.nnz if sp.issparse(A) else int(np.count_nonzero(A))

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - A @ x
    p = r.copy()
    delta = float(r @ r)
    bnorm = float(np.sqrt(b @ b)) or 1.0
    traffic = KSMTraffic()
    # Setup: read b and A once, write x, r, p.
    traffic.reads += n + nnz
    traffic.writes += 3 * n

    residuals = [float(np.sqrt(delta))]
    converged = residuals[-1] <= tol * bnorm
    it = 0
    while not converged and it < maxiter:
        w = A @ p
        alpha = delta / float(p @ w)
        x += alpha * p
        r -= alpha * w
        delta_new = float(r @ r)
        beta = delta_new / delta
        p = r + beta * p
        delta = delta_new
        it += 1
        residuals.append(float(np.sqrt(delta)))
        converged = residuals[-1] <= tol * bnorm
        # Traffic: SpMV reads A + p, writes w; updates read/write x, r, p.
        traffic.reads += nnz + 4 * n
        traffic.writes += 4 * n
        traffic.flops += 2 * nnz + 10 * n
    return CGResult(x=x, iterations=it, residuals=residuals,
                    traffic=traffic, converged=converged)
