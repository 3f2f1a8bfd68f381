"""GMRES and s-step CA-GMRES with the §8 streaming-TSQR interleaving.

The paper's Section-8 closing remark: for Arnoldi-based Krylov methods,
the Gram-matrix computation is replaced by a tall-skinny QR that can be
interleaved with the matrix-powers kernel "in a similar manner" — cutting
writes by Θ(s) at the cost of computing the basis twice.  We implement the
whole chain:

* :func:`gmres` — restarted GMRES(m) with modified Gram–Schmidt Arnoldi.
  Each Arnoldi step writes a new n-vector of the stored basis: W12 ≈ m·n
  writes per cycle.
* :func:`ca_gmres` — s-step GMRES: per cycle, build the Krylov basis
  K_{s+1}(A, r₀), get its R factor, and solve the *small* least-squares
  problem ``min_y ‖R(e₁ − H·y)‖`` (H = the basis Hessenberg), then recover
  ``x += K_s·y``.  In exact arithmetic this equals GMRES restarted every s
  steps.
  - ``streaming=False``: the basis is stored (blocked matrix powers) and
    read back: Θ(s·n) writes per cycle — CA, not WA.
  - ``streaming=True``: pass 1 streams basis blocks into a sequential
    TSQR (only R survives); pass 2 streams them again into the solution
    update.  Writes fall to Θ(n) per cycle — the Arnoldi analogue of
    streaming CA-CG, built on :func:`repro.krylov.tsqr.streaming_basis_r`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.krylov.basis import MonomialBasis, PolynomialBasis
from repro.krylov.cg import KSMTraffic
from repro.krylov.matrix_powers import (
    matrix_powers_blocked,
    matrix_powers_streaming,
)
from repro.util import check_positive_int, require

__all__ = ["gmres", "ca_gmres", "GMRESResult"]


@dataclass
class GMRESResult:
    x: np.ndarray
    cycles: int
    inner_steps: int
    residuals: List[float]
    traffic: KSMTraffic
    converged: bool

    @property
    def writes_per_step(self) -> float:
        return self.traffic.writes / max(1, self.inner_steps)


def gmres(
    A,
    b: np.ndarray,
    *,
    restart: int,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_cycles: int = 100,
) -> GMRESResult:
    """Restarted GMRES(m) with modified Gram–Schmidt Arnoldi.

    Traffic model (n ≫ M₁): each Arnoldi step performs one SpMV and MGS
    against all previous basis vectors; the new basis vector is written to
    slow memory (it is re-read by every later step): restart·n writes per
    cycle plus the solution update.
    """
    import scipy.sparse as sp

    check_positive_int(restart, "restart")
    b = np.asarray(b, dtype=float)
    n = len(b)
    require(A.shape == (n, n), f"A must be ({n},{n}), got {A.shape}")
    require(tol > 0 and max_cycles >= 1, "tol/max_cycles must be positive")
    nnz = A.nnz if sp.issparse(A) else int(np.count_nonzero(A))

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    traffic = KSMTraffic(reads=n + nnz, writes=n)
    bnorm = float(np.linalg.norm(b)) or 1.0
    residuals = []
    inner_total = 0
    cycles = 0
    converged = False

    while cycles < max_cycles and not converged:
        r = b - A @ x
        beta = float(np.linalg.norm(r))
        residuals.append(beta)
        if beta <= tol * bnorm:
            converged = True
            break
        m = restart
        Q = np.zeros((n, m + 1))
        H = np.zeros((m + 1, m))
        Q[:, 0] = r / beta
        traffic.writes += n  # store q0
        k_used = 0
        for k in range(m):
            w = A @ Q[:, k]
            traffic.reads += nnz + n
            for i in range(k + 1):
                H[i, k] = float(Q[:, i] @ w)
                w -= H[i, k] * Q[:, i]
                traffic.reads += 2 * n
            H[k + 1, k] = float(np.linalg.norm(w))
            traffic.writes += n  # store the new basis vector
            traffic.flops += 2 * nnz + 4 * n * (k + 1)
            k_used = k + 1
            inner_total += 1
            if H[k + 1, k] < 1e-14:
                break
            Q[:, k + 1] = w / H[k + 1, k]
        # Small least squares: min ‖β e₁ − H y‖.
        e1 = np.zeros(k_used + 1)
        e1[0] = beta
        y, *_ = np.linalg.lstsq(H[: k_used + 1, :k_used], e1, rcond=None)
        x = x + Q[:, :k_used] @ y
        traffic.reads += k_used * n
        traffic.writes += n
        cycles += 1
        res = float(np.linalg.norm(b - A @ x))
        residuals.append(res)
        converged = res <= tol * bnorm
    return GMRESResult(x=x, cycles=cycles, inner_steps=inner_total,
                       residuals=residuals, traffic=traffic,
                       converged=converged)


def ca_gmres(
    A,
    b: np.ndarray,
    *,
    s: int,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_cycles: int = 100,
    basis: Optional[PolynomialBasis] = None,
    block: Optional[int] = None,
    streaming: bool = False,
) -> GMRESResult:
    """s-step GMRES: equals GMRES restarted every s steps (exact arith.).

    Per cycle: basis K_{s+1}(A, r₀); R factor of K; small least squares
    ``min_y ‖R(e₁ − H y)‖``; recovery ``x += K_s y``.
    """
    import scipy.sparse as sp

    check_positive_int(s, "s")
    b = np.asarray(b, dtype=float)
    n = len(b)
    require(A.shape == (n, n), f"A must be ({n},{n}), got {A.shape}")
    require(sp.issparse(A), "ca_gmres expects a sparse matrix")
    A = A.tocsr()
    if basis is None:
        basis = MonomialBasis()
    if block is None:
        block = max(1, -(-n // 8))
    check_positive_int(block, "block")

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    traffic = KSMTraffic(reads=n + A.nnz, writes=n)
    bnorm = float(np.linalg.norm(b)) or 1.0
    residuals = []
    cycles = 0
    inner_total = 0
    converged = False
    H = basis.hessenberg(s)  # (s+1) x s: A·K_s = K_{s+1}·H

    while cycles < max_cycles and not converged:
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
        residuals.append(rnorm)
        if rnorm <= tol * bnorm:
            converged = True
            break

        if not streaming:
            K, t1 = matrix_powers_blocked(A, r, s, block=block, basis=basis)
            traffic.add(t1)
            R = np.linalg.qr(K, mode="r")
            traffic.reads += (s + 1) * n  # read the stored basis back
        else:
            # Pass 1: basis blocks stream into a sequential TSQR.
            state = {"R": None}

            def consumer(r0, r1, Kblk):
                if state["R"] is None:
                    _, state["R"] = np.linalg.qr(Kblk)
                else:
                    _, state["R"] = np.linalg.qr(
                        np.vstack([state["R"], Kblk]))
                return 0

            t1 = matrix_powers_streaming(A, r, s, consumer, block=block,
                                         basis=basis)
            traffic.add(t1)
            traffic.writes += (s + 1) ** 2  # R itself
            R = state["R"]

        # Small least squares in basis coordinates:
        # residual = K_{s+1}(e₁ − H y); ‖K z‖ = ‖R z‖.
        e1 = np.zeros(s + 1)
        e1[0] = 1.0
        M_ = R @ H                      # (s+1) x s
        rhs = R @ e1
        y, *_ = np.linalg.lstsq(M_, rhs, rcond=None)
        inner_total += s

        # Recovery: x += K_s · y.
        if not streaming:
            x = x + K[:, :s] @ y
            traffic.reads += s * n
            traffic.writes += n
        else:
            dx = np.empty(n)

            def consumer2(r0, r1, Kblk):
                dx[r0:r1] = Kblk[:, :s] @ y
                return r1 - r0

            t2 = matrix_powers_streaming(A, r, s, consumer2, block=block,
                                         basis=basis)
            traffic.add(t2)
            x = x + dx
            traffic.writes += n
        cycles += 1
        res = float(np.linalg.norm(b - A @ x))
        residuals.append(res)
        converged = res <= tol * bnorm
    return GMRESResult(x=x, cycles=cycles, inner_steps=inner_total,
                       residuals=residuals, traffic=traffic,
                       converged=converged)
