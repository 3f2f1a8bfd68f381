"""Communication-avoiding CG (paper Algorithm 7), with the streaming
write-avoiding option.

CA-CG runs the conventional CG recurrences in the *coordinates* of a
(2s+1)-column Krylov basis ``V = [P, R]`` (P from the search direction p,
R from the residual r), refreshed every s inner steps.  In exact
arithmetic it produces the same iterates as CG.

Two execution modes:

* ``streaming=False`` (plain CA-CG): the basis is built with the blocked
  matrix-powers kernel and *stored*; the Gram matrix ``G = VᵀV`` and the
  final recovery ``[p, r, x] = V·[p̂, r̂, x̂]`` read it back.  Writes to
  slow memory: Θ(s·n) per outer iteration — the same W12 = O(N·n) as CG.

* ``streaming=True`` (WA CA-CG, [14 §6.3]): the basis is *streamed* twice —
  once into the Gram-matrix accumulation, once into the recovery — and
  discarded blockwise.  Writes drop to Θ(n) per outer iteration,
  a Θ(s) reduction, at the documented cost of ≤ 2× reads and flops.
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

__all__ = ["cacg", "CACGResult"]


@dataclass
class CACGResult:
    x: np.ndarray
    outer_iterations: int
    inner_steps: int
    residuals: List[float]
    traffic: KSMTraffic
    converged: bool
    s: int

    @property
    def writes_per_step(self) -> float:
        """Slow-memory writes per *CG-equivalent* step — the paper's W12
        rate; Θ(n) for plain CA-CG / CG, Θ(n/s) for streaming CA-CG."""
        return self.traffic.writes / max(1, self.inner_steps)


def _recurrence_matrix(basis: PolynomialBasis, s: int) -> np.ndarray:
    """The (2s+1)×(2s+1) coordinate multiplication matrix B.

    Columns 0..s−1 carry A·P_j in P-coordinates (from the basis
    Hessenberg); columns s+1..2s−1 carry A·R_j likewise; columns s and 2s
    (the highest basis vectors) are zero — the inner loop never multiplies
    them, by construction of the s-step recurrence.
    """
    m = 2 * s + 1
    B = np.zeros((m, m))
    Hp = basis.hessenberg(s)             # (s+1) x s
    B[: s + 1, :s] = Hp
    if s >= 2:
        Hr = basis.hessenberg(s - 1)     # s x (s-1)
        B[s + 1 : 2 * s + 1, s + 1 : 2 * s] = Hr
    return B


def cacg(
    A,
    b: np.ndarray,
    *,
    s: int,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_outer: int = 200,
    basis: Optional[PolynomialBasis] = None,
    block: Optional[int] = None,
    streaming: bool = False,
) -> CACGResult:
    """s-step CA-CG for SPD A (paper Algorithm 7).

    Parameters
    ----------
    s:
        Steps per basis refresh (s=1 degenerates to CG with extra work).
    basis:
        Polynomial basis; default monomial (adequate for small s).
    block:
        Row-block size for the matrix-powers kernels; default n/8 rounded
        up (must exceed the s·bandwidth halo to be meaningful).
    streaming:
        Use the write-avoiding streaming matrix-powers execution.
    """
    import scipy.sparse as sp

    check_positive_int(s, "s")
    b = np.asarray(b, dtype=float)
    n = len(b)
    require(A.shape == (n, n), f"A must be ({n},{n}), got {A.shape}")
    require(sp.issparse(A), "cacg expects a sparse matrix")
    A = A.tocsr()
    if basis is None:
        basis = MonomialBasis()
    if block is None:
        block = max(1, -(-n // 8))
    check_positive_int(block, "block")

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    r = b - A @ x
    p = r.copy()
    delta = float(r @ r)
    bnorm = float(np.sqrt(b @ b)) or 1.0
    traffic = KSMTraffic(reads=n + A.nnz, writes=3 * n)
    residuals = [float(np.sqrt(delta))]
    converged = residuals[-1] <= tol * bnorm

    m = 2 * s + 1
    B = _recurrence_matrix(basis, s)
    outer = 0
    inner_total = 0

    while not converged and outer < max_outer:
        # ---- basis computation -------------------------------------- #
        if not streaming:
            P, tp = matrix_powers_blocked(A, p, s, block=block, basis=basis)
            if s >= 2:
                R, tr = matrix_powers_blocked(A, r, s - 1, block=block,
                                              basis=basis)
            else:
                R, tr = r[:, None].copy(), KSMTraffic()
            V = np.hstack([P, R])
            traffic.add(tp)
            traffic.add(tr)
            G = V.T @ V
            # Reading the stored basis back for the Gram matrix.
            traffic.reads += m * n
            traffic.flops += 2 * m * m * n
        else:
            # Streaming pass 1: accumulate G blockwise; never store V.
            G, t1 = _stream_gram(A, p, r, s, block, basis)
            traffic.add(t1)

        # ---- coordinate inner loop ---------------------------------- #
        # Coordinates: P block occupies 0..s, R block s+1..2s; the current
        # p is P₀ (coordinate 0) and the current r is R₀ (coordinate s+1).
        p_hat = np.zeros(m)
        p_hat[0] = 1.0
        r_hat = np.zeros(m)
        r_hat[s + 1] = 1.0
        x_hat = np.zeros(m)
        d = delta
        broke_down = False
        for _ in range(s):
            w_hat = B @ p_hat
            denom = float(p_hat @ (G @ w_hat))
            if denom <= 0 or not np.isfinite(denom):
                broke_down = True
                break
            alpha = d / denom
            x_hat += alpha * p_hat
            r_hat = r_hat - alpha * w_hat
            d_new = float(r_hat @ (G @ r_hat))
            if d_new < 0 or not np.isfinite(d_new):
                broke_down = True
                break
            beta = d_new / d
            p_hat = r_hat + beta * p_hat
            d = d_new
            inner_total += 1
            if d == 0:
                break  # the residual vanished: recover the solution

        # ---- recovery ------------------------------------------------ #
        if not streaming:
            p_new = V @ p_hat
            r_new = V @ r_hat
            x_new = V @ x_hat + x
            traffic.reads += m * n + n
            traffic.writes += 3 * n
            traffic.flops += 6 * m * n
        else:
            p_new, r_new, dx, t2 = _stream_recover(
                A, p, r, s, block, basis, p_hat, r_hat, x_hat)
            x_new = x + dx
            traffic.add(t2)
            traffic.reads += n
            traffic.writes += n  # x update
        p, r, x = p_new, r_new, x_new
        delta = float(r @ r)
        outer += 1
        residuals.append(float(np.sqrt(delta)))
        converged = residuals[-1] <= tol * bnorm
        if broke_down:
            break

    return CACGResult(
        x=x, outer_iterations=outer, inner_steps=inner_total,
        residuals=residuals, traffic=traffic, converged=converged, s=s,
    )


def _stream_gram(A, p, r, s, block, basis):
    """Streaming pass 1: G = VᵀV accumulated blockwise (V never stored).

    Computes the P-basis (s+1 levels from p) and R-basis (s levels from r)
    on each extended block and accumulates the (2s+1)² Gram matrix; the
    only writes are the Gram matrix itself (negligible, counted)."""
    m = 2 * s + 1
    G = np.zeros((m, m))
    state = {}

    def consumer(r0, r1, Pblk):
        state[(r0, r1)] = Pblk
        return 0

    # One pass computing both bases per block: reuse the streaming kernel
    # for P, and compute R on the same blocks inline.
    tP = matrix_powers_streaming(A, p, s, consumer, block=block, basis=basis)
    tR = KSMTraffic()
    if s >= 2:
        def consumer_r(r0, r1, Rblk):
            Vblk = np.hstack([state.pop((r0, r1)), Rblk])
            G[...] += Vblk.T @ Vblk
            return 0

        tR = matrix_powers_streaming(A, r, s - 1, consumer_r, block=block,
                                     basis=basis)
    else:
        for (r0, r1), Pblk in sorted(state.items()):
            Vblk = np.hstack([Pblk, r[r0:r1, None]])
            G[...] += Vblk.T @ Vblk
        state.clear()
    t = KSMTraffic()
    t.add(tP)
    t.add(tR)
    t.writes += m * m  # the Gram matrix itself
    t.flops += 2 * m * m * A.shape[0]
    return G, t


def _stream_recover(A, p, r, s, block, basis, p_hat, r_hat, x_hat):
    """Streaming pass 2: [p, r, Δx] = V·[p̂, r̂, x̂], blockwise.

    Recomputes the basis per block (the ≤2× flop cost the paper states)
    and writes only the three output vectors."""
    n = A.shape[0]
    p_new = np.empty(n)
    r_new = np.empty(n)
    dx = np.empty(n)
    state = {}

    def consumer_p(r0, r1, Pblk):
        state[(r0, r1)] = Pblk
        return 0

    tP = matrix_powers_streaming(A, p, s, consumer_p, block=block,
                                 basis=basis)
    tR = KSMTraffic()

    def finish_block(r0, r1, Vblk):
        p_new[r0:r1] = Vblk @ p_hat
        r_new[r0:r1] = Vblk @ r_hat
        dx[r0:r1] = Vblk @ x_hat
        return 3 * (r1 - r0)

    if s >= 2:
        def consumer_r(r0, r1, Rblk):
            Vblk = np.hstack([state.pop((r0, r1)), Rblk])
            return finish_block(r0, r1, Vblk)

        tR = matrix_powers_streaming(A, r, s - 1, consumer_r, block=block,
                                     basis=basis)
    else:
        w = 0
        for (r0, r1), Pblk in sorted(state.items()):
            Vblk = np.hstack([Pblk, r[r0:r1, None]])
            w += finish_block(r0, r1, Vblk)
        state.clear()
        tR.writes += w
    t = KSMTraffic()
    t.add(tP)
    t.add(tR)
    return p_new, r_new, dx, t
