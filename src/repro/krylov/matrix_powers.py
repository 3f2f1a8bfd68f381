"""Matrix-powers kernels: naive, blocked (CA), and streaming (WA).

Given a banded/stencil matrix A and vector y, all three compute the basis
``K = [ρ₀(A)y, ρ₁(A)y, ..., ρ_s(A)y]`` and report slow-memory traffic:

* :func:`matrix_powers` — s sequential SpMVs: reads A s times, writes all
  s·n basis words.  Neither CA nor WA.
* :func:`matrix_powers_blocked` — the CA kernel: row blocks with s·bw ghost
  zones; A and the block are read **once** (an Θ(s)-fold read reduction,
  the paper's f(s)), but the basis is still written to slow memory:
  W12 = Θ(s·n) — CA, not WA.
* :func:`matrix_powers_streaming` — the Section-8 "streaming" optimization
  [14, §6.3]: basis blocks are handed to a *consumer* (Gram-matrix or
  coefficient-recovery accumulation) and **discarded**, never written.
  Writes drop to the consumer's output size; the price is recomputing the
  basis for each consumer pass (2× flops in CA-CG).

Bandwidth is taken from the matrix structure; blocks plus their ghost
zones are what must fit in fast memory (s = Θ(M₁^{1/d}/b) in the paper's
mesh setting).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.krylov.basis import MonomialBasis, PolynomialBasis
from repro.krylov.cg import KSMTraffic
from repro.util import check_positive_int, require

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "matrix_bandwidth",
    "matrix_powers",
    "matrix_powers_blocked",
    "matrix_powers_streaming",
]


def matrix_bandwidth(A: sp.spmatrix) -> int:
    """Max |i − j| over nonzeros (the ghost-zone width per basis level)."""
    coo = A.tocoo()
    if coo.nnz == 0:
        return 0
    return int(np.abs(coo.row - coo.col).max())


def _as_csr(A) -> sp.csr_matrix:
    import scipy.sparse as sp

    require(sp.issparse(A), "matrix-powers kernels expect a sparse matrix")
    return A.tocsr()


def matrix_powers(
    A,
    y: np.ndarray,
    s: int,
    *,
    basis: Optional[PolynomialBasis] = None,
) -> Tuple[np.ndarray, KSMTraffic]:
    """Naive kernel: s dependent SpMV sweeps.  Returns (K, traffic)."""
    A = _as_csr(A)
    check_positive_int(s, "s")
    if basis is None:
        basis = MonomialBasis()
    K = basis.vectors(A, y, s)
    t = KSMTraffic(
        reads=s * (A.nnz + len(y)),
        writes=s * len(y),
        flops=2 * s * A.nnz,
    )
    return K, t


def matrix_powers_blocked(
    A,
    y: np.ndarray,
    s: int,
    *,
    block: int,
    basis: Optional[PolynomialBasis] = None,
) -> Tuple[np.ndarray, KSMTraffic]:
    """CA kernel: compute all s levels block-by-block with ghost zones.

    Each row block of size *block* is extended by s·bw rows on each side;
    the extended region's matrix rows and y entries are read once, all s
    levels are computed locally (boundary garbage shrinks by bw per level
    and never reaches the owned rows), and the owned basis rows are
    written out.
    """
    A = _as_csr(A)
    check_positive_int(s, "s")
    check_positive_int(block, "block")
    if basis is None:
        basis = MonomialBasis()
    n = A.shape[0]
    require(len(y) == n, "y length must match A")
    bw = matrix_bandwidth(A)
    halo = s * bw
    K = np.empty((n, s + 1))
    t = KSMTraffic()
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        lo = max(0, r0 - halo)
        hi = min(n, r1 + halo)
        Asub = A[lo:hi, lo:hi]
        Ksub = basis.vectors(Asub, y[lo:hi], s)
        K[r0:r1] = Ksub[r0 - lo : r1 - lo]
        # One read of the extended rows of A and y; writes of owned rows.
        t.reads += Asub.nnz + (hi - lo)
        t.writes += s * (r1 - r0)
        t.flops += 2 * s * Asub.nnz
    # Level 0 is y itself (already resident); only levels 1..s counted.
    return K, t


def matrix_powers_streaming(
    A,
    y: np.ndarray,
    s: int,
    consumer: Callable[[int, int, np.ndarray], int],
    *,
    block: int,
    basis: Optional[PolynomialBasis] = None,
) -> KSMTraffic:
    """WA kernel: stream basis blocks to *consumer*, never storing them.

    ``consumer(r0, r1, K_block)`` receives the owned rows [r0, r1) of the
    basis (shape (r1−r0, s+1)) and returns the number of words *it* wrote
    to slow memory (charged to the returned traffic).  The basis itself
    contributes **zero** writes.
    """
    A = _as_csr(A)
    check_positive_int(s, "s")
    check_positive_int(block, "block")
    if basis is None:
        basis = MonomialBasis()
    n = A.shape[0]
    require(len(y) == n, "y length must match A")
    bw = matrix_bandwidth(A)
    halo = s * bw
    t = KSMTraffic()
    for r0 in range(0, n, block):
        r1 = min(r0 + block, n)
        lo = max(0, r0 - halo)
        hi = min(n, r1 + halo)
        Asub = A[lo:hi, lo:hi]
        Ksub = basis.vectors(Asub, y[lo:hi], s)
        written = consumer(r0, r1, Ksub[r0 - lo : r1 - lo])
        require(written >= 0, "consumer must report nonnegative writes")
        t.reads += Asub.nnz + (hi - lo)
        t.writes += written
        t.flops += 2 * s * Asub.nnz
    return t
