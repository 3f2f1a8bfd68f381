"""Krylov subspace methods with write counting (paper Section 8).

Contents:

* :mod:`repro.krylov.stencil` — (2b+1)^d-point stencil operators on
  d-dimensional meshes, the paper's model problem class.
* :mod:`repro.krylov.basis` — polynomial bases (monomial, Newton,
  Chebyshev) and their recurrence/Hessenberg matrices.
* :mod:`repro.krylov.cg` — conventional conjugate gradient.
* :mod:`repro.krylov.matrix_powers` — the matrix-powers kernel: naive,
  blocked (communication-avoiding), and *streaming* (write-avoiding,
  recompute-twice) variants, all with mechanical traffic counting.
* :mod:`repro.krylov.cacg` — CA-CG (s-step CG, paper Algorithm 7), with
  the streaming option that cuts writes to slow memory by Θ(s).
"""

# Imported eagerly, unlike the other packages: five public names (cg,
# cacg, gmres, tsqr, matrix_powers) are also submodule names, and
# importing such a submodule rebinds the package attribute to the
# module, which a lazy __getattr__ would never see.  Only the krylov-*
# kernels import this package, and they need nearly all of it.
from repro.krylov.stencil import stencil_matrix, spd_stencil_system
from repro.krylov.basis import (
    ChebyshevBasis,
    MonomialBasis,
    NewtonBasis,
    PolynomialBasis,
)
from repro.krylov.cg import KSMTraffic, cg
from repro.krylov.matrix_powers import (
    matrix_powers,
    matrix_powers_blocked,
    matrix_powers_streaming,
)
from repro.krylov.cacg import cacg
from repro.krylov.tsqr import streaming_basis_r, tsqr, tsqr_q_explicit
from repro.krylov.gmres import ca_gmres, gmres

__all__ = [
    "stencil_matrix",
    "spd_stencil_system",
    "PolynomialBasis",
    "MonomialBasis",
    "NewtonBasis",
    "ChebyshevBasis",
    "KSMTraffic",
    "cg",
    "matrix_powers",
    "matrix_powers_blocked",
    "matrix_powers_streaming",
    "cacg",
    "streaming_basis_r",
    "tsqr",
    "tsqr_q_explicit",
    "ca_gmres",
    "gmres",
]
