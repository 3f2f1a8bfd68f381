"""Polynomial bases for s-step Krylov methods (paper Section 8).

A basis is a sequence ρ₀, ρ₁, ... with deg ρ_j = j satisfying a short
recurrence; CA-CG computes the basis vectors ρ_j(A)·y and works in their
coordinates.  The recurrence is encoded in the (m+1)×m upper-Hessenberg
matrix H with ``A·K_m = K_{m+1}·H`` where K_m = [ρ₀(A)y, ..., ρ_{m-1}(A)y]
— exactly the paper's formulation.

Three classical choices (see Carson–Knight–Demmel [14]):

* :class:`MonomialBasis` — ρ_j(z) = z^j.  Simplest; condition number grows
  exponentially with s (fine for the small s we test).
* :class:`NewtonBasis` — ρ_{j+1}(z) = (z − θ_j)·ρ_j(z) with user shifts
  (e.g. Leja-ordered Ritz values).
* :class:`ChebyshevBasis` — scaled three-term Chebyshev recurrence on a
  spectral interval [λmin, λmax]; the best-conditioned practical choice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util import check_positive_int, require

__all__ = [
    "PolynomialBasis",
    "MonomialBasis",
    "NewtonBasis",
    "ChebyshevBasis",
]


class PolynomialBasis:
    """Abstract basis defined by a three-term recurrence

    ``ρ_{j+1}(z) = (z − a_j)/g_j · ρ_j(z) − c_j/g_j · ρ_{j-1}(z)``

    with ρ₀ = 1.  Subclasses supply coefficient sequences a, g, c.
    """

    def coeffs(self, j: int) -> tuple:
        """Return (a_j, g_j, c_j)."""
        raise NotImplementedError

    def vectors(self, A, y: np.ndarray, m: int) -> np.ndarray:
        """K = [ρ₀(A)y, ..., ρ_m(A)y], shape (n, m+1)."""
        check_positive_int(m + 1, "m+1")
        y = np.asarray(y, dtype=float)
        n = len(y)
        K = np.empty((n, m + 1))
        K[:, 0] = y
        for j in range(m):
            a, g, c = self.coeffs(j)
            require(g != 0, "basis scale g_j must be nonzero")
            v = (A @ K[:, j] - a * K[:, j]) / g
            if j >= 1 and c != 0:
                v = v - (c / g) * K[:, j - 1]
            K[:, j + 1] = v
        return K

    def hessenberg(self, m: int) -> np.ndarray:
        """The (m+1)×m matrix H with A·K_m = K_{m+1}·H.

        Column j (0-based) expresses A·ρ_j(A)y = g_j·ρ_{j+1} + a_j·ρ_j +
        c_j·ρ_{j-1}.
        """
        check_positive_int(m, "m")
        H = np.zeros((m + 1, m))
        for j in range(m):
            a, g, c = self.coeffs(j)
            H[j + 1, j] = g
            H[j, j] = a
            if j >= 1:
                H[j - 1, j] = c
        return H


class MonomialBasis(PolynomialBasis):
    """ρ_j(z) = z^j: a_j = 0, g_j = 1, c_j = 0."""

    def coeffs(self, j: int) -> tuple:
        return (0.0, 1.0, 0.0)


class NewtonBasis(PolynomialBasis):
    """ρ_{j+1}(z) = (z − θ_j) ρ_j(z) for a shift sequence θ."""

    def __init__(self, shifts: Sequence[float]):
        require(len(shifts) >= 1, "need at least one shift")
        self.shifts = list(shifts)

    def coeffs(self, j: int) -> tuple:
        theta = self.shifts[j % len(self.shifts)]
        return (theta, 1.0, 0.0)


class ChebyshevBasis(PolynomialBasis):
    """Scaled Chebyshev basis on [lo, hi] (spectral bounds of A).

    With center θ=(hi+lo)/2 and half-width δ=(hi−lo)/2, the shifted
    Chebyshev recurrence gives a_j = θ, g_j = δ/σ_j, c_j matching the
    standard three-term form (σ₁ = 1, σ_j = 2 thereafter in the simplest
    scaling, which we use).
    """

    def __init__(self, lo: float, hi: float):
        require(hi > lo, f"need hi > lo, got [{lo}, {hi}]")
        self.theta = (hi + lo) / 2
        self.delta = (hi - lo) / 2
        require(self.delta > 0, "interval must have positive width")

    def coeffs(self, j: int) -> tuple:
        if j == 0:
            return (self.theta, self.delta, 0.0)
        return (self.theta, self.delta / 2, self.delta / 2)
