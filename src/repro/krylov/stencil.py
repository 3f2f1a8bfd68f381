"""Stencil operators on d-dimensional Cartesian meshes.

The paper's Section-8 result quantifies the write reduction for
"(2b+1)^d-point stencils on a sufficiently large d-dimensional Cartesian
mesh" with s = Θ(M₁^{1/d}/b).  We build exactly that operator family as
scipy sparse matrices: every mesh point couples to all neighbours within
Chebyshev (ℓ∞) distance *b*.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.util import check_positive_int, require

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["stencil_matrix", "spd_stencil_system", "stencil_bandwidth"]


def stencil_matrix(
    mesh: int, d: int = 1, b: int = 1, *, periodic: bool = False
) -> sp.csr_matrix:
    """(2b+1)^d-point stencil adjacency on a *mesh*^d grid.

    Entry (i, j) = 1 when mesh points i ≠ j are within ℓ∞ distance *b*;
    rows are the flattened mesh in row-major order.  ``periodic`` wraps
    the mesh into a torus (keeps row counts uniform).
    """
    import scipy.sparse as sp

    check_positive_int(mesh, "mesh")
    check_positive_int(d, "d")
    check_positive_int(b, "b")
    require(mesh > b, f"mesh ({mesh}) must exceed stencil radius b ({b})")
    n = mesh**d
    offsets = [
        off for off in itertools.product(range(-b, b + 1), repeat=d)
        if any(o != 0 for o in off)
    ]
    coords = np.indices((mesh,) * d).reshape(d, n)  # (d, n)
    rows_acc = []
    cols_acc = []
    for off in offsets:
        shifted = coords + np.array(off)[:, None]
        if periodic:
            shifted %= mesh
            valid = np.ones(n, dtype=bool)
        else:
            valid = np.all((shifted >= 0) & (shifted < mesh), axis=0)
        flat = np.zeros(n, dtype=np.int64)
        for axis in range(d):
            flat = flat * mesh + shifted[axis]
        rows_acc.append(np.arange(n)[valid])
        cols_acc.append(flat[valid])
    rows = np.concatenate(rows_acc)
    cols = np.concatenate(cols_acc)
    data = np.ones(len(rows))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def stencil_bandwidth(mesh: int, d: int, b: int) -> int:
    """Bandwidth of the flattened stencil matrix (ghost-zone width per
    matrix-powers level): b·(mesh^{d-1} + ... + 1) ≈ b·mesh^{d-1}."""
    return b * sum(mesh**k for k in range(d))


def spd_stencil_system(
    mesh: int, d: int = 1, b: int = 1, *, seed: int = 0,
    periodic: bool = False,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """A well-conditioned SPD stencil system (A, rhs) for CG tests.

    A = (degmax + 1)·I − stencil: symmetric, strictly diagonally dominant,
    hence SPD; rhs is a fixed random vector.
    """
    import scipy.sparse as sp

    S = stencil_matrix(mesh, d, b, periodic=periodic)
    n = S.shape[0]
    degmax = int(S.sum(axis=1).max())
    A = sp.identity(n, format="csr") * float(degmax + 1) - S
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(n)
    return A.tocsr(), rhs
