"""Cache-oblivious recursive matmul (Frigo–Leiserson–Prokop–Ramachandran).

The CO algorithm splits the largest of the three dimensions in half and
recurses; it is CA for every cache level simultaneously *without knowing M*
— and, by the paper's Theorem 3 / Corollary 4, therefore **cannot** be
write-avoiding: it performs Ω(|S|/√M) = Ω(mnl/√M) writes to slow memory.

Provided here:

* :func:`co_matmul` — numeric recursive CO matmul (base case ``base``),
  optionally charging traffic to a two-level hierarchy with the standard
  CO accounting (a subproblem that fits in fast memory is loaded once,
  computed, and its C output stored once — the ideal-cache execution).
* :func:`ideal_cache_misses` — the closed-form ideal-cache miss count from
  Figure 2a's caption (the black "Misses on Ideal Cache" line).

The same recursion's task order, which the Figure-2a traces replay, is
:func:`repro.core.traces.hierarchical_task_order` with one
``("co", base)`` level.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.machine.hierarchy import TwoLevel
from repro.util import ceil_div, require

__all__ = ["co_matmul", "ideal_cache_misses"]


def co_matmul(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    *,
    base: int = 16,
    hier: Optional[TwoLevel] = None,
) -> np.ndarray:
    """Recursive cache-oblivious ``C += A @ B``.

    Splits the largest dimension in half until all dimensions are ≤ *base*,
    then multiplies with numpy.  If *hier* is given, traffic is charged with
    ideal two-level accounting: the recursion level at which a subproblem
    first fits in fast memory loads its inputs and stores its C block.

    Note the non-WA behaviour this implies: a C block is stored once per
    *fitting subproblem*, and the same C block belongs to ``n/n_fit`` of
    them along the reduction dimension — Θ(mnl/√M) stores in total.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    m, n = A.shape
    n2, l = B.shape
    require(n == n2, f"inner dimensions disagree: A {A.shape}, B {B.shape}")
    require(base >= 1, f"base must be >= 1, got {base}")
    if C is None:
        C = np.zeros((m, l), dtype=np.result_type(A, B))
    else:
        require(C.shape == (m, l), f"C has shape {C.shape}, expected {(m, l)}")

    M = hier.M if hier is not None else None

    def fits(mi: int, ni: int, li: int) -> bool:
        return M is not None and (mi * ni + ni * li + mi * li) <= M

    def rec(i0, i1, j0, j1, k0, k1, counted: bool) -> None:
        mi, li, ni = i1 - i0, j1 - j0, k1 - k0
        if hier is not None and not counted and fits(mi, ni, li):
            # First level at which the whole subproblem fits: one load of
            # the operands, one store of the C block (ideal execution).
            hier.load_fast(mi * ni + ni * li + mi * li, msgs=3)
            hier.store_slow(mi * li, msgs=1)
            counted = True
        if mi <= base and li <= base and ni <= base:
            C[i0:i1, j0:j1] += A[i0:i1, k0:k1] @ B[k0:k1, j0:j1]
            return
        big = max(mi, ni, li)
        if big == mi:
            h = mi // 2
            rec(i0, i0 + h, j0, j1, k0, k1, counted)
            rec(i0 + h, i1, j0, j1, k0, k1, counted)
        elif big == ni:
            h = ni // 2
            rec(i0, i1, j0, j1, k0, k0 + h, counted)
            rec(i0, i1, j0, j1, k0 + h, k1, counted)
        else:
            h = li // 2
            rec(i0, i1, j0, j0 + h, k0, k1, counted)
            rec(i0, i1, j0 + h, j1, k0, k1, counted)

    rec(0, m, 0, l, 0, n, False)
    return C


def ideal_cache_misses(
    m: int, n: int, l: int, M: int, L: int, *, word_bytes: int = 8
) -> float:
    """Ideal-cache miss count for CO matmul, from Figure 2a's caption.

    ``(mn·ceil(l/s) + ln·ceil(m/s) + lm·ceil(n/s)) · word_bytes / line``,
    with ``s = sqrt(M/(3·word_bytes))`` the square-subproblem edge that
    fits in a cache of *M* bytes, and *L* the line size in bytes.

    All of m, n, l are in elements; M and L in **bytes**, matching the
    paper's expression (which carries sz(double) factors).
    """
    require(M > 0 and L > 0, "M and L must be positive")
    s = math.sqrt(M / (3 * word_bytes))
    require(s >= 1, f"cache too small: M={M} bytes")
    return (
        (m * n * ceil_div(l, int(s)) + l * n * ceil_div(m, int(s))
         + l * m * ceil_div(n, int(s)))
        * word_bytes
        / L
    )
