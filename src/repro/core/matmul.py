"""Classical matrix multiplication: blocked (Algorithm 1), all loop orders,
and the naive unblocked comparator.

The headline fact from Section 4.1: the explicitly blocked classical matmul
is communication-avoiding for *every* permutation of the block loops
``(i, j, k)``, but it is **write-avoiding only when the reduction loop k is
innermost** — then each C block is loaded once, updated ``n/b`` times in
fast memory, and stored once, so writes to slow memory equal the output size
``m·l``.  Any other order evicts a dirty C block every inner iteration,
inflating slow-memory writes to ``Θ(mnl/b)``.

All kernels compute real results with numpy block operations and charge
traffic to an optional :class:`~repro.machine.hierarchy.MemoryHierarchy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.blockio import BlockSlot
from repro.machine.hierarchy import MemoryHierarchy, TwoLevel
from repro.names import LOOP_ORDERS
from repro.util import check_multiple, check_positive_int, require

__all__ = [
    "LOOP_ORDERS",
    "blocked_matmul",
    "naive_matmul",
    "wa_block_size",
    "matmul_expected_counts",
    "MatmulCounts",
]


def wa_block_size(M: float) -> int:
    """The paper's block size ``b = sqrt(M/3)`` (three b×b blocks fit)."""
    require(M >= 3, f"fast memory must hold at least 3 words, got {M}")
    return int(math.isqrt(int(M // 3)))


@dataclass
class MatmulCounts:
    """Closed-form traffic predictions for Algorithm 1 (k innermost)."""

    loads: int
    stores: int
    writes_to_fast: int
    writes_to_slow: int

    @property
    def total(self) -> int:
        return self.loads + self.stores


def matmul_expected_counts(m: int, n: int, l: int, b: int) -> MatmulCounts:
    """Predicted traffic of Algorithm 1 on C(m×l) += A(m×n)·B(n×l).

    From the in-line annotations of Algorithm 1:

    * loads  = ml (C blocks) + 2·mnl/b (A and B blocks)
    * stores = ml (each C block stored once)
    * writes to fast = loads; writes to slow = stores.
    """
    check_multiple(m, b, "m")
    check_multiple(n, b, "n")
    check_multiple(l, b, "l")
    loads = m * l + 2 * m * n * l // b
    stores = m * l
    return MatmulCounts(
        loads=loads,
        stores=stores,
        writes_to_fast=loads,
        writes_to_slow=stores,
    )


def blocked_matmul(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    *,
    b: Optional[int] = None,
    hier: Optional[MemoryHierarchy] = None,
    loop_order: str = "ijk",
    level: int = 1,
) -> np.ndarray:
    """Two-level explicitly blocked classical matmul (paper Algorithm 1).

    Computes ``C += A @ B`` with b×b blocks.  Traffic between fast and slow
    memory is charged to *hier* (if given) using the one-slot-per-operand
    residency model; capacity for three blocks is reserved while running.

    Parameters
    ----------
    A, B:
        Input matrices, shapes (m, n) and (n, l), dimensions multiples of b.
    C:
        Output, shape (m, l); allocated (zeros) if omitted.
    b:
        Block size; defaults to ``wa_block_size(hier.sizes[level-1])`` when
        *hier* is given (and is then validated to fit), else required.
    loop_order:
        Permutation of "ijk", outer loop first.  ``k`` innermost ⇒ WA.
    level:
        Which hierarchy level acts as fast memory (1 = L1).

    Returns
    -------
    C, with the product accumulated.
    """
    require(loop_order in LOOP_ORDERS, f"loop_order must be one of {LOOP_ORDERS}")
    A = np.asarray(A)
    B = np.asarray(B)
    m, n = A.shape
    n2, l = B.shape
    require(n == n2, f"inner dimensions disagree: A is {A.shape}, B is {B.shape}")
    if C is None:
        C = np.zeros((m, l), dtype=np.result_type(A, B))
    else:
        require(C.shape == (m, l), f"C has shape {C.shape}, expected {(m, l)}")
    if b is None:
        require(hier is not None, "either b or hier must be provided")
        b = wa_block_size(hier.sizes[level - 1])
        # Shrink to a divisor-friendly size if needed.
        while b > 1 and (m % b or n % b or l % b):
            b -= 1
    check_positive_int(b, "b")
    check_multiple(m, b, "m")
    check_multiple(n, b, "n")
    check_multiple(l, b, "l")
    if hier is not None:
        require(
            3 * b * b <= hier.sizes[level - 1],
            f"three {b}x{b} blocks ({3 * b * b} words) exceed fast memory "
            f"L{level} ({hier.sizes[level - 1]} words)",
        )
        hier.alloc(level, 3 * b * b)

    slot_a = BlockSlot(hier, level)
    slot_b = BlockSlot(hier, level)
    slot_c = BlockSlot(hier, level, dirty_on_load=True)
    bb = b * b

    ranges = {"i": range(m // b), "j": range(l // b), "k": range(n // b)}
    lo, mid, hi = loop_order  # outer, middle, inner loop variables

    try:
        for x in ranges[lo]:
            for y in ranges[mid]:
                for z in ranges[hi]:
                    idx = {lo: x, mid: y, hi: z}
                    i, j, k = idx["i"], idx["j"], idx["k"]
                    slot_c.ensure(("C", i, j), bb)
                    slot_a.ensure(("A", i, k), bb)
                    slot_b.ensure(("B", k, j), bb)
                    C[i * b : (i + 1) * b, j * b : (j + 1) * b] += (
                        A[i * b : (i + 1) * b, k * b : (k + 1) * b]
                        @ B[k * b : (k + 1) * b, j * b : (j + 1) * b]
                    )
        slot_c.flush()
    finally:
        if hier is not None:
            hier.free(level, 3 * bb)
    return C


def naive_matmul(
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    *,
    hier: Optional[TwoLevel] = None,
) -> np.ndarray:
    """Unblocked three-nested-loop matmul (dot-product innermost).

    The paper notes (Section 1) this ordering also minimizes writes to slow
    memory (each C entry is written once) but **maximizes reads** — it is
    write-minimal without being communication-avoiding, so it is not WA.
    Traffic model: each inner product streams a row of A and a column of B
    through fast memory (no blocking ⇒ no reuse across iterations when
    n ≫ M), and each C element is created in fast memory and stored once.
    """
    A = np.asarray(A)
    B = np.asarray(B)
    m, n = A.shape
    n2, l = B.shape
    require(n == n2, f"inner dimensions disagree: A is {A.shape}, B is {B.shape}")
    if C is None:
        C = np.zeros((m, l), dtype=np.result_type(A, B))
    else:
        require(C.shape == (m, l), f"C has shape {C.shape}, expected {(m, l)}")
    # Numerics: one shot (row-by-row loop would be identical arithmetic).
    C += A @ B
    if hier is not None:
        # m*l inner products, each loading a length-n row and column.
        hier.load_fast(2 * n * m * l, msgs=2 * m * l)
        hier.create_fast(m * l)
        hier.store_slow(m * l, msgs=m * l)
    return C
