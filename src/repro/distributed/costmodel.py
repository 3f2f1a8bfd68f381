"""Analytic communication cost models (paper Section 7, Tables 1 and 2).

Hardware is described by :class:`HwParams` — per-channel latency α and
reciprocal bandwidth β, matching the paper's vocabulary:

========  ======================================================
symbol    channel
========  ======================================================
``nw``    interprocessor network (attached to L2)
``23``    L2 → L3 (NVM **write** — the expensive direction)
``32``    L3 → L2 (NVM read)
``12``    L1 → L2 (store toward DRAM)
``21``    L2 → L1 (load toward cache)
========  ======================================================

Every entry of the paper's Table 1 and Table 2 is reproduced by
:func:`table1_rows` / :func:`table2_rows` — the same (data movement,
hardware parameter, common factor, per-algorithm cost) rows, numerically
evaluated — and per-algorithm totals are produced by the ``cost_*``
functions.  Dominant-β-cost comparators implement the paper's closed-form
ratio tests for choosing between algorithms.

Each public function checks its machine and sizes (``n, P >= 1`` and
the algorithm's replication range; a violation raises ``ValueError``)
and then calls its formula body.  A body is written once and runs
unchanged on python ints/floats and on float64 numpy columns:
:mod:`repro.lab.modelkernels` evaluates whole cost grids through the
same text.  Square roots go through :func:`_sqrt` and the
transcendentals through :func:`_each`, which applies the exact scalar
function per unique column value.  The two paths give identical doubles
because ``+ - * /`` and ``sqrt`` are correctly rounded and, inside the
batch domain (``n, c <= 2**16``, ``P <= 2**32``), every integer
subexpression (``n**3``, ``4*n**2*c3``, ``P*c2``, ...) stays below 2**53,
where float64 is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

from repro.util import require

__all__ = [
    "HwParams",
    "Term",
    "TABLE1_ROW_COUNT",
    "TABLE2_ROW_COUNT",
    "hw_param_key",
    "cost_2dmml2",
    "cost_25dmml2",
    "cost_25dmml3",
    "cost_25dmml3_ool2",
    "cost_summal3_ool2",
    "dom_beta_cost_model21",
    "dom_beta_cost_model22",
    "ll_lunp_beta_cost",
    "rl_lunp_beta_cost",
    "table1_rows",
    "table2_rows",
    "replication_break_even",
]


@dataclass
class HwParams:
    """α/β per channel (seconds per message / per word) and level sizes.

    Defaults sketch a 2015-era node with slow NVM writes: network ≈ DRAM
    bandwidth, NVM reads ~4× slower, NVM writes ~20× slower than network.
    """

    beta_nw: float = 1.0
    alpha_nw: float = 1e3
    beta_23: float = 20.0     # NVM write: the expensive direction
    alpha_23: float = 1e3
    beta_32: float = 4.0      # NVM read
    alpha_32: float = 1e3
    beta_12: float = 0.1
    alpha_12: float = 10.0
    beta_21: float = 0.1
    alpha_21: float = 10.0
    M1: float = 2**15
    M2: float = 2**24
    M3: float = 2**30

    def validate(self) -> None:
        for name in ("beta_nw", "beta_23", "beta_32", "beta_12", "beta_21",
                     "alpha_nw", "alpha_23", "alpha_32", "alpha_12",
                     "alpha_21", "M1", "M2", "M3"):
            value = getattr(self, name)
            require(value > 0, f"{name} must be positive")
            require(math.isfinite(value), f"{name} must be finite")
        require(self.M1 < self.M2 < self.M3,
                "level sizes must satisfy M1 < M2 < M3")


@dataclass
class Term:
    """One cost term: words (or messages) times a hardware parameter."""

    channel: str      # e.g. "L2->L1", "Interprocessor", "L2->L3"
    param: str        # e.g. "beta_nw", "alpha_32"
    count: float      # number of words / messages

    def seconds(self, hw: HwParams) -> float:
        return self.count * getattr(hw, hw_param_key(self.param))


def hw_param_key(param: str) -> str:
    """Map table labels like 'βNW' or 'beta_nw' to HwParams attributes."""
    table = {
        "βNW": "beta_nw", "αNW": "alpha_nw",
        "β23": "beta_23", "α23": "alpha_23",
        "β32": "beta_32", "α32": "alpha_32",
        "β12": "beta_12", "α12": "alpha_12",
        "β21": "beta_21", "α21": "alpha_21",
    }
    return table.get(param, param)


def _total(terms: List[Term], hw: HwParams) -> float:
    return sum(t.seconds(hw) for t in terms)


# ===================================================================== #
# Scalar-or-column helpers and the shared checks
# ===================================================================== #
# The formula bodies below (``_cost_*``, ``_dom_*``, ``_*_lunp``) run
# on python ints/floats and on float64 numpy columns alike; only square
# roots, the transcendentals and the dominance verdicts need a helper.
def _sqrt(x):
    """``math.sqrt`` on a scalar, ``np.sqrt`` on a float64 column."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _each(fn: Callable[[Any], float], x):
    """``fn(x)`` on a scalar; on a float64 column, *fn* mapped over the
    column's unique values.  For the operations that are not correctly
    rounded (``log2``, ``**`` on floats) this is the exact scalar result
    per point at per-axis cost."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    vals, inv = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in vals.tolist()], dtype=np.float64)[inv]


def _pick(cond, a, b):
    """``a if cond else b``, per point on a boolean column."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _replication_cap(P) -> float:
    """The largest replication factor P processors admit, P^(1/3)
    (plus slack for the rounding of the cube root)."""
    return P ** (1 / 3) + 1e-9


def _check(hw: HwParams, n: int, P: int) -> None:
    hw.validate()
    require(n >= 1, f"n must be >= 1, got {n}")
    require(P >= 1, f"P must be >= 1, got {P}")


# ===================================================================== #
# Model 2.1 (Table 1): data fits in L2
# ===================================================================== #
def cost_2dmml2(n: int, P: int, hw: HwParams) -> Dict:
    """2D matmul (c=1, L2 only): formulas (8) + (10) with c2 = 1."""
    _check(hw, n, P)
    return _cost_2dmml2(n, P, hw)


def _cost_2dmml2(n, P, hw: HwParams) -> Dict:
    s = _sqrt(P)
    terms = [
        Term("L2->L1", "alpha_21", (n**3 / P) / hw.M1**1.5),
        Term("L2->L1", "beta_21", (n**3 / P) / math.sqrt(hw.M1)),
        Term("L1->L2", "alpha_12", (n**2 / s) / hw.M1),
        Term("L1->L2", "beta_12", n**2 / s),
        Term("Interprocessor", "alpha_nw", 2 * s),
        Term("Interprocessor", "beta_nw", 2 * n**2 / s),
    ]
    return {"name": "2DMML2", "terms": terms, "total": _total(terms, hw)}


def cost_25dmml2(n: int, P: int, c2: int, hw: HwParams) -> Dict:
    """2.5DMML2: formulas (4)·2 + (6) + (8) + (10)."""
    _check(hw, n, P)
    require(1 <= c2 <= _replication_cap(P), f"c2={c2} out of range")
    return _cost_25dmml2(n, P, c2, hw)


def _cost_25dmml2(n, P, c2, hw: HwParams) -> Dict:
    lg = _each(lambda c: math.log2(c) if c > 1 else 0.0, c2)
    terms = [
        # (4) twice: gathers of A and B into the 2.5D layout.
        Term("Interprocessor", "alpha_nw", 2 * c2),
        Term("Interprocessor", "beta_nw", 2 * 2 * n**2 * c2 / P),
        # (6): replication broadcast.
        Term("Interprocessor", "alpha_nw", 2 * lg),
        Term("Interprocessor", "beta_nw", 2 * lg * 2 * n**2 * c2 / P),
        # (8): Cannon steps on each layer.
        Term("Interprocessor", "alpha_nw", 2 * _sqrt(P / c2**3)),
        Term("Interprocessor", "beta_nw", 2 * n**2 / _sqrt(P * c2)),
        # (10): local (vertical) traffic.
        Term("L2->L1", "alpha_21", (n**3 / P) / hw.M1**1.5),
        Term("L2->L1", "beta_21", (n**3 / P) / math.sqrt(hw.M1)),
        Term("L1->L2", "alpha_12", (n**2 / _sqrt(P * c2)) / hw.M1),
        Term("L1->L2", "beta_12", n**2 / _sqrt(P * c2)),
    ]
    return {"name": "2.5DMML2", "terms": terms, "total": _total(terms, hw)}


def cost_25dmml3(n: int, P: int, c2: int, c3: int, hw: HwParams) -> Dict:
    """2.5DMML3 (Model 2.1 with NVM): formulas (5)·2 + (7) + (9) + (11)."""
    _check(hw, n, P)
    require(c3 > c2 >= 1, f"need c3 > c2 >= 1, got c2={c2}, c3={c3}")
    require(c3 <= _replication_cap(P), f"c3={c3} exceeds P^(1/3)")
    return _cost_25dmml3(n, P, c2, c3, hw)


def _cost_25dmml3(n, P, c2, c3, hw: HwParams) -> Dict:
    lg3 = _each(lambda c: math.log2(c) if c > 1 else 0.0, c3)
    terms = [
        # (5) twice: gathers, staged via NVM.
        Term("Interprocessor", "alpha_nw", 2 * c3),
        Term("L2->L3", "alpha_23", 2 * c3),
        Term("Interprocessor", "beta_nw", 2 * 2 * n**2 * c3 / P),
        Term("L2->L3", "beta_23", 2 * 2 * n**2 * c3 / P),
        # (7): replication broadcast in c3/c2 chunks.
        Term("L3->L2", "alpha_32", 2 * (c3 / c2) * lg3),
        Term("Interprocessor", "alpha_nw", 2 * (c3 / c2) * lg3),
        Term("L2->L3", "alpha_23", 2 * (c3 / c2) * lg3),
        Term("L3->L2", "beta_32", 2 * lg3 * 2 * n**2 * c3 / P),
        Term("Interprocessor", "beta_nw", 2 * lg3 * 2 * n**2 * c3 / P),
        Term("L2->L3", "beta_23", 2 * lg3 * 2 * n**2 * c3 / P),
        # (9): Cannon steps, NVM-staged.
        Term("L3->L2", "alpha_32", 2 * _sqrt(P / (c3 * c2**2))),
        Term("Interprocessor", "alpha_nw", 2 * _sqrt(P / (c3 * c2**2))),
        Term("L2->L3", "alpha_23", 2 * _sqrt(P / (c3 * c2**2))),
        Term("L3->L2", "beta_32", 2 * n**2 / _sqrt(P * c3)),
        Term("Interprocessor", "beta_nw", 2 * n**2 / _sqrt(P * c3)),
        Term("L2->L3", "beta_23", 2 * n**2 / _sqrt(P * c3)),
        # (11): local traffic including the L3 round trips.
        Term("L2->L1", "alpha_21", (n**3 / P) / hw.M1**1.5),
        Term("L2->L1", "beta_21", (n**3 / P) / math.sqrt(hw.M1)),
        Term("L1->L2", "alpha_12", (n**3 / P) / (math.sqrt(hw.M2) * hw.M1)),
        Term("L1->L2", "beta_12", (n**3 / P) / math.sqrt(hw.M2)),
        Term("L3->L2", "alpha_32", (n**3 / P) / hw.M2**1.5),
        Term("L3->L2", "beta_32", (n**3 / P) / math.sqrt(hw.M2)),
        Term("L2->L3", "alpha_23", (n**2 / _sqrt(P * c3)) / hw.M2),
        Term("L2->L3", "beta_23", n**2 / _sqrt(P * c3)),
    ]
    return {"name": "2.5DMML3", "terms": terms, "total": _total(terms, hw)}


def dom_beta_cost_model21(n: int, P: int, c2: int, c3: int,
                          hw: HwParams) -> Dict:
    """The paper's closed-form Model-2.1 comparison (Section 7 preamble):

    dom(2.5DMML2)  = 2n²/√(P·c2) · βNW
    dom(2.5DMML3)  = 2n²/√(P·c3) · (βNW + 1.5·β23 + β32)

    Returns both, their ratio, and which is predicted faster.
    """
    _check(hw, n, P)
    require(c2 >= 1, f"c2 must be >= 1, got {c2}")
    require(c3 >= 1, f"c3 must be >= 1, got {c3}")
    return _dom_model21(n, P, c2, c3, hw)


def _dom_model21(n, P, c2, c3, hw: HwParams) -> Dict:
    d2 = 2 * n**2 / _sqrt(P * c2) * hw.beta_nw
    d3 = (2 * n**2 / _sqrt(P * c3)
          * (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32))
    ratio = d2 / d3
    return {
        "dom_2.5DMML2": d2,
        "dom_2.5DMML3": d3,
        "ratio": ratio,
        "winner": _pick(ratio > 1, "2.5DMML3", "2.5DMML2"),
    }


def replication_break_even(hw: HwParams, c2: int) -> float:
    """Smallest c3/c2 for which 2.5DMML3 beats 2.5DMML2 (Model 2.1).

    From ratio = √(c3/c2)·βNW/(βNW + 1.5β23 + β32) > 1.
    """
    hw.validate()
    factor = (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32) / hw.beta_nw
    return factor**2


# ===================================================================== #
# Model 2.2 (Table 2): data does not fit in L2
# ===================================================================== #
def cost_25dmml3_ool2(n: int, P: int, c3: int, hw: HwParams) -> Dict:
    """2.5DMML3ooL2: formulas (12) + (13)·2 + (14) + (15)."""
    _check(hw, n, P)
    require(1 <= c3 <= _replication_cap(P), f"c3={c3} out of range")
    return _cost_25dmml3_ool2(n, P, c3, hw)


def _cost_25dmml3_ool2(n, P, c3, hw: HwParams) -> Dict:
    lg3 = _each(lambda c: math.log2(c) if c > 1 else 0.0, c3)
    M2 = hw.M2

    def staged(words: float) -> List[Term]:
        """words moved through L3→L2, network, L2→L3 in M2-chunks."""
        return [
            Term("L3->L2", "beta_32", words),
            Term("Interprocessor", "beta_nw", words),
            Term("L2->L3", "beta_23", words),
            Term("L3->L2", "alpha_32", words / M2),
            Term("Interprocessor", "alpha_nw", words / M2),
            Term("L2->L3", "alpha_23", words / M2),
        ]

    terms: List[Term] = []
    terms += staged(2 * n**2 * c3 / P)                      # (12) gather
    terms += staged(2 * 2 * n**2 * c3 * lg3 / P)            # (13) x2 bcast+reduce
    terms += staged(2 * n**2 / _sqrt(P * c3))               # (14) horizontal
    terms += [                                              # (15) vertical
        Term("L2->L1", "alpha_21", (n**3 / P) / hw.M1**1.5),
        Term("L2->L1", "beta_21", (n**3 / P) / math.sqrt(hw.M1)),
        Term("L1->L2", "alpha_12", (n**3 / P) / (math.sqrt(M2) * hw.M1)),
        Term("L1->L2", "beta_12", (n**3 / P) / math.sqrt(M2)),
        Term("L3->L2", "alpha_32", (n**3 / P) / M2**1.5),
        Term("L3->L2", "beta_32", (n**3 / P) / math.sqrt(M2)),
        Term("L2->L3", "alpha_23", (n**2 / _sqrt(P * c3)) / M2),
        Term("L2->L3", "beta_23", n**2 / _sqrt(P * c3)),
    ]
    return {"name": "2.5DMML3ooL2", "terms": terms,
            "total": _total(terms, hw)}


def cost_summal3_ool2(n: int, P: int, hw: HwParams) -> Dict:
    """SUMMAL3ooL2: formula (17)."""
    _check(hw, n, P)
    return _cost_summal3_ool2(n, P, hw)


def _cost_summal3_ool2(n, P, hw: HwParams) -> Dict:
    M2 = hw.M2
    f = n**3 / P * 3**1.5 / math.sqrt(M2)
    terms = [
        Term("L3->L2", "beta_32", f),
        Term("Interprocessor", "beta_nw", f),
        Term("L3->L2", "alpha_32", f / M2),
        Term("Interprocessor", "alpha_nw", f * _each(math.log2, P) / M2),
        Term("L2->L1", "beta_21", (n**3 / P) / math.sqrt(hw.M1)),
        Term("L2->L1", "alpha_21", (n**3 / P) / hw.M1**1.5),
        Term("L1->L2", "beta_12", (n**3 / P) / math.sqrt(M2 / 3)),
        Term("L1->L2", "alpha_12", (n**3 / P) / (math.sqrt(M2 / 3) * hw.M1)),
        Term("L2->L3", "beta_23", n**2 / P),
        Term("L2->L3", "alpha_23", (n**2 / P) / M2),
    ]
    return {"name": "SUMMAL3ooL2", "terms": terms, "total": _total(terms, hw)}


def dom_beta_cost_model22(n: int, P: int, c3: int, hw: HwParams) -> Dict:
    """The paper's equations (2) and (3): dominant β-costs in Model 2.2."""
    _check(hw, n, P)
    require(c3 >= 1, f"c3 must be >= 1, got {c3}")
    return _dom_model22(n, P, c3, hw)


def _dom_model22(n, P, c3, hw: HwParams) -> Dict:
    M2 = hw.M2
    d25 = (hw.beta_nw * n**2 / _sqrt(P * c3)
           + hw.beta_23 * n**2 / _sqrt(P * c3)
           + hw.beta_32 * n**3 / (P * math.sqrt(M2)))
    dsu = (hw.beta_nw * n**3 / (P * math.sqrt(M2))
           + hw.beta_23 * n**2 / P
           + hw.beta_32 * n**3 / (P * math.sqrt(M2)))
    return {
        "dom_2.5DMML3ooL2": d25,
        "dom_SUMMAL3ooL2": dsu,
        "ratio": d25 / dsu,
        "winner": _pick(d25 > dsu, "SUMMAL3ooL2", "2.5DMML3ooL2"),
    }


# ===================================================================== #
# LU (Section 7.2)
# ===================================================================== #
def ll_lunp_beta_cost(n: int, P: int, hw: HwParams) -> Dict:
    """LL-LUNP dominant β-costs (paper's domβcost formula, from (23)/(24))."""
    _check(hw, n, P)
    return _ll_lunp(n, P, hw)


def _ll_lunp(n, P, hw: HwParams) -> Dict:
    lg2 = _each(lambda p: math.log2(p) ** 2 if p > 1 else 1.0, P)
    nw = n**3 / (P * math.sqrt(hw.M2)) * lg2
    return {
        "name": "LL-LUNP",
        "beta_nw_words": nw,
        "beta_23_words": 2 * n**2 / P,
        "beta_32_words": nw,
        "total": (hw.beta_nw * nw + hw.beta_23 * 2 * n**2 / P
                  + hw.beta_32 * nw),
    }


def rl_lunp_beta_cost(n: int, P: int, hw: HwParams) -> Dict:
    """RL-LUNP dominant β-costs (from (25)/(26))."""
    _check(hw, n, P)
    return _rl_lunp(n, P, hw)


def _rl_lunp(n, P, hw: HwParams) -> Dict:
    lg = _each(lambda p: math.log2(p) if p > 1 else 1.0, P)
    lg_sq = _each(lambda v: v**2, lg)  # python's pow; numpy would multiply
    return {
        "name": "RL-LUNP",
        "beta_nw_words": n**2 / _sqrt(P) * lg,
        "beta_23_words": n**2 / _sqrt(P) * lg_sq,
        "beta_32_words": n**3 / (P * math.sqrt(hw.M2)),
        "total": (hw.beta_nw * n**2 / _sqrt(P) * lg
                  + hw.beta_23 * n**2 / _sqrt(P) * lg_sq
                  + hw.beta_32 * n**3 / (P * math.sqrt(hw.M2))),
    }


# ===================================================================== #
# Tables 1 and 2, row for row
# ===================================================================== #
#: The tables' row counts are structural (fixed literal row lists below,
#: independent of n/P/c/hw) — consumers sizing a per-cell grid can use
#: these instead of evaluating a whole table to measure it.
TABLE1_ROW_COUNT = 15
TABLE2_ROW_COUNT = 10



def table1_rows(n: int, P: int, c2: int, c3: int, hw: HwParams) -> List[Dict]:
    """Numerically evaluated rows of the paper's Table 1.

    Each row: data movement, hardware parameter, common factor, and the
    per-algorithm *cost coefficients* (multiplied out to word/message
    counts) for 2DMML2, 2.5DMML2 and 2.5DMML3 — ``None`` where the paper
    prints "NA".
    """
    _check(hw, n, P)
    require(c3 > c2 >= 1, "need c3 > c2 >= 1")
    sp = math.sqrt(P)
    lgc2 = math.log2(c2) if c2 > 1 else 0.0
    lgc3 = math.log2(c3) if c3 > 1 else 0.0

    def row(move, param, common, a, b, c):
        return {
            "movement": move, "param": param, "common": common,
            "2DMML2": None if a is None else a * common,
            "2.5DMML2": None if b is None else b * common,
            "2.5DMML3": None if c is None else c * common,
        }

    n3P = n**3 / P
    n2sp = n**2 / sp
    rows = [
        row("L2->L1", "α21/M1^(3/2)", n3P / hw.M1**1.5, 1, 1, 1),
        row("L2->L1", "β21/M1^(1/2)", n3P / math.sqrt(hw.M1), 1, 1, 1),
        row("L1->L2", "α12/M1", n2sp / hw.M1,
            1, 1 / math.sqrt(c2), None),
        row("L1->L2", "β12", n2sp, 1, 1 / math.sqrt(c2), None),
        row("L1->L2", "α12/(M2^(1/2)·M1)", n3P / (math.sqrt(hw.M2) * hw.M1),
            None, None, 1),
        row("L1->L2", "β12/M2^(1/2)", n3P / math.sqrt(hw.M2), None, None, 1),
        row("Interprocessor", "αNW", 2 * sp,
            1,
            1 / c2**1.5 + (c2 + lgc2) / sp,
            1 / (math.sqrt(c3) * c2) + c3 * (1 + lgc3 / c2) / sp),
        row("Interprocessor", "βNW", 2 * n**2 / sp,
            1,
            1 / math.sqrt(c2) + 2 * c2 * (1 + lgc2) / sp,
            1 / math.sqrt(c3) + 2 * c3 * (1 + lgc3) / sp),
        row("L3->L2", "α32", 2 * sp,
            None, None,
            1 / (math.sqrt(c3) * c2) + c3 * (1 + lgc3 / c2) / sp - c3 / sp),
        row("L3->L2", "β32", 2 * n**2 / sp,
            None, None,
            1 / math.sqrt(c3) + 2 * c3 * (1 + lgc3) / sp - 2 * c3 / sp),
        row("L3->L2", "α32/M2^(3/2)", n3P / hw.M2**1.5, None, None, 1),
        row("L3->L2", "β32/M2^(1/2)", n3P / math.sqrt(hw.M2), None, None, 1),
        row("L2->L3", "α23", 2 * sp,
            None, None,
            1 / (math.sqrt(c3) * c2) + c3 * (1 + lgc3 / c2) / sp),
        row("L2->L3", "β23", 2 * n**2 / sp,
            None, None,
            1 / math.sqrt(c3) + 2 * c3 * (1 + lgc3) / sp + 0.5 / math.sqrt(c3)),
        row("L2->L3", "α23/M2", n**2 / sp / hw.M2,
            None, None, 1 / math.sqrt(c3)),
    ]
    return rows


def table2_rows(n: int, P: int, c3: int, hw: HwParams) -> List[Dict]:
    """Numerically evaluated rows of the paper's Table 2."""
    _check(hw, n, P)
    require(c3 >= 1, f"c3 must be >= 1, got {c3}")
    sp = math.sqrt(P)
    lgc3 = math.log2(c3) if c3 > 1 else 0.0
    n3P = n**3 / P
    n2sp = n**2 / sp

    def row(move, param, common, a, b):
        return {
            "movement": move, "param": param, "common": common,
            "2.5DMML3ooL2": None if a is None else a * common,
            "SUMMAL3ooL2": None if b is None else b * common,
        }

    horiz25 = 1 / math.sqrt(c3) + c3 * (1 + lgc3) / sp
    horiz_summa = n / math.sqrt(P * hw.M2)
    rows = [
        row("L2->L1", "α21/M1^(3/2)", n3P / hw.M1**1.5, 1, 1),
        row("L2->L1", "β21/M1^(1/2)", n3P / math.sqrt(hw.M1), 1, 1),
        row("L1->L2", "α12/(M2^(1/2)·M1)",
            n3P / (math.sqrt(hw.M2) * hw.M1), 1, 1),
        row("L1->L2", "β12/M2^(1/2)", n3P / math.sqrt(hw.M2), 1, 1),
        row("Interprocessor", "αNW/M2", n2sp / hw.M2,
            horiz25, horiz_summa * math.log2(P)),
        row("Interprocessor", "βNW", n2sp, horiz25, horiz_summa),
        row("L3->L2", "α32/M2", n2sp / hw.M2,
            horiz_summa + horiz25, horiz_summa),
        row("L3->L2", "β32", n2sp, horiz_summa + horiz25, horiz_summa),
        row("L2->L3", "α23/M2", n**2 / P / hw.M2,
            math.sqrt(P / c3) + c3 * (1 + lgc3), 1),
        row("L2->L3", "β23", n**2 / P,
            math.sqrt(P / c3) + c3 * (1 + lgc3), 1),
    ]
    return rows
