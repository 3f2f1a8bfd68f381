"""Point-level kernels for the NVM cost-model, distributed and Krylov
subsystems and the Section 3-5 tables.

Four families, one :class:`~repro.lab.params.Kernel` record each in
:data:`MODEL_KERNELS`, which :data:`repro.lab.registry.KERNELS` takes
in whole (this module deliberately imports nothing from the registry,
so the registry can import it without a cycle).  Each kernel imports the
package it runs inside its body, so declaring all of them loads none of
:mod:`repro.distributed`'s executed algorithms, :mod:`repro.krylov`,
:mod:`repro.core`, :mod:`repro.bounds` or :mod:`repro.cdag`:

* ``cost-*`` — Section 7's analytic communication cost models
  (:mod:`repro.distributed.costmodel`), one algorithm evaluation per
  point.  The :class:`~repro.distributed.costmodel.HwParams` machine
  description comes from the machine spec's ``hw`` overrides
  (``MachineSpec.hw_params()``): start from an ``hw-*`` machine preset
  and/or override individual rates with ``--hw KEY=VALUE`` (sweeping
  ``machine.hw`` as a grid axis is not supported).  Grid points outside
  an algorithm's feasible regime (e.g. ``c3 > P^(1/3)``) report
  ``feasible: False`` instead of failing the sweep — provisioning
  questions are exactly about walking past those edges.

  Each formula family is one :class:`CostFamily` row.  Its point
  kernel calls the checked ``costmodel`` function; its batch evaluator
  runs the same formula body once over float64 columns of the grid and
  sends the points its mask rejects (infeasible, or outside the exact
  float64 domain) to the point kernel, so both paths emit identical
  records.  The Table 1/2 cells memoize the scalar row lists per size
  tuple instead.  Any two points of one cost kernel under one
  ``HwParams`` set ride one batch.

* ``summa-2d`` / ``summa-l3-ool2`` / ``mm-25d`` / ``lu-ll-nonpivot`` /
  ``lu-rl-nonpivot`` — the *executed* distributed algorithms
  (:mod:`repro.distributed`) on the simulated Section-7 machine: inputs
  are generated from a seeded RNG, results are numerically verified, and
  the record carries per-rank max/total word **and message** counters
  for every channel the paper charges.

* ``krylov-*`` — the Section-8 Krylov methods (:mod:`repro.krylov`)
  with their slow-memory read/write/flop counters.

* ``cdag-pebble`` / ``twolevel-counts`` / ``co-vs-wa`` — one pebbled
  CDAG (Section 3, Theorem 2), one instrumented two-level kernel
  (Section 4) or one cache-oblivious vs WA matmul pair (Section 5) per
  point; :mod:`repro.experiments` lays their tables out.

Every kernel is a deterministic pure function of ``(machine, params)``,
so points cache and fan out like any other registry kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional,
                    Tuple)

import numpy as np

from repro.distributed.costmodel import (
    HwParams,
    _cost_25dmml2,
    _cost_25dmml3,
    _cost_25dmml3_ool2,
    _cost_2dmml2,
    _cost_summal3_ool2,
    _dom_model21,
    _dom_model22,
    _each,
    _ll_lunp,
    _replication_cap,
    _rl_lunp,
    cost_25dmml2,
    cost_25dmml3,
    cost_25dmml3_ool2,
    cost_2dmml2,
    cost_summal3_ool2,
    dom_beta_cost_model21,
    dom_beta_cost_model22,
    hw_param_key,
    ll_lunp_beta_cost,
    replication_break_even,
    rl_lunp_beta_cost,
    table1_rows,
    table2_rows,
)
from repro.lab.params import (BOOL, FLOAT, INT, NAT, POS, BatchKernel,
                              Kernel, Params, chain, multiples, opt)
from repro.names import LOOP_ORDERS, STORAGE_MODES
from repro.util import canonical_int, is_power_of_two, require

if TYPE_CHECKING:
    from repro.distributed.machine import DistMachine

__all__ = ["MODEL_KERNELS", "PEBBLE_LABELS"]


# --------------------------------------------------------------------- #
# parameter plumbing
# --------------------------------------------------------------------- #
def _geti(params: Mapping, name: str, default: Any) -> int:
    """An integer parameter (numpy grid scalars canonicalized)."""
    value = params.get(name, default)
    if type(value) is int:  # the hot path of a 10^4-point grid
        return value
    return canonical_int(value, name)


# --------------------------------------------------------------------- #
# cost-model kernels
# --------------------------------------------------------------------- #
#: every HwParams rate a Term can reference, in table order.
_COST_COLUMNS = ("alpha_nw", "beta_nw", "alpha_23", "beta_23", "alpha_32",
                 "beta_32", "alpha_12", "beta_12", "alpha_21", "beta_21")


def _cost_record(cost: Dict) -> Dict:
    """Flatten a ``cost_*`` result: per-rate word/message counts + total.

    β columns count words, α columns count messages, summed over every
    term the formula charges to that rate.
    """
    rec: Dict[str, Any] = {"algorithm": cost["name"], "feasible": True}
    agg = {key: 0.0 for key in _COST_COLUMNS}
    for term in cost["terms"]:
        agg[hw_param_key(term.param)] += term.count
    rec.update(agg)
    rec["total_seconds"] = cost["total"]
    return rec


def _flat_record(cost: Dict) -> Dict:
    """An LU β-cost result as it stands, ``name`` as ``algorithm``."""
    rest = dict(cost)
    return {"algorithm": rest.pop("name"), "feasible": True, **rest}


def _infeasible(name: str, exc: Exception) -> Dict:
    return {"algorithm": name, "feasible": False, "reason": str(exc),
            "total_seconds": None}


#: Largest axis values the batch path evaluates on float64 columns:
#: below them every integer subexpression of a formula is exact (see the
#: :mod:`repro.distributed.costmodel` docstring).  Larger values take
#: the scalar kernel per point.
_VEC_SIZE_BOUND = float(1 << 16)
_VEC_PROC_BOUND = float(1 << 32)


def _c_in_range(c, P):
    """``1 <= c <= P^(1/3)``: the replication range of a 2.5D layout."""
    return (1 <= c) & (c <= _each(_replication_cap, P))


@dataclass(frozen=True)
class CostFamily:
    """One Section-7 formula as a point kernel and a batch evaluator.

    *cost* is the checked :mod:`~repro.distributed.costmodel` function;
    *body* is its formula, called on float64 columns.  *mask* restates
    the ``require``s of *cost* beyond ``n, P >= 1`` on columns; points
    outside it (or outside the exact float64 domain) take the scalar
    kernel, so their ``feasible: False`` reasons and crashes match.
    """

    name: str                              # ``algorithm`` of its records
    doc: str                               # the kernel's docstring
    params: Tuple[Tuple[str, int], ...]    # (name, default), call order
    cost: Callable[..., Dict]
    body: Callable[..., Dict]
    record: Callable[[Dict], Dict]         # cost result -> record
    metric: str                            # the record's headline field
    mask: Optional[Callable[..., np.ndarray]] = None


def _family_point(family: CostFamily, machine, params: Mapping) -> Dict:
    """One point of *family*, evaluated by its checked scalar function."""
    args = [_geti(params, name, default) for name, default in family.params]
    try:
        return family.record(family.cost(*args, machine.hw_params()))
    except ValueError as exc:
        return _infeasible(family.name, exc)


def _group_hw(group) -> HwParams:
    """The :class:`HwParams` every point of a cost batch resolves to.

    The executor groups cost points on their ``hw`` overrides, so one
    set holds by construction; a group mixing sets raises."""
    machine0 = group[0][0]
    hw = machine0.hw_params()
    checked = {id(machine0)}
    for machine, _ in group:
        if id(machine) in checked:  # grids share one spec object
            continue
        require(machine.hw_params() == hw,
                "cost batch mixes different hw parameter sets")
        checked.add(id(machine))
    return hw


def _hw_group_key(machine, params: Mapping) -> Dict:
    """A cost point's batch identity: its ``hw`` overrides (``None`` and
    the empty set both mean the defaults)."""
    return {"hw": dict(machine.hw or ())}


def _cost_kernel(run: Callable, params: Params, metric: str,
                 batch: Callable) -> Kernel:
    """A ``cost-*`` record: it reads only the machine's ``hw``
    overrides, and *batch* evaluates a group under one set of them."""
    return Kernel(run, params, machine_fields=("hw",),
                  metric_fields=(metric,),
                  batch=BatchKernel("batch", _hw_group_key, batch,
                                    machine_only=True))


def _family_batch(family: CostFamily, group,
                  hw: Optional[HwParams] = None) -> list:
    """A group of *family* points: the formula body once over float64
    columns, the scalar kernel for points outside the mask.  *hw* is
    the group's :func:`_group_hw` unless given."""
    if hw is None:
        hw = _group_hw(group)
    cols = np.array([[_geti(p, name, default) for _, p in group]
                     for name, default in family.params], dtype=np.float64)
    n, P, cs = cols[0], cols[1], cols[2:]
    idx = np.flatnonzero((n >= 1) & (P >= 1) & (n <= _VEC_SIZE_BOUND)
                         & (P <= _VEC_PROC_BOUND)
                         & (cs <= _VEC_SIZE_BOUND).all(axis=0))
    if family.mask is not None:
        idx = idx[family.mask(*cols[:, idx])]
    ok = np.zeros(len(group), dtype=bool)
    ok[idx] = True
    recs = [None if good else _family_point(family, machine, params)
            for (machine, params), good in zip(group, ok.tolist())]
    if idx.size:
        fields = family.record(family.body(*cols[:, idx], hw))
        values = [v.tolist() if isinstance(v, np.ndarray)
                  else [v] * idx.size for v in fields.values()]
        for i, row in zip(idx.tolist(), zip(*values)):
            recs[i] = dict(zip(fields, row))
    return recs


_N, _P = ("n", 1 << 14), ("P", 256)
_C2, _C3 = ("c2", 1), ("c3", 4)

#: The formula families, by kernel name.
_FAMILIES: Dict[str, CostFamily] = {
    "cost-2d-mm": CostFamily(
        "2DMML2",
        "Analytic cost of 2DMML2 (Table 1, c=1).",
        (_N, _P), cost_2dmml2, _cost_2dmml2, _cost_record,
        "total_seconds"),
    "cost-25d-mm-l2": CostFamily(
        "2.5DMML2",
        "Analytic cost of 2.5DMML2 (Table 1).",
        (_N, _P, _C2), cost_25dmml2, _cost_25dmml2, _cost_record,
        "total_seconds", lambda n, P, c2: _c_in_range(c2, P)),
    "cost-25d-mm-l3": CostFamily(
        "2.5DMML3",
        "Analytic cost of 2.5DMML3 (Table 1, NVM-staged replicas).",
        (_N, _P, _C2, _C3), cost_25dmml3, _cost_25dmml3, _cost_record,
        "total_seconds",
        lambda n, P, c2, c3: (c3 > c2) & (c2 >= 1) & _c_in_range(c3, P)),
    "cost-25d-mm-l3-ool2": CostFamily(
        "2.5DMML3ooL2",
        "Analytic cost of 2.5DMML3ooL2 (Table 2, Model 2.2).",
        (_N, _P, _C3), cost_25dmml3_ool2, _cost_25dmml3_ool2, _cost_record,
        "total_seconds", lambda n, P, c3: _c_in_range(c3, P)),
    "cost-summa-l3-ool2": CostFamily(
        "SUMMAL3ooL2",
        "Analytic cost of SUMMAL3ooL2 (Table 2, attains the W1 write\n"
        "    floor).",
        (_N, _P), cost_summal3_ool2, _cost_summal3_ool2, _cost_record,
        "total_seconds"),
    "cost-lu-ll": CostFamily(
        "LL-LUNP",
        "LL-LUNP dominant β-costs (formulas (23)/(24)).",
        (_N, _P), ll_lunp_beta_cost, _ll_lunp, _flat_record, "total"),
    "cost-lu-rl": CostFamily(
        "RL-LUNP",
        "RL-LUNP dominant β-costs (formulas (25)/(26)).",
        (_N, _P), rl_lunp_beta_cost, _rl_lunp, _flat_record, "total"),
}

#: The dominant-β-cost comparisons behind ``cost-dominance``, by model.
_DOMINANCE: Dict[str, CostFamily] = {
    "2.1": CostFamily(
        "2.5DMML2 vs 2.5DMML3", "", (_N, _P, _C2, _C3),
        dom_beta_cost_model21, _dom_model21, dict, "ratio",
        lambda n, P, c2, c3: (c2 >= 1) & (c3 >= 1)),
    "2.2": CostFamily(
        "2.5DMML3ooL2 vs SUMMAL3ooL2", "", (_N, _P, _C3),
        dom_beta_cost_model22, _dom_model22, dict, "ratio",
        lambda n, P, c3: c3 >= 1),
}


def _int_params(family: CostFamily, **extra: Any) -> Params:
    """A cost family's declaration: its ``(name, default)`` columns as
    plain ints (an out-of-regime value gets a ``feasible: False``
    record, not a refusal), plus *extra*."""
    return Params.of(**{name: opt(INT, default)
                        for name, default in family.params}, **extra)


_DOMINANCE_PARAMS = _int_params(_DOMINANCE["2.1"],
                                model=opt(tuple(_DOMINANCE), "2.1"))


def kernel_cost_dominance(machine, params: Mapping) -> Dict:
    """Dominant-β-cost comparison: which algorithm the paper predicts
    wins (``c2`` is read by model 2.1 only)."""
    model = _DOMINANCE_PARAMS.resolve(params)["model"]
    return {"model": model,
            **_family_point(_DOMINANCE[model], machine, params)}


def _dominance_batch(group) -> list:
    """``cost-dominance`` points batched per model."""
    hw = _group_hw(group)
    models = [_DOMINANCE_PARAMS.resolve(params)["model"]
              for _, params in group]
    recs: list = [None] * len(group)
    for model, family in _DOMINANCE.items():
        idx = [i for i, m in enumerate(models) if m == model]
        if idx:
            sub = _family_batch(family, [group[i] for i in idx], hw)
            for i, rec in zip(idx, sub):
                recs[i] = {"model": model, **rec}
    return recs


def kernel_cost_break_even(machine, params: Mapping) -> Dict:
    """Replication break-even: smallest c3/c2 ratio at which NVM-staged
    replication (2.5DMML3) beats 2.5DMML2.  It depends only on the
    machine's β rates (sweep those via --hw)."""
    hw = machine.hw_params()
    return {
        "c3_over_c2": replication_break_even(hw, 1),
        "beta_nw": hw.beta_nw,
        "beta_23": hw.beta_23,
        "beta_32": hw.beta_32,
    }


def _break_even_batch(group) -> list:
    """One break-even record, copied to every point of the group."""
    _group_hw(group)
    rec = kernel_cost_break_even(*group[0])
    return [dict(rec) for _ in group]


@dataclass(frozen=True)
class CostTable:
    """One of the paper's cost tables, cell by cell: its row builder,
    the sizes it takes and its declared parameters (``row`` counts the
    table's rows from 0, ``algorithm`` names one of its columns)."""

    rows: Callable[..., list]
    sizes: Tuple[str, ...]
    params: Params

    def cell(self, p: Mapping, rows: Any) -> Dict:
        """The (row, algorithm) cell of resolved params *p* from an
        evaluated row list (or the ``ValueError`` its sizes raised)."""
        if isinstance(rows, ValueError):
            return _infeasible(p["algorithm"], rows)
        r = rows[int(p["row"])]
        return {"movement": r["movement"], "param": r["param"],
                "common": r["common"], "algorithm": p["algorithm"],
                "feasible": True, "words": r[p["algorithm"]]}

    def evaluate(self, p: Mapping, hw: HwParams) -> Any:
        try:
            return self.rows(*(p[name] for name in self.sizes), hw)
        except ValueError as exc:
            return exc

    def point(self, machine, params: Mapping) -> Dict:
        p = self.params.resolve(params)
        return self.cell(p, self.evaluate(p, machine.hw_params()))

    def batch(self, group) -> list:
        """A group of cells, evaluating the scalar row list once per
        unique size tuple (row/algorithm axes make uniques sparse;
        reusing the scalar row code is the bit-identity argument)."""
        hw = _group_hw(group)
        rows_cache: Dict[Tuple[int, ...], Any] = {}
        recs = []
        for _, params in group:
            p = self.params.resolve(params)
            key = tuple(p[name] for name in self.sizes)
            if key not in rows_cache:
                rows_cache[key] = self.evaluate(p, hw)
            recs.append(self.cell(p, rows_cache[key]))
        return recs


def _table(rows: Callable, n_rows: int, algorithms: Tuple[str, ...],
           **sizes: int) -> CostTable:
    return CostTable(rows, tuple(sizes), Params.of(
        **{name: opt(INT, default) for name, default in sizes.items()},
        row=tuple(map(str, range(n_rows))), algorithm=algorithms))


#: the paper's Tables 1 and 2 (15 and 10 rows) as ``cost-table*`` cells.
_TABLES: Dict[str, CostTable] = {
    "cost-table1": _table(table1_rows, 15,
                          ("2DMML2", "2.5DMML2", "2.5DMML3"),
                          n=1 << 14, P=1 << 20, c2=4, c3=16),
    "cost-table2": _table(table2_rows, 10,
                          ("2.5DMML3ooL2", "SUMMAL3ooL2"),
                          n=1 << 15, P=512, c3=4),
}


def kernel_cost_table1(machine, params: Mapping) -> Dict:
    """One (row, algorithm) cell of the paper's Table 1, numerically
    evaluated."""
    return _TABLES["cost-table1"].point(machine, params)


def kernel_cost_table2(machine, params: Mapping) -> Dict:
    """One (row, algorithm) cell of the paper's Table 2, numerically
    evaluated."""
    return _TABLES["cost-table2"].point(machine, params)


def _family_kernel(family: CostFamily) -> Kernel:
    def kernel(machine, params: Mapping) -> Dict:
        return _family_point(family, machine, params)

    kernel.__doc__ = family.doc
    return _cost_kernel(kernel, _int_params(family), family.metric,
                        partial(_family_batch, family))


# --------------------------------------------------------------------- #
# executed distributed algorithms
# --------------------------------------------------------------------- #
#: per-rank counters every execution record reports (max and total).
_RANK_CHANNELS = ("nw_sent", "nw_recv", "nw_msgs_sent", "nw_msgs_recv",
                  "l2_to_l3", "l3_to_l2", "l2_to_l3_msgs", "l3_to_l2_msgs",
                  "l2_to_l1", "l1_to_l2")

#: an execution record's headline fields: the per-level traffic maxima.
_DIST_METRICS = ("nw_recv_max", "l3_to_l2_max", "l2_to_l3_max")


def _dist_record(m: DistMachine) -> Dict:
    rec: Dict[str, int] = {}
    for attr in _RANK_CHANNELS:
        rec[f"{attr}_max"] = m.max_over_ranks(attr)
        rec[f"{attr}_total"] = m.total_over_ranks(attr)
    return rec


def _random_matrices(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _on_grid(p: Mapping) -> None:
    """``P`` a perfect square whose side divides ``n``."""
    from repro.distributed.grid import square_grid_side

    q = square_grid_side(p["P"])
    require(p["n"] % q == 0, f"n={p['n']} must be divisible by the grid "
                             f"side {q} of P={p['P']}")


def _at_least(name: str, low: float) -> Callable[[Mapping], None]:
    """A relation: *name*, when given, is at least *low*."""
    def relation(p: Mapping) -> None:
        require(p[name] is None or p[name] >= low,
                f"{name} must be >= {low:g}, got {p[name]}")
    return relation


_SUMMA_2D = Params.of(chain(_on_grid, _at_least("M1", 3)),
                      n=opt(POS, 32), P=opt(POS, 16), hoard=opt(BOOL, False),
                      M1=opt(FLOAT), seed=opt(NAT, 0))


def kernel_summa_2d(machine, params: Mapping) -> Dict:
    """Executed 2D SUMMA (Model 1) with per-rank traffic counters;
    ``hoard`` is the √P-L2 variant."""
    from repro.distributed.machine import DistMachine
    from repro.distributed.summa import summa_2d

    p = _SUMMA_2D.resolve(params)
    A, B = _random_matrices(p["n"], p["seed"])
    m = DistMachine(p["P"])
    C = summa_2d(A, B, m, hoard=p["hoard"], M1=p["M1"])
    return {"correct": bool(np.allclose(C, A @ B)), "hoard": p["hoard"],
            **_dist_record(m)}


_SUMMA_L3 = Params.of(chain(_on_grid, _at_least("M2", 3)),
                      n=opt(POS, 32), P=opt(POS, 16), M2=FLOAT,
                      seed=opt(NAT, 0))


def kernel_summa_l3_ool2(machine, params: Mapping) -> Dict:
    """Executed SUMMAL3ooL2 (Model 2.2): attains the NVM write floor
    W1 = n²/P."""
    from repro.distributed.machine import DistMachine
    from repro.distributed.summa import summa_l3_ool2

    p = _SUMMA_L3.resolve(params)
    n, P, M2 = p["n"], p["P"], p["M2"]
    A, B = _random_matrices(n, p["seed"])
    m = DistMachine(P, M2=M2)
    C = summa_l3_ool2(A, B, m, M2=M2)
    return {"correct": bool(np.allclose(C, A @ B)),
            "w1_floor": n * n // P, **_dist_record(m)}


def _replicas(p: Mapping) -> None:
    """The 2.5D layout: ``P = c·q²`` with ``c <= q``, ``c | q`` (or
    ``c = 1``) and ``q | n``; NVM staging needs ``M2``."""
    P, c = p["P"], p["c"]
    require(P % c == 0, f"P={P} must be a multiple of c={c}")
    q = math.isqrt(P // c)
    require(q * q == P // c, f"P/c = {P // c} must be a perfect square")
    require(c <= q and (q % c == 0 or c == 1),
            f"c={c} must divide q={q} = sqrt(P/c) (c <= P^(1/3))")
    require(p["n"] % q == 0, f"n={p['n']} must be divisible by q={q} = "
                             f"sqrt(P/c) (P={P}, c={c})")
    require(p["storage"] == "L2" or p["M2"] is not None,
            f"storage={p['storage']} needs M2 (DRAM size in words)")


_MM_25D = Params.of(chain(_replicas, _at_least("M2", 1)),
                    n=opt(POS, 16), P=opt(POS, 8), c=opt(POS, 2),
                    storage=opt(STORAGE_MODES, "L2"), M2=opt(FLOAT),
                    seed=opt(NAT, 0))


def kernel_mm_25d(machine, params: Mapping) -> Dict:
    """Executed 2.5D matmul (replication factor c, optional NVM
    staging)."""
    from repro.distributed.machine import DistMachine
    from repro.distributed.mm25d import mm_25d

    p = _MM_25D.resolve(params)
    A, B = _random_matrices(p["n"], p["seed"])
    m = DistMachine(p["P"], M2=p["M2"])
    C = mm_25d(A, B, m, c=p["c"], storage=p["storage"], M2=p["M2"])
    return {"correct": bool(np.allclose(C, A @ B)), "c": p["c"],
            "storage": p["storage"], **_dist_record(m)}


def _lu_problem(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


def _lu_layout(p: Mapping) -> None:
    from repro.distributed.grid import square_grid_side

    square_grid_side(p["P"])
    multiples("b", "n")(p)


_LU = Params.of(_lu_layout, n=opt(POS, 32), b=opt(POS, 4), P=opt(POS, 4),
                seed=opt(NAT, 0))


def _run_lu(factor: Callable, params: Mapping) -> Dict:
    from repro.distributed.machine import DistMachine

    p = _LU.resolve(params)
    A = _lu_problem(p["n"], p["seed"])
    m = DistMachine(p["P"])
    L, U = factor(A, m, b=p["b"])
    return {"correct": bool(np.allclose(L @ U, A, atol=1e-8)),
            **_dist_record(m)}


def kernel_lu_ll(machine, params: Mapping) -> Dict:
    """Executed left-looking LU without pivoting (LL-LUNP, Alg. 5):
    O(n²/P) NVM writes per rank."""
    from repro.distributed.lu import lu_ll_nonpivot

    return _run_lu(lu_ll_nonpivot, params)


def kernel_lu_rl(machine, params: Mapping) -> Dict:
    """Executed right-looking LU without pivoting (RL-LUNP): fewer
    network words, more NVM writes."""
    from repro.distributed.lu import lu_rl_nonpivot

    return _run_lu(lu_rl_nonpivot, params)



# --------------------------------------------------------------------- #
# Krylov kernels
# --------------------------------------------------------------------- #
def _stencil(p: Mapping) -> None:
    """The stencil's mesh exceeds its radius; CG-type solvers need a
    positive tolerance; a TSQR block holds the s+1 basis vectors."""
    require(p["mesh"] > p["b"],
            f"mesh ({p['mesh']}) must exceed stencil radius b ({p['b']})")
    require(p.get("tol", 1) > 0, f"tol must be positive, got {p.get('tol')}")


def _krylov(relation: Callable = _stencil, **params: Any) -> Params:
    """A Krylov kernel's declaration: the stencil system (``mesh``,
    ``d``, ``b``) plus *params*."""
    return Params.of(relation, mesh=opt(POS, 256), d=opt(POS, 1),
                     b=opt(POS, 1), **params)


def _stencil_system(p: Mapping):
    from repro.krylov.stencil import spd_stencil_system

    return spd_stencil_system(p["mesh"], d=p["d"], b=p["b"])


#: a Krylov record's headline fields: the paper's read/write/flop counts.
_TRAFFIC_METRICS = ("reads", "writes", "flops")


def _traffic_record(traffic, steps: int) -> Dict:
    return {
        "reads": traffic.reads,
        "writes": traffic.writes,
        "flops": traffic.flops,
        "writes_per_step": traffic.writes / max(1, steps),
    }


_TOL = opt(FLOAT, 1e-8)
_CG = _krylov(tol=_TOL)


def kernel_krylov_cg(machine, params: Mapping) -> Dict:
    """Conventional CG (Alg. 6): the Ω(N·n) write baseline."""
    from repro.krylov import cg

    p = _CG.resolve(params)
    res = cg(*_stencil_system(p), tol=p["tol"])
    return {"method": "CG", "converged": res.converged,
            "steps": res.iterations,
            **_traffic_record(res.traffic, res.iterations)}


_CACG = _krylov(s=POS, streaming=opt(BOOL, False), block=opt(POS), tol=_TOL)


def kernel_krylov_cacg(machine, params: Mapping) -> Dict:
    """s-step CA-CG (Alg. 7); streaming=True is the WA variant that
    cuts writes by Θ(s)."""
    from repro.krylov import cacg

    p = _CACG.resolve(params)
    s, streaming = p["s"], p["streaming"]
    res = cacg(*_stencil_system(p), s=s, tol=p["tol"], streaming=streaming,
               block=p["block"])
    return {"method": "CA-CG" + (" streaming" if streaming else ""),
            "s": s, "converged": res.converged, "steps": res.inner_steps,
            "outer_iterations": res.outer_iterations,
            **_traffic_record(res.traffic, res.inner_steps)}


_GMRES = _krylov(s=POS, variant=opt(("restarted", "ca"), "restarted"),
                 streaming=opt(BOOL, False), block=opt(POS), tol=_TOL)


def kernel_krylov_gmres(machine, params: Mapping) -> Dict:
    """GMRES: variant='restarted' is GMRES(s); variant='ca' is s-step
    CA-GMRES (optionally streaming)."""
    from repro.krylov import ca_gmres, gmres

    p = _GMRES.resolve(params)
    A, rhs = _stencil_system(p)
    s, tol = p["s"], p["tol"]
    if p["variant"] == "restarted":
        res = gmres(A, rhs, restart=s, tol=tol)
        method = "GMRES"
    else:
        res = ca_gmres(A, rhs, s=s, tol=tol, streaming=p["streaming"],
                       block=p["block"])
        method = "CA-GMRES" + (" streaming" if p["streaming"] else "")
    return {"method": method, "s": s, "converged": res.converged,
            "steps": res.inner_steps, "cycles": res.cycles,
            **_traffic_record(res.traffic, res.inner_steps)}


_POWERS = _krylov(s=POS, variant=opt(("naive", "blocked", "streaming"),
                                     "blocked"), block=opt(POS))


def kernel_krylov_matrix_powers(machine, params: Mapping) -> Dict:
    """The matrix-powers kernel: variant in naive (s SpMVs), blocked
    (CA), streaming (WA — zero basis writes); ``block`` defaults to an
    eighth of the rows."""
    from repro.krylov import (matrix_powers, matrix_powers_blocked,
                              matrix_powers_streaming)

    p = _POWERS.resolve(params)
    A, rhs = _stencil_system(p)
    s, variant = p["s"], p["variant"]
    block = p["block"] or max(1, -(-A.shape[0] // 8))
    if variant == "naive":
        _, t = matrix_powers(A, rhs, s)
    elif variant == "blocked":
        _, t = matrix_powers_blocked(A, rhs, s, block=block)
    else:
        t = matrix_powers_streaming(A, rhs, s, lambda r0, r1, K: 0,
                                    block=block)
    return {"method": f"matrix-powers {variant}", "s": s,
            **_traffic_record(t, s)}


def _qr_tree(p: Mapping) -> None:
    _stencil(p)
    s = p["s"]
    require(p["block"] is None or p["block"] >= s + 1,
            f"block ({p['block']}) must be >= s+1 ({s + 1}) for the QR tree")
    # the mesh**d rows must stack the s+1 basis vectors (mesh >= 2)
    require(p["mesh"] ** min(p["d"], 64) >= s + 1,
            f"the mesh**d = {p['mesh']}**{p['d']} rows must be >= s+1 "
            f"({s + 1}) for the QR")


_TSQR = _krylov(_qr_tree, s=POS,
                variant=opt(("stored", "streaming"), "stored"),
                block=opt(POS))


def kernel_krylov_tsqr(machine, params: Mapping) -> Dict:
    """TSQR of the Krylov basis: variant='stored' builds the basis then
    factors it (Θ(s·n) writes); variant='streaming' interleaves TSQR
    with matrix powers (§8 — only R is written); ``block`` defaults to
    an eighth of the rows, at least s+1."""
    from repro.krylov import matrix_powers_blocked, streaming_basis_r, tsqr

    p = _TSQR.resolve(params)
    A, rhs = _stencil_system(p)
    s, variant = p["s"], p["variant"]
    block = p["block"] or max(s + 1, -(-A.shape[0] // 8))
    if variant == "stored":
        K, t = matrix_powers_blocked(A, rhs, s, block=block)
        _, R, t_qr = tsqr(K, block=block)
        t.add(t_qr)
    else:
        R, t = streaming_basis_r(A, rhs, s, block=block)
    return {"method": f"tsqr {variant}", "s": s,
            "r_norm": float(np.linalg.norm(R)),
            **_traffic_record(t, s)}



# --------------------------------------------------------------------- #
# Section 3-5 table kernels
# --------------------------------------------------------------------- #
def _matmul_schedule(n: int) -> list:
    sched = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sched.append(("m", i, j, k))
                if k >= 1:
                    sched.append(("c", i, j, k))
    return sched


#: the ``cdag-pebble`` ``algorithm`` values, each with the name the
#: Section-3 table prints.
PEBBLE_LABELS: Dict[str, str] = {
    "fft": "Cooley-Tukey FFT",
    "strassen": "Strassen",
    "matmul": "classical matmul (WA schedule)",
}


def kernel_cdag_pebble(machine: Any, params: Mapping[str, Any]
                       ) -> Dict[str, Any]:
    """One CDAG red-blue pebbled with M fast-memory slots (Theorem 2)."""
    from repro.cdag import (
        fft_cdag,
        matmul_cdag,
        pebble,
        strassen_cdag,
        theorem2_write_lower_bound,
    )

    algorithm = params["algorithm"]
    n = canonical_int(params["n"], "n")
    M = canonical_int(params["M"], "M")
    if algorithm == "fft":
        st = pebble(fft_cdag(n), M=M)
        d, lb, output = 2, theorem2_write_lower_bound(st.loads, n, d=2), n
    elif algorithm == "strassen":
        dag = strassen_cdag(n)
        st = pebble(dag, M=M)
        prods = [v for v in dag.g.nodes
                 if isinstance(v, tuple) and v[0] == "p"]
        dec_c = dag.induced_subgraph(dag.descendants_of(prods))
        d = dec_c.max_out_degree(exclude_inputs=False)
        lb = theorem2_write_lower_bound(st.loads, 0, d=max(d, 1))
        output = n * n
    else:
        # Out-degree 1 within DecC: no Theorem-2 obstruction.
        st = pebble(matmul_cdag(n), M=M, schedule=_matmul_schedule(n))
        d, lb, output = 1, 0, n * n
    return {"d": d, "loads": st.loads, "stores": st.stores,
            "theorem2_lb": lb, "store_fraction": st.store_fraction,
            "output_size": output}


def _pebble_relation(p: Dict[str, Any]) -> None:
    """FFT and Strassen CDAGs exist for ``n = 2^k`` (the FFT for k >= 1);
    the pebbler needs room for an op's two operands and its result."""
    n, algorithm = p["n"], p["algorithm"]
    require(algorithm == "matmul"
            or (is_power_of_two(n) and (n > 1 or algorithm != "fft")),
            f"n={n} must be a power of two (>= 2 for fft) for "
            f"algorithm={algorithm}")
    require(p["M"] >= 3, f"M={p['M']} must be >= 3 (two operands and "
                         f"a result)")


#: the ``variant`` values each ``twolevel-counts`` ``algorithm`` runs: a
#: loop order for matmul, left-/right-looking for TRSM and Cholesky,
#: blocked (or with the symmetry saving) for the N-body kernels.
TWOLEVEL_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "matmul": LOOP_ORDERS,
    "trsm": ("left-looking", "right-looking"),
    "cholesky": ("left-looking", "right-looking"),
    "nbody2": ("blocked", "symmetry"),
    "nbody3": ("blocked",),
}


def _twolevel_inputs(n: int, seed: int) -> Tuple[np.ndarray, ...]:
    """Every input of Section 4, drawn from one generator in a fixed
    order, so a point sees the same data whichever other points run."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    T = np.triu(rng.standard_normal((n, n)))
    T[np.diag_indices(n)] = n + rng.random(n)
    rhs = rng.standard_normal((n, n))
    G = rng.standard_normal((n, n))
    P = rng.standard_normal((n, 3))
    return A, B, T, rhs, G @ G.T + n * np.eye(n), P


def kernel_twolevel_counts(machine: Any, params: Mapping[str, Any]
                           ) -> Dict[str, Any]:
    """One Section-4 kernel on an instrumented two-level memory."""
    from repro.bounds.lower_bounds import theorem1_holds
    from repro.core.cholesky import blocked_cholesky
    from repro.core.matmul import blocked_matmul
    from repro.core.nbody import nbody2, nbody_k
    from repro.core.trsm import blocked_trsm
    from repro.machine.hierarchy import TwoLevel

    algorithm = params["algorithm"]
    variant = str(params["variant"])
    n = canonical_int(params["n"], "n")
    b = canonical_int(params["b"], "b")
    A, B, T, rhs, SPD, P = _twolevel_inputs(
        n, canonical_int(params["seed"], "seed"))
    if algorithm == "matmul":
        h = TwoLevel(3 * b * b)
        blocked_matmul(A, B, b=b, hier=h, loop_order=variant)
        output = n * n
    elif algorithm == "trsm":
        h = TwoLevel(3 * b * b)
        blocked_trsm(T, rhs, b=b, hier=h, variant=variant)
        output = n * n
    elif algorithm == "cholesky":
        h = TwoLevel(3 * b * b)
        blocked_cholesky(SPD, b=b, hier=h, variant=variant)
        output = n * (n + b) // 2
    elif algorithm == "nbody2":
        symmetry = variant == "symmetry"
        h = TwoLevel(4 * b if symmetry else 3 * b)
        nbody2(P, b=b, hier=h, use_symmetry=symmetry)
        output = n
    else:
        h = TwoLevel(4 * b)
        nbody_k(P[: n // 2, :2], b=b, k=3, hier=h)
        output = n // 2
    return {
        "writes_to_slow": h.writes_to_slow,
        "output_size": output,
        "wa": h.writes_to_slow <= 2 * output,
        "writes_to_fast": h.writes_to_fast,
        "loads+stores": h.loads_plus_stores,
        "theorem1": theorem1_holds(h),
    }


def _twolevel_relation(p: Dict[str, Any]) -> None:
    """Each algorithm runs its own variants on blocks of size ``b``; the
    (N,3)-body kernel takes the first ``n // 2`` particles."""
    variants = TWOLEVEL_VARIANTS[p["algorithm"]]
    require(p["variant"] in variants,
            f"variant={p['variant']} is not one of {list(variants)} "
            f"for algorithm={p['algorithm']}")
    n = p["n"] // 2 if p["algorithm"] == "nbody3" else p["n"]
    require(n > 0 and n % p["b"] == 0,
            f"n={p['n']} must be a multiple of block size b={p['b']}"
            + (" (twice over for nbody3)" if n != p["n"] else ""))


def kernel_co_vs_wa(machine: Any, params: Mapping[str, Any]
                    ) -> Dict[str, Any]:
    """CO recursive matmul vs blocked WA matmul on an M-word fast memory
    (Theorem 3 / Corollary 4)."""
    from repro.bounds.lower_bounds import co_write_lower_bound
    from repro.core.cache_oblivious import co_matmul
    from repro.core.matmul import blocked_matmul
    from repro.machine.hierarchy import TwoLevel

    n = canonical_int(params["n"], "n")
    M = canonical_int(params["M"], "M")
    rng = np.random.default_rng(canonical_int(params["seed"], "seed"))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    h_co = TwoLevel(M)
    co_matmul(A, B, base=2, hier=h_co)
    b = int((M // 3) ** 0.5)
    while b > 1 and n % b:
        b -= 1
    h_wa = TwoLevel(M)
    blocked_matmul(A, B, b=b, hier=h_wa, loop_order="ijk")
    return {
        "co_stores": h_co.writes_to_slow,
        "wa_stores": h_wa.writes_to_slow,
        "output": n * n,
        "corollary4_lb": co_write_lower_bound(n**3, M, c=1.0),
        "co_over_output": h_co.writes_to_slow / (n * n),
    }


def _co_vs_wa_relation(p: Dict[str, Any]) -> None:
    require(p["M"] >= 3, f"M={p['M']} must be >= 3 (the WA block "
                         f"b = sqrt(M/3) must be >= 1)")


#: every kernel this module declares, by registry name.  The executed
#: distributed and Krylov kernels simulate their own machine, and the
#: Section 3-5 kernels model their own memory (a pebbled CDAG, an
#: instrumented two-level hierarchy): none reads a spec field.
MODEL_KERNELS: Dict[str, Kernel] = {
    # Section 7's analytic cost models.
    **{name: _family_kernel(family) for name, family in _FAMILIES.items()},
    "cost-break-even": _cost_kernel(kernel_cost_break_even, Params.of(),
                                    "c3_over_c2", _break_even_batch),
    "cost-dominance": _cost_kernel(kernel_cost_dominance, _DOMINANCE_PARAMS,
                                   "ratio", _dominance_batch),
    "cost-table1": _cost_kernel(kernel_cost_table1,
                                _TABLES["cost-table1"].params, "words",
                                _TABLES["cost-table1"].batch),
    "cost-table2": _cost_kernel(kernel_cost_table2,
                                _TABLES["cost-table2"].params, "words",
                                _TABLES["cost-table2"].batch),
    # The executed distributed algorithms.
    "summa-2d": Kernel(kernel_summa_2d, _SUMMA_2D, (), _DIST_METRICS),
    "summa-l3-ool2": Kernel(kernel_summa_l3_ool2, _SUMMA_L3, (),
                            _DIST_METRICS),
    "mm-25d": Kernel(kernel_mm_25d, _MM_25D, (), _DIST_METRICS),
    "lu-ll-nonpivot": Kernel(kernel_lu_ll, _LU, (), _DIST_METRICS),
    "lu-rl-nonpivot": Kernel(kernel_lu_rl, _LU, (), _DIST_METRICS),
    # The Section-8 Krylov methods.
    "krylov-cg": Kernel(kernel_krylov_cg, _CG, (), _TRAFFIC_METRICS),
    "krylov-cacg": Kernel(kernel_krylov_cacg, _CACG, (), _TRAFFIC_METRICS),
    "krylov-gmres": Kernel(kernel_krylov_gmres, _GMRES, (),
                           _TRAFFIC_METRICS),
    "krylov-matrix-powers": Kernel(kernel_krylov_matrix_powers, _POWERS, (),
                                   _TRAFFIC_METRICS),
    "krylov-tsqr": Kernel(kernel_krylov_tsqr, _TSQR, (), _TRAFFIC_METRICS),
    # The Section 3-5 tables (``repro-lab run sec3``): the store and
    # traffic counts they compare.
    "cdag-pebble": Kernel(
        kernel_cdag_pebble,
        Params.of(_pebble_relation, algorithm=tuple(PEBBLE_LABELS),
                  n=POS, M=POS),
        (), ("loads", "stores")),
    "twolevel-counts": Kernel(
        kernel_twolevel_counts,
        Params.of(_twolevel_relation, algorithm=tuple(TWOLEVEL_VARIANTS),
                  variant=tuple(dict.fromkeys(
                      v for vs in TWOLEVEL_VARIANTS.values() for v in vs)),
                  n=POS, b=POS, seed=NAT),
        (), ("writes_to_slow", "writes_to_fast")),
    "co-vs-wa": Kernel(
        kernel_co_vs_wa,
        Params.of(_co_vs_wa_relation, n=POS, M=POS, seed=NAT),
        (), ("co_stores", "wa_stores")),
}
