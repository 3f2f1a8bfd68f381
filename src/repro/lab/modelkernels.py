"""Point-level kernels for the NVM cost-model, distributed and Krylov
subsystems.

Three families, all registered into :data:`repro.lab.registry.KERNELS`
(this module deliberately imports nothing from the registry, so the
registry can import it without a cycle):

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
  tuple instead.

* ``summa-2d`` / ``summa-l3-ool2`` / ``mm-25d`` / ``lu-ll-nonpivot`` /
  ``lu-rl-nonpivot`` — the *executed* distributed algorithms
  (:mod:`repro.distributed`) on the simulated Section-7 machine: inputs
  are generated from a seeded RNG, results are numerically verified, and
  the record carries per-rank max/total word **and message** counters
  for every channel the paper charges.

* ``krylov-*`` — the Section-8 Krylov methods (:mod:`repro.krylov`)
  with their slow-memory read/write/flop counters.

Every kernel is a deterministic pure function of ``(machine, params)``,
so points cache and fan out like any other registry kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.distributed import (
    DistMachine,
    lu_ll_nonpivot,
    lu_rl_nonpivot,
    mm_25d,
    summa_2d,
    summa_l3_ool2,
)
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
from repro.krylov import (
    ca_gmres,
    cacg,
    cg,
    gmres,
    matrix_powers,
    matrix_powers_blocked,
    matrix_powers_streaming,
    spd_stencil_system,
    streaming_basis_r,
    tsqr,
)
from repro.util import canonical_int, require

__all__ = ["MODEL_KERNELS", "COST_KERNELS", "DISTRIBUTED_KERNELS",
           "KRYLOV_KERNELS", "COST_BATCH_EVALUATORS", "run_cost_batch"]


# --------------------------------------------------------------------- #
# parameter plumbing
# --------------------------------------------------------------------- #
def _geti(params: Mapping, name: str, default: Any = None) -> int:
    """An integer parameter (numpy grid scalars canonicalized)."""
    value = params.get(name, default)
    if type(value) is int:  # the hot path of a 10^4-point grid
        return value
    require(value is not None,
            f"missing required parameter {name!r} "
            f"(pass it via --set or the scenario's fixed/grid)")
    return canonical_int(value, name)


def _getf(params: Mapping, name: str, default: Any = None) -> float:
    value = params.get(name, default)
    require(value is not None,
            f"missing required parameter {name!r} "
            f"(pass it via --set or the scenario's fixed/grid)")
    return float(value)


def _hw(machine: Any) -> HwParams:
    """The analytic machine of a cost point (validated up front so bad
    ``--hw`` overrides fail loudly, not as 'infeasible' rows)."""
    hw = machine.hw_params()
    hw.validate()
    return hw


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
    mask: Optional[Callable[..., np.ndarray]] = None


def _family_point(family: CostFamily, machine, params: Mapping) -> Dict:
    """One point of *family*, evaluated by its checked scalar function."""
    hw = _hw(machine)
    args = [_geti(params, name, default) for name, default in family.params]
    try:
        return family.record(family.cost(*args, hw))
    except ValueError as exc:
        return _infeasible(family.name, exc)


def _family_batch(family: CostFamily, hw: HwParams, group) -> list:
    """A group of *family* points: the formula body once over float64
    columns, the scalar kernel for points outside the mask."""
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
        "Analytic cost of 2DMML2 (Table 1, c=1).  Params: n, P.",
        (_N, _P), cost_2dmml2, _cost_2dmml2, _cost_record),
    "cost-25d-mm-l2": CostFamily(
        "2.5DMML2",
        "Analytic cost of 2.5DMML2 (Table 1).  Params: n, P, c2.",
        (_N, _P, _C2), cost_25dmml2, _cost_25dmml2, _cost_record,
        lambda n, P, c2: _c_in_range(c2, P)),
    "cost-25d-mm-l3": CostFamily(
        "2.5DMML3",
        "Analytic cost of 2.5DMML3 (Table 1, NVM-staged replicas).\n"
        "    Params: n, P, c2, c3.",
        (_N, _P, _C2, _C3), cost_25dmml3, _cost_25dmml3, _cost_record,
        lambda n, P, c2, c3: (c3 > c2) & (c2 >= 1) & _c_in_range(c3, P)),
    "cost-25d-mm-l3-ool2": CostFamily(
        "2.5DMML3ooL2",
        "Analytic cost of 2.5DMML3ooL2 (Table 2, Model 2.2).\n"
        "    Params: n, P, c3.",
        (_N, _P, _C3), cost_25dmml3_ool2, _cost_25dmml3_ool2, _cost_record,
        lambda n, P, c3: _c_in_range(c3, P)),
    "cost-summa-l3-ool2": CostFamily(
        "SUMMAL3ooL2",
        "Analytic cost of SUMMAL3ooL2 (Table 2, attains the W1 write\n"
        "    floor).  Params: n, P.",
        (_N, _P), cost_summal3_ool2, _cost_summal3_ool2, _cost_record),
    "cost-lu-ll": CostFamily(
        "LL-LUNP",
        "LL-LUNP dominant β-costs (formulas (23)/(24)).  Params: n, P.",
        (_N, _P), ll_lunp_beta_cost, _ll_lunp, _flat_record),
    "cost-lu-rl": CostFamily(
        "RL-LUNP",
        "RL-LUNP dominant β-costs (formulas (25)/(26)).  Params: n, P.",
        (_N, _P), rl_lunp_beta_cost, _rl_lunp, _flat_record),
}

#: The dominant-β-cost comparisons behind ``cost-dominance``, by model.
_DOMINANCE: Dict[str, CostFamily] = {
    "2.1": CostFamily(
        "2.5DMML2 vs 2.5DMML3", "", (_N, _P, _C2, _C3),
        dom_beta_cost_model21, _dom_model21, dict,
        lambda n, P, c2, c3: (c2 >= 1) & (c3 >= 1)),
    "2.2": CostFamily(
        "2.5DMML3ooL2 vs SUMMAL3ooL2", "", (_N, _P, _C3),
        dom_beta_cost_model22, _dom_model22, dict,
        lambda n, P, c3: c3 >= 1),
}


def _dominance_model(params: Mapping) -> str:
    model = str(params.get("model", "2.1"))
    require(model in _DOMINANCE,
            f"model must be '2.1' or '2.2', got {model!r}")
    return model


def kernel_cost_dominance(machine, params: Mapping) -> Dict:
    """Dominant-β-cost comparison: which algorithm the paper predicts
    wins.  Params: model ("2.1" or "2.2"), n, P, c2 (2.1 only), c3."""
    model = _dominance_model(params)
    return {"model": model,
            **_family_point(_DOMINANCE[model], machine, params)}


def _dominance_batch(hw: HwParams, group) -> list:
    """``cost-dominance`` points batched per model."""
    models = [_dominance_model(params) for _, params in group]
    recs: list = [None] * len(group)
    for model, family in _DOMINANCE.items():
        idx = [i for i, m in enumerate(models) if m == model]
        if idx:
            sub = _family_batch(family, hw, [group[i] for i in idx])
            for i, rec in zip(idx, sub):
                recs[i] = {"model": model, **rec}
    return recs


def kernel_cost_break_even(machine, params: Mapping) -> Dict:
    """Replication break-even: smallest c3/c2 ratio at which NVM-staged
    replication (2.5DMML3) beats 2.5DMML2.  No params — the ratio
    depends only on the machine's β rates (sweep those via --hw)."""
    hw = _hw(machine)
    return {
        "c3_over_c2": replication_break_even(hw, 1),
        "beta_nw": hw.beta_nw,
        "beta_23": hw.beta_23,
        "beta_32": hw.beta_32,
    }


def _break_even_batch(hw: HwParams, group) -> list:
    """One break-even record, copied to every point of the group."""
    rec = kernel_cost_break_even(*group[0])
    return [dict(rec) for _ in group]


def _table_cell(params: Mapping, rows: list, table: str) -> Dict:
    """One (row, algorithm) cell of an evaluated table-row list."""
    row = _geti(params, "row")
    require(0 <= row < len(rows),
            f"row must be in 0..{len(rows) - 1}, got {row}")
    require("algorithm" in params,
            "missing required parameter 'algorithm' "
            "(pass it via --set or the scenario's fixed/grid)")
    algorithm = str(params["algorithm"])
    r = rows[row]
    require(algorithm in r and algorithm not in ("movement", "param",
                                                 "common"),
            f"unknown {table} algorithm {algorithm!r}")
    return {"movement": r["movement"], "param": r["param"],
            "common": r["common"], "algorithm": algorithm,
            "feasible": True, "words": r[algorithm]}


def kernel_cost_table1(machine, params: Mapping) -> Dict:
    """One (row, algorithm) cell of the paper's Table 1, numerically
    evaluated.  Params: n, P, c2, c3, row (0-based), algorithm."""
    hw = _hw(machine)
    n, P = _geti(params, "n", 1 << 14), _geti(params, "P", 1 << 20)
    c2, c3 = _geti(params, "c2", 4), _geti(params, "c3", 16)
    try:
        rows = table1_rows(n, P, c2, c3, hw)
    except ValueError as exc:
        return _infeasible(str(params.get("algorithm", "Table-1")), exc)
    return _table_cell(params, rows, "Table-1")


def kernel_cost_table2(machine, params: Mapping) -> Dict:
    """One (row, algorithm) cell of the paper's Table 2, numerically
    evaluated.  Params: n, P, c3, row (0-based), algorithm."""
    hw = _hw(machine)
    n, P = _geti(params, "n", 1 << 15), _geti(params, "P", 512)
    c3 = _geti(params, "c3", 4)
    try:
        rows = table2_rows(n, P, c3, hw)
    except ValueError as exc:
        return _infeasible(str(params.get("algorithm", "Table-2")), exc)
    return _table_cell(params, rows, "Table-2")


def _table_batch(rows_fn: Callable, sizes: Tuple[str, ...],
                 defaults: Tuple[int, ...], table: str) -> Callable:
    """A table-cell evaluator memoizing the scalar row list per unique
    size tuple (row/algorithm axes make uniques sparse; reusing the
    scalar row code is the bit-identity argument for the tables)."""

    def evaluate(hw: HwParams, group) -> list:
        rows_cache: Dict[Tuple[int, ...], Any] = {}
        recs = []
        for _, params in group:
            key = tuple(_geti(params, name, default)
                        for name, default in zip(sizes, defaults))
            try:
                rows = rows_cache[key]
            except KeyError:
                try:
                    rows = rows_fn(*key, hw)
                except ValueError as exc:
                    rows = exc
                rows_cache[key] = rows
            if isinstance(rows, ValueError):
                recs.append(_infeasible(
                    str(params.get("algorithm", table)), rows))
            else:
                recs.append(_table_cell(params, rows, table))
        return recs

    return evaluate


def _family_kernel(family: CostFamily) -> Callable:
    def kernel(machine, params: Mapping) -> Dict:
        return _family_point(family, machine, params)

    kernel.__doc__ = family.doc
    return kernel


COST_KERNELS: Dict[str, Callable] = {
    **{name: _family_kernel(family)
       for name, family in _FAMILIES.items()},
    "cost-break-even": kernel_cost_break_even,
    "cost-dominance": kernel_cost_dominance,
    "cost-table1": kernel_cost_table1,
    "cost-table2": kernel_cost_table2,
}

#: kernel name -> ``(hw, group) -> records`` batch evaluator.
COST_BATCH_EVALUATORS: Dict[str, Callable] = {
    **{name: partial(_family_batch, family)
       for name, family in _FAMILIES.items()},
    "cost-break-even": _break_even_batch,
    "cost-dominance": _dominance_batch,
    "cost-table1": _table_batch(
        table1_rows, ("n", "P", "c2", "c3"),
        (1 << 14, 1 << 20, 4, 16), "Table-1"),
    "cost-table2": _table_batch(
        table2_rows, ("n", "P", "c3"),
        (1 << 15, 512, 4), "Table-2"),
}


def run_cost_batch(kernel: str, group) -> list:
    """A whole grid of one ``cost-*`` family in one vectorized pass.

    Every ``(machine, params)`` pair must resolve to the same
    :class:`HwParams` (the executor groups on the projected machine, so
    this holds by construction); records are bit-identical to running
    the scalar kernel per point, including the ``feasible: False``
    payloads of out-of-regime grid points.
    """
    try:
        evaluate = COST_BATCH_EVALUATORS[kernel]
    except KeyError:
        raise ValueError(
            f"kernel {kernel!r} is not a batched cost kernel; "
            f"available: {sorted(COST_BATCH_EVALUATORS)}"
        ) from None
    machine0 = group[0][0]
    hw = _hw(machine0)
    checked = {id(machine0)}
    for machine, _ in group:
        if id(machine) in checked:  # grids share one spec object
            continue
        require(machine.hw_params() == hw,
                "cost batch mixes different hw parameter sets")
        checked.add(id(machine))
    return evaluate(hw, group)


# --------------------------------------------------------------------- #
# executed distributed algorithms
# --------------------------------------------------------------------- #
#: per-rank counters every execution record reports (max and total).
_RANK_CHANNELS = ("nw_sent", "nw_recv", "nw_msgs_sent", "nw_msgs_recv",
                  "l2_to_l3", "l3_to_l2", "l2_to_l3_msgs", "l3_to_l2_msgs",
                  "l2_to_l1", "l1_to_l2")


def _dist_record(m: DistMachine) -> Dict:
    rec: Dict[str, int] = {}
    for attr in _RANK_CHANNELS:
        rec[f"{attr}_max"] = m.max_over_ranks(attr)
        rec[f"{attr}_total"] = m.total_over_ranks(attr)
    return rec


def _random_matrices(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def kernel_summa_2d(machine, params: Mapping) -> Dict:
    """Executed 2D SUMMA (Model 1) with per-rank traffic counters.
    Params: n, P; optional hoard (the √P-L2 variant), M1, seed."""
    n, P = _geti(params, "n", 32), _geti(params, "P", 16)
    hoard = bool(params.get("hoard", False))
    M1 = None if params.get("M1") is None else _getf(params, "M1")
    A, B = _random_matrices(n, _geti(params, "seed", 0))
    m = DistMachine(P)
    C = summa_2d(A, B, m, hoard=hoard, M1=M1)
    return {"correct": bool(np.allclose(C, A @ B)), "hoard": hoard,
            **_dist_record(m)}


def kernel_summa_l3_ool2(machine, params: Mapping) -> Dict:
    """Executed SUMMAL3ooL2 (Model 2.2): attains the NVM write floor
    W1 = n²/P.  Params: n, P, M2; optional seed."""
    n, P = _geti(params, "n", 32), _geti(params, "P", 16)
    M2 = _getf(params, "M2")
    A, B = _random_matrices(n, _geti(params, "seed", 0))
    m = DistMachine(P, M2=M2)
    C = summa_l3_ool2(A, B, m, M2=M2)
    return {"correct": bool(np.allclose(C, A @ B)),
            "w1_floor": n * n // P, **_dist_record(m)}


def kernel_mm_25d(machine, params: Mapping) -> Dict:
    """Executed 2.5D matmul (replication factor c, optional NVM
    staging).  Params: n, P, c; optional storage (L2|L3|L3-ooL2), M2,
    seed."""
    n, P = _geti(params, "n", 16), _geti(params, "P", 8)
    c = _geti(params, "c", 2)
    storage = str(params.get("storage", "L2"))
    M2 = None if params.get("M2") is None else _getf(params, "M2")
    A, B = _random_matrices(n, _geti(params, "seed", 0))
    m = DistMachine(P, M2=M2)
    C = mm_25d(A, B, m, c=c, storage=storage, M2=M2)
    return {"correct": bool(np.allclose(C, A @ B)), "c": c,
            "storage": storage, **_dist_record(m)}


def _lu_problem(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    return A


def kernel_lu_ll(machine, params: Mapping) -> Dict:
    """Executed left-looking LU without pivoting (LL-LUNP, Alg. 5):
    O(n²/P) NVM writes per rank.  Params: n, b, P; optional seed."""
    n, b = _geti(params, "n", 32), _geti(params, "b", 4)
    P = _geti(params, "P", 4)
    A = _lu_problem(n, _geti(params, "seed", 0))
    m = DistMachine(P)
    L, U = lu_ll_nonpivot(A, m, b=b)
    return {"correct": bool(np.allclose(L @ U, A, atol=1e-8)),
            **_dist_record(m)}


def kernel_lu_rl(machine, params: Mapping) -> Dict:
    """Executed right-looking LU without pivoting (RL-LUNP): fewer
    network words, more NVM writes.  Params: n, b, P; optional seed."""
    n, b = _geti(params, "n", 32), _geti(params, "b", 4)
    P = _geti(params, "P", 4)
    A = _lu_problem(n, _geti(params, "seed", 0))
    m = DistMachine(P)
    L, U = lu_rl_nonpivot(A, m, b=b)
    return {"correct": bool(np.allclose(L @ U, A, atol=1e-8)),
            **_dist_record(m)}


DISTRIBUTED_KERNELS: Dict[str, Callable] = {
    "summa-2d": kernel_summa_2d,
    "summa-l3-ool2": kernel_summa_l3_ool2,
    "mm-25d": kernel_mm_25d,
    "lu-ll-nonpivot": kernel_lu_ll,
    "lu-rl-nonpivot": kernel_lu_rl,
}


# --------------------------------------------------------------------- #
# Krylov kernels
# --------------------------------------------------------------------- #
def _stencil_system(params: Mapping):
    mesh = _geti(params, "mesh", 256)
    d = _geti(params, "d", 1)
    b = _geti(params, "b", 1)
    return spd_stencil_system(mesh, d=d, b=b)


def _traffic_record(traffic, steps: int) -> Dict:
    return {
        "reads": traffic.reads,
        "writes": traffic.writes,
        "flops": traffic.flops,
        "writes_per_step": traffic.writes / max(1, steps),
    }


def kernel_krylov_cg(machine, params: Mapping) -> Dict:
    """Conventional CG (Alg. 6): the Ω(N·n) write baseline.
    Params: mesh; optional d, b, tol."""
    A, rhs = _stencil_system(params)
    res = cg(A, rhs, tol=_getf(params, "tol", 1e-8))
    return {"method": "CG", "converged": res.converged,
            "steps": res.iterations,
            **_traffic_record(res.traffic, res.iterations)}


def kernel_krylov_cacg(machine, params: Mapping) -> Dict:
    """s-step CA-CG (Alg. 7); streaming=True is the WA variant that
    cuts writes by Θ(s).  Params: mesh, s; optional streaming, block,
    d, b, tol."""
    A, rhs = _stencil_system(params)
    s = _geti(params, "s")
    streaming = bool(params.get("streaming", False))
    block = params.get("block")
    res = cacg(A, rhs, s=s, tol=_getf(params, "tol", 1e-8),
               streaming=streaming,
               block=None if block is None else _geti(params, "block"))
    return {"method": "CA-CG" + (" streaming" if streaming else ""),
            "s": s, "converged": res.converged, "steps": res.inner_steps,
            "outer_iterations": res.outer_iterations,
            **_traffic_record(res.traffic, res.inner_steps)}


def kernel_krylov_gmres(machine, params: Mapping) -> Dict:
    """GMRES: variant='restarted' is GMRES(s); variant='ca' is s-step
    CA-GMRES (optionally streaming).  Params: mesh, s; optional
    variant, streaming, block, d, b, tol."""
    A, rhs = _stencil_system(params)
    s = _geti(params, "s")
    variant = str(params.get("variant", "restarted"))
    tol = _getf(params, "tol", 1e-8)
    if variant == "restarted":
        res = gmres(A, rhs, restart=s, tol=tol)
        method = "GMRES"
    else:
        require(variant == "ca",
                f"variant must be 'restarted' or 'ca', got {variant!r}")
        block = params.get("block")
        streaming = bool(params.get("streaming", False))
        res = ca_gmres(A, rhs, s=s, tol=tol, streaming=streaming,
                       block=None if block is None else _geti(params,
                                                              "block"))
        method = "CA-GMRES" + (" streaming" if streaming else "")
    return {"method": method, "s": s, "converged": res.converged,
            "steps": res.inner_steps, "cycles": res.cycles,
            **_traffic_record(res.traffic, res.inner_steps)}


def kernel_krylov_matrix_powers(machine, params: Mapping) -> Dict:
    """The matrix-powers kernel: variant in naive (s SpMVs), blocked
    (CA), streaming (WA — zero basis writes).  Params: mesh, s;
    optional variant, block, d, b."""
    A, rhs = _stencil_system(params)
    s = _geti(params, "s")
    variant = str(params.get("variant", "blocked"))
    block = _geti(params, "block", max(1, -(-A.shape[0] // 8)))
    if variant == "naive":
        _, t = matrix_powers(A, rhs, s)
    elif variant == "blocked":
        _, t = matrix_powers_blocked(A, rhs, s, block=block)
    else:
        require(variant == "streaming",
                "variant must be 'naive', 'blocked' or 'streaming', "
                f"got {variant!r}")
        t = matrix_powers_streaming(A, rhs, s, lambda r0, r1, K: 0,
                                    block=block)
    return {"method": f"matrix-powers {variant}", "s": s,
            **_traffic_record(t, s)}


def kernel_krylov_tsqr(machine, params: Mapping) -> Dict:
    """TSQR of the Krylov basis: variant='stored' builds the basis then
    factors it (Θ(s·n) writes); variant='streaming' interleaves TSQR
    with matrix powers (§8 — only R is written).  Params: mesh, s;
    optional variant, block, d, b."""
    A, rhs = _stencil_system(params)
    s = _geti(params, "s")
    variant = str(params.get("variant", "stored"))
    block = _geti(params, "block", max(s + 1, -(-A.shape[0] // 8)))
    require(block >= s + 1,
            f"block ({block}) must be >= s+1 ({s + 1}) for the QR tree")
    if variant == "stored":
        K, t = matrix_powers_blocked(A, rhs, s, block=block)
        _, R, t_qr = tsqr(K, block=block)
        t.add(t_qr)
    else:
        require(variant == "streaming",
                f"variant must be 'stored' or 'streaming', got {variant!r}")
        R, t = streaming_basis_r(A, rhs, s, block=block)
    return {"method": f"tsqr {variant}", "s": s,
            "r_norm": float(np.linalg.norm(R)),
            **_traffic_record(t, s)}


KRYLOV_KERNELS: Dict[str, Callable] = {
    "krylov-cg": kernel_krylov_cg,
    "krylov-cacg": kernel_krylov_cacg,
    "krylov-gmres": kernel_krylov_gmres,
    "krylov-matrix-powers": kernel_krylov_matrix_powers,
    "krylov-tsqr": kernel_krylov_tsqr,
}


#: everything this module registers, by registry name.
MODEL_KERNELS: Dict[str, Callable] = {
    **COST_KERNELS,
    **DISTRIBUTED_KERNELS,
    **KRYLOV_KERNELS,
}
