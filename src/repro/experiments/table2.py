"""Table 2: parallel matmul when data does not fit in L2 (Model 2.2).

:func:`table2_scenario` is the ``repro-lab run table2`` preset, built
like :mod:`repro.experiments.table1`'s: one ``cost-table2`` point per
table cell, a Model-2.2 ``cost-dominance`` point, and two *executed*
validation points exhibiting the Theorem-4 trade-off — the simulated
SUMMAL3ooL2 attains the NVM-write floor W1 = n²/P exactly while paying
extra network; the simulated 2.5DMML3ooL2 does the opposite.

The ``cost-map`` preset (:func:`costmap_scenario`) extends the table
to a provisioning map of the 2.5DMML3ooL2 cost over (P, c3).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Sequence

from repro.distributed import HwParams
from repro.distributed.costmodel import (TABLE2_ROW_COUNT,
                                         dom_beta_cost_model22)
from repro.lab.registry import MACHINES, MachineSpec, hw_overrides
from repro.lab.results import ResultSet
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import canonical_int, format_table, require

__all__ = ["format_table2", "table2_scenario", "costmap_scenario"]

_ALGORITHMS = ("2.5DMML3ooL2", "SUMMAL3ooL2")


def _default_hw() -> HwParams:
    """Table 2's regime: small L1/L2 so the data genuinely spills."""
    return HwParams(M1=2**8, M2=2**14)


def _table2_points(n: int, P: int, c3: int, quick: bool
                   ) -> List[ScenarioPoint]:
    machine = MachineSpec(name="table2-hw", hw=hw_overrides(_default_hw()))
    # Fail fast on a broken size override: the per-cell kernels would
    # only emit feasible:False records the table assembler cannot
    # pivot, so enforce the table's own rules here, up front.
    fixed = {name: canonical_int(value, name)
             for name, value in (("n", n), ("P", P), ("c3", c3))}
    require(fixed["n"] > 0, "n must be positive")
    require(fixed["P"] > 0, "P must be positive")
    require(fixed["c3"] >= 1, "c3 must be >= 1")
    points = [
        ScenarioPoint("cost-table2", machine,
                      {**fixed, "row": row, "algorithm": alg})
        for row in range(TABLE2_ROW_COUNT)
        for alg in _ALGORITHMS
    ]
    points.append(ScenarioPoint("cost-dominance", machine,
                                {**fixed, "model": "2.2"}))
    # Model-2.2 regime at simulation scale: n²/P ≫ M2 so the SUMMA
    # variant's n³/(P√M2) network term genuinely dominates W2.
    nv, Pv, M2v = (16, 4, 3 * 2 * 2) if quick else (32, 16, 3 * 4 * 4)
    points.append(ScenarioPoint(
        "summa-l3-ool2", machine,
        {"n": nv, "P": Pv, "M2": M2v, "seed": 1}))
    points.append(ScenarioPoint(
        "mm-25d", machine,
        {"n": nv, "P": Pv, "c": 1, "storage": "L3-ooL2", "M2": M2v,
         "seed": 1}))
    return points


def _assemble_table2(results: Sequence[Any]) -> Dict:
    cells = [r.record for r in results if r.point.kernel == "cost-table2"]
    rows = ResultSet(cells).pivot(
        ("movement", "param", "common"), "algorithm", "words").rows
    p0 = results[0].point.params
    out: Dict = {"n": p0["n"], "P": p0["P"], "c3": p0["c3"], "rows": rows}
    summa = mm25d = None
    for res in results:
        if res.point.kernel == "cost-dominance":
            dom = dict(res.record)
            dom.pop("model", None)
            out["dom_comparison"] = dom
        elif res.point.kernel == "summa-l3-ool2":
            summa = res.record
        elif res.point.kernel == "mm-25d":
            mm25d = res.record
    out["validation"] = {
        "summa_correct": summa["correct"],
        "mm25d_correct": mm25d["correct"],
        "summa_nvm_writes_per_rank": summa["l2_to_l3_max"],
        "w1_floor": summa["w1_floor"],
        "summa_nw_recv": summa["nw_recv_max"],
        "mm25d_nvm_writes_per_rank": mm25d["l2_to_l3_max"],
        "mm25d_nw_recv": mm25d["nw_recv_max"],
    }
    return out


def table2_scenario(quick: bool = False, *, n: int = 1 << 15,
                    P: int = 512, c3: int = 4) -> Scenario:
    """Table 2 as a ``repro-lab`` preset.  The keyword parameters are
    the ``--set``-able knobs (the ``rebuild`` hook keeps the coupled
    cell/dominance/validation family consistent)."""
    points = _table2_points(n, P, c3, quick)
    return Scenario(
        name="table2",
        kernel="cost-table2",
        machine=points[0].machine,
        description="Table 2: Model-2.2 matmul cost model + executed "
                    "Theorem-4 trade-off (SUMMA vs 2.5D, NVM writes vs "
                    "network)",
        explicit=points,
        report=lambda sc, res: format_table2(_assemble_table2(res)),
        meta={"rebuild": partial(table2_scenario, quick)},
        claims=claims_on(lambda sc, res: _assemble_table2(res), {
            # Theorem 4: SUMMA attains the NVM-write floor, 2.5D the
            # network bound, neither both.
            "summa-nvm-writes-within-1.01x-of-w1":
                lambda t: _cell(t, "β23", "SUMMAL3ooL2") <= 1.01 * _w1(t),
            "2.5d-nvm-writes-over-3x-w1":
                lambda t: _cell(t, "β23", "2.5DMML3ooL2") > 3 * _w1(t),
            "2.5d-network-under-summa":
                lambda t: (_cell(t, "βNW", "2.5DMML3ooL2")
                           < _cell(t, "βNW", "SUMMAL3ooL2")),
            "executed-both-correct":
                lambda t: (t["validation"]["summa_correct"]
                           and t["validation"]["mm25d_correct"]),
            "executed-summa-nvm-writes-at-w1":
                lambda t: (t["validation"]["summa_nvm_writes_per_rank"]
                           == t["validation"]["w1_floor"]),
            "executed-2.5d-nvm-writes-over-2x-w1":
                lambda t: (t["validation"]["mm25d_nvm_writes_per_rank"]
                           > 2 * t["validation"]["w1_floor"]),
            "executed-2.5d-network-under-summa":
                lambda t: (t["validation"]["mm25d_nw_recv"]
                           < t["validation"]["summa_nw_recv"]),
            "dear-nvm-writes-favour-summa":
                lambda t: _winner(t, replace(_default_hw(), beta_23=1e4))
                == "SUMMAL3ooL2",
            "dear-network-favours-2.5d":
                lambda t: _winner(t, replace(_default_hw(), beta_nw=1e4,
                                             beta_23=1.0))
                == "2.5DMML3ooL2",
        }),
    )


def _cell(table: Dict, param: str, algorithm: str) -> Any:
    return next(r for r in table["rows"] if r["param"] == param)[algorithm]


def _w1(table: Dict) -> float:
    """The NVM-write floor W1 = n²/P at the table's sizes."""
    return table["n"] * table["n"] / table["P"]


def _winner(table: Dict, hw: HwParams) -> str:
    """The Model-2.2 winner at the table's sizes on hardware *hw*."""
    return dom_beta_cost_model22(table["n"], table["P"], table["c3"],
                                 hw)["winner"]


def costmap_scenario(quick: bool = False) -> Scenario:
    """NEW: an analytic provisioning map over (P, c3) for the Model-2.2
    NVM-staged 2.5D matmul.

    Pure closed-form arithmetic, so the executor evaluates the whole
    grid as one vectorized ``cost-*`` batch (``--no-batch`` opts out);
    the c3 axis deliberately runs past each P's ``c3 <= P^(1/3)`` edge,
    where points report ``feasible: False`` — provisioning questions
    are exactly about walking past those edges.
    """
    P_axis = [64, 256, 1024] if quick else [64, 256, 1024, 4096, 16384]
    c3_axis = [1, 2, 4, 8] if quick else [1, 2, 4, 8, 16, 32]
    return Scenario(
        name="cost-map",
        kernel="cost-25d-mm-l3-ool2",
        machine=MACHINES["hw-2015"],
        description="Provisioning map: 2.5DMML3ooL2 analytic cost over "
                    "(P, c3), one vectorized batch",
        fixed={"n": 1 << 14},
        grid={"P": P_axis, "c3": c3_axis},
    )


def format_table2(result: Dict) -> str:
    headers = ["Data movement", "Hw param", "Common factor",
               "2.5DMML3ooL2", "SUMMAL3ooL2"]
    body = []
    for r in result["rows"]:
        body.append([
            r["movement"], r["param"], r["common"],
            "NA" if r["2.5DMML3ooL2"] is None else r["2.5DMML3ooL2"],
            "NA" if r["SUMMAL3ooL2"] is None else r["SUMMAL3ooL2"],
        ])
    title = (f"Table 2 — n={result['n']}, P={result['P']}, "
             f"c3={result['c3']} (word counts)")
    s = format_table(headers, body, title=title)
    d = result["dom_comparison"]
    s += (f"\n\ndomβcost ratio (2.5D/SUMMA) = {d['ratio']:.3f}"
          f"  →  predicted winner: {d['winner']}")
    v = result["validation"]
    s += ("\nTheorem-4 trade-off, measured on the simulator:"
          f"\n  SUMMAL3ooL2: NVM writes/rank = "
          f"{v['summa_nvm_writes_per_rank']} "
          f"(floor W1 = {v['w1_floor']}), "
          f"network recv = {v['summa_nw_recv']}"
          f"\n  2.5DMML3ooL2: NVM writes/rank = "
          f"{v['mm25d_nvm_writes_per_rank']}, "
          f"network recv = {v['mm25d_nw_recv']}")
    return s
