"""Table 1: communication costs of parallel matmul when data fits in L2.

:func:`table1_scenario` is the ``repro-lab run table1`` preset: one
``cost-table1`` point per (row, algorithm) cell, one ``cost-dominance``
point, and one *executed* ``mm-25d`` cross-check.  Its report
reassembles the point records into the table (the cells pivot back into
rows via :meth:`repro.lab.results.ResultSet.pivot`), checks the
paper's claims on it, and :func:`format_table1` prints it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Sequence

from repro.distributed import HwParams
from repro.distributed.costmodel import (TABLE1_ROW_COUNT,
                                         dom_beta_cost_model21)
from repro.lab.registry import MachineSpec
from repro.lab.results import ResultSet
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import canonical_int, format_table, require

__all__ = ["format_table1", "table1_scenario"]

_ALGORITHMS = ("2DMML2", "2.5DMML2", "2.5DMML3")


def _table1_points(n: int, P: int, c2: int, c3: int,
                   quick: bool) -> List[ScenarioPoint]:
    machine = MachineSpec(name="table1-hw")
    # Fail fast on a broken size override: the per-cell kernels would
    # only emit feasible:False records the table assembler cannot
    # pivot, so enforce the table's own rules here, up front.
    fixed = {name: canonical_int(value, name)
             for name, value in (("n", n), ("P", P), ("c2", c2),
                                 ("c3", c3))}
    require(fixed["c3"] > fixed["c2"] >= 1, "need c3 > c2 >= 1")
    require(fixed["n"] > 0, "n must be positive")
    require(fixed["P"] > 0, "P must be positive")
    points = [
        ScenarioPoint("cost-table1", machine,
                      {**fixed, "row": row, "algorithm": alg})
        for row in range(TABLE1_ROW_COUNT)
        for alg in _ALGORITHMS
    ]
    points.append(ScenarioPoint("cost-dominance", machine,
                                {**fixed, "model": "2.1"}))
    # Small executable configuration (the analytic n, P are far beyond
    # simulation scale): P=8, c=2 (q=2).
    nv = 8 if quick else 16
    points.append(ScenarioPoint("mm-25d", machine,
                                {"n": nv, "P": 8, "c": 2, "seed": 0}))
    return points


def _assemble_table1(results: Sequence[Any]) -> Dict:
    """Point records (in point order) -> the legacy harness result."""
    cells = [r.record for r in results if r.point.kernel == "cost-table1"]
    rows = ResultSet(cells).pivot(
        ("movement", "param", "common"), "algorithm", "words").rows
    p0 = results[0].point.params
    out: Dict = {
        "n": p0["n"], "P": p0["P"], "c2": p0["c2"], "c3": p0["c3"],
        "rows": rows,
    }
    for res in results:
        if res.point.kernel == "cost-dominance":
            dom = dict(res.record)
            dom.pop("model", None)
            out["dom_comparison"] = dom
        elif res.point.kernel == "mm-25d":
            pv = res.point.params
            # Leading measured network words per rank: replication
            # (2·nb²) + SUMMA panels (2·(q/c)·nb²) + reduction (nb²) —
            # compare order against the model's leading term.
            measured = res.record["nw_recv_max"]
            model_leading = 2 * pv["n"]**2 / math.sqrt(pv["P"] * pv["c"])
            out["validation"] = {
                "numerically_correct": res.record["correct"],
                "measured_max_nw_recv": measured,
                "model_leading_words": model_leading,
                "within_factor": measured / model_leading,
            }
    return out


def table1_scenario(quick: bool = False, *, n: int = 1 << 14,
                    P: int = 1 << 20, c2: int = 4, c3: int = 16
                    ) -> Scenario:
    """Table 1 as a ``repro-lab`` preset: one point per table cell, plus
    the dominance comparison and the executed 2.5D cross-check.

    The keyword parameters are the preset's ``--set``-able knobs: the
    ``rebuild`` hook regenerates the whole coupled point family from
    them, leaving the fixed validation geometry alone.
    """
    points = _table1_points(n, P, c2, c3, quick)
    return Scenario(
        name="table1",
        kernel="cost-table1",
        machine=points[0].machine,
        description="Table 1: Model-2.1 matmul cost model, one point per "
                    "cell + dominance + executed 2.5D cross-check",
        explicit=points,
        report=lambda sc, res: format_table1(_assemble_table1(res)),
        meta={"rebuild": partial(table1_scenario, quick)},
        claims=claims_on(lambda sc, res: _assemble_table1(res), {
            "l2-l1-rows-identical":
                lambda t: all(r["2DMML2"] == r["2.5DMML2"] == r["2.5DMML3"]
                              for r in t["rows"][:2]),
            "network-words-fall-with-replication":
                lambda t: (_row(t, "βNW")["2DMML2"]
                           > _row(t, "βNW")["2.5DMML2"]
                           > _row(t, "βNW")["2.5DMML3"]),
            "l2-algorithms-never-touch-nvm":
                lambda t: all(r["2DMML2"] is None and r["2.5DMML2"] is None
                              for r in t["rows"]
                              if r["movement"] in ("L3->L2", "L2->L3")),
            "executed-2.5d-correct":
                lambda t: t["validation"]["numerically_correct"],
            "executed-network-within-4x-of-model":
                lambda t: 0.5 < t["validation"]["within_factor"] < 4.0,
            "cheap-nvm-writes-favour-2.5dmml3":
                lambda t: _winner(t, HwParams(beta_23=0.1, beta_32=0.1))
                == "2.5DMML3",
            "dear-nvm-writes-favour-2.5dmml2":
                lambda t: _winner(t, HwParams(beta_23=100.0)) == "2.5DMML2",
        }),
    )


def _row(table: Dict, param: str) -> Dict:
    return next(r for r in table["rows"] if r["param"] == param)


def _winner(table: Dict, hw: HwParams) -> str:
    """The Model-2.1 winner at the table's sizes on hardware *hw*."""
    return dom_beta_cost_model21(table["n"], table["P"], table["c2"],
                                 table["c3"], hw)["winner"]


def format_table1(result: Dict) -> str:
    headers = ["Data movement", "Hw param", "Common factor",
               "2DMML2", "2.5DMML2", "2.5DMML3"]
    body = []
    for r in result["rows"]:
        body.append([
            r["movement"], r["param"], r["common"],
            "NA" if r["2DMML2"] is None else r["2DMML2"],
            "NA" if r["2.5DMML2"] is None else r["2.5DMML2"],
            "NA" if r["2.5DMML3"] is None else r["2.5DMML3"],
        ])
    title = (f"Table 1 — n={result['n']}, P={result['P']}, "
             f"c2={result['c2']}, c3={result['c3']} (word counts)")
    s = format_table(headers, body, title=title)
    d = result["dom_comparison"]
    s += (f"\n\ndomβcost(2.5DMML2)/domβcost(2.5DMML3) = {d['ratio']:.3f}"
          f"  →  predicted winner: {d['winner']}")
    v = result["validation"]
    s += (f"\nsimulation check: correct={v['numerically_correct']}, "
          f"measured/model network words = {v['within_factor']:.2f}x")
    return s
