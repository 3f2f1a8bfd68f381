"""Section 8: Krylov methods — streaming CA-CG cuts writes by Θ(s).

One table over s: CG's writes per iteration, plain CA-CG's and streaming
CA-CG's writes per CG-equivalent step, plus the read/flop premium — the
paper's "reduce writes by Θ(s) at the cost of ≤2× reads and arithmetic".
The ``sec8`` preset (:func:`sec8_scenario`) computes the rows with the
``krylov-cg`` and ``krylov-cacg`` kernels and checks the paper's claims;
this module also lays them out.  The ``krylov`` preset
(:func:`krylov_scenario`) extends the section to GMRES and the
matrix-powers and TSQR building blocks.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments import point_rows
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["sec8_scenario", "krylov_scenario", "format_sec8"]


def sec8_scenario(quick: bool = False) -> Scenario:
    """Section 8: CG against plain and streaming CA-CG over s, on a 1-D
    stencil of ``mesh`` points."""
    W = "writes_per_step"
    machine = MachineSpec(name="krylov-sim")
    mesh = 128 if quick else 256
    block = 32 if quick else 64
    points = [ScenarioPoint("krylov-cg", machine, {"mesh": mesh})]
    points += [
        ScenarioPoint("krylov-cacg", machine,
                      {"mesh": mesh, "block": block, "s": s,
                       "streaming": streaming})
        for s in (2, 4, 8)
        for streaming in (False, True)
    ]
    return Scenario(
        name="sec8",
        kernel="krylov-cacg",
        machine=machine,
        description="Section 8: CG vs (streaming) CA-CG writes per step",
        explicit=points,
        report=lambda sc, res: format_sec8(_sec8_rows(res)),
        claims=claims_on(_sec8_view, {
            "all-converge": lambda v: all(r["converged"] for r in v.values()),
            "streaming-writes-fall-with-s":
                lambda v: v["stream", 2][W] > v["stream", 4][W]
                > v["stream", 8][W],
            "streaming-s8-under-half-of-cg":
                lambda v: v["stream", 8][W] < v["cg", 1][W] / 2,
            "plain-cacg-s8-over-2x-streaming":
                lambda v: v["plain", 8][W] > 2 * v["stream", 8][W],
            "streaming-flops-within-2.1x-of-plain":
                lambda v: all(v["stream", s]["flops"]
                              <= 2.1 * v["plain", s]["flops"]
                              for s in (2, 4, 8)),
        }),
    )


def _sec8_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """Rows by (CG, plain or streaming CA-CG, s)."""
    short = {"CG": "cg", "CA-CG": "plain", "CA-CG streaming": "stream"}
    return {(short[r["method"]], r.get("s", 1)): r
            for r in point_rows(results)}


def _sec8_rows(results: List[Any]) -> Dict[str, Any]:
    """Point records as the table :func:`format_sec8` prints."""
    p0 = results[0].point.params
    d = p0.get("d", 1)
    return {"n": p0["mesh"] ** d, "d": d,
            "rows": [{"s": 1, **r.record} for r in results]}


def format_sec8(result: Dict) -> str:
    headers = ["method", "s", "steps", "writes/step", "reads", "flops",
               "converged"]
    body = [
        [r["method"], r["s"], r["steps"],
         round(r["writes_per_step"], 1), r["reads"], r["flops"],
         r["converged"]]
        for r in result["rows"]
    ]
    return format_table(
        headers, body,
        title=(f"Section 8 — KSM write rates on a {result['d']}-D stencil "
               f"(n={result['n']}): streaming CA-CG reduces W12 by Θ(s)"),
    )


def krylov_scenario(quick: bool = False) -> Scenario:
    """Section 8 as a sweep: CG vs (streaming) CA-CG vs (CA-)GMRES plus
    the matrix-powers and TSQR building blocks, one point per method
    configuration with slow-memory read/write/flop counters."""
    machine = MachineSpec(name="krylov-sim")
    mesh = 128 if quick else 256
    block = 32 if quick else 64
    s_values = (2, 4) if quick else (2, 4, 8)
    fixed = {"mesh": mesh, "block": block}
    points = [ScenarioPoint("krylov-cg", machine, {"mesh": mesh})]
    points += [
        ScenarioPoint("krylov-cacg", machine,
                      {**fixed, "s": s, "streaming": streaming})
        for s in s_values
        for streaming in (False, True)
    ]
    points += [
        ScenarioPoint("krylov-gmres", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("restarted", "ca")
    ]
    points += [
        ScenarioPoint("krylov-matrix-powers", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("naive", "blocked", "streaming")
    ]
    points += [
        ScenarioPoint("krylov-tsqr", machine,
                      {**fixed, "s": 4, "variant": variant})
        for variant in ("stored", "streaming")
    ]
    return Scenario(
        name="krylov",
        kernel="krylov-cacg",
        machine=machine,
        description="Krylov methods: write traffic of CG / CA-CG / "
                    "GMRES and the matrix-powers / TSQR kernels",
        explicit=points,
        report=_krylov_report,
    )


def _krylov_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["method", "s", "steps", "reads", "writes", "writes/step",
               "flops", "converged"]
    body = []
    for res in results:
        rec = res.record
        body.append([
            rec["method"], rec.get("s", 1), rec.get("steps", ""),
            rec["reads"], rec["writes"],
            round(rec["writes_per_step"], 1), rec["flops"],
            rec.get("converged", ""),
        ])
    return format_table(
        headers, body,
        title=f"Krylov sweep — slow-memory traffic "
              f"(mesh={scenario.explicit[0].params['mesh']}); streaming "
              f"variants cut writes by Θ(s)")
