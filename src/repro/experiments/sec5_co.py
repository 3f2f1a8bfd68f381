"""Section 5: cache-oblivious algorithms cannot be write-avoiding.

Runs the CO recursive matmul with explicit ideal-execution accounting at a
cascade of fast-memory sizes and shows stores growing like Θ(n³/√M),
against the WA comparator's flat n² — Theorem 3 / Corollary 4 in numbers.

The ``co-vs-wa`` point kernel (:mod:`repro.lab.modelkernels`) runs
one fast-memory size per point, the ``sec5`` preset
(:func:`sec5_scenario`) sweeps it and checks the paper's claims, and
:func:`format_sec5` lays the rows out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import point_rows
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, claims_on
from repro.util import format_table

__all__ = ["sec5_scenario", "format_sec5"]


def sec5_scenario(quick: bool = False) -> Scenario:
    """Section 5: CO vs WA matmul stores over the fast-memory size M
    (quick is the full geometry)."""
    return Scenario(
        name="sec5",
        kernel="co-vs-wa",
        machine=MachineSpec(name="two-level"),
        description="Section 5: cache-oblivious matmul stores vs WA's "
                    "n² as fast memory grows",
        fixed={"n": 32, "seed": 0},
        grid={"M": [3 * 4, 3 * 16, 3 * 64]},
        report=lambda sc, res: format_sec5(point_rows(res)),
        claims=claims_on(lambda sc, res: point_rows(res), {
            "co-stores-shrink-with-M":
                lambda r: r[0]["co_stores"] > r[-1]["co_stores"],
            "co-over-4x-output-at-smallest-M":
                lambda r: r[0]["co_over_output"] > 4,
            "wa-stores-equal-output":
                lambda r: all(x["wa_stores"] == x["output"] for x in r),
            "co-stores-over-wa":
                lambda r: all(x["co_stores"] > x["wa_stores"] for x in r),
        }),
    )


def format_sec5(rows: List[Dict]) -> str:
    headers = ["n", "M", "CO stores", "WA stores", "output n²",
               "Cor.4 Ω-ref", "CO/output"]
    body = [
        [r["n"], r["M"], r["co_stores"], r["wa_stores"], r["output"],
         round(r["corollary4_lb"], 1), round(r["co_over_output"], 1)]
        for r in rows
    ]
    return format_table(
        headers, body,
        title=("Section 5 — CO matmul stores Θ(n³/√M) vs WA's n² "
               "(Theorem 3 / Corollary 4)"),
    )
