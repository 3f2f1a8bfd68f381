"""Section 5: cache-oblivious algorithms cannot be write-avoiding.

Runs the CO recursive matmul with explicit ideal-execution accounting at a
cascade of fast-memory sizes and shows stores growing like Θ(n³/√M),
against the WA comparator's flat n² — Theorem 3 / Corollary 4 in numbers.

The ``co-vs-wa`` point kernel (:mod:`repro.lab.modelkernels`) runs
one fast-memory size per point, the ``sec5`` preset of
:mod:`repro.lab.scenarios` sweeps it, and :func:`format_sec5` lays the
rows out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util import format_table

__all__ = ["format_sec5"]


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
