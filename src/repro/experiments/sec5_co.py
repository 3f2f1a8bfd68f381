"""Section 5: cache-oblivious algorithms cannot be write-avoiding.

Runs the CO recursive matmul with explicit ideal-execution accounting at a
cascade of fast-memory sizes and shows stores growing like Θ(n³/√M),
against the WA comparator's flat n² — Theorem 3 / Corollary 4 in numbers.

:func:`kernel_co_vs_wa` is the ``co-vs-wa`` point kernel (one fast-memory
size per point), the ``sec5`` preset of :mod:`repro.lab.scenarios` sweeps
it, and :func:`format_sec5` lays the rows out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.bounds import co_write_lower_bound
from repro.core import blocked_matmul, co_matmul
from repro.machine import TwoLevel
from repro.util import canonical_int, format_table

__all__ = ["kernel_co_vs_wa", "format_sec5"]


def kernel_co_vs_wa(machine: Any, params: Mapping[str, Any]
                    ) -> Dict[str, Any]:
    """CO recursive matmul vs blocked WA matmul on an M-word fast memory
    (Theorem 3 / Corollary 4)."""
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
