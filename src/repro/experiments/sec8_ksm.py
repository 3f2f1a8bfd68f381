"""Section 8: Krylov methods — streaming CA-CG cuts writes by Θ(s).

One table over s: CG's writes per iteration, plain CA-CG's and streaming
CA-CG's writes per CG-equivalent step, plus the read/flop premium — the
paper's "reduce writes by Θ(s) at the cost of ≤2× reads and arithmetic".
The ``sec8`` preset of :mod:`repro.lab.scenarios` computes the rows with
the ``krylov-cg`` and ``krylov-cacg`` kernels; this module lays them out.
"""

from __future__ import annotations

from typing import Dict

from repro.util import format_table

__all__ = ["format_sec8"]


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
