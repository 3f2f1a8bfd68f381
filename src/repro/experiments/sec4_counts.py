"""Section 4: exact traffic counts of the WA kernels vs their non-WA twins.

One table, one row per (kernel, variant): measured writes to slow memory,
the lower bound (output size), measured writes to fast memory, and the
Theorem-1 check — the quantitative content of Algorithms 1–4.

The ``twolevel-counts`` point kernel (:mod:`repro.lab.modelkernels`)
runs one instrumented kernel per point, the ``sec4`` preset of
:mod:`repro.lab.scenarios` sweeps it, and :func:`format_sec4` lays the
rows out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util import format_table

__all__ = ["format_sec4"]

#: display name of each ``algorithm`` parameter value.
_LABELS = {
    "matmul": "matmul (Alg.1)",
    "trsm": "TRSM (Alg.2)",
    "cholesky": "Cholesky (Alg.3)",
    "nbody2": "(N,2)-body (Alg.4)",
    "nbody3": "(N,3)-body",
}


def _variant_label(algorithm: str, variant: str) -> str:
    if algorithm == "matmul":
        return f"loop order {variant}" + (" [k inner]"
                                          if variant[2] == "k" else "")
    return "force symmetry" if variant == "symmetry" else variant


def format_sec4(rows: List[Dict]) -> str:
    headers = ["kernel", "variant", "writes→slow", "output (LB)", "WA?",
               "writes→fast", "loads+stores", "Thm1"]
    body = [
        [_LABELS[r["algorithm"]], _variant_label(r["algorithm"],
                                                 r["variant"]),
         r["writes_to_slow"], r["output_size"],
         "yes" if r["wa"] else "NO", r["writes_to_fast"],
         r["loads+stores"], "ok" if r["theorem1"] else "VIOLATED"]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Section 4 — measured traffic of WA kernels and variants",
    )
