"""Section 4: exact traffic counts of the WA kernels vs their non-WA twins.

One table, one row per (kernel, variant): measured writes to slow memory,
the lower bound (output size), measured writes to fast memory, and the
Theorem-1 check — the quantitative content of Algorithms 1–4.

The ``twolevel-counts`` point kernel (:mod:`repro.lab.modelkernels`)
runs one instrumented kernel per point, the ``sec4`` preset
(:func:`sec4_scenario`) sweeps it and checks the paper's claims, and
:func:`format_sec4` lays the rows out.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments import point_rows
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["sec4_scenario", "format_sec4"]


def sec4_scenario(quick: bool = False) -> Scenario:
    """Section 4: one ``twolevel-counts`` point per (algorithm, variant)
    at n=32, b=4 (quick is the full geometry)."""
    machine = MachineSpec(name="two-level")
    cases = ([("matmul", order)
              for order in ("ijk", "jik", "ikj", "kij", "jki", "kji")]
             + [(alg, variant) for alg in ("trsm", "cholesky")
                for variant in ("left-looking", "right-looking")]
             + [("nbody2", "blocked"), ("nbody2", "symmetry"),
                ("nbody3", "blocked")])
    return Scenario(
        name="sec4",
        kernel="twolevel-counts",
        machine=machine,
        description="Section 4: writes of the WA kernels and their "
                    "non-WA variants on a two-level memory",
        explicit=[ScenarioPoint("twolevel-counts", machine,
                                {"algorithm": alg, "variant": variant,
                                 "n": 32, "b": 4, "seed": 0})
                  for alg, variant in cases],
        report=lambda sc, res: format_sec4(point_rows(res)),
        claims=claims_on(_sec4_view, {
            "k-innermost-matmul-writes-equal-output":
                lambda v: all(v["matmul", o]["writes_to_slow"]
                              == v["matmul", o]["output_size"]
                              for o in ("ijk", "jik")),
            "other-matmul-orders-write-over-2x-output":
                lambda v: all(v["matmul", o]["writes_to_slow"]
                              > 2 * v["matmul", o]["output_size"]
                              for o in ("ikj", "kij", "jki", "kji")),
            "trsm-left-looking-wa": lambda v: v["trsm", "left-looking"]["wa"],
            "trsm-right-looking-not-wa":
                lambda v: not v["trsm", "right-looking"]["wa"],
            "cholesky-left-looking-wa":
                lambda v: v["cholesky", "left-looking"]["wa"],
            "cholesky-right-looking-not-wa":
                lambda v: not v["cholesky", "right-looking"]["wa"],
            "nbody2-blocked-wa": lambda v: v["nbody2", "blocked"]["wa"],
            "nbody2-symmetry-not-wa":
                lambda v: not v["nbody2", "symmetry"]["wa"],
            "nbody3-blocked-wa": lambda v: v["nbody3", "blocked"]["wa"],
            "theorem1-every-row": lambda v: all(r["theorem1"]
                                                for r in v.values()),
        }),
    )


def _sec4_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """Rows by (algorithm, variant)."""
    return {(r["algorithm"], r["variant"]): r for r in point_rows(results)}

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
