"""Section 4: exact traffic counts of the WA kernels vs their non-WA twins.

One table, one row per (kernel, variant): measured writes to slow memory,
the lower bound (output size), measured writes to fast memory, and the
Theorem-1 check — the quantitative content of Algorithms 1–4.

:func:`kernel_twolevel_counts` is the ``twolevel-counts`` point kernel
(one instrumented kernel run per point), the ``sec4`` preset of
:mod:`repro.lab.scenarios` sweeps it, and :func:`format_sec4` lays the
rows out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.bounds import theorem1_holds
from repro.core import (
    LOOP_ORDERS,
    blocked_cholesky,
    blocked_matmul,
    blocked_trsm,
    nbody2,
    nbody_k,
)
from repro.machine import TwoLevel
from repro.util import canonical_int, format_table

__all__ = ["kernel_twolevel_counts", "format_sec4", "VARIANTS"]

#: display name of each ``algorithm`` parameter value.
_LABELS = {
    "matmul": "matmul (Alg.1)",
    "trsm": "TRSM (Alg.2)",
    "cholesky": "Cholesky (Alg.3)",
    "nbody2": "(N,2)-body (Alg.4)",
    "nbody3": "(N,3)-body",
}

#: the ``variant`` values each ``algorithm`` runs: a loop order for
#: matmul, left-/right-looking for TRSM and Cholesky, blocked (or with
#: the symmetry saving) for the N-body kernels.
VARIANTS: Dict[str, Tuple[str, ...]] = {
    "matmul": LOOP_ORDERS,
    "trsm": ("left-looking", "right-looking"),
    "cholesky": ("left-looking", "right-looking"),
    "nbody2": ("blocked", "symmetry"),
    "nbody3": ("blocked",),
}


def _inputs(n: int, seed: int) -> Tuple[np.ndarray, ...]:
    """Every input of the section, drawn from one generator in a fixed
    order, so a point sees the same data whichever other points run."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    T = np.triu(rng.standard_normal((n, n)))
    T[np.diag_indices(n)] = n + rng.random(n)
    rhs = rng.standard_normal((n, n))
    G = rng.standard_normal((n, n))
    P = rng.standard_normal((n, 3))
    return A, B, T, rhs, G @ G.T + n * np.eye(n), P


def kernel_twolevel_counts(machine: Any, params: Mapping[str, Any]
                           ) -> Dict[str, Any]:
    """One Section-4 kernel on an instrumented two-level memory."""
    algorithm = params["algorithm"]
    variant = str(params["variant"])
    n = canonical_int(params["n"], "n")
    b = canonical_int(params["b"], "b")
    A, B, T, rhs, SPD, P = _inputs(n, canonical_int(params["seed"], "seed"))
    if algorithm == "matmul":
        h = TwoLevel(3 * b * b)
        blocked_matmul(A, B, b=b, hier=h, loop_order=variant)
        output = n * n
    elif algorithm == "trsm":
        h = TwoLevel(3 * b * b)
        blocked_trsm(T, rhs, b=b, hier=h, variant=variant)
        output = n * n
    elif algorithm == "cholesky":
        h = TwoLevel(3 * b * b)
        blocked_cholesky(SPD, b=b, hier=h, variant=variant)
        output = n * (n + b) // 2
    elif algorithm == "nbody2":
        symmetry = variant == "symmetry"
        h = TwoLevel(4 * b if symmetry else 3 * b)
        nbody2(P, b=b, hier=h, use_symmetry=symmetry)
        output = n
    else:
        h = TwoLevel(4 * b)
        nbody_k(P[: n // 2, :2], b=b, k=3, hier=h)
        output = n // 2
    return {
        "writes_to_slow": h.writes_to_slow,
        "output_size": output,
        "wa": h.writes_to_slow <= 2 * output,
        "writes_to_fast": h.writes_to_fast,
        "loads+stores": h.loads_plus_stores,
        "theorem1": theorem1_holds(h),
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
