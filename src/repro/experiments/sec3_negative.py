"""Section 3: bounded reuse precludes write-avoiding (Theorem 2).

Pebbles the FFT and Strassen CDAGs with an offline-optimal replacement and
reports measured stores against Theorem 2's lower bound — plus classical
matmul as the contrast case (out-degree-1 multiply vertices ⇒ no
obstruction, stores = output exactly).

:func:`kernel_cdag_pebble` is the ``cdag-pebble`` point kernel (one
pebbled CDAG per point), the ``sec3`` preset of :mod:`repro.lab.scenarios`
sweeps it, and :func:`format_sec3` lays the rows out.  The kernel imports
:mod:`repro.cdag` (and with it networkx) only when it runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.util import canonical_int, format_table

__all__ = ["kernel_cdag_pebble", "format_sec3", "LABELS"]

#: display name of each ``algorithm`` parameter value.
LABELS = {
    "fft": "Cooley-Tukey FFT",
    "strassen": "Strassen",
    "matmul": "classical matmul (WA schedule)",
}


def _matmul_schedule(n: int) -> list:
    sched = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sched.append(("m", i, j, k))
                if k >= 1:
                    sched.append(("c", i, j, k))
    return sched


def kernel_cdag_pebble(machine: Any, params: Mapping[str, Any]
                       ) -> Dict[str, Any]:
    """One CDAG red-blue pebbled with M fast-memory slots (Theorem 2)."""
    from repro.cdag import (
        fft_cdag,
        matmul_cdag,
        pebble,
        strassen_cdag,
        theorem2_write_lower_bound,
    )

    algorithm = params["algorithm"]
    n = canonical_int(params["n"], "n")
    M = canonical_int(params["M"], "M")
    if algorithm == "fft":
        st = pebble(fft_cdag(n), M=M)
        d, lb, output = 2, theorem2_write_lower_bound(st.loads, n, d=2), n
    elif algorithm == "strassen":
        dag = strassen_cdag(n)
        st = pebble(dag, M=M)
        prods = [v for v in dag.g.nodes
                 if isinstance(v, tuple) and v[0] == "p"]
        dec_c = dag.induced_subgraph(dag.descendants_of(prods))
        d = dec_c.max_out_degree(exclude_inputs=False)
        lb = theorem2_write_lower_bound(st.loads, 0, d=max(d, 1))
        output = n * n
    else:
        # Out-degree 1 within DecC: no Theorem-2 obstruction.
        st = pebble(matmul_cdag(n), M=M, schedule=_matmul_schedule(n))
        d, lb, output = 1, 0, n * n
    return {"d": d, "loads": st.loads, "stores": st.stores,
            "theorem2_lb": lb, "store_fraction": st.store_fraction,
            "output_size": output}


def format_sec3(rows: List[Dict]) -> str:
    headers = ["algorithm", "n", "d", "M", "loads", "stores",
               "Thm2 LB", "stores/traffic", "output"]
    body = [
        [LABELS[r["algorithm"]], r["n"],
         "1 (DecC)" if r["algorithm"] == "matmul" else r["d"], r["M"],
         r["loads"], r["stores"], r["theorem2_lb"],
         round(r["store_fraction"], 3), r["output_size"]]
        for r in rows
    ]
    return format_table(
        headers, body,
        title=("Section 3 — pebbled store counts vs Theorem-2 bounds "
               "(FFT/Strassen: stores ~ traffic; matmul: stores = output)"),
    )
