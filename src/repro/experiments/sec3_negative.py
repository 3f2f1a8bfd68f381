"""Section 3: bounded reuse precludes write-avoiding (Theorem 2).

Pebbles the FFT and Strassen CDAGs with an offline-optimal replacement and
reports measured stores against Theorem 2's lower bound — plus classical
matmul as the contrast case (out-degree-1 multiply vertices ⇒ no
obstruction, stores = output exactly).

The ``cdag-pebble`` point kernel (:mod:`repro.lab.modelkernels`)
pebbles one CDAG per point, the ``sec3`` preset of
:mod:`repro.lab.scenarios` sweeps it, and :func:`format_sec3` lays the
rows out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lab.modelkernels import PEBBLE_LABELS
from repro.util import format_table

__all__ = ["format_sec3"]


def format_sec3(rows: List[Dict]) -> str:
    headers = ["algorithm", "n", "d", "M", "loads", "stores",
               "Thm2 LB", "stores/traffic", "output"]
    body = [
        [PEBBLE_LABELS[r["algorithm"]], r["n"],
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
