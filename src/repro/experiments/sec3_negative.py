"""Section 3: bounded reuse precludes write-avoiding (Theorem 2).

Pebbles the FFT and Strassen CDAGs with an offline-optimal replacement and
reports measured stores against Theorem 2's lower bound — plus classical
matmul as the contrast case (out-degree-1 multiply vertices ⇒ no
obstruction, stores = output exactly).

The ``cdag-pebble`` point kernel (:mod:`repro.lab.modelkernels`)
pebbles one CDAG per point, the ``sec3`` preset (:func:`sec3_scenario`)
sweeps it and checks the paper's claims, and :func:`format_sec3` lays
the rows out.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments import point_rows
from repro.lab.modelkernels import PEBBLE_LABELS
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["sec3_scenario", "format_sec3"]


def sec3_scenario(quick: bool = False) -> Scenario:
    """Section 3: one ``cdag-pebble`` point per (algorithm, n).  The
    CDAGs are small, so the quick geometry is the full one."""
    machine = MachineSpec(name="pebble")
    cases = ([("fft", n, 16) for n in (64, 256, 1024)]
             + [("strassen", n, 16) for n in (4, 8)]
             + [("matmul", n, 3 * n) for n in (4, 6, 8)])
    return Scenario(
        name="sec3",
        kernel="cdag-pebble",
        machine=machine,
        description="Section 3: pebbled FFT/Strassen/matmul stores vs "
                    "the Theorem-2 bound",
        explicit=[ScenarioPoint("cdag-pebble", machine,
                                {"algorithm": alg, "n": n, "M": M})
                  for alg, n, M in cases],
        report=lambda sc, res: format_sec3(point_rows(res)),
        claims=claims_on(lambda sc, res: point_rows(res), {
            "fft-strassen-stores-at-least-theorem2":
                lambda r: all(x["stores"] >= x["theorem2_lb"]
                              for x in _of(r, "fft", "strassen")),
            "fft-strassen-stores-over-0.2-of-traffic":
                lambda r: all(x["store_fraction"] > 0.2
                              for x in _of(r, "fft", "strassen")),
            "largest-fft-stores-over-3x-output":
                lambda r: (_of(r, "fft")[-1]["stores"]
                           > 3 * _of(r, "fft")[-1]["output_size"]),
            "fft-stores-superlinear-in-n":
                lambda r: (_of(r, "fft")[-1]["stores"]
                           / _of(r, "fft")[0]["stores"]
                           > _of(r, "fft")[-1]["n"] / _of(r, "fft")[0]["n"]),
            "wa-matmul-stores-equal-output":
                lambda r: all(x["stores"] == x["output_size"]
                              for x in _of(r, "matmul")),
        }),
    )


def _of(rows: List[Dict[str, Any]], *algorithms: str
        ) -> List[Dict[str, Any]]:
    """The rows of the named algorithms, in point order."""
    return [r for r in rows if r["algorithm"] in algorithms]


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
