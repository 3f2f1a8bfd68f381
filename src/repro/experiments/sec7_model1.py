"""Section 7, Model 1: CA between ranks + WA locally, measured.

The paper's first parallel scenario: the network attaches to each rank's
lowest level (L2), so interprocessor CA + local WA caps local writes at
the network volume Θ(n²/√P) — not the n²/P lower bound — unless L2 is
over-provisioned by √P (the "hoard" variant).  :func:`sec7_scenario` is
the ``repro-lab run sec7-nvm`` preset: both SUMMA flavours run as
``summa-2d`` points and its report tabulates the W1/W2/W3 bounds
against the measured counters.

Two presets extend the section: ``distributed``
(:func:`distributed_scenario`) runs every executed distributed kernel
once, verified and counted, and ``nvm-matmul``
(:func:`nvm_matmul_scenario`) prices the sequential matmul orders on
NVM-style machines with asymmetric read/write costs.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.bounds import parallel_mm_bounds
from repro.lab.registry import MACHINES, MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["format_sec7_model1", "sec7_scenario", "distributed_scenario",
           "nvm_matmul_scenario"]


def _sec7_points(n: int, P: int, M1: float) -> List[ScenarioPoint]:
    machine = MachineSpec(name="sec7-dist")
    return [
        ScenarioPoint("summa-2d", machine,
                      {"n": n, "P": P, "M1": M1, "hoard": hoard, "seed": 0})
        for hoard in (False, True)
    ]


def _assemble_sec7(results: Sequence[Any]) -> Dict:
    p0 = results[0].point.params
    n, P, M1 = p0["n"], p0["P"], p0["M1"]
    bounds = parallel_mm_bounds(n, P, c=1, M1=M1)
    by_hoard = {bool(res.point.params["hoard"]): res.record
                for res in results}
    q = int(math.isqrt(P))

    def counters(rec: Dict) -> Dict:
        return {
            "nw_recv": rec["nw_recv_max"],
            "l1_to_l2_writes": rec["l1_to_l2_max"],
            "l2_to_l1_reads": rec["l2_to_l1_max"],
        }

    return {
        "n": n, "P": P, "M1": M1,
        "correct": bool(by_hoard[False]["correct"]
                        and by_hoard[True]["correct"]),
        "bounds": {"W1": bounds.W1, "W2": bounds.W2, "W3": bounds.W3},
        "plain": counters(by_hoard[False]),
        "hoard": {
            **counters(by_hoard[True]),
            "extra_l2_words": 2 * n * n // q,  # the √P memory premium
        },
    }


def sec7_scenario(quick: bool = False, *, n: Optional[int] = None,
                  P: Optional[int] = None, M1: float = 3 * 16
                  ) -> Scenario:
    """Section 7 Model 1 as a ``repro-lab`` preset (``sec7-nvm``).  The
    keyword parameters are the ``--set``-able knobs."""
    n = n if n is not None else (16 if quick else 32)
    P = P if P is not None else (4 if quick else 16)
    points = _sec7_points(n, P, M1)
    return Scenario(
        name="sec7-nvm",
        kernel="summa-2d",
        machine=points[0].machine,
        description="Section 7 Model 1: executed SUMMA vs the hoarding "
                    "variant — local writes track W2, not W1, unless L2 "
                    "is over-provisioned",
        explicit=points,
        report=lambda sc, res: format_sec7_model1(_assemble_sec7(res)),
        meta={"rebuild": partial(sec7_scenario, quick)},
        claims=claims_on(lambda sc, res: _assemble_sec7(res), {
            "both-correct": lambda r: r["correct"],
            "plain-local-writes-over-2x-w1":
                lambda r: (r["plain"]["l1_to_l2_writes"]
                           > 2 * r["bounds"]["W1"]),
            "plain-local-writes-within-2x-w2":
                lambda r: (r["plain"]["l1_to_l2_writes"]
                           <= 2 * r["bounds"]["W2"]),
            "hoard-local-writes-at-w1":
                lambda r: r["hoard"]["l1_to_l2_writes"] == r["bounds"]["W1"],
            "same-network-volume":
                lambda r: r["plain"]["nw_recv"] == r["hoard"]["nw_recv"],
            "plain-reads-over-writes":
                lambda r: (r["plain"]["l2_to_l1_reads"]
                           > r["plain"]["l1_to_l2_writes"]),
        }),
        # --quick's P=4 makes W2 = 2·W1, and plain writes sit at W2
        full_only=frozenset({"plain-local-writes-over-2x-w1"}),
    )


def format_sec7_model1(result: Dict) -> str:
    b = result["bounds"]
    headers = ["variant", "net words (W2 bound)", "L1→L2 writes (W1 bound)",
               "L2→L1 reads (W3 bound)"]
    body = [
        ["SUMMA + local WA",
         f"{result['plain']['nw_recv']} ({b['W2']:.0f})",
         f"{result['plain']['l1_to_l2_writes']} ({b['W1']:.0f})",
         f"{result['plain']['l2_to_l1_reads']} ({b['W3']:.0f})"],
        ["SUMMA hoarding (√P×L2)",
         f"{result['hoard']['nw_recv']} ({b['W2']:.0f})",
         f"{result['hoard']['l1_to_l2_writes']} ({b['W1']:.0f})",
         f"{result['hoard']['l2_to_l1_reads']} ({b['W3']:.0f})"],
    ]
    return format_table(
        headers, body,
        title=(f"Section 7 Model 1 — n={result['n']}, P={result['P']} "
               f"(correct={result['correct']}); plain SUMMA's local writes "
               f"track W2 not W1, hoarding attains W1 at a "
               f"{result['hoard']['extra_l2_words']}-word L2 premium"),
    )


def distributed_scenario(quick: bool = False) -> Scenario:
    """Every executed distributed algorithm as one verified, counted
    point: both SUMMA flavours (Model 1), the Model-2.2 pair exhibiting
    the Theorem-4 trade-off, 2.5D replication, and both LU variants."""
    machine = MachineSpec(name="dist-sim")
    if quick:
        n, P, M1, M2 = 16, 4, 3 * 16, 3 * 2 * 2
    else:
        n, P, M1, M2 = 32, 16, 3 * 16, 3 * 4 * 4
    points = [
        ScenarioPoint("summa-2d", machine,
                      {"n": n, "P": P, "M1": M1, "hoard": False, "seed": 0}),
        ScenarioPoint("summa-2d", machine,
                      {"n": n, "P": P, "M1": M1, "hoard": True, "seed": 0}),
        ScenarioPoint("summa-l3-ool2", machine,
                      {"n": n, "P": P, "M2": M2, "seed": 1}),
        ScenarioPoint("mm-25d", machine,
                      {"n": n, "P": P, "c": 1, "storage": "L3-ooL2",
                       "M2": M2, "seed": 1}),
        ScenarioPoint("mm-25d", machine,
                      {"n": 8 if quick else 16, "P": 8, "c": 2, "seed": 0}),
        ScenarioPoint("lu-ll-nonpivot", machine,
                      {"n": n, "b": 4, "P": 4, "seed": 0}),
        ScenarioPoint("lu-rl-nonpivot", machine,
                      {"n": n, "b": 4, "P": 4, "seed": 0}),
    ]
    return Scenario(
        name="distributed",
        kernel="summa-2d",
        machine=machine,
        description="Executed distributed kernels: SUMMA / 2.5D / LU, "
                    "verified, with per-rank channel counters",
        explicit=points,
        report=_distributed_report,
    )


def _distributed_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["kernel", "n", "P", "correct", "net recv (max)",
               "NVM writes (max)", "NVM reads (max)", "L1→L2 (max)"]
    body = []
    for res in results:
        p, rec = res.point.params, res.record
        body.append([
            res.point.kernel, p["n"], p["P"], rec["correct"],
            rec["nw_recv_max"], rec["l2_to_l3_max"], rec["l3_to_l2_max"],
            rec["l1_to_l2_max"],
        ])
    return format_table(
        headers, body,
        title="Distributed kernels — executed and verified, per-rank "
              "maxima on the paper's channels")


def nvm_matmul_scenario(quick: bool = False) -> Scenario:
    """NEW: matmul orders on NVM-style machines with asymmetric costs.

    Sweeps the slow-side write energy from symmetric (battery-backed DRAM)
    to PCM-like 30x, on a cache sized so that only ~3 blocks fit — the
    regime where instruction order decides the write bill.
    """
    n = 32 if quick else 64
    b3 = max(4, n // 4)
    machine = MACHINES["nvm-pcm"].override(
        name="nvm-sweep", cache_words=3 * b3 * b3 + 4, line_size=4)
    return Scenario(
        name="nvm-matmul",
        kernel="matmul-cache",
        machine=machine,
        description="NVM provisioning: slow-memory energy of matmul orders "
                    "as the write/read cost asymmetry grows",
        fixed={"n": n, "middle": 2 * n, "b3": b3, "b2": max(4, b3 // 2),
               "base": 4},
        grid={
            "scheme": ["co", "mkl-like", "wa2", "ab-multilevel"],
            "machine.write_slow": [2.0, 8.0, 30.0],
        },
        report=_nvm_report,
    )


def _nvm_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["scheme", "write_slow", "writebacks", "fills", "energy",
               "energy/floor-energy"]
    body = []
    for res in results:
        m = res.point.machine
        floor_energy = m.line_size * (
            res.record["fills"] * m.read_slow
            + res.record["write_lb"] * m.write_slow
        )
        body.append([
            res.point.params["scheme"],
            m.write_slow,
            res.record["writebacks"],
            res.record["fills"],
            res.record["energy"],
            round(res.record["energy"] / floor_energy, 3),
        ])
    return format_table(
        headers, body,
        title="NVM sweep — slow-boundary energy by instruction order and "
              "write-cost asymmetry (floor = same fills, write-floor "
              "write-backs)")
