"""Proposition 6.2: LRU attains the write floor of TRSM, Cholesky and
N-body once a few blocks fit.

The ``prop62`` preset (:func:`prop62_scenario`) replays each kernel's
cache trace at one to six blocks of capacity under LRU and the offline
optimum, checks the proposition's claims on the records, and tabulates
write-backs against the output floor.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["prop62_scenario"]


def prop62_scenario(quick: bool = False) -> Scenario:
    """Proposition 6.2 across kernels: the TRSM, Cholesky and N-body
    write floors vs capacity, under LRU and the offline optimum.

    One point per (kernel, capacity, policy); every (kernel, policy)
    column is a pure capacity sweep over one memoized line trace, so the
    executor collapses the whole scenario into one batched replay per
    kernel (LRU and Belady share it — both are stack algorithms).
    """
    line = 4
    if quick:
        geometries = (("trsm-cache", {"n": 16, "m": 8, "b": 4}),
                      ("cholesky-cache", {"n": 16, "b": 4}),
                      ("nbody-cache", {"n": 32, "b": 8}))
    else:
        geometries = (("trsm-cache", {"n": 32, "m": 16, "b": 8}),
                      ("cholesky-cache", {"n": 32, "b": 8}),
                      ("nbody-cache", {"n": 64, "b": 8}))
    machine = MachineSpec(name="prop62-l3", line_size=line, policy="lru")
    points = [
        ScenarioPoint(kernel, machine.override(policy=policy),
                      dict(params, cache_blocks=blocks))
        for kernel, params in geometries
        for blocks in (1, 2, 3, 4, 5, 6)
        for policy in ("lru", "belady")
    ]
    return Scenario(
        name="prop62",
        kernel="trsm-cache",
        machine=machine,
        description="Proposition 6.2: TRSM/Cholesky/N-body write-backs "
                    "vs the output floor across capacities and policies",
        explicit=points,
        report=_prop62_report,
        claims=claims_on(_prop62_view, {
            "writebacks-at-least-floor":
                lambda v: all(rec["writebacks"] >= rec["write_lb"]
                              for rec in v.values()),
            "lru-at-floor-from-3-blocks":
                lambda v: all(rec["writebacks"] == rec["write_lb"]
                              for (_, blocks, policy), rec in v.items()
                              if policy == "lru" and blocks >= 3),
            "belady-fills-at-most-lru":
                lambda v: all(rec["fills"] <= v[kernel, blocks, "lru"]["fills"]
                              for (kernel, blocks, policy), rec in v.items()
                              if policy == "belady"),
        }),
    )


def _prop62_view(scenario: Scenario, results: List[Any]
                 ) -> Dict[Any, Dict[str, Any]]:
    """Records by (kernel, capacity in blocks, policy)."""
    return {(res.point.kernel, res.point.params["cache_blocks"],
             res.point.machine.policy): res.record for res in results}


def _prop62_report(scenario: Scenario, results: List[Any]) -> str:
    headers = ["kernel", "cache (blocks)", "policy", "write-backs",
               "floor", "ratio", "fills"]
    body = []
    for res in results:
        rec = res.record
        body.append([
            res.point.kernel,
            res.point.params["cache_blocks"],
            res.point.machine.policy,
            rec["writebacks"],
            rec["write_lb"],
            round(rec["writebacks"] / rec["write_lb"], 2),
            rec["fills"],
        ])
    return format_table(
        headers, body,
        title="Proposition 6.2 — write-backs vs output floor (five b-blocks "
              "suffice for TRSM/Cholesky; three for N-body)")
