"""Section 6: replacement policies vs the write floor (Propositions 6.1/6.2).

Replays the two-level-WA matmul trace through caches of capacity 3b², 4b²
and 5b²(+1 line) under LRU, the 3-bit clock, segmented LRU, and the
offline-optimal policy, reporting write-backs against the output floor —
the quantitative form of Proposition 6.1 ("five blocks suffice") and the
Section-6.2 slab-order observation ("just under three suffice for AB").
The ``sec6`` preset (:func:`sec6_scenario`) computes the counters, one
``matmul-cache`` point per scheme x capacity x policy, and checks the
paper's claims; this module also lays them out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, claims_on
from repro.util import format_table

__all__ = ["sec6_scenario", "sec6_rows", "format_sec6"]


def sec6_scenario(
    quick: bool = False,
    *,
    n: Optional[int] = None,
    middle: Optional[int] = None,
    b3: int = 16,
    b2: int = 8,
    base: int = 4,
    line: int = 4,
    policies: Sequence[str] = ("lru", "clock", "segmented-lru", "belady"),
    schemes: Sequence[str] = ("wa2", "ab-multilevel", "wa-multilevel"),
) -> Scenario:
    """Section 6 policy study as a scheme x capacity x policy grid."""
    n = n if n is not None else (32 if quick else 64)
    middle = middle if middle is not None else (32 if quick else 128)
    machine = MachineSpec(name="sec6-l3", line_size=line, policy="lru")
    return Scenario(
        name="sec6",
        kernel="matmul-cache",
        machine=machine,
        description="Section 6: write-backs vs output floor across "
                    "replacement policies and capacities",
        fixed={"n": n, "middle": middle, "b3": b3, "b2": b2, "base": base},
        grid={
            "scheme": list(schemes),
            "cache_blocks": [3, 4, 5],
            "machine.policy": list(policies),
        },
        report=lambda sc, res: format_sec6(sec6_rows(sc, res)),
        meta={"floor": n * n // line},
        claims=claims_on(_sec6_view, {
            "prop61-wa2-lru-5-blocks-at-floor":
                lambda v: v["wa2", 5, "lru"]["writebacks"] == n * n // line,
            "ab-lru-3-blocks-under-1.2x-floor":
                lambda v: v["ab-multilevel", 3, "lru"]["ratio"] < 1.2,
            "wa-multilevel-lru-3-blocks-over-1.5x-floor":
                lambda v: v["wa-multilevel", 3, "lru"]["ratio"] > 1.5,
            "belady-fills-at-most-lru":
                lambda v: all(v[s, b, "belady"]["fills"]
                              <= v[s, b, "lru"]["fills"]
                              for s in ("wa2", "ab-multilevel")
                              for b in (3, 5)),
            "clock-wa2-5-blocks-within-3x-of-lru":
                lambda v: (v["wa2", 5, "clock"]["writebacks"]
                           <= 3 * v["wa2", 5, "lru"]["writebacks"]),
        }),
    )


def sec6_rows(scenario: Scenario, results: List[Any]
              ) -> List[Dict[str, Any]]:
    """Reassemble point records into the rows :func:`format_sec6`
    prints."""
    floor = scenario.meta["floor"]
    rows = []
    for res in results:
        rows.append({
            "scheme": res.point.params["scheme"],
            "capacity_blocks": res.point.params["cache_blocks"],
            "policy": res.point.machine.policy,
            "writebacks": res.record["writebacks"],
            "floor": floor,
            "ratio": res.record["writebacks"] / floor,
            "fills": res.record["fills"],
        })
    return rows


def _sec6_view(scenario: Scenario, results: List[Any]
               ) -> Dict[Any, Dict[str, Any]]:
    """The sec6 rows by (scheme, capacity in blocks, policy)."""
    return {(r["scheme"], r["capacity_blocks"], r["policy"]): r
            for r in sec6_rows(scenario, results)}


def format_sec6(rows: List[Dict]) -> str:
    headers = ["scheme", "cache (blocks)", "policy", "write-backs",
               "floor", "ratio", "fills"]
    body = [
        [r["scheme"], r["capacity_blocks"], r["policy"], r["writebacks"],
         r["floor"], round(r["ratio"], 2), r["fills"]]
        for r in rows
    ]
    return format_table(
        headers, body,
        title=("Section 6 — write-backs vs output floor across policies "
               "and capacities (Prop. 6.1: WA needs 5 blocks under LRU; "
               "slab order needs <3)"),
    )
