"""Section 6: replacement policies vs the write floor (Propositions 6.1/6.2).

Replays the two-level-WA matmul trace through caches of capacity 3b², 4b²
and 5b²(+1 line) under LRU, the 3-bit clock, segmented LRU, and the
offline-optimal policy, reporting write-backs against the output floor —
the quantitative form of Proposition 6.1 ("five blocks suffice") and the
Section-6.2 slab-order observation ("just under three suffice for AB").
The ``sec6`` preset of :mod:`repro.lab.scenarios` computes the counters,
one ``matmul-cache`` point per scheme x capacity x policy; this module
lays them out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util import format_table

__all__ = ["format_sec6"]


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
