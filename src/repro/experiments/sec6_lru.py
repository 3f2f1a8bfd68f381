"""Section 6: replacement policies vs the write floor (Propositions 6.1/6.2).

Replays the two-level-WA matmul trace through caches of capacity 3b², 4b²
and 5b²(+1 line) under LRU, the 3-bit clock, segmented LRU, and the
offline-optimal policy, reporting write-backs against the output floor —
the quantitative form of Proposition 6.1 ("five blocks suffice") and the
Section-6.2 slab-order observation ("just under three suffice for AB").
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.traces import matmul_trace
from repro.machine.cache import CacheSim, CacheStats
from repro.machine.fastsim import sweep
from repro.util import format_table

__all__ = ["run_sec6", "format_sec6"]


def run_sec6(
    n: int = 64,
    middle: int = 128,
    b3: int = 16,
    b2: int = 8,
    base: int = 4,
    line: int = 4,
    policies: Sequence[str] = ("lru", "clock", "segmented-lru", "belady"),
    schemes: Sequence[str] = ("wa2", "ab-multilevel", "wa-multilevel"),
) -> List[Dict]:
    floor = n * n // line
    blocks_axis = (3, 4, 5)
    rows: List[Dict] = []
    for scheme in schemes:
        trace = matmul_trace(n, middle, n, scheme=scheme, b3=b3, b2=b2,
                             base=base, line_size=line).finalize_trace()
        # The LRU and Belady columns are pure capacity sweeps over one
        # trace — both policies are stack algorithms, so one fastsim
        # pass computes every capacity of both columns.
        caps = [blocks * b3 * b3 + line for blocks in blocks_axis]
        if any(c % line for c in caps):
            raise ValueError(f"cache capacities {caps} must be multiples "
                             f"of line_size={line}")
        sweeps = sweep(trace, {p: [c // line for c in caps]
                               for p in policies if p in ("lru", "belady")})
        for blocks, cap in zip(blocks_axis, caps):
            for policy in policies:
                st: CacheStats
                if policy in sweeps:
                    st = sweeps[policy].stats(cap // line)
                else:
                    sim = CacheSim(cap, line_size=line, policy=policy)
                    sim.run_trace(trace)
                    sim.flush()
                    st = sim.stats
                rows.append({
                    "scheme": scheme,
                    "capacity_blocks": blocks,
                    "policy": policy,
                    "writebacks": st.writebacks,
                    "floor": floor,
                    "ratio": st.writebacks / floor,
                    "fills": st.fills,
                })
    return rows


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
