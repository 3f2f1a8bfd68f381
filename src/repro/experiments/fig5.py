"""Figure 5: multi-level WA vs slab ("AB") instruction orders under LRU.

The paper's left column runs the fully write-avoiding order (reduction
innermost at every recursion level) and shows it *failing* under LRU at
large L3 blockings (needs 5 blocks resident — Proposition 6.1); the right
column blocks for L3 write-backs only (slab order below the top), which
stays at the write floor even when just under 3 blocks fit — the
Section-6.2 trade-off between exclusive-state misses and write-backs.
The ``fig5`` preset of :mod:`repro.lab.scenarios` computes the counters;
this module lays them out.
"""

from __future__ import annotations

from typing import Dict, List

from repro.util import format_table

__all__ = ["format_fig5"]


def format_fig5(results: Dict[str, List[Dict]]) -> str:
    chunks = []
    for col, runs in results.items():
        for rows in runs:
            title = f"Figure 5 ({col}) — L3 block={rows['b3']}"
            headers = ["counter"] + [str(m) for m in rows["middles"]]
            body = [
                ["L3_VICTIMS.M"] + rows["VICTIMS.M"],
                ["L3_VICTIMS.E"] + rows["VICTIMS.E"],
                ["LLC_S_FILLS.E"] + rows["FILLS.E"],
                ["Write L.B."] + rows["write_lb"],
            ]
            chunks.append(format_table(headers, body, title=title))
    return "\n\n".join(chunks)
