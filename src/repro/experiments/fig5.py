"""Figure 5: multi-level WA vs slab ("AB") instruction orders under LRU.

The paper's left column runs the fully write-avoiding order (reduction
innermost at every recursion level) and shows it *failing* under LRU at
large L3 blockings (needs 5 blocks resident — Proposition 6.1); the right
column blocks for L3 write-backs only (slab order below the top), which
stays at the write floor even when just under 3 blocks fit — the
Section-6.2 trade-off between exclusive-state misses and write-backs.
The ``fig5`` preset (:func:`fig5_scenario`) computes the counters on
Figure 2's geometry (:mod:`repro.experiments.fig2`); this module also
checks its claims and lays the columns out.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.fig2 import (Fig2Config, _chunks, _counter_rows,
                                    _last, fig2_config)
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table

__all__ = ["fig5_scenario", "fig5_rows", "format_fig5"]


def fig5_scenario(quick: bool = False,
                  cfg: Optional[Fig2Config] = None) -> Scenario:
    """Figure 5 decomposed into one point per (column, blocking, middle)."""
    cfg = cfg or fig2_config(quick)
    floor = cfg.n_outer ** 2 // cfg.line_size
    machine = MachineSpec(name="fig5-l3", cache_words=cfg.cache(),
                          line_size=cfg.line_size, policy=cfg.policy)
    points = [
        ScenarioPoint("matmul-cache", machine,
                      {"n": cfg.n_outer, "middle": m, "scheme": scheme,
                       "b3": b3, "b2": cfg.b2, "base": cfg.base})
        for b3 in cfg.b3_sizes()
        for scheme in ("wa-multilevel", "ab-multilevel")
        for m in cfg.middles
    ]
    return Scenario(
        name="fig5",
        kernel="matmul-cache",
        machine=machine,
        description="Figure 5: multi-level WA vs slab order under LRU",
        explicit=points,
        report=lambda sc, res: format_fig5(fig5_rows(sc, res)),
        meta={"cfg": cfg},
        claims=claims_on(fig5_rows, {
            "wa-largest-blocking-over-2x-floor":
                lambda c: _last(c["multilevel-wa"][-1]) > 2 * floor,
            "ab-largest-blocking-under-1.5x-floor":
                lambda c: _last(c["two-level-ab"][-1]) < 1.5 * floor,
            "wa-smallest-blocking-under-2x-floor":
                lambda c: _last(c["multilevel-wa"][0]) < 2 * floor,
            "ab-smallest-blocking-under-1.5x-floor":
                lambda c: _last(c["two-level-ab"][0]) < 1.5 * floor,
            "ab-e-fills-within-1.2x-of-wa-smallest":
                lambda c: (_last(c["two-level-ab"][-1], "FILLS.E")
                           <= _last(c["multilevel-wa"][0], "FILLS.E") * 1.2),
        }),
    )


def fig5_rows(scenario: Scenario, results: List[Any]
              ) -> Dict[str, List[Dict[str, Any]]]:
    """Reassemble point records into the columns :func:`format_fig5`
    prints."""
    cfg: Fig2Config = scenario.meta["cfg"]
    out: Dict[str, List[Dict[str, Any]]] = {"multilevel-wa": [],
                                            "two-level-ab": []}
    col_of = {"wa-multilevel": "multilevel-wa", "ab-multilevel": "two-level-ab"}
    for chunk in _chunks(results, len(cfg.middles)):
        row = _counter_rows(chunk, cfg.middles)
        out[col_of[row["scheme"]]].append(row)
    return out


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
