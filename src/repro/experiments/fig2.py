"""Figure 2: L3 cache-counter measurements of matmul instruction orders.

The paper fixes the outer dimensions at 4000, sweeps the middle dimension
from 128 to 32K, and reads three Xeon-7560 uncore counters for six
variants (CO, MKL, and two-level WA with four L3 blocking sizes).  The
``fig2`` preset (:func:`fig2_scenario`) runs the same experiment at a
scaled-down geometry through the cache simulator, one ``matmul-cache``
point per (panel, middle), and reports the same rows: ``L3_VICTIMS.M``,
``L3_VICTIMS.E``, ``LLC_S_FILLS.E`` and the write lower bound (output
lines).  This module holds the geometry, the preset with its claims, the
row assembly and the table layout; Figure 5
(:mod:`repro.experiments.fig5`) shares the geometry and the row assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.lab.registry import MachineSpec
from repro.lab.scenarios import Scenario, ScenarioPoint, claims_on
from repro.util import format_table, require

__all__ = ["Fig2Config", "fig2_config", "fig2_scenario", "fig2_rows",
           "format_fig2", "fig2_variants", "fig2_ideal_misses"]


@dataclass
class Fig2Config:
    """Scaled-down Figure-2 geometry.

    Defaults mirror the paper's proportions: outer dims n, middle dims
    sweeping from n/32 to 8n; the L3 cache holds ~3 blocks of the largest
    blocking size; smaller blockings are ~0.68/0.78/0.88 of the largest
    (the paper's 700/800/900/1023).
    """

    n_outer: int = 128
    middles: Sequence[int] = (8, 16, 32, 64, 128, 256, 512, 1024)
    line_size: int = 4
    b3_fracs: Sequence[float] = (0.68, 0.78, 0.88, 1.0)
    b2: int = 8
    base: int = 4
    #: "lru" by default (the policy Propositions 6.1/6.2 analyze, and the
    #: simulator's fast path).  Use "clock" for the Nehalem 3-bit
    #: approximation — same shapes, and a fully-associative clock cache
    #: also replays each trace in one whole-trace pass.
    policy: str = "lru"
    cache_words: Optional[int] = None  # default: 3 * b3_max²

    def b3_sizes(self) -> List[int]:
        b3_max = self._b3_max()
        out = []
        for f in self.b3_fracs:
            b = max(self.base, int(round(b3_max * f / self.base)) * self.base)
            out.append(min(b, b3_max))
        return out

    def _b3_max(self) -> int:
        # Largest blocking such that 3 blocks ~ cache (paper's 1023 on a
        # 24 MB L3 ~ sqrt(M/3)).
        cap = self.cache() // 3
        b = int(cap**0.5)
        return max(self.base, (b // self.base) * self.base)

    def cache(self) -> int:
        if self.cache_words is not None:
            return self.cache_words
        # Default cache sized so that three of the largest paper-ratio
        # blocks fit: scale n_outer/4 like 1023 vs 4000.
        b = max(self.base, (self.n_outer // 4 // self.base) * self.base)
        return 3 * b * b + self.line_size


def fig2_config(quick: bool) -> Fig2Config:
    """The scaled-down Figure-2/5 geometry of the fig2 and fig5 presets."""
    if quick:
        return Fig2Config(n_outer=48, middles=(4, 16, 64), line_size=4,
                          b2=8, base=4)
    return Fig2Config(n_outer=96, middles=(8, 32, 128, 256), line_size=4,
                      b2=8, base=4)


def fig2_variants(cfg: Fig2Config) -> List[tuple]:
    """The six panels as ``(scheme, b3)`` pairs, in the paper's order:
    CO (2a), MKL-like (2b), then two-level WA per blocking size (2c–2f)."""
    b3s = cfg.b3_sizes()
    return [("co", b3s[-1]), ("mkl-like", b3s[-1])] \
        + [("wa2", b3) for b3 in b3s]


def fig2_ideal_misses(cfg: Fig2Config) -> List[float]:
    """The paper's "Misses on Ideal Cache" reference line for panel (a)."""
    from repro.core.cache_oblivious import ideal_cache_misses

    wb = 8  # bytes per word in the formula
    return [
        ideal_cache_misses(cfg.n_outer, m, cfg.n_outer,
                           cfg.cache() * wb, cfg.line_size * wb)
        for m in cfg.middles
    ]


def fig2_scenario(quick: bool = False,
                  cfg: Optional[Fig2Config] = None) -> Scenario:
    """Figure 2 decomposed into one point per (variant, middle)."""
    cfg = cfg or fig2_config(quick)
    floor = cfg.n_outer ** 2 // cfg.line_size
    machine = MachineSpec(name="fig2-l3", cache_words=cfg.cache(),
                          line_size=cfg.line_size, policy=cfg.policy)
    points = [
        ScenarioPoint("matmul-cache", machine,
                      {"n": cfg.n_outer, "middle": m, "scheme": scheme,
                       "b3": b3, "b2": cfg.b2, "base": cfg.base})
        for scheme, b3 in fig2_variants(cfg)
        for m in cfg.middles
    ]
    return Scenario(
        name="fig2",
        kernel="matmul-cache",
        machine=machine,
        description="Figure 2: L3 counters of six matmul orders vs the "
                    "middle dimension",
        explicit=points,
        report=lambda sc, res: format_fig2(fig2_rows(sc, res)),
        meta={"cfg": cfg},
        claims=claims_on(fig2_rows, {
            "co-writebacks-grow-4x":
                lambda r: _last(r[0]) > 4 * r[0]["VICTIMS.M"][0],
            "co-ends-4x-above-floor": lambda r: _last(r[0]) > 4 * floor,
            "mkl-at-least-co": lambda r: _last(r[1]) >= _last(r[0]),
            "wa-under-half-of-co":
                lambda r: all(_last(w) < _last(r[0]) / 2 for w in r[2:]),
            "smallest-blocking-fewest-writebacks":
                lambda r: _last(r[2]) <= _last(r[-1]),
            "smallest-blocking-most-e-fills":
                lambda r: _last(r[2], "FILLS.E") >= _last(r[-1], "FILLS.E"),
        }),
        # at --quick size CO ends at exactly 4x its start and the floor
        full_only=frozenset({"co-writebacks-grow-4x",
                             "co-ends-4x-above-floor"}),
    )


def _counter_rows(chunk: List[Any], middles: Sequence[int]
                  ) -> Dict[str, Any]:
    """One panel's counters over the middle dimensions."""
    p0 = chunk[0].point.params
    return {
        "scheme": p0["scheme"],
        "b3": p0["b3"],
        "middles": list(middles),
        "VICTIMS.M": [r.record["writebacks"] for r in chunk],
        "VICTIMS.E": [r.record["victims_e"] for r in chunk],
        "FILLS.E": [r.record["fills"] for r in chunk],
        "write_lb": [r.record["write_lb"] for r in chunk],
    }


def _chunks(items: List[Any], size: int) -> List[List[Any]]:
    require(len(items) % size == 0, "result list does not tile the grid")
    return [items[i:i + size] for i in range(0, len(items), size)]


def _last(row: Dict[str, Any], counter: str = "VICTIMS.M") -> Any:
    """A panel row's counter at the largest middle dimension."""
    return row[counter][-1]


def fig2_rows(scenario: Scenario, results: List[Any]
              ) -> List[Dict[str, Any]]:
    """Reassemble point records into the panels :func:`format_fig2`
    prints."""
    cfg: Fig2Config = scenario.meta["cfg"]
    rows = [_counter_rows(c, cfg.middles)
            for c in _chunks(results, len(cfg.middles))]
    rows[0]["ideal_misses"] = fig2_ideal_misses(cfg)
    return rows


def format_fig2(results: List[Dict]) -> str:
    chunks = []
    for rows in results:
        title = (f"Figure 2 panel — scheme={rows['scheme']}, "
                 f"L3 block={rows['b3']}")
        headers = ["counter"] + [str(m) for m in rows["middles"]]
        body = [
            ["L3_VICTIMS.M"] + rows["VICTIMS.M"],
            ["L3_VICTIMS.E"] + rows["VICTIMS.E"],
            ["LLC_S_FILLS.E"] + rows["FILLS.E"],
            ["Write L.B."] + rows["write_lb"],
        ]
        if "ideal_misses" in rows:
            body.append(["Ideal misses"]
                        + [round(v, 1) for v in rows["ideal_misses"]])
        chunks.append(format_table(headers, body, title=title))
    return "\n\n".join(chunks)
