"""Figure 2: L3 cache-counter measurements of matmul instruction orders.

The paper fixes the outer dimensions at 4000, sweeps the middle dimension
from 128 to 32K, and reads three Xeon-7560 uncore counters for six
variants (CO, MKL, and two-level WA with four L3 blocking sizes).  The
``fig2`` preset of :mod:`repro.lab.scenarios` runs the same experiment at a
scaled-down geometry through the cache simulator, one ``matmul-cache``
point per (panel, middle), and reports the same rows: ``L3_VICTIMS.M``,
``L3_VICTIMS.E``, ``LLC_S_FILLS.E`` and the write lower bound (output
lines).  This module holds the geometry and the table layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.util import format_table

__all__ = ["Fig2Config", "format_fig2", "fig2_variants",
           "fig2_ideal_misses"]


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
