"""Per-word energy accounting (the paper's motivating metric).

The introduction motivates write-avoidance by *energy* as much as time:
NVM writes cost far more energy than reads, and (Section 2.2) a write
buffer can hide latency but "does not avoid the per-word energy cost of
writing data".  :class:`EnergyModel` turns any measured counter set —
:class:`~repro.machine.hierarchy.TwoLevel`,
:class:`~repro.machine.hierarchy.MemoryHierarchy` or
:class:`~repro.machine.cache.CacheStats` — into joules, so algorithms can
be compared on the metric the paper actually cares about.

Default coefficients sketch a 2015-era PCM-backed node (per 64-bit word):
DRAM-class read/write vs PCM read ≈ 2× and PCM write ≈ 30× DRAM energy
(consistent with the paper's [18] citation of very slow PCM writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util import require

if TYPE_CHECKING:
    from repro.machine.cache import CacheStats
    from repro.machine.hierarchy import MemoryHierarchy, TwoLevel

__all__ = ["EnergyModel"]


@dataclass
class EnergyModel:
    """Energy per word moved, in arbitrary units (default: pJ/word).

    ``read_fast``/``write_fast`` apply to the fast side of a boundary,
    ``read_slow``/``write_slow`` to the slow side (e.g. NVM).
    """

    read_fast: float = 1.0
    write_fast: float = 1.0
    read_slow: float = 2.0
    write_slow: float = 30.0

    def validate(self) -> None:
        for name in ("read_fast", "write_fast", "read_slow", "write_slow"):
            require(getattr(self, name) >= 0, f"{name} must be nonnegative")

    # ------------------------------------------------------------------ #
    def two_level(self, hier: TwoLevel) -> float:
        """Total energy of a measured two-level execution."""
        self.validate()
        return (
            hier.reads_from_fast * self.read_fast
            + hier.writes_to_fast * self.write_fast
            + hier.reads_from_slow * self.read_slow
            + hier.writes_to_slow * self.write_slow
        )

    def boundary(self, hier: MemoryHierarchy, s: int) -> float:
        """Energy of the traffic across channel *s* (levels s ↔ s+1):
        loads read slow + write fast; stores read fast + write slow."""
        self.validate()
        loads = hier.loads_on_channel(s)
        stores = hier.stores_on_channel(s)
        return (
            loads * (self.read_slow + self.write_fast)
            + stores * (self.read_fast + self.write_slow)
        )

    def cache_boundary(self, stats: CacheStats, line_words: int = 8) -> float:
        """Energy at a simulated cache's lower boundary: fills read the
        level below, write-backs write it."""
        self.validate()
        require(line_words >= 1, "line_words must be >= 1")
        return line_words * (
            stats.fills * self.read_slow
            + stats.writebacks * self.write_slow
        )

    def write_share(self, hier: TwoLevel) -> float:
        """Fraction of energy spent on slow-memory writes — the quantity
        write-avoiding algorithms drive toward output-size/total."""
        total = self.two_level(hier)
        if total == 0:
            return 0.0
        return hier.writes_to_slow * self.write_slow / total
