"""Write-back, write-allocate cache simulator (paper Section 6).

This is the software stand-in for the paper's hardware-counter measurements
on the Xeon 7560 ("Nehalem-EX"): we replay address traces through a cache of
configurable capacity, line size, associativity and replacement policy, and
report counters under the same names the paper uses:

* ``LLC_S_FILLS.E``   — lines filled into the cache on misses;
* ``LLC_VICTIMS.M``   — *modified* (dirty) lines evicted, i.e. obligatory
  write-backs to the level below — the paper's measure of writes to slow
  memory;
* ``LLC_VICTIMS.E``   — clean ("exclusive") lines evicted and forgotten.

Coherence is trivially modelled for the single-threaded experiments: lines
are E (clean) or M (dirty), matching the MESIF subset the paper says is
relevant (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.policies import ReplacementPolicy, make_policy
from repro.machine.trace import Trace
from repro.util import check_positive_int

__all__ = ["CacheSim", "CacheStats"]


@dataclass
class CacheStats:
    """Event counters, in cache lines."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    victims_m: int = 0
    victims_e: int = 0
    flush_writebacks: int = 0

    @property
    def writebacks(self) -> int:
        """Total dirty lines written to the level below (evictions + flush)."""
        return self.victims_m + self.flush_writebacks

    @property
    def victims(self) -> int:
        return self.victims_m + self.victims_e

    def as_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "LLC_S_FILLS.E": self.fills,
            "LLC_VICTIMS.M": self.victims_m,
            "LLC_VICTIMS.E": self.victims_e,
            "writebacks": self.writebacks,
        }


class CacheSim:
    """A single cache level fed by word-address traces, one access at a
    time.

    Parameters
    ----------
    capacity_words:
        Cache capacity in words.  Must be a multiple of ``line_size``.
    line_size:
        Words per cache line (default 8 ≈ 64-byte lines of float64).
    policy:
        Online replacement policy name (see
        :data:`repro.machine.policies.POLICIES`).  ``"belady"`` raises
        ``ValueError``: the offline ideal cache needs the whole trace,
        and :func:`repro.machine.fastsim.sweep` simulates it.
    associativity:
        Lines per set; ``None`` (default) means fully associative.
    rng:
        Only used by the random policy; overrides ``seed``.
    seed:
        Seed for the random policy's generator, so randomized sweeps are
        reproducible point-by-point.  ``None`` keeps the historical
        behaviour (every set gets its own generator seeded 0).

    Notes
    -----
    Addresses are **word** addresses; the simulator maps them to lines.
    ``access(addr, write)`` is the single step; ``run(addrs, writes)``,
    ``run_lines`` (pre-translated line ids) and ``run_trace`` loop it
    over a whole trace, and the cache stays resumable after each.

    This per-access loop simulates set-associative caches, FIFO and
    random replacement and the levels of
    :class:`~repro.machine.multicache.CacheHierarchySim`, and it is the
    oracle the test suite holds the folds of
    :func:`repro.machine.fastsim.sweep` to.  The sweep is the one
    whole-trace simulation of fully-associative LRU, Belady, clock and
    segmented LRU: the lab's trace kernels send those points there.
    """

    def __init__(
        self,
        capacity_words: int,
        *,
        line_size: int = 8,
        policy: str = "lru",
        associativity: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        check_positive_int(capacity_words, "capacity_words")
        check_positive_int(line_size, "line_size")
        if capacity_words % line_size != 0:
            raise ValueError(
                f"capacity_words={capacity_words} must be a multiple of "
                f"line_size={line_size}"
            )
        if policy == "belady":
            raise ValueError(
                "belady is an offline policy: simulate whole traces with "
                "repro.machine.fastsim.sweep")
        self.capacity_lines = capacity_words // line_size
        self.line_size = line_size
        self.policy_name = policy
        if associativity is None:
            associativity = self.capacity_lines
        check_positive_int(associativity, "associativity")
        if self.capacity_lines % associativity != 0:
            raise ValueError(
                f"capacity ({self.capacity_lines} lines) must be a multiple "
                f"of associativity ({associativity})"
            )
        self.associativity = associativity
        self.num_sets = self.capacity_lines // associativity
        self.seed = seed
        if rng is None and seed is not None:
            rng = np.random.default_rng(seed)
        kwargs = {"rng": rng} if policy == "random" else {}
        self._sets: list[ReplacementPolicy] = [
            make_policy(policy, associativity, **kwargs)
            for _ in range(self.num_sets)
        ]
        self._dirty: dict[int, bool] = {}
        self.stats = CacheStats()
        #: line id evicted by the most recent access (None if no eviction);
        #: used by CacheHierarchySim to propagate write-backs downward.
        self._last_victim: Optional[int] = None
        self._last_victim_dirty: bool = False

    def _set_of(self, line: int) -> ReplacementPolicy:
        return self._sets[line % self.num_sets]

    def access(self, addr: int, write: bool = False) -> None:
        """Access one word address."""
        self._access_line(addr // self.line_size, write)

    def _access_line(self, line: int, write: bool) -> None:
        st = self.stats
        st.accesses += 1
        dirty = self._dirty
        self._last_victim = None
        self._last_victim_dirty = False
        if line in dirty:
            st.hits += 1
            if write:
                dirty[line] = True
            self._set_of(line).touch(line, write)
            return
        st.misses += 1
        st.fills += 1
        pol = self._set_of(line)
        if pol.full:
            victim = pol.choose_victim()
            pol.remove(victim)
            self._last_victim = victim
            if dirty.pop(victim):
                st.victims_m += 1
                self._last_victim_dirty = True
            else:
                st.victims_e += 1
        pol.add(line, write)
        dirty[line] = write

    def run_lines(self, lines: np.ndarray, writes: np.ndarray) -> CacheStats:
        """Replay a trace of line ids.  Returns the (cumulative) stats."""
        lines = np.asarray(lines)
        writes = np.asarray(writes, dtype=bool)
        if lines.shape != writes.shape:
            raise ValueError("lines and writes must have matching shapes")
        acc = self._access_line
        for line, w in zip(lines.tolist(), writes.tolist()):
            acc(line, w)
        return self.stats

    def run(self, addrs: np.ndarray, writes: np.ndarray) -> CacheStats:
        """Replay a trace of word addresses."""
        addrs = np.asarray(addrs)
        return self.run_lines(addrs // self.line_size, writes)

    def run_trace(self, trace: Trace) -> CacheStats:
        """Replay a finalized :class:`~repro.machine.trace.Trace`:
        ``run_lines(trace.lines, trace.writes)``."""
        return self.run_lines(trace.lines, trace.writes)

    def flush(self) -> CacheStats:
        """Evict everything; dirty lines count as flush write-backs.

        The paper's experiments end with the output array written back to
        DRAM, so harnesses flush before reading ``LLC_VICTIMS`` totals —
        flush write-backs are reported separately but included in
        ``writebacks``.
        """
        for pol in self._sets:
            for tag in list(pol.tags):
                pol.remove(tag)
                if self._dirty.pop(tag):
                    self.stats.flush_writebacks += 1
                else:
                    self.stats.victims_e += 1
        return self.stats

    @property
    def resident_lines(self) -> int:
        return len(self._dirty)
