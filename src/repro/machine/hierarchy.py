"""Explicitly controlled multi-level memory hierarchy (paper Section 2).

Levels are numbered ``1 .. r`` from fastest/smallest (L1) to slowest/largest
(Lr); an implicit backing store sits behind Lr (conceptually "level r+1")
and is assumed to hold all data.  Kernels move data with
:meth:`MemoryHierarchy.load` and :meth:`MemoryHierarchy.store`; the paper's
refined accounting is applied automatically:

* a **load** into level *s* reads from level *s+1* and writes to level *s*;
* a **store** from level *s* reads from level *s* and writes to level *s+1*.

Capacity is enforced: kernels declare block residency with
:meth:`MemoryHierarchy.resident` (a context manager) or explicit
``alloc``/``free``, and exceeding a level's size raises
:class:`CapacityError`.  This is how tests verify that the paper's block-size
choices (e.g. ``b = sqrt(M/3)`` so that three blocks fit) are honest.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.machine.counters import ChannelCounters, LevelCounters
from repro.util import check_positive_int

__all__ = ["MemoryHierarchy", "TwoLevel", "CapacityError", "WriteBuffer"]


class CapacityError(RuntimeError):
    """A kernel tried to keep more data resident in a level than it holds."""


class MemoryHierarchy:
    """An r-level hierarchy with per-level read/write counters.

    Parameters
    ----------
    sizes:
        ``[M1, M2, ..., Mr]`` capacities in words, strictly increasing.
        ``math.inf`` is allowed for the last level.
    track_occupancy:
        If True (default), ``alloc``/``free``/``resident`` enforce capacity.

    Notes
    -----
    Channel *s* (``1 ≤ s ≤ r``) connects level *s* with level *s+1*; channel
    *r* connects Lr with the backing store.  ``load(s, w)`` therefore uses
    channel *s*.
    """

    def __init__(self, sizes: Sequence[float], *, track_occupancy: bool = True):
        if len(sizes) == 0:
            raise ValueError("need at least one level")
        prev = 0.0
        for i, m in enumerate(sizes):
            if not (m > prev):
                raise ValueError(
                    f"level sizes must be strictly increasing and positive; "
                    f"got {list(sizes)!r}"
                )
            prev = m
        self.sizes = list(sizes)
        self.r = len(sizes)
        self.track_occupancy = track_occupancy
        # Index 0 unused so that levels[s] is level s; levels[r+1] = backing.
        self.levels = [LevelCounters() for _ in range(self.r + 2)]
        self.channels = [ChannelCounters() for _ in range(self.r + 1)]
        self.occupancy = [0 for _ in range(self.r + 1)]

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #
    def _check_level(self, level: int) -> None:
        if not (1 <= level <= self.r):
            raise ValueError(f"level must be in 1..{self.r}, got {level}")

    def load(self, level: int, words: int, *, msgs: int = 1) -> None:
        """Move *words* from level ``level+1`` into level ``level``.

        Counts a read at the slower level and a write at the faster level,
        and *msgs* messages on the connecting channel.
        """
        self._check_level(level)
        check_positive_int(words, "words")
        self.levels[level + 1].reads += words
        self.levels[level].writes += words
        self.channels[level].record_down(words, msgs)

    def store(self, level: int, words: int, *, msgs: int = 1) -> None:
        """Move *words* from level ``level`` out to level ``level+1``."""
        self._check_level(level)
        check_positive_int(words, "words")
        self.levels[level].reads += words
        self.levels[level + 1].writes += words
        self.channels[level].record_up(words, msgs)

    def create(self, level: int, words: int) -> None:
        """Create *words* directly in level ``level`` (an R2 residency
        beginning, e.g. zero-initializing an accumulator): one write per
        word at that level, no channel traffic."""
        self._check_level(level)
        check_positive_int(words, "words")
        self.levels[level].writes += words

    def touch_compute(self, level: int, reads: int = 0, writes: int = 0) -> None:
        """Account reads/writes caused by arithmetic entirely inside *level*.

        The paper's model says arithmetic only causes traffic in fast memory;
        most kernels do not need to call this (it never affects slow-memory
        write counts), but it is available for fine-grained audits.
        """
        self._check_level(level)
        self.levels[level].reads += reads
        self.levels[level].writes += writes

    # ------------------------------------------------------------------ #
    # occupancy
    # ------------------------------------------------------------------ #
    def alloc(self, level: int, words: int) -> None:
        self._check_level(level)
        check_positive_int(words, "words")
        if not self.track_occupancy:
            return
        if self.occupancy[level] + words > self.sizes[level - 1]:
            raise CapacityError(
                f"level L{level} (size {self.sizes[level - 1]}) cannot hold "
                f"{self.occupancy[level]} + {words} words"
            )
        self.occupancy[level] += words

    def free(self, level: int, words: int) -> None:
        self._check_level(level)
        if not self.track_occupancy:
            return
        if words > self.occupancy[level]:
            raise CapacityError(
                f"freeing {words} words from L{level} with only "
                f"{self.occupancy[level]} resident"
            )
        self.occupancy[level] -= words

    @contextmanager
    def resident(self, level: int, words: int) -> Iterator[None]:
        """Context manager marking *words* resident in *level*."""
        self.alloc(level, words)
        try:
            yield
        finally:
            self.free(level, words)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def reads_at(self, level: int) -> int:
        """Total word-reads observed at *level* (1..r+1; r+1 = backing)."""
        return self.levels[level].reads

    def writes_at(self, level: int) -> int:
        """Total word-writes observed at *level* (1..r+1; r+1 = backing)."""
        return self.levels[level].writes

    def loads_on_channel(self, s: int) -> int:
        return self.channels[s].words_down

    def stores_on_channel(self, s: int) -> int:
        return self.channels[s].words_up

    def traffic_on_channel(self, s: int) -> int:
        return self.channels[s].words

    def messages_on_channel(self, s: int) -> int:
        return self.channels[s].msgs

    def summary(self) -> dict:
        """Structured counter dump used by experiment harnesses."""
        return {
            "levels": {
                f"L{s}": {"reads": self.levels[s].reads, "writes": self.levels[s].writes}
                for s in range(1, self.r + 2)
            },
            "channels": {
                f"L{s + 1}<->L{s}": {
                    "loads": self.channels[s].words_down,
                    "stores": self.channels[s].words_up,
                    "msgs": self.channels[s].msgs,
                }
                for s in range(1, self.r + 1)
            },
        }

    def reset(self) -> None:
        for lc in self.levels:
            lc.reads = lc.writes = 0
        for ch in self.channels:
            ch.words_down = ch.msgs_down = ch.words_up = ch.msgs_up = 0
        self.occupancy = [0 for _ in self.occupancy]


class TwoLevel(MemoryHierarchy):
    """Two-level fast/slow convenience wrapper (the model of Theorem 1).

    ``fast`` is L1 (size *M*), ``slow`` is the backing store.  Exposes the
    quantities the paper's statements are phrased in: ``loads``, ``stores``,
    ``writes_to_fast``, ``writes_to_slow``, ``reads_from_slow``.
    """

    def __init__(self, M: float, *, track_occupancy: bool = True):
        if not (M > 0):
            raise ValueError(f"fast memory size must be positive, got {M}")
        super().__init__([M], track_occupancy=track_occupancy)

    # Movement shortcuts ------------------------------------------------ #
    def load_fast(self, words: int, *, msgs: int = 1) -> None:
        """Load *words* from slow memory into fast memory."""
        self.load(1, words, msgs=msgs)

    def store_slow(self, words: int, *, msgs: int = 1) -> None:
        """Store *words* from fast memory back to slow memory."""
        self.store(1, words, msgs=msgs)

    def create_fast(self, words: int) -> None:
        """Begin an R2 residency (create data directly in fast memory)."""
        self.create(1, words)

    # Paper-vocabulary properties --------------------------------------- #
    @property
    def M(self) -> float:
        return self.sizes[0]

    @property
    def loads(self) -> int:
        return self.channels[1].words_down

    @property
    def stores(self) -> int:
        return self.channels[1].words_up

    @property
    def loads_plus_stores(self) -> int:
        return self.loads + self.stores

    @property
    def writes_to_fast(self) -> int:
        return self.levels[1].writes

    @property
    def reads_from_fast(self) -> int:
        return self.levels[1].reads

    @property
    def writes_to_slow(self) -> int:
        return self.levels[2].writes

    @property
    def reads_from_slow(self) -> int:
        return self.levels[2].reads


class WriteBuffer:
    """Simple write-buffer model (paper Section 2.2).

    Stores destined for slow memory are staged in a buffer of *capacity*
    words; a full buffer drains completely.  As the paper notes, this can
    overlap write latency but does **not** reduce the number of slow-memory
    word-writes (or their energy), so ``words_written`` equals the total
    pushed regardless of capacity — the buffer only changes *when* they
    drain, which :attr:`drain_events` exposes.
    """

    def __init__(self, capacity: int):
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self.pending = 0
        self.words_written = 0
        self.drain_events = 0

    def push(self, words: int) -> None:
        check_positive_int(words, "words")
        self.pending += words
        self.words_written += words
        while self.pending >= self.capacity:
            self.pending -= self.capacity
            self.drain_events += 1

    def flush(self) -> None:
        if self.pending > 0:
            self.pending = 0
            self.drain_events += 1

    @property
    def min_drain_time(self) -> float:
        """Lower bound on drain time in 'word-times': perfect overlap can at
        best halve total (read+write) time, never the write word count."""
        return float(self.words_written)
