"""Cache replacement policies (paper Section 6).

Each policy manages the ordering/metadata for **one associative set**;
:class:`repro.machine.cache.CacheSim` instantiates one policy object per set.
The contract is:

* ``touch(tag, write)`` — called on a hit;
* ``add(tag, write)`` — called after a miss brings *tag* in (capacity has
  already been made available);
* ``choose_victim() -> tag`` — pick a resident line to evict;
* ``remove(tag)`` — line was evicted or flushed;
* ``tags`` — iterable of resident tags.

A policy may also offer ``replay(lines, writes, dirty)``: the same
per-access semantics folded into one loop over a whole trace of a
fully-associative cache (see :meth:`ReplacementPolicy.replay`).

Policies implemented:

* :class:`LRUPolicy` — least recently used; the policy Propositions 6.1/6.2
  are proved for.
* :class:`ClockPolicy` — the 3-bit "clock algorithm" LRU approximation the
  paper cites as Nehalem's actual L3 policy [17]; reproduces the small gap
  from true LRU observed in Figure 2.
* :class:`FIFOPolicy`, :class:`RandomPolicy` — baselines.
* :class:`SegmentedLRUPolicy` — the read-half/write-half reservation LRU of
  Blelloch et al. [12, Lemma 2.1], included for comparison in the Section 6
  experiments.
* :class:`BeladyPolicy` — marker class;
  :class:`~repro.machine.cache.CacheSim` detects it and runs the offline
  optimal (ideal-cache) simulation through
  :func:`repro.machine.fastsim.sweep`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.util import check_positive_int

__all__ = [
    "ReplacementPolicy",
    "ReplayCounts",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "ClockPolicy",
    "SegmentedLRUPolicy",
    "BeladyPolicy",
    "POLICIES",
    "make_policy",
]


class ReplayCounts(NamedTuple):
    """What a whole-trace :meth:`ReplacementPolicy.replay` reports: the
    counters it added and the eviction made by the trace's last access
    (``None``/``False`` when that access did not evict)."""

    hits: int
    victims_m: int
    victims_e: int
    last_victim: Optional[int]
    last_victim_dirty: bool


class ReplacementPolicy:
    """Abstract replacement policy for one associative set."""

    name = "abstract"

    def __init__(self, capacity: int):
        check_positive_int(capacity, "capacity")
        self.capacity = capacity

    def touch(self, tag: int, write: bool) -> None:
        raise NotImplementedError

    def add(self, tag: int, write: bool) -> None:
        raise NotImplementedError

    def choose_victim(self) -> int:
        raise NotImplementedError

    def remove(self, tag: int) -> None:
        raise NotImplementedError

    @property
    def tags(self) -> Iterable[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def replay(self, lines: list[int], writes: list[bool],
               dirty: dict[int, bool]) -> Optional[ReplayCounts]:
        """Replay a whole trace through this policy as the only set of
        a cache whose per-line dirty bits are *dirty*.

        Afterwards the policy state and *dirty* are exactly what the
        per-access ``touch``/``add``/``choose_victim``/``remove`` calls
        of :meth:`repro.machine.cache.CacheSim.access` leave behind,
        from whatever state the policy was in.  Policies without a
        whole-trace replay return ``None`` and change nothing.
        """
        return None


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used, via insertion-ordered dict."""

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: dict[int, None] = {}

    def touch(self, tag: int, write: bool) -> None:
        # Move to MRU position.
        del self._order[tag]
        self._order[tag] = None

    def add(self, tag: int, write: bool) -> None:
        self._order[tag] = None

    def choose_victim(self) -> int:
        return next(iter(self._order))

    def remove(self, tag: int) -> None:
        del self._order[tag]

    @property
    def tags(self) -> Iterable[int]:
        return self._order.keys()

    def __len__(self) -> int:
        return len(self._order)


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out: hits do not refresh recency."""

    name = "fifo"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: dict[int, None] = {}

    def touch(self, tag: int, write: bool) -> None:
        pass  # FIFO ignores hits

    def add(self, tag: int, write: bool) -> None:
        self._order[tag] = None

    def choose_victim(self) -> int:
        return next(iter(self._order))

    def remove(self, tag: int) -> None:
        del self._order[tag]

    @property
    def tags(self) -> Iterable[int]:
        return self._order.keys()

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for determinism)."""

    name = "random"

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None):
        super().__init__(capacity)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._tags: list[int] = []
        self._pos: dict[int, int] = {}

    def touch(self, tag: int, write: bool) -> None:
        pass

    def add(self, tag: int, write: bool) -> None:
        self._pos[tag] = len(self._tags)
        self._tags.append(tag)

    def choose_victim(self) -> int:
        i = int(self._rng.integers(len(self._tags)))
        return self._tags[i]

    def remove(self, tag: int) -> None:
        # Swap-remove to keep O(1).
        i = self._pos.pop(tag)
        last = self._tags.pop()
        if last != tag:
            self._tags[i] = last
            self._pos[last] = i

    @property
    def tags(self) -> Iterable[int]:
        return list(self._tags)

    def __len__(self) -> int:
        return len(self._tags)


class ClockPolicy(ReplacementPolicy):
    """3-bit clock algorithm (Corbató), the paper's Nehalem L3 model.

    Each resident line carries a 3-bit marker.  A hit increments the marker
    (saturating at 7).  To evict, a hand sweeps the set clockwise looking for
    a line with marker 0; if a full sweep finds none, *all* markers are
    decremented and the sweep repeats — exactly the behaviour described in
    Section 6.1.
    """

    name = "clock"

    def __init__(self, capacity: int, bits: int = 3):
        super().__init__(capacity)
        check_positive_int(bits, "bits")
        self._max = (1 << bits) - 1
        self._slots: list[Optional[int]] = [None] * capacity
        self._marks: list[int] = [0] * capacity
        self._where: dict[int, int] = {}
        self._hand = 0

    def touch(self, tag: int, write: bool) -> None:
        i = self._where[tag]
        if self._marks[i] < self._max:
            self._marks[i] += 1

    def add(self, tag: int, write: bool) -> None:
        for off in range(self.capacity):
            i = (self._hand + off) % self.capacity
            if self._slots[i] is None:
                self._slots[i] = tag
                self._marks[i] = 1
                self._where[tag] = i
                return
        raise RuntimeError("add() called on a full set")  # pragma: no cover

    def choose_victim(self) -> int:
        while True:
            for off in range(self.capacity):
                i = (self._hand + off) % self.capacity
                if self._slots[i] is not None and self._marks[i] == 0:
                    self._hand = (i + 1) % self.capacity
                    return self._slots[i]  # type: ignore[return-value]
            for i in range(self.capacity):
                if self._marks[i] > 0:
                    self._marks[i] -= 1

    def remove(self, tag: int) -> None:
        i = self._where.pop(tag)
        self._slots[i] = None
        self._marks[i] = 0

    def replay(self, lines: list[int], writes: list[bool],
               dirty: dict[int, bool]) -> ReplayCounts:
        """Whole-trace clock, without the O(capacity) scans per miss.

        * A fill takes the first empty slot from the hand.  Holes never
          reappear in a replay and the hand moves only on an eviction,
          which waits until no hole is left: so the fills take the
          holes in cyclic order from the starting hand, listed once.
        * An eviction happens only in a full set, where every mark is
          at least the minimum mark ``m``: ``choose_victim``'s ``m``
          decrement sweeps lower every mark by exactly ``m`` and then
          stop at the first slot from the hand that held ``m``.

        So marks are kept as ``rel[i] - off`` with a running offset
        ``off`` (one assignment replaces the sweeps), and the victim
        slot comes from ``list.index``: the first mark 0 from the hand,
        else from slot 0; only when no slot holds mark 0 does ``off``
        move up to ``min(rel)``, the minimum mark (a full set has no
        holes).  Holes hold ``rel == -1``, which no target ``off >= 0``
        matches.
        """
        cap = self.capacity
        top = self._max
        slots = self._slots
        where = self._where
        rel = [-1 if t is None else m for t, m in zip(slots, self._marks)]
        off = 0
        hand = self._hand
        resident = len(where)
        holes = iter([i for i in range(hand, cap) if slots[i] is None]
                     + [i for i in range(hand) if slots[i] is None])
        hits = victims_m = victims_e = 0
        victim: Optional[int] = None
        victim_dirty = False
        hits_at_victim = -1
        for line, w in zip(lines, writes):
            i = where.get(line)
            if i is not None:
                hits += 1
                if w:
                    dirty[line] = True
                if rel[i] - off < top:
                    rel[i] += 1
                continue
            if resident < cap:
                i = next(holes)
                resident += 1
            else:
                try:
                    i = rel.index(off, hand)
                except ValueError:
                    try:
                        i = rel.index(off)
                    except ValueError:
                        off = min(rel)
                        try:
                            i = rel.index(off, hand)
                        except ValueError:
                            i = rel.index(off)
                victim = slots[i]
                del where[victim]
                victim_dirty = dirty.pop(victim)
                if victim_dirty:
                    victims_m += 1
                else:
                    victims_e += 1
                hits_at_victim = hits
                hand = i + 1 if i + 1 < cap else 0
            slots[i] = line
            rel[i] = off + 1
            where[line] = i
            dirty[line] = w
        self._marks[:] = [0 if r < 0 else r - off for r in rel]
        self._hand = hand
        if hits != hits_at_victim:
            # Once a replay evicts, the set stays full and every later
            # miss evicts too; a hit since then means the last access
            # evicted nothing.
            victim, victim_dirty = None, False
        return ReplayCounts(hits, victims_m, victims_e, victim, victim_dirty)

    @property
    def tags(self) -> Iterable[int]:
        return list(self._where.keys())

    def __len__(self) -> int:
        return len(self._where)


class SegmentedLRUPolicy(ReplacementPolicy):
    """Half-read/half-write reservation LRU (Blelloch et al. [12]).

    The set is split into a read half and a write half, each run as LRU.  A
    line accessed with a write lives in the write half; read-only lines live
    in the read half.  The paper notes this is provably competitive for the
    asymmetric ideal-cache model but conservative in cache usage; the
    Section 6 experiments use it as a comparison point.
    """

    name = "segmented-lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._read_cap = max(1, capacity // 2)
        self._write_cap = max(1, capacity - self._read_cap)
        self._read: dict[int, None] = {}
        self._write: dict[int, None] = {}

    def _half(self, tag: int) -> dict[int, None]:
        return self._write if tag in self._write else self._read

    def touch(self, tag: int, write: bool) -> None:
        if write and tag in self._read:
            # Promote to the write half.
            del self._read[tag]
            self._write[tag] = None
            return
        half = self._half(tag)
        del half[tag]
        half[tag] = None

    def add(self, tag: int, write: bool) -> None:
        (self._write if write else self._read)[tag] = None

    def choose_victim(self) -> int:
        # Evict from whichever half is over its reservation; prefer the
        # read half on ties (writes are the expensive residents to lose).
        if len(self._read) > self._read_cap or not self._write:
            if self._read:
                return next(iter(self._read))
        if len(self._write) > self._write_cap or not self._read:
            if self._write:
                return next(iter(self._write))
        if self._read:
            return next(iter(self._read))
        return next(iter(self._write))

    def remove(self, tag: int) -> None:
        if tag in self._read:
            del self._read[tag]
        else:
            del self._write[tag]

    def replay(self, lines: list[int], writes: list[bool],
               dirty: dict[int, bool]) -> ReplayCounts:
        """Whole-trace segmented LRU.  A line enters the write half
        exactly when it turns dirty and never leaves it while resident,
        so a write-half hit needs no dirty-bit update; *dirty* changes
        only on misses and on promotions."""
        cap = self.capacity
        read_cap, write_cap = self._read_cap, self._write_cap
        read, write = self._read, self._write
        resident = len(read) + len(write)
        hits = victims_m = victims_e = 0
        victim: Optional[int] = None
        victim_dirty = False
        hits_at_victim = -1
        for line, w in zip(lines, writes):
            if line in write:
                hits += 1
                del write[line]
                write[line] = None
                continue
            if line in read:
                hits += 1
                del read[line]
                if w:
                    write[line] = None
                    dirty[line] = True
                else:
                    read[line] = None
                continue
            if resident < cap:
                resident += 1
            else:
                # choose_victim's rule for a full set.
                if not read or (len(read) <= read_cap
                                and len(write) > write_cap):
                    victim = next(iter(write))
                    del write[victim]
                else:
                    victim = next(iter(read))
                    del read[victim]
                victim_dirty = dirty.pop(victim)
                if victim_dirty:
                    victims_m += 1
                else:
                    victims_e += 1
                hits_at_victim = hits
            if w:
                write[line] = None
            else:
                read[line] = None
            dirty[line] = w
        if hits != hits_at_victim:
            # See ClockPolicy.replay: the last access evicted nothing.
            victim, victim_dirty = None, False
        return ReplayCounts(hits, victims_m, victims_e, victim, victim_dirty)

    @property
    def tags(self) -> Iterable[int]:
        return list(self._read.keys()) + list(self._write.keys())

    def __len__(self) -> int:
        return len(self._read) + len(self._write)


class BeladyPolicy(ReplacementPolicy):
    """Marker for the offline optimal (ideal-cache) policy.

    :class:`~repro.machine.cache.CacheSim` detects this policy and runs the
    farthest-next-use (Belady/MIN) simulation over the whole trace instead
    of the online per-access loop.  The online methods below are therefore
    never exercised during a normal run.
    """

    name = "belady"

    def __init__(self, capacity: int):
        super().__init__(capacity)

    def touch(self, tag: int, write: bool) -> None:  # pragma: no cover
        raise RuntimeError("Belady is an offline policy; use CacheSim.run")

    def add(self, tag: int, write: bool) -> None:  # pragma: no cover
        raise RuntimeError("Belady is an offline policy; use CacheSim.run")

    def choose_victim(self) -> int:  # pragma: no cover
        raise RuntimeError("Belady is an offline policy; use CacheSim.run")

    def remove(self, tag: int) -> None:  # pragma: no cover
        raise RuntimeError("Belady is an offline policy; use CacheSim.run")

    @property
    def tags(self) -> Iterable[int]:  # pragma: no cover
        return ()

    def __len__(self) -> int:  # pragma: no cover
        return 0


POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "clock": ClockPolicy,
    "segmented-lru": SegmentedLRUPolicy,
    "belady": BeladyPolicy,
}


def make_policy(name: str, capacity: int, **kwargs) -> ReplacementPolicy:
    """Instantiate a policy by name (see :data:`POLICIES`)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {sorted(POLICIES)}"
        ) from None
    return cls(capacity, **kwargs)
