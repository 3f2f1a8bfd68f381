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

The per-access loop over these methods is the online simulator, and
the oracle the whole-trace folds of :func:`repro.machine.fastsim.sweep`
are held to for fully-associative LRU, clock and segmented LRU.

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

Belady's offline MIN has no policy object: it needs the whole trace, so
only :func:`repro.machine.fastsim.sweep` simulates it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.util import check_positive_int

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "ClockPolicy",
    "SegmentedLRUPolicy",
    "POLICIES",
    "make_policy",
]


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

    #: the largest mark a 3-bit marker holds.
    MAX_MARK = 7

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._slots: list[Optional[int]] = [None] * capacity
        self._marks: list[int] = [0] * capacity
        self._where: dict[int, int] = {}
        self._hand = 0

    def touch(self, tag: int, write: bool) -> None:
        i = self._where[tag]
        if self._marks[i] < self.MAX_MARK:
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

    @property
    def tags(self) -> Iterable[int]:
        return list(self._read.keys()) + list(self._write.keys())

    def __len__(self) -> int:
        return len(self._read) + len(self._write)


POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
    "clock": ClockPolicy,
    "segmented-lru": SegmentedLRUPolicy,
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
