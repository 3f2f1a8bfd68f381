"""The one whole-trace simulation entry point of fully-associative caches.

:func:`sweep` computes exact write-aware counters for LRU, Belady, the
3-bit clock and segmented LRU over whole capacity grids, every policy
from one visit stream.  LRU and Belady are stack algorithms (Mattson et
al. 1970): the cache of capacity ``C`` holds a subset of what the cache
of capacity ``C' > C`` holds at every step, so one replay serves a
single capacity and a grid alike.  Clock and segmented LRU are not, so
their folds replay the stream once per capacity
(:mod:`repro.machine.fastsim.scalar`, imported only when a sweep asks
for them).

Each policy has one fold, run over a visit stream
(:mod:`repro.machine.fastsim.symbols`): :func:`~repro.machine.fastsim.
symbols.fold_lru_symbols`, :func:`~repro.machine.fastsim.symbols.
fold_opt_symbols`, :func:`~repro.machine.fastsim.scalar.fold_clock` and
:func:`~repro.machine.fastsim.scalar.fold_segmented_lru`.  A trace
whose tile chunks symbolize (``trace.chunk_lens`` present and
:func:`~repro.machine.fastsim.symbols.symbolize` accepts it) folds at
super-symbol granularity; any other trace folds as one-line visits
(:func:`~repro.machine.fastsim.symbols.line_symbols`).  Both streams
give bit-identical counters, so the choice is speed only.
Set-associative caches, FIFO and random replacement take
:class:`~repro.machine.cache.CacheSim`'s per-access loop instead, and
Belady runs nowhere else: the ideal cache is fully associative.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.machine.fastsim.lru import SweepResult
from repro.machine.fastsim.symbols import (
    SymbolTrace,
    fold_lru_symbols,
    fold_opt_symbols,
    line_symbols,
    symbolize,
)
from repro.machine.trace import Trace, sorted_distinct
from repro.names import SWEPT_POLICIES

__all__ = ["sweep"]

#: the policies whose folds live in :mod:`repro.machine.fastsim.scalar`.
_SCALAR = ("clock", "segmented-lru")


def _check_caps(capacities: Union[Sequence[int], np.ndarray]
                ) -> np.ndarray:
    caps = sorted_distinct(np.asarray(capacities, dtype=np.int64))
    if len(caps) == 0:
        raise ValueError("need at least one capacity")
    if caps[0] < 1:
        raise ValueError(f"capacities must be >= 1 line, got {caps[0]}")
    return caps


def _empty(caps: np.ndarray) -> SweepResult:
    """Zero counters of the empty trace."""
    zeros = [np.zeros(len(caps), dtype=np.int64) for _ in range(7)]
    return SweepResult(0, caps, *zeros)


def sweep(trace: Trace,
          capacities: Mapping[str, Union[Sequence[int], np.ndarray]]
          ) -> Dict[str, SweepResult]:
    """Exact fully-associative counters of ``trace``, from an empty
    cache, for every ``{policy: capacities}`` entry (capacities in
    lines), keyed by policy.

    The trace is symbolized at most once, however many policies are
    asked for; each result's ``n_symbols`` counts the tile super-symbols
    the fold ran over, or is ``None`` for one-line visits.  Raises
    ``ValueError`` for an unknown policy, an empty or non-positive
    capacity list, or mismatched event arrays.
    """
    caps: Dict[str, np.ndarray] = {}
    for policy, cs in capacities.items():
        if policy not in SWEPT_POLICIES:
            raise ValueError(f"sweep simulates {sorted(SWEPT_POLICIES)}, "
                             f"not {policy!r}")
        caps[policy] = _check_caps(cs)
    if not caps:
        return {}
    lines = np.ascontiguousarray(trace.lines, dtype=np.int64)
    writes = np.ascontiguousarray(trace.writes, dtype=bool)
    if lines.shape != writes.shape or lines.ndim != 1:
        raise ValueError("lines and writes must be matching 1-d arrays")
    if len(lines) == 0:
        return {policy: _empty(c) for policy, c in caps.items()}
    st: Optional[SymbolTrace] = None
    if trace.chunk_lens is not None:
        st = symbolize(lines, writes, trace.chunk_lens)
    if st is None:
        st = line_symbols(lines, writes)
    folds = {"lru": fold_lru_symbols, "belady": fold_opt_symbols}
    if any(policy in _SCALAR for policy in caps):
        from repro.machine.fastsim.scalar import (
            fold_clock,
            fold_segmented_lru,
        )

        folds.update({"clock": fold_clock,
                      "segmented-lru": fold_segmented_lru})
    return {policy: folds[policy](st, c) for policy, c in caps.items()}
