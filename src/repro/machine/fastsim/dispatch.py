"""The one simulation entry point for stack replacement policies.

:func:`sweep` computes exact write-aware counters for LRU and Belady
over whole capacity grids, every policy from one pass.  Both policies
are stack algorithms (Mattson et al. 1970): the cache of capacity ``C``
holds a subset of what the cache of capacity ``C' > C`` holds at every
step, so one replay serves a single capacity and a grid alike.

The stage is chosen from the trace's own shape:

* a trace whose tile chunks symbolize (``trace.chunk_lens`` present and
  :func:`~repro.machine.fastsim.symbols.symbolize` accepts it) folds at
  super-symbol granularity (:func:`~repro.machine.fastsim.symbols.
  fold_lru_symbols` / :func:`~repro.machine.fastsim.symbols.
  fold_opt_symbols`);
* any other trace takes the event-granular sweep
  (:func:`~repro.machine.fastsim.lru.lru_event_sweep` /
  :func:`~repro.machine.fastsim.opt.opt_event_sweep`).

Both stages give bit-identical results, so the choice is speed only.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.machine.fastsim.lru import SweepResult, lru_event_sweep
from repro.machine.fastsim.opt import opt_event_sweep
from repro.machine.fastsim.symbols import (
    SymbolTrace,
    fold_lru_symbols,
    fold_opt_symbols,
    symbolize,
)
from repro.machine.trace import Trace

__all__ = ["sweep"]

#: policy -> (event-granular stage, super-symbol stage).
_STAGES = {
    "lru": (lru_event_sweep, fold_lru_symbols),
    "belady": (opt_event_sweep, fold_opt_symbols),
}


def _check_caps(capacities: Union[Sequence[int], np.ndarray]
                ) -> np.ndarray:
    caps = np.unique(np.asarray(capacities, dtype=np.int64))
    if len(caps) == 0:
        raise ValueError("need at least one capacity")
    if caps[0] < 1:
        raise ValueError(f"capacities must be >= 1 line, got {caps[0]}")
    return caps


def sweep(trace: Trace,
          capacities: Mapping[str, Union[Sequence[int], np.ndarray]]
          ) -> Dict[str, SweepResult]:
    """Exact fully-associative counters of ``trace`` for every
    ``{policy: capacities}`` entry (capacities in lines), keyed by
    policy.

    The trace is symbolized at most once, however many policies are
    asked for; each result's ``n_symbols`` says whether the super-symbol
    fold ran.  Raises ``ValueError`` for an unknown policy, an empty or
    non-positive capacity list, or mismatched event arrays.
    """
    caps: Dict[str, np.ndarray] = {}
    for policy, cs in capacities.items():
        if policy not in _STAGES:
            raise ValueError(f"sweep simulates {sorted(_STAGES)}, "
                             f"not {policy!r}")
        caps[policy] = _check_caps(cs)
    if not caps:
        return {}
    lines = np.ascontiguousarray(trace.lines, dtype=np.int64)
    writes = np.ascontiguousarray(trace.writes, dtype=bool)
    if lines.shape != writes.shape or lines.ndim != 1:
        raise ValueError("lines and writes must be matching 1-d arrays")
    st: Optional[SymbolTrace] = None
    if trace.chunk_lens is not None:
        st = symbolize(lines, writes, trace.chunk_lens)
    out: Dict[str, SweepResult] = {}
    for policy, policy_caps in caps.items():
        events, fold = _STAGES[policy]
        out[policy] = (fold(st, policy_caps) if st is not None
                       else events(lines, writes, policy_caps))
    return out
