"""Vectorized trace-simulation kernels (single-pass, multi-capacity).

The per-access loop in :mod:`repro.machine.cache` replays a trace once
per cache capacity; every figure and table in the paper, however, is a
*grid* over capacities and policies.  This package computes exact
fully-associative LRU and Belady counters for **all capacities in one
pass** — including the write-aware bookkeeping (`LLC_VICTIMS.M`, flush
write-backs) the paper's Section-6 measurements revolve around — and
the clock and segmented-LRU counters of a grid from one shared visit
stream.

Entry points:

* :func:`sweep` — the one whole-trace simulation path of a
  fully-associative cache: ``sweep(trace, {"lru": caps, "belady":
  caps, "clock": caps, "segmented-lru": caps})`` returns one
  :class:`SweepResult` per policy.  Each policy has one fold over a
  visit stream (:mod:`repro.machine.fastsim.symbols`): tile-chunked
  traces fold at super-symbol granularity, every other trace as
  one-line visits; :mod:`repro.machine.fastsim.dispatch` explains the
  choice;
* :func:`symbolize` / :class:`SymbolTrace` — the super-symbol
  compression on its own;
* :func:`count_earlier_greater` / :func:`next_occurrences` — the exact
  reuse-distance and next-use machinery, reusable for other policies
  built on it;
* :func:`set_phase_hook` / :func:`phase` — the profiling-hook protocol
  (:mod:`repro.machine.fastsim.profile`): the lab's run tracer installs
  a hook to capture per-phase timings (``trace_build`` /
  ``supersymbol_fold`` / ``distance_pass`` / ``radix_partition`` /
  ``capacity_fold`` / ``next_use`` / ``opt_replay`` /
  ``scalar_replay``); without one every phase site is a shared no-op.

Everything here is exact.  The test suite holds :func:`sweep` to one
independent oracle per policy, bit for bit: the per-access policy loop
of :class:`~repro.machine.cache.CacheSim` for LRU, clock and segmented
LRU, and the reference heap of :mod:`repro.machine.fastsim.belady` for
Belady.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "distances": ("count_earlier_greater", "next_occurrences",
                  "prev_occurrences"),
    "lru": ("SweepResult",),
    "symbols": ("SymbolTrace", "symbolize"),
    "dispatch": ("sweep",),
    "profile": ("phase", "phase_hook", "set_phase_hook"),
})
