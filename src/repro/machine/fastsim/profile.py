"""Lightweight profiling hooks for the fastsim hot paths.

fastsim sits below the lab engine and must not import it, so phase
timings flow through a tiny module-global hook: the executor installs a
callable ``hook(name, seconds)`` while a run trace is active, and each
instrumented section wraps itself in :func:`phase`.  When no hook is
installed :func:`phase` returns a shared no-op context manager — the
cost of instrumentation is one ``is None`` check, which is what lets
the simulators stay bit-identical and effectively free when untraced.

Phases emitted by the simulators:

``trace_build``
    materializing a kernel's line trace
    (``repro.lab.registry.TraceKernel.trace``)
``radix_partition``
    the MSB radix partition passes inside ``count_earlier_greater``
``supersymbol_fold``
    building the visit stream (``symbolize`` / ``line_symbols``)
``distance_pass``
    the LRU fold's per-visit stack distances
``capacity_fold``
    folding stack distances into per-capacity hit/miss counts
``next_use``
    the Belady fold's next-visit preprocessing
``opt_replay``
    the OPT stack-inclusion replay loop
``scalar_replay``
    the clock and segmented-LRU folds, one replay per capacity
    (:mod:`repro.machine.fastsim.scalar`)
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = ["set_phase_hook", "phase_hook", "phase"]

PhaseHook = Callable[[str, float], None]

_hook: Optional[PhaseHook] = None


def set_phase_hook(hook: Optional[PhaseHook]) -> Optional[PhaseHook]:
    """Install *hook* (or ``None`` to disable); returns the previous
    hook so callers can restore it."""
    global _hook
    previous = _hook
    _hook = hook
    return previous


def phase_hook() -> Optional[PhaseHook]:
    return _hook


class _NullPhase:
    """Shared do-nothing context manager for the untraced fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


class _TimedPhase:
    __slots__ = ("name", "hook", "t0")

    def __init__(self, name: str, hook: PhaseHook):
        self.name = name
        self.hook = hook

    def __enter__(self) -> "_TimedPhase":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.hook(self.name, time.perf_counter() - self.t0)
        return None


_NULL = _NullPhase()


def phase(name: str):
    """``with phase("radix_partition"):`` around a hot section.  Free
    (a shared no-op) unless a hook is installed."""
    hook = _hook
    if hook is None:
        return _NULL
    return _TimedPhase(name, hook)
