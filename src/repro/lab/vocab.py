"""Schema-v1 telemetry vocabulary: every span/phase/counter name.

:mod:`repro.lab.telemetry` traces are consumed *by name* downstream —
``benchmarks/digest.py`` aggregates counters, ``repro-lab trace diff``
compares span and phase timings across runs.  A renamed span would not
crash anything; it would silently vanish from every digest and diff.
This module is the single place the names are declared, and the static
contract analyzer (rule R5 of :mod:`repro.lab.check`) rejects any
literal span/phase/counter name passed to the tracing API that is not
declared here.
"""

from typing import FrozenSet

__all__ = ["SCHEMA_VERSION", "SPANS", "PHASES", "COUNTERS"]

#: must match :data:`repro.lab.telemetry.SCHEMA_VERSION`.
SCHEMA_VERSION = 1

#: structured span names (``RunTrace.span`` / ``RunTrace.emit_span``, and
#: ``MetricsRegistry.observe_span`` for spans aggregated without an event).
SPANS: FrozenSet[str] = frozenset({
    "sweep",
    "task",
    "http_request",
})

#: fastsim phase-timing names (:func:`repro.machine.fastsim.profile
#: .phase` hook sections, folded into traces by the executor).
PHASES: FrozenSet[str] = frozenset({
    "trace_build",
    "supersymbol_fold",
    "radix_partition",
    "distance_pass",
    "capacity_fold",
    "next_use",
    "opt_replay",
    "scalar_replay",
})

#: counter names (``RunTrace.counter`` / ``ServeDaemon.counter``).
COUNTERS: FrozenSet[str] = frozenset({
    "cache.hit",
    "cache.miss",
    "cache.write",
    "trace.events",
    "trace.symbols",
    "task.retry",
    "task.timeout",
    "worker.respawn",
    "point.failed",
    "serve.request",
    "serve.cache_hit",
    "serve.dedup",
})
