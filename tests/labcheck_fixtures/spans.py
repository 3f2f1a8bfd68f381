"""Fixture telemetry emission with an off-vocabulary span name."""


def traced(trace):
    with trace.span("bogus-span"):  # MARKER r5-rogue-span
        trace.counter("cache.hit")


def observed(registry):
    registry.observe_span("bogus-request", 0.1)  # MARKER r5-rogue-observed
