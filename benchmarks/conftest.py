"""Shared benchmark configuration.

Benchmarks double as the regeneration harness for every table and figure
of the paper: run with ``pytest benchmarks/ --benchmark-only -s`` to see
the paper-style tables printed alongside the timings.  Each benchmark runs
its harness once per round (``pedantic``) because the harnesses are
deterministic and non-trivial in cost.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Time *fn* with a single warm-up-free round and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


def run_preset(benchmark, name):
    """Time one cold run of the *name* preset (full geometry, no result
    cache) through the ``repro.lab`` engine; returns the rendered table
    and one flat row (point params + record) per point."""
    from repro.lab.executor import execute
    from repro.lab.scenarios import get_scenario

    scenario = get_scenario(name)
    report = benchmark.pedantic(execute, args=(scenario.points(),),
                                kwargs={"cache": None},
                                rounds=1, iterations=1)
    rows = [{**r.point.params, **r.record} for r in report.results]
    return scenario.render(report.results), rows


@pytest.fixture
def preset():
    return run_preset
