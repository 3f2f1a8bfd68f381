"""Shared fixtures: keep the suite off the user's real cache directories.

CLI and executor tests exercise the persistent result cache; without
isolation a test that omits ``--cache-dir`` would write into
``~/.cache/repro-lab``.  Every test gets a fresh cache root instead.

Hypothesis runs under a slim ``ci`` profile by default so ``pytest -q``
stays inside the tier-1 runtime budget; set ``HYPOTHESIS_PROFILE=dev``
(or ``thorough``) locally when hunting for parity counterexamples.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings

    # The cache-isolation fixture below is function-scoped (reset per
    # test, not per example), which is exactly what we want — tell
    # hypothesis it is intentional.
    _suppress = [HealthCheck.function_scoped_fixture,
                 HealthCheck.too_slow]
    settings.register_profile("ci", max_examples=15, deadline=None,
                              suppress_health_check=_suppress)
    settings.register_profile("dev", max_examples=100, deadline=None,
                              suppress_health_check=_suppress)
    settings.register_profile("thorough", max_examples=1000,
                              deadline=None,
                              suppress_health_check=_suppress)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # property tests skip themselves without hypothesis
    pass


@pytest.fixture(autouse=True)
def isolated_cache_roots(monkeypatch, tmp_path_factory):
    root = tmp_path_factory.mktemp("lab-cache")
    monkeypatch.setenv("REPRO_LAB_CACHE", str(root))
