"""Shared benchmark configuration.

The pytest benchmarks here time the engine (``bench_fastsim.py``,
``bench_costgrid.py``); ``bench_paper.py`` times every preset cold.
The paper's tables print with ``repro-lab run PRESET``, and its claims
live next to each preset (``Scenario.claims``): ``preset_digests.py``
checks them on full-size records and rewrites
``tests/golden/preset-digests.json``; the tier-1 suite checks them on
quick records.
"""
