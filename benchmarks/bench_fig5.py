"""Regenerates Figure 5 (scaled): multi-level WA vs slab order under LRU.

The paper's two columns: the fully-WA instruction order needs ~5 blocks
resident and melts down at the largest blocking (left column, top plot);
the slab/AB order stays at the write floor across all blockings (right
column).  Runs through the ``repro.lab`` sweep engine (one scenario point
per column x blocking x middle dimension, cache disabled so the timing
is honest).
"""

from repro.experiments import Fig2Config, format_fig5
from repro.lab.executor import execute
from repro.lab.scenarios import fig5_rows, fig5_scenario


def cfg():
    return Fig2Config(
        n_outer=96,
        middles=(8, 32, 128, 256),
        line_size=4,
        b2=8,
        base=4,
        policy="lru",
    )


def run_via_lab(cfg):
    scenario = fig5_scenario(cfg=cfg)
    report = execute(scenario.points(), jobs=1, cache=None)
    return fig5_rows(scenario, report.results)


def test_fig5(benchmark):
    c = cfg()
    results = benchmark.pedantic(run_via_lab, args=(c,), rounds=1,
                                 iterations=1)
    print("\n" + format_fig5(results))

    floor = c.n_outer**2 // c.line_size
    wa_runs = results["multilevel-wa"]
    ab_runs = results["two-level-ab"]
    # Largest blocking (just under 3 blocks in cache): the multi-level
    # order exceeds the floor badly, the slab order stays close.
    wa_big = wa_runs[-1]["VICTIMS.M"][-1]
    ab_big = ab_runs[-1]["VICTIMS.M"][-1]
    assert wa_big > 2 * floor
    assert ab_big < 1.5 * floor
    # Smallest blocking: both near the floor (paper's bottom row).
    assert wa_runs[0]["VICTIMS.M"][-1] < 2 * floor
    assert ab_runs[0]["VICTIMS.M"][-1] < 1.5 * floor
    # The slab order's advantage shows in write-backs, and the smaller
    # blockings pay with more exclusive-state fills.
    assert ab_runs[-1]["FILLS.E"][-1] <= wa_runs[0]["FILLS.E"][-1] * 1.2
