"""Regenerates Figure 2 (scaled): cache counters of matmul orders.

Runs through the ``repro.lab`` sweep engine (one scenario point per
variant x middle-dimension, cache disabled so the timing is honest) and
reassembles the engine's records into the panels ``format_fig2`` prints.
Shape assertions encode the paper's panel-by-panel story:
2a (CO) and 2b (MKL) victims.M grow with the middle dimension; 2c–2f
(two-level WA) stay near the write floor, degrading gracefully as the
blocking approaches the 3-blocks-exactly limit.
"""

from repro.experiments import Fig2Config, format_fig2
from repro.lab.executor import execute
from repro.lab.scenarios import fig2_rows, fig2_scenario


def small_cfg():
    return Fig2Config(
        n_outer=96,
        middles=(8, 32, 128, 256),
        line_size=4,
        b2=8,
        base=4,
    )


def run_via_lab(cfg):
    scenario = fig2_scenario(cfg=cfg)
    report = execute(scenario.points(), jobs=1, cache=None)
    return fig2_rows(scenario, report.results)


def test_fig2(benchmark):
    cfg = small_cfg()
    results = benchmark.pedantic(run_via_lab, args=(cfg,),
                                 rounds=1, iterations=1)
    print("\n" + format_fig2(results))

    floor = cfg.n_outer**2 // cfg.line_size
    co, mkl = results[0], results[1]
    was = results[2:]
    # 2a: CO write-backs grow ~linearly with the middle dimension.
    assert co["VICTIMS.M"][-1] > 4 * co["VICTIMS.M"][0]
    assert co["VICTIMS.M"][-1] > 4 * floor
    # 2b: MKL-like is at least as bad as CO at large middle dims.
    assert mkl["VICTIMS.M"][-1] >= co["VICTIMS.M"][-1]
    # 2c–2f: every WA blocking beats CO by a wide margin at the largest
    # middle dimension; smaller blockings hug the floor tighter.
    for rows in was:
        assert rows["VICTIMS.M"][-1] < co["VICTIMS.M"][-1] / 2
    assert was[0]["VICTIMS.M"][-1] <= was[-1]["VICTIMS.M"][-1]
    # The smallest blocking pays for it with more E-state fills (the
    # Section-6.2 trade-off).
    assert was[0]["FILLS.E"][-1] >= was[-1]["FILLS.E"][-1]
