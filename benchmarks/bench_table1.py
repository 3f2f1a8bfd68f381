"""Regenerates Table 1: Model-2.1 parallel matmul cost rows.

Asserts the paper's reading of the table: L2→L1 costs identical across
algorithms; interprocessor β words improve with replication; the dominant
β-cost ratio decides 2.5DMML2 vs 2.5DMML3 as a function of the NVM write
penalty.
"""

from repro.distributed import HwParams
from repro.distributed.costmodel import dom_beta_cost_model21
from repro.experiments.table1 import (
    _assemble_table1,
    format_table1,
    table1_scenario,
)
from repro.lab.executor import execute


def run_table1(**sizes):
    points = table1_scenario(**sizes).points()
    return _assemble_table1(execute(points).results)


def test_table1(benchmark):
    result = benchmark.pedantic(
        run_table1,
        kwargs=dict(n=1 << 14, P=1 << 20, c2=4, c3=16),
        rounds=1, iterations=1,
    )
    print("\n" + format_table1(result))

    rows = result["rows"]
    # L2->L1 rows identical across all three algorithms.
    for r in rows[:2]:
        assert r["2DMML2"] == r["2.5DMML2"] == r["2.5DMML3"]
    # Interprocessor words: monotone improvement with replication.
    bnw = [r for r in rows if r["param"] == "βNW"][0]
    assert bnw["2DMML2"] > bnw["2.5DMML2"] > bnw["2.5DMML3"]
    # NA pattern: 2DMML2 and 2.5DMML2 never touch NVM.
    for r in rows:
        if r["movement"] in ("L3->L2", "L2->L3"):
            assert r["2DMML2"] is None and r["2.5DMML2"] is None
    # The simulated run agrees with the model's leading network term.
    v = result["validation"]
    assert v["numerically_correct"]
    assert 0.5 < v["within_factor"] < 4.0

    # Crossover behaviour: expensive NVM writes flip the winner.
    cheap = dom_beta_cost_model21(1 << 14, 1 << 20, 4, 16,
                                  HwParams(beta_23=0.1, beta_32=0.1))
    dear = dom_beta_cost_model21(1 << 14, 1 << 20, 4, 16,
                                 HwParams(beta_23=100.0))
    assert cheap["winner"] == "2.5DMML3"
    assert dear["winner"] == "2.5DMML2"
