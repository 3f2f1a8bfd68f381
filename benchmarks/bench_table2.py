"""Regenerates Table 2: Model-2.2 rows plus the measured Theorem-4 tension."""

from repro.distributed import HwParams
from repro.distributed.costmodel import dom_beta_cost_model22
from repro.experiments.table2 import (
    _assemble_table2,
    format_table2,
    table2_scenario,
)
from repro.lab.executor import execute


def run_table2(**sizes):
    points = table2_scenario(**sizes).points()
    return _assemble_table2(execute(points).results)


def test_table2(benchmark):
    # The preset's machine is Table 2's regime, M1 = 2**8, M2 = 2**14.
    result = benchmark.pedantic(
        run_table2, kwargs=dict(n=1 << 15, P=512, c3=4),
        rounds=1, iterations=1,
    )
    print("\n" + format_table2(result))

    rows = result["rows"]
    n, P, c3 = result["n"], result["P"], result["c3"]
    b23 = [r for r in rows if r["param"] == "β23"][0]
    bnw = [r for r in rows if r["param"] == "βNW"][0]
    w1 = n * n / P
    # SUMMA attains the NVM-write floor; 2.5D attains the network bound;
    # neither attains both (Theorem 4).
    assert b23["SUMMAL3ooL2"] <= 1.01 * w1
    assert b23["2.5DMML3ooL2"] > 3 * w1
    assert bnw["2.5DMML3ooL2"] < bnw["SUMMAL3ooL2"]

    # Measured on the simulator: the same tension, with the SUMMA NVM
    # writes *exactly* at the floor.
    v = result["validation"]
    assert v["summa_correct"] and v["mm25d_correct"]
    assert v["summa_nvm_writes_per_rank"] == v["w1_floor"]
    assert v["mm25d_nvm_writes_per_rank"] > 2 * v["w1_floor"]
    assert v["mm25d_nw_recv"] < v["summa_nw_recv"]

    # Hardware crossover: expensive NVM writes favour SUMMA, expensive
    # network favours 2.5D.
    d1 = dom_beta_cost_model22(1 << 15, 512, 4,
                               HwParams(M1=2**8, M2=2**14, beta_23=1e4))
    d2 = dom_beta_cost_model22(1 << 15, 512, 4,
                               HwParams(M1=2**8, M2=2**14, beta_nw=1e4,
                                        beta_23=1.0))
    assert d1["winner"] == "SUMMAL3ooL2"
    assert d2["winner"] == "2.5DMML3ooL2"
