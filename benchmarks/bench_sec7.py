"""Regenerates the Section-7 Model-1 study: CA between ranks + WA locally."""

from repro.experiments.sec7_model1 import (
    _assemble_sec7,
    format_sec7_model1,
    sec7_scenario,
)
from repro.lab.executor import execute


def run_sec7_model1(**sizes):
    points = sec7_scenario(**sizes).points()
    return _assemble_sec7(execute(points).results)


def test_sec7_model1(benchmark):
    result = benchmark.pedantic(run_sec7_model1,
                                kwargs=dict(n=32, P=16, M1=3 * 16),
                                rounds=1, iterations=1)
    print("\n" + format_sec7_model1(result))

    assert result["correct"]
    b = result["bounds"]
    plain, hoard = result["plain"], result["hoard"]
    # Plain SUMMA's local L1→L2 writes track the network volume (Θ(W2)),
    # exceeding the W1 floor by ~√P.
    assert plain["l1_to_l2_writes"] > 2 * b["W1"]
    assert plain["l1_to_l2_writes"] <= 2 * b["W2"]
    # Hoarding attains the W1 floor exactly (one local multiply).
    assert hoard["l1_to_l2_writes"] == b["W1"]
    # Network volume identical for both.
    assert plain["nw_recv"] == hoard["nw_recv"]
    # Reads (W3-bound quantity) are the dominant local traffic either way.
    assert plain["l2_to_l1_reads"] > plain["l1_to_l2_writes"]
