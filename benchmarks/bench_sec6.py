"""Regenerates the Section-6 policy study (Propositions 6.1 / 6.2).

Runs as a ``repro.lab`` scheme x capacity x policy grid (cache disabled so
the timing is honest); the engine's records are reassembled into the rows
``format_sec6`` prints.
"""

from repro.experiments import format_sec6
from repro.lab.executor import execute
from repro.lab.scenarios import sec6_rows, sec6_scenario


def run_via_lab():
    scenario = sec6_scenario()  # full-size defaults: n=64, middle=128
    report = execute(scenario.points(), jobs=1, cache=None)
    return sec6_rows(scenario, report.results)


def test_sec6(benchmark):
    rows = benchmark.pedantic(run_via_lab, rounds=1, iterations=1)
    print("\n" + format_sec6(rows))

    def pick(scheme, blocks, policy):
        return [r for r in rows
                if r["scheme"] == scheme
                and r["capacity_blocks"] == blocks
                and r["policy"] == policy][0]

    # Proposition 6.1: two-level WA + LRU + 5 blocks → floor exactly.
    assert pick("wa2", 5, "lru")["writebacks"] == pick(
        "wa2", 5, "lru")["floor"]
    # Slab order stays near the floor with just 3 blocks.
    assert pick("ab-multilevel", 3, "lru")["ratio"] < 1.2
    # Multi-level WA order with 3 blocks blows past the floor.
    assert pick("wa-multilevel", 3, "lru")["ratio"] > 1.5
    # Belady (ideal cache) is never worse than LRU on write-backs + fills.
    for scheme in ("wa2", "ab-multilevel"):
        for blocks in (3, 5):
            opt = pick(scheme, blocks, "belady")
            lru = pick(scheme, blocks, "lru")
            assert opt["fills"] <= lru["fills"]
    # The clock approximation tracks LRU within a small factor at 5 blocks.
    assert (pick("wa2", 5, "clock")["writebacks"]
            <= 3 * pick("wa2", 5, "lru")["writebacks"])
