"""Regenerates the Section-7.2 LU trade-off (LL-LUNP vs RL-LUNP)."""

from repro.experiments.lu_tradeoff import _assemble_lu, format_lu, lu_scenario
from repro.lab.executor import execute


def run_lu(**sizes):
    return _assemble_lu(execute(lu_scenario(**sizes).points()).results)


def test_lu(benchmark):
    result = benchmark.pedantic(run_lu, kwargs=dict(n=32, b=4, P=4),
                                rounds=1, iterations=1)
    print("\n" + format_lu(result))

    assert result["ll_correct"] and result["rl_correct"]
    meas = result["measured"]
    # Measured: LL writes less NVM; RL communicates less.
    assert (meas["LL-LUNP"]["nvm_writes"] < meas["RL-LUNP"]["nvm_writes"])
    assert (meas["RL-LUNP"]["network"] < meas["LL-LUNP"]["network"])
    # Model (formulas 23–26): same ordering at scale.
    mod = result["model"]
    assert (mod["LL-LUNP"]["beta_23_words"]
            < mod["RL-LUNP"]["beta_23_words"])
    assert (mod["RL-LUNP"]["beta_nw_words"]
            < mod["LL-LUNP"]["beta_nw_words"])
