"""Regenerates the Section-5 result: CO matmul cannot be write-avoiding.

Runs the ``sec5`` preset (n=32) through the ``repro.lab`` sweep engine,
one ``co-vs-wa`` point per fast-memory size.
"""


def test_sec5(benchmark, preset):
    text, rows = preset(benchmark, "sec5")
    print("\n" + text)

    # CO stores shrink with M but stay well above the output at small M;
    # the WA comparator sits at the output size for every M.
    assert rows[0]["co_stores"] > rows[-1]["co_stores"]
    assert rows[0]["co_over_output"] > 4
    for r in rows:
        assert r["wa_stores"] == r["output"]
        assert r["co_stores"] > r["wa_stores"]
