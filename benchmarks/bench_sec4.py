"""Regenerates the Section-4 kernel traffic table (Algorithms 1–4).

Runs the ``sec4`` preset (n=32, b=4) through the ``repro.lab`` sweep
engine, one ``twolevel-counts`` point per kernel variant.
"""


def test_sec4(benchmark, preset):
    text, rows = preset(benchmark, "sec4")
    print("\n" + text)

    by_variant = {(r["algorithm"], r["variant"]): r for r in rows}

    # k-innermost matmul orders are WA (writes == output); others are not.
    for order in ("ijk", "jik"):
        r = by_variant[("matmul", order)]
        assert r["writes_to_slow"] == r["output_size"]
    for order in ("ikj", "kij", "jki", "kji"):
        r = by_variant[("matmul", order)]
        assert r["writes_to_slow"] > 2 * r["output_size"]

    # Left-looking TRSM/Cholesky WA; right-looking not.
    assert by_variant[("trsm", "left-looking")]["wa"]
    assert not by_variant[("trsm", "right-looking")]["wa"]
    assert by_variant[("cholesky", "left-looking")]["wa"]
    assert not by_variant[("cholesky", "right-looking")]["wa"]

    # N-body: blocked WA; force-symmetry not; (N,3)-body WA.
    assert by_variant[("nbody2", "blocked")]["wa"]
    assert not by_variant[("nbody2", "symmetry")]["wa"]
    assert by_variant[("nbody3", "blocked")]["wa"]

    # Theorem 1 holds for every single row.
    assert all(r["theorem1"] for r in rows)
