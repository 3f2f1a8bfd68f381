"""Regenerates the Section-8 KSM study: streaming CA-CG writes ~ Θ(1/s).

Runs the ``sec8`` preset (mesh=256, block=64, s in 2/4/8) through the
``repro.lab`` sweep engine, one Krylov point per method and s.
"""


def test_sec8(benchmark, preset):
    text, rows = preset(benchmark, "sec8")
    print("\n" + text)

    cg_row = rows[0]
    stream = {r["s"]: r for r in rows if r["method"] == "CA-CG streaming"}
    plain = {r["s"]: r for r in rows if r["method"] == "CA-CG"}

    # All converge.
    assert all(r["converged"] for r in rows)
    # Streaming write rate decreases with s and beats CG by ≥2x at s=8.
    assert (stream[2]["writes_per_step"] > stream[4]["writes_per_step"]
            > stream[8]["writes_per_step"])
    assert stream[8]["writes_per_step"] < cg_row["writes_per_step"] / 2
    # Plain CA-CG does NOT get the Θ(s) write reduction.
    assert plain[8]["writes_per_step"] > 2 * stream[8]["writes_per_step"]
    # The cost side: streaming pays ≤ ~2x flops over plain CA-CG.
    for s in (2, 4, 8):
        assert stream[s]["flops"] <= 2.1 * plain[s]["flops"]
