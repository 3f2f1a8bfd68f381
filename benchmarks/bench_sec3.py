"""Regenerates the Section-3 negative results (Theorem 2, Corollaries 2/3).

Runs the ``sec3`` preset through the ``repro.lab`` sweep engine (one
``cdag-pebble`` point per CDAG, cache disabled so the timing is honest).
"""


def test_sec3(benchmark, preset):
    text, rows = preset(benchmark, "sec3")
    print("\n" + text)

    fft = [r for r in rows if r["algorithm"] == "fft"]
    strassen = [r for r in rows if r["algorithm"] == "strassen"]
    matmul = [r for r in rows if r["algorithm"] == "matmul"]

    # FFT/Strassen: stores are a constant fraction of traffic and respect
    # the Theorem-2 bound; stores far exceed the output size.
    for r in fft + strassen:
        assert r["stores"] >= r["theorem2_lb"]
        assert r["store_fraction"] > 0.2
    big_fft = fft[-1]
    assert big_fft["stores"] > 3 * big_fft["output_size"]

    # FFT stores grow superlinearly in n (Ω(n log n / log M)).
    assert fft[-1]["stores"] / fft[0]["stores"] > (
        fft[-1]["n"] / fft[0]["n"])

    # Classical matmul with the WA schedule: stores == output exactly.
    for r in matmul:
        assert r["stores"] == r["output_size"]
