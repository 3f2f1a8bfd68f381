"""Integration tests over the paper's table presets (small configs).

Each preset's claims assert the paper's shapes on its records
(``tests/test_preset_claims.py``); these tests check each table's
structure, determinism, and formatting at the smallest viable scale so
the whole table/figure pipeline is exercised in the unit suite too.
"""

from repro.experiments import (
    Fig2Config,
    format_fig2,
    format_fig5,
    format_lu,
    format_sec3,
    format_sec4,
    format_sec5,
    format_sec6,
    format_table1,
    format_table2,
)
from repro.experiments.fig2 import fig2_rows, fig2_scenario
from repro.experiments.fig5 import fig5_rows, fig5_scenario
from repro.experiments.lu_tradeoff import _assemble_lu, lu_scenario
from repro.experiments.sec6_lru import sec6_rows, sec6_scenario
from repro.experiments.table1 import _assemble_table1, table1_scenario
from repro.experiments.table2 import _assemble_table2, table2_scenario
from repro.lab.executor import execute
from repro.lab.registry import MachineSpec
from repro.lab.scenarios import ScenarioPoint, get_scenario


def tiny_cfg():
    return Fig2Config(n_outer=32, middles=(4, 16, 64), line_size=4,
                      b2=8, base=4)


def run_fig2(cfg):
    sc = fig2_scenario(cfg=cfg)
    return fig2_rows(sc, execute(sc.points()).results)


def flat_rows(scenario):
    """Each point's params and record as one row, as the sec3-5 reports
    read them."""
    return [{**r.point.params, **r.record}
            for r in execute(scenario.points()).results]


class TestFig2:
    def test_structure(self):
        res = run_fig2(tiny_cfg())
        assert res[0]["scheme"] == "co"
        assert res[1]["scheme"] == "mkl-like"
        assert all(r["scheme"] == "wa2" for r in res[2:])
        assert "ideal_misses" in res[0]
        for rows in res:
            assert len(rows["VICTIMS.M"]) == 3

    def test_write_floor_constant(self):
        res = run_fig2(tiny_cfg())
        floor = 32 * 32 // 4
        for rows in res:
            assert all(lb == floor for lb in rows["write_lb"])

    def test_determinism(self):
        a = run_fig2(tiny_cfg())
        b = run_fig2(tiny_cfg())
        assert a[0]["VICTIMS.M"] == b[0]["VICTIMS.M"]

    def test_format_contains_counters(self):
        s = format_fig2(run_fig2(tiny_cfg()))
        for name in ("L3_VICTIMS.M", "L3_VICTIMS.E", "LLC_S_FILLS.E",
                     "Write L.B."):
            assert name in s

    def test_b3_sizes_monotone(self):
        cfg = Fig2Config(n_outer=128)
        sizes = cfg.b3_sizes()
        assert sizes == sorted(sizes)
        assert all(b % cfg.base == 0 for b in sizes)


class TestFig5:
    def test_columns(self):
        sc = fig5_scenario(cfg=tiny_cfg())
        res = fig5_rows(sc, execute(sc.points()).results)
        assert set(res) == {"multilevel-wa", "two-level-ab"}
        s = format_fig5(res)
        assert "multilevel-wa" in s and "two-level-ab" in s


class TestTables:
    def test_table1_validation_block(self):
        sc = table1_scenario(n=1 << 12, P=1 << 12, c2=2, c3=4)
        r = _assemble_table1(execute(sc.points()).results)
        assert r["validation"]["numerically_correct"]
        s = format_table1(r)
        assert "2.5DMML3" in s and "NA" in s

    def test_table2_validation_block(self):
        r = _assemble_table2(execute(table2_scenario().points()).results)
        v = r["validation"]
        assert v["summa_correct"] and v["mm25d_correct"]
        assert v["summa_nvm_writes_per_rank"] == v["w1_floor"]
        s = format_table2(r)
        assert "SUMMAL3ooL2" in s and "Theorem-4" in s


class TestSectionHarnesses:
    def test_sec3_rows(self):
        machine = MachineSpec(name="pebble")
        sc = get_scenario("sec3")
        sc.explicit = [ScenarioPoint("cdag-pebble", machine,
                                     {"algorithm": alg, "n": n, "M": M})
                       for alg, n, M in (("fft", 64, 16),
                                         ("strassen", 4, 16),
                                         ("matmul", 4, 12))]
        rows = flat_rows(sc)
        assert len(rows) == 3
        assert rows[2]["stores"] == rows[2]["output_size"]
        assert "FFT" in format_sec3(rows)

    def test_sec4_complete_and_consistent(self):
        rows = flat_rows(get_scenario("sec4").with_overrides({"n": 16}))
        assert {r["algorithm"] for r in rows} == {
            "matmul", "trsm", "cholesky", "nbody2", "nbody3"}
        assert all(r["theorem1"] for r in rows)
        s = format_sec4(rows)
        assert "VIOLATED" not in s
        for label in ("matmul (Alg.1)", "TRSM (Alg.2)", "Cholesky (Alg.3)",
                      "(N,2)-body (Alg.4)", "(N,3)-body"):
            assert label in s

    def test_sec5_monotone_in_m(self):
        rows = flat_rows(get_scenario("sec5").with_overrides({"n": 16}))
        co = [r["co_stores"] for r in rows]
        assert co == sorted(co, reverse=True) and co[0] > co[-1]
        assert "CO matmul" in format_sec5(rows)

    def test_sec6_rows(self):
        sc = sec6_scenario(quick=True, b3=8, b2=4, base=4,
                           policies=("lru",), schemes=("wa2",))
        rows = sec6_rows(sc, execute(sc.points()).results)
        assert len(rows) == 3  # three capacities
        assert all(r["policy"] == "lru" for r in rows)
        format_sec6(rows)

    def test_sec8_rows(self):
        sc = get_scenario("sec8").with_overrides({"mesh": 64, "block": 16})
        report = execute(sc.points())
        methods = [r.record["method"] for r in report.results]
        assert methods == ["CG"] + ["CA-CG", "CA-CG streaming"] * 3
        assert all(r.record["converged"] for r in report.results)
        assert "Θ(s)" in sc.render(report.results)

    def test_lu_harness(self):
        sc = lu_scenario(n=16, b=4, P=4)
        res = _assemble_lu(execute(sc.points()).results)
        assert res["ll_correct"] and res["rl_correct"]
        s = format_lu(res)
        assert "LL-LUNP" in s and "RL-LUNP" in s
