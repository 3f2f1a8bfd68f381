"""Golden-output pins for the paper's tables and figures.

Every table is a ``repro.lab`` preset; ``tests/golden/`` holds each
rendered table as the original serial harnesses printed it, and the
presets must reproduce it **byte for byte** (fig2/fig5/sec6 at their
quick geometry, ``<name>-quick.txt``; the rest at full size).  The
table1/table2/sec7/lu library clients are pinned to the same files,
and their engine plumbing is checked: quick geometries, ``jobs``
fan-out, and point-level caching.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    format_lu,
    format_sec7_model1,
    format_table1,
    format_table2,
    run_lu,
    run_sec7_model1,
    run_table1,
    run_table2,
)
from repro.lab.cache import ResultCache
from repro.lab.executor import execute
from repro.lab.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return GOLDEN.joinpath(f"{name}.txt").read_text()


class TestGoldenOutput:
    """Byte-identity with the seed harness output."""

    def test_table1(self):
        assert format_table1(run_table1()) + "\n" == golden("table1")

    def test_table2(self):
        assert format_table2(run_table2()) + "\n" == golden("table2")

    def test_sec7(self):
        assert (format_sec7_model1(run_sec7_model1()) + "\n"
                == golden("sec7"))

    def test_lu(self):
        assert format_lu(run_lu()) + "\n" == golden("lu")


#: (preset, quick, golden file) for every table the presets render.
PRESET_GOLDENS = [
    ("fig2", True, "fig2-quick"),
    ("fig5", True, "fig5-quick"),
    ("sec6", True, "sec6-quick"),
    ("sec3", False, "sec3"),
    ("sec4", False, "sec4"),
    ("sec5", False, "sec5"),
    ("sec8", False, "sec8"),
    ("table1", False, "table1"),
    ("table2", False, "table2"),
    ("sec7-nvm", False, "sec7"),
    ("lu-tradeoff", False, "lu"),
]


@pytest.mark.parametrize("name,quick,golden_name", PRESET_GOLDENS,
                         ids=[g[0] for g in PRESET_GOLDENS])
def test_preset_renders_golden(name, quick, golden_name):
    scenario = get_scenario(name, quick)
    report = execute(scenario.points())
    assert scenario.render(report.results) + "\n" == golden(golden_name)


class TestQuickGeometry:
    """--quick shrinks each harness instead of being ignored."""

    def test_table1_quick_shrinks_validation(self):
        full = run_table1()["validation"]["measured_max_nw_recv"]
        quick = run_table1(quick=True)["validation"]["measured_max_nw_recv"]
        assert quick < full
        assert run_table1(quick=True)["validation"]["numerically_correct"]

    def test_table2_quick_still_attains_w1(self):
        v = run_table2(quick=True)["validation"]
        assert v["summa_correct"] and v["mm25d_correct"]
        assert v["summa_nvm_writes_per_rank"] == v["w1_floor"]

    def test_sec7_quick(self):
        res = run_sec7_model1(quick=True)
        assert res["n"] == 16 and res["P"] == 4
        assert res["correct"]

    def test_lu_quick(self):
        res = run_lu(quick=True)
        assert res["n"] == 16
        assert res["ll_correct"] and res["rl_correct"]

    def test_quick_formats(self):
        # The formatted quick variants render without error.
        format_table1(run_table1(quick=True))
        format_table2(run_table2(quick=True))
        format_sec7_model1(run_sec7_model1(quick=True))
        format_lu(run_lu(quick=True))


class TestEngineBacking:
    def test_table1_jobs_matches_serial(self):
        assert run_table1(quick=True, jobs=2) == run_table1(quick=True)

    def test_run_lu_point_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_lu(quick=True, cache=cache)
        assert len(cache) == 4  # 2 executed + 2 cost points
        second = run_lu(quick=True, cache=cache)
        assert second == first

    def test_table1_no_validation(self):
        r = run_table1(n=1 << 12, P=1 << 12, c2=2, c3=4,
                       validate_sim=False)
        assert "validation" not in r
        assert len(r["rows"]) == 15
