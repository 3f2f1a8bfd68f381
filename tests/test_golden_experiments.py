"""Golden-output pins for the paper's tables and figures.

Every table is a ``repro.lab`` preset; ``tests/golden/`` holds each
rendered table as the original serial harnesses printed it, and the
presets must reproduce it **byte for byte** (fig2/fig5/sec6 at their
quick geometry, ``<name>-quick.txt``; the rest at full size).  The
structured results the table1/table2/sec7/lu presets assemble are
checked too: quick geometries, ``jobs`` fan-out, and point-level
caching.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    format_lu,
    format_sec7_model1,
    format_table1,
    format_table2,
)
from repro.experiments.lu_tradeoff import _assemble_lu, lu_scenario
from repro.experiments.sec7_model1 import _assemble_sec7, sec7_scenario
from repro.experiments.table1 import _assemble_table1, table1_scenario
from repro.experiments.table2 import _assemble_table2, table2_scenario
from repro.lab.cache import ResultCache
from repro.lab.executor import execute
from repro.lab.scenarios import get_scenario

GOLDEN = Path(__file__).parent / "golden"


def golden(name: str) -> str:
    return GOLDEN.joinpath(f"{name}.txt").read_text()


def assembled(scenario, assemble, **engine):
    """Execute a preset's points and assemble its structured result."""
    return assemble(execute(scenario.points(), **engine).results)


def quick_table1(**kw):
    return assembled(table1_scenario(True), _assemble_table1, **kw)


def quick_table2(**kw):
    return assembled(table2_scenario(True), _assemble_table2, **kw)


def quick_sec7(**kw):
    return assembled(sec7_scenario(True), _assemble_sec7, **kw)


def quick_lu(**kw):
    return assembled(lu_scenario(True), _assemble_lu, **kw)


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
        full = assembled(table1_scenario(), _assemble_table1)
        quick = quick_table1()["validation"]
        assert (quick["measured_max_nw_recv"]
                < full["validation"]["measured_max_nw_recv"])
        assert quick["numerically_correct"]

    def test_table2_quick_still_attains_w1(self):
        v = quick_table2()["validation"]
        assert v["summa_correct"] and v["mm25d_correct"]
        assert v["summa_nvm_writes_per_rank"] == v["w1_floor"]

    def test_sec7_quick(self):
        res = quick_sec7()
        assert res["n"] == 16 and res["P"] == 4
        assert res["correct"]

    def test_lu_quick(self):
        res = quick_lu()
        assert res["n"] == 16
        assert res["ll_correct"] and res["rl_correct"]

    def test_quick_formats(self):
        # The formatted quick variants render without error.
        format_table1(quick_table1())
        format_table2(quick_table2())
        format_sec7_model1(quick_sec7())
        format_lu(quick_lu())


class TestEngineBacking:
    def test_table1_jobs_matches_serial(self):
        assert quick_table1(jobs=2) == quick_table1()

    def test_run_lu_point_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = quick_lu(cache=cache)
        assert len(cache) == 4  # 2 executed + 2 cost points
        second = quick_lu(cache=cache)
        assert second == first
