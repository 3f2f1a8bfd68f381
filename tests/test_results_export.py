"""Byte pins and oracle checks for the record exports.

Two guarantees:

* **Goldens.**  ``tests/golden/export-<case>.{json,csv,txt}`` hold the
  ``--json`` bytes, the ``--csv`` bytes and the stdout table of three
  ``repro-lab`` invocations, run in process through the real CLI: an
  ad-hoc ~200-point Section-7 cost grid with ``--hw`` rates (so every
  row carries a nested ``hw`` object) and the quick ``table2`` and
  ``krylov`` presets (4 and 5 distinct row key layouts).
* **Oracle.**  For arbitrary rows — differing key sets and orders,
  ``None``/bools/ints, non-finite and signed-zero floats, non-ASCII
  text, keys holding ``"``, ``%`` or newlines, nested containers and
  numpy scalars — ``ResultSet.to_json`` equals
  ``json.dumps(rows, indent=2, default=str)`` and ``to_csv`` equals
  ``csv.DictWriter`` over the first-seen column union.

Regenerate the goldens (only for a deliberate format change) with::

    PYTHONPATH=src python tests/test_results_export.py
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lab.cli import main as lab_main
from repro.lab.executor import PointResult, SweepReport
from repro.lab.registry import MACHINES
from repro.lab.results import ResultSet
from repro.lab.scenarios import ScenarioPoint

GOLDEN = Path(__file__).parent / "golden"

#: case name -> ``repro-lab`` arguments (``--no-cache`` and the export
#: paths are appended).
CASES = {
    "costgrid": ["sweep", "--kernel", "cost-25d-mm-l3-ool2",
                 "--machine", "hw-2015", "--jobs", "1",
                 "--grid", "n=512,1536,2048,4096,6400",
                 "--grid", "P=1024,9216,15360,20480",
                 "--grid", "c3=1,2,3,4,5,6,7,8,9,10",
                 "--hw", "beta_23=12.5", "--hw", "beta_32=3.0"],
    "table2-quick": ["run", "table2", "--quick"],
    "krylov-quick": ["run", "krylov", "--quick"],
}


def run_exports(argv, workdir):
    """``(table, json, csv)`` of one CLI invocation: the stdout before
    the first ``[repro.lab]`` status line, and the two export files."""
    out_json = Path(workdir) / "rows.json"
    out_csv = Path(workdir) / "rows.csv"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lab_main([*argv, "--no-cache", "--json", str(out_json),
                       "--csv", str(out_csv)])
    assert rc == 0
    lines = buf.getvalue().splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines)
               if line.startswith("[repro.lab]"))
    return ("".join(lines[:end]),
            out_json.read_bytes().decode("utf-8"),
            out_csv.read_bytes().decode("utf-8"))


def golden_paths(case):
    return tuple(GOLDEN / f"export-{case}.{ext}"
                 for ext in ("txt", "json", "csv"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_match_golden(case, tmp_path):
    got = run_exports(CASES[case], tmp_path)
    for path, text in zip(golden_paths(case), got):
        assert text == path.read_bytes().decode("utf-8"), path.name


def test_golden_layouts_cover_ragged_sets():
    """The preset goldens keep exercising mixed key layouts."""
    for case, layouts in (("table2-quick", 4), ("krylov-quick", 5)):
        rows = json.loads(golden_paths(case)[1].read_text())
        assert len({tuple(row) for row in rows}) == layouts


# --------------------------------------------------------------------- #
# oracle: json.dumps / csv.DictWriter over the same rows
# --------------------------------------------------------------------- #
def json_oracle(rows):
    return json.dumps(rows, indent=2, default=str)


def csv_oracle(rows):
    cols = list(dict.fromkeys(k for row in rows for k in row))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


KEYS = st.sampled_from(["kernel", "n", "P", "cost", 'say "hi"', "50%",
                        "%s", "line\nbreak", "é", "ключ", "\U0001f600"]
                       ) | st.text(max_size=4)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300,
                     5e-324]),
    st.text(max_size=6),
    st.integers(-2**40, 2**40).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans().map(np.bool_),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)
ROWS = st.lists(st.lists(st.tuples(KEYS, VALUES), max_size=6).map(dict),
                max_size=8)
#: rows sharing one key layout, with constant and repeated values —
#: the shape of a real sweep.
UNIFORM = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([None, 1.5, 7, "x", {"a": 1}]),
                                min_size=n, max_size=n),
                       min_size=3, max_size=3).map(
        lambda cols: [{"k0": a, "k1": b, "k2": c}
                      for a, b, c in zip(*cols)]))


@given(ROWS)
def test_to_json_matches_json_dumps(rows):
    assert ResultSet(rows).to_json() == json_oracle(rows)


@given(ROWS)
def test_to_csv_matches_dictwriter(rows):
    assert ResultSet(rows).to_csv() == csv_oracle(rows)


@given(ROWS | UNIFORM)
def test_rows_round_trip_content_and_key_order(rows):
    back = ResultSet(rows).rows
    assert [list(r.items()) for r in back] == [list(r.items())
                                               for r in rows]


@given(UNIFORM)
def test_uniform_sets_match_oracles(rows):
    rs = ResultSet(rows)
    assert rs.to_json() == json_oracle(rows)
    assert rs.to_csv() == csv_oracle(rows)


def test_empty_set():
    rs = ResultSet([])
    assert len(rs) == 0 and rs.rows == [] and rs.columns == []
    assert rs.to_json() == json_oracle([]) == "[]"
    assert rs.to_csv() == csv_oracle([])
    assert ResultSet.from_json("[]").to_json() == "[]"


def test_shared_nested_value_encodes_per_row():
    hw = {"beta_23": 5.0, "nested": [1, {"x": None}]}
    rows = [{"a": i, "hw": hw} for i in range(3)] + [{"hw": {}, "a": []}]
    assert ResultSet(rows).to_json() == json_oracle(rows)


def test_exports_write_files(tmp_path):
    rs = ResultSet([{"a": 1, "b": "é"}, {"b": None}])
    for name, export in (("r.json", rs.to_json), ("r.csv", rs.to_csv)):
        path = tmp_path / name
        assert export(path) == path.read_bytes().decode("utf-8")


# --------------------------------------------------------------------- #
# from_report: the flat-row layout, clashes included
# --------------------------------------------------------------------- #
def row_oracle(report):
    """The flat rows of a report as one dict per point: kernel, machine
    identity, params and record merged in that order, then ``cached``
    (a later key overwrites the value but keeps the first position)."""
    rows = []
    for res in report.results:
        spec = res.point.machine.as_dict()
        row = {"kernel": res.point.kernel, "machine": spec.pop("name")}
        row.update(spec)
        row.update(res.point.params)
        row.update(res.record)
        row["cached"] = res.cached
        rows.append(row)
    return rows


def _report(entries):
    return SweepReport(results=[
        PointResult(ScenarioPoint(kernel, machine, params), record, cached)
        for kernel, machine, params, record, cached in entries])


def test_from_report_matches_row_oracle():
    hw = MACHINES["hw-2015"].with_hw(beta_23=3.0)
    sim = MACHINES["sim-l3"]
    report = _report([
        ("k", hw, {"n": 1}, {"t": 1.5}, False),
        ("k", hw.override(read_slow=3.0), {"n": 2}, {"t": 2.5}, True),
        # a param shadowing a machine field, a record shadowing a param
        ("k", sim, {"policy": "fifo", "n": 3}, {"n": 4, "x": None}, False),
        # a record carrying `cached` and `kernel` of its own
        ("k2", sim, {}, {"cached": "rec", "kernel": "rec-k"}, False),
        ("k", hw, {"n": 5}, {"t": float("nan")}, False),
    ])
    rows = row_oracle(report)
    rs = ResultSet.from_report(report)
    assert [list(r.items()) for r in rs.rows] == [list(r.items())
                                                  for r in rows]
    assert rs.to_json() == json_oracle(rows)
    assert rs.to_csv() == csv_oracle(rows)
    assert rs.columns == list(dict.fromkeys(k for r in rows for k in r))


def test_from_report_is_independent_of_the_report():
    hw = MACHINES["hw-2015"].with_hw(beta_23=3.0)
    report = _report([("k", hw, {"n": 1}, {"t": 1.5}, False)])
    rs = ResultSet.from_report(report)
    report.results[0].record["t"] = 9.0
    report.results[0].point.params["n"] = 7
    assert rs.rows == row_oracle(_report([("k", hw, {"n": 1},
                                           {"t": 1.5}, False)]))


def _write_goldens():
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            for path, text in zip(golden_paths(case),
                                  run_exports(argv, tmp)):
                path.write_bytes(text.encode("utf-8"))
                print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(_write_goldens())
