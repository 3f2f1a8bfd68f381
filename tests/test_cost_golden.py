"""Cost-family records pinned byte for byte, on both evaluation paths.

``tests/golden/cost-families.json`` holds the record of every ``cost-*``
kernel over in-domain points, points beyond the batch path's float64
domain (``n > 2**16``, ``P > 2**32``), infeasible points (``c >
P^(1/3)``, ``c3 <= c2``) and two ``--hw`` override sets.  The records
were captured from the per-kernel implementations that preceded the
shared formula bodies, so a typo in a body shows up here even though
the scalar kernel and the batch evaluator now run the same text.

Also pinned: non-positive ``n``/``P`` report ``feasible: False`` naming
the parameter on both paths, and the integer powers the formulas take
of an in-domain axis are exact on float64 columns.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lab.cli import main as lab_main
from repro.lab.registry import KERNELS, MACHINES, MachineSpec, run_batch

GOLDEN = Path(__file__).parent / "golden" / "cost-families.json"

#: the Section-7 cost-model kernels.
COST = sorted(name for name in KERNELS if name.startswith("cost-"))


def render(doc):
    """The golden's layout: one case per line."""
    cases = ",\n".join("  " + json.dumps(case) for case in doc["cases"])
    return ("{\n \"hw\": " + json.dumps(doc["hw"]) + ",\n \"cases\": [\n"
            + cases + "\n ]\n}\n")


@pytest.fixture(scope="module")
def golden():
    text = GOLDEN.read_text()
    doc = json.loads(text)
    assert render(doc) == text
    machines = {name: MachineSpec(name=name,
                                  hw=tuple(sorted(overrides.items())))
                for name, overrides in doc["hw"].items()}
    return text, doc, machines


def test_golden_covers_every_cost_kernel(golden):
    _, doc, _ = golden
    kernels = {case["kernel"] for case in doc["cases"]}
    assert kernels == set(COST)
    assert all(KERNELS[name].batch is not None for name in COST)


def test_scalar_kernels_reproduce_golden(golden):
    text, doc, machines = golden
    cases = [dict(case, record=KERNELS[case["kernel"]].run(
        machines[case["hw"]], case["params"])) for case in doc["cases"]]
    assert render({"hw": doc["hw"], "cases": cases}) == text


def test_batch_evaluators_reproduce_golden(golden):
    text, doc, machines = golden
    groups = {}
    for i, case in enumerate(doc["cases"]):
        groups.setdefault((case["kernel"], case["hw"]), []).append(i)
    cases = list(doc["cases"])
    for (kernel, hw), idx in groups.items():
        group = [(machines[hw], cases[i]["params"]) for i in idx]
        for i, rec in zip(idx, run_batch(kernel, group)):
            cases[i] = dict(cases[i], record=rec)
    assert render({"hw": doc["hw"], "cases": cases}) == text


def test_integer_powers_of_domain_axes_are_exact():
    """``n**2``/``n**3``/``c**3`` on float64 columns equal the python
    int powers over the whole batch domain (1..2**16), so the shared
    formula text gives the scalar path's doubles."""
    ints = list(range(1, (1 << 16) + 1))
    col = np.array(ints, dtype=np.float64)
    for e in (2, 3):
        exact = np.array([i**e for i in ints], dtype=np.float64)
        assert np.array_equal(col**e, exact)


# --------------------------------------------------------------------- #
# non-positive n / P
# --------------------------------------------------------------------- #
_SIZED = [k for k in COST if k != "cost-break-even"]
_CELL = {"cost-table1": {"row": 0, "algorithm": "2DMML2"},
         "cost-table2": {"row": 0, "algorithm": "SUMMAL3ooL2"}}


@pytest.mark.parametrize("kernel", _SIZED)
@pytest.mark.parametrize("name,value", [("n", 0), ("n", -64), ("P", 0),
                                        ("P", -4)])
def test_non_positive_size_is_infeasible_on_both_paths(kernel, name,
                                                       value):
    machine = MACHINES["hw-2015"]
    base = {"n": 64, "P": 64, "c2": 1, "c3": 2, **_CELL.get(kernel, {})}
    group = [(machine, dict(base, **{name: value})), (machine, base)]
    scalar = [KERNELS[kernel].run(m, p) for m, p in group]
    assert run_batch(kernel, group) == scalar
    bad, good = scalar
    assert bad["feasible"] is False
    assert bad["reason"] == f"{name} must be >= 1, got {value}"
    assert good.get("feasible", True) is True


@pytest.mark.parametrize("kernel,axis", [
    ("cost-2d-mm", "P=0,4"), ("cost-lu-ll", "P=0,4"),
    ("cost-lu-rl", "P=0,4"), ("cost-dominance", "P=0,4"),
    ("cost-2d-mm", "n=-64,64"), ("cost-summa-l3-ool2", "P=-4,4"),
])
def test_sweep_over_non_positive_axis_completes(kernel, axis, tmp_path):
    """A grid touching P <= 0 or n <= 0 used to abort the whole sweep
    (ZeroDivisionError) or report negative word counts as feasible."""
    name = axis.split("=")[0]
    other = "n=64" if name == "P" else "P=4"
    out = tmp_path / "rows.json"
    assert lab_main(["sweep", "--kernel", kernel, "--grid", axis,
                     "--set", other, "--no-cache", "--json",
                     str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r.get("feasible", True) for r in rows] == [False, True]
    assert rows[0]["reason"].startswith(f"{name} must be >= 1")


@pytest.mark.parametrize("kernel,params,reason", [
    ("cost-dominance", {"model": "2.1", "c2": 0}, "c2 must be >= 1, got 0"),
    ("cost-dominance", {"model": "2.1", "c3": -2}, "c3 must be >= 1, got -2"),
    ("cost-dominance", {"model": "2.2", "c3": 0}, "c3 must be >= 1, got 0"),
    ("cost-table2", {"c3": 0, **_CELL["cost-table2"]},
     "c3 must be >= 1, got 0"),
    ("cost-table2", {"c3": -1, **_CELL["cost-table2"]},
     "c3 must be >= 1, got -1"),
])
def test_non_positive_replication_is_infeasible(kernel, params, reason):
    """These families had no range check on c: c = 0 divided by zero
    and c < 0 failed inside math.sqrt."""
    machine = MACHINES["hw-2015"]
    group = [(machine, params)]
    rec = KERNELS[kernel].run(machine, params)
    assert run_batch(kernel, group) == [rec]
    assert rec["feasible"] is False and rec["reason"] == reason
