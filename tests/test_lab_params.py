"""Declared kernel parameters (``Kernel.params`` of each record in
``repro.lab.registry.KERNELS``).

Every request goes through one declaration per kernel.  These tests pin
the bugs it closed (each used to exit 1 with a remote traceback, or to
exit 0 with a wrong record) and check the declarations as a whole with
two properties over every registered kernel:

* hostile values (0, -1, NaN, inf, a string, 2**63, True) and in-range
  values that break a relation, for each declared parameter and each
  machine field, are refused by the request layer with a ``ValueError``
  naming the field, unless the value lies inside the declared domain —
  no such point is ever executed;
* values drawn inside the declared domain from a small box either are
  refused the same way or run to a record (``feasible: False`` for the
  cost kernels), never raising.
"""

import math
import re

import pytest

from repro.lab.cli import main as lab_main
from repro.lab.params import FLOAT, INT, POS, REQUIRED, fits
from repro.lab.registry import KERNELS, POLICIES, MachineSpec
from repro.lab.scenarios import build_scenario

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    given = None

MATMUL = {"n": 16, "middle": 16, "b3": 8, "b2": 4, "base": 4,
          "scheme": "co"}

#: one valid request per kernel: (machine preset, params).
BASE = {
    "matmul-cache": ("sim-l3", MATMUL),
    "matmul-hierarchy": ("three-level", {"n": 16, "middle": 16,
                                         "scheme": "wa2"}),
    "trsm-cache": ("sim-l3", {"n": 16, "m": 8, "b": 4}),
    "cholesky-cache": ("sim-l3", {"n": 16, "b": 4}),
    "nbody-cache": ("sim-l3", {"n": 16, "b": 4}),
    "cdag-pebble": ("sim-l3", {"algorithm": "fft", "n": 8, "M": 4}),
    "twolevel-counts": ("sim-l3", {"algorithm": "matmul", "variant": "ijk",
                                   "n": 8, "b": 2, "seed": 0}),
    "co-vs-wa": ("sim-l3", {"n": 8, "M": 12, "seed": 0}),
    "cost-table1": ("hw-2015", {"row": 0, "algorithm": "2DMML2"}),
    "cost-table2": ("hw-2015", {"row": 0, "algorithm": "SUMMAL3ooL2"}),
    "summa-l3-ool2": ("sim-l3", {"n": 8, "P": 4, "M2": 12}),
    "krylov-cacg": ("sim-l3", {"mesh": 32, "s": 2}),
    "krylov-gmres": ("sim-l3", {"mesh": 32, "s": 2}),
    "krylov-matrix-powers": ("sim-l3", {"mesh": 32, "s": 2}),
    "krylov-tsqr": ("sim-l3", {"mesh": 32, "s": 2}),
}

#: in-range values that break a kernel's relation, by parameter.
BREAKERS = {
    "trsm-cache": {"n": [30], "m": [6]},
    "cholesky-cache": {"n": [18]},
    "nbody-cache": {"n": [18]},
    "cdag-pebble": {"n": [6], "M": [2]},
    "twolevel-counts": {"n": [7], "variant": ["left-looking"]},
    "co-vs-wa": {"M": [2]},
    "summa-2d": {"P": [8], "n": [30], "M1": [2.0]},
    "summa-l3-ool2": {"P": [8], "n": [30], "M2": [2.0]},
    "mm-25d": {"c": [3], "P": [12], "n": [12], "M2": [0.5],
               "storage": ["L3"]},
    "lu-ll-nonpivot": {"n": [30], "P": [8]},
    "lu-rl-nonpivot": {"n": [30], "P": [8]},
    "krylov-cg": {"mesh": [1], "tol": [0.0]},
    "krylov-cacg": {"mesh": [1], "tol": [0.0]},
    "krylov-gmres": {"mesh": [1], "tol": [0.0]},
    "krylov-matrix-powers": {"mesh": [1]},
    "krylov-tsqr": {"mesh": [1], "block": [2]},
}

HOSTILE = [0, -1, math.nan, math.inf, "a string", 2 ** 63, True]

#: each machine field's domain (``hw`` is edited with --hw only).
MACHINE_DOMAIN = {
    "name": lambda v: isinstance(v, str),
    "cache_words": lambda v: fits(POS, v),
    "line_size": lambda v: fits(POS, v),
    "associativity": lambda v: v is None or fits(POS, v),
    "policy": lambda v: isinstance(v, str) and v in POLICIES,
    "seed": lambda v: v is None or fits(INT, v),
    "levels": lambda v: (isinstance(v, (list, tuple)) and len(v) > 0
                         and all(fits(POS, x) for x in v)),
    "read_fast": lambda v: fits(FLOAT, v),
    "write_fast": lambda v: fits(FLOAT, v),
    "read_slow": lambda v: fits(FLOAT, v),
    "write_slow": lambda v: fits(FLOAT, v),
    "hw": lambda v: False,
}


def base(kernel):
    return BASE.get(kernel, ("sim-l3", {}))


def request(kernel, machine, sets):
    """The request layer only: the checked points, never executed."""
    return build_scenario(kernel=kernel, machine=machine,
                          sets=sets).points()


def names_field(message, field):
    return re.search(rf"(?<![\w]){re.escape(field)}(?![\w])", message)


def in_domain(kernel, name, value):
    p = KERNELS[kernel].params.params[name]
    return fits(p.kind, value) or (value is None and p.default is None)


# --------------------------------------------------------------------- #
# every bug the declarations closed
# --------------------------------------------------------------------- #
MM_SETS = [f"{k}={v}" for k, v in MATMUL.items()]

MEASURED = [
    ("twolevel-counts", ["algorithm=matmul", "variant=ijk", "n=30", "b=4",
                         "seed=0"], "n=30"),
    ("twolevel-counts", ["algorithm=matmul", "variant=xyz", "n=32", "b=4",
                         "seed=0"], "variant"),
    ("cdag-pebble", ["algorithm=fft", "n=6", "M=4"], "n=6"),
    ("co-vs-wa", ["n=8", "M=2", "seed=0"], "M=2"),
    ("mm-25d", ["n=16", "P=8", "c=3"], "c=3"),
    ("krylov-cg", ["mesh=0"], "mesh"),
    ("krylov-gmres", ["variant=zzz", "s=2", "mesh=32"], "variant"),
    ("cost-dominance", ["model=9"], "model"),
    ("cost-table1", ["row=99", "algorithm=2DMML2"], "row"),
    ("cost-2d-mm", ["n=nan"], "n"),
    ("matmul-cache", MM_SETS + ["machine.write_slow=nan"],
     "machine.write_slow"),
    ("cost-2d-mm", ["bogus=3"], "bogus"),
    ("summa-2d", ["bogus=1"], "bogus"),
    ("krylov-cg", ["bogus=2"], "bogus"),
    ("krylov-cacg", ["streaming=no", "s=2", "mesh=32"], "streaming"),
    ("summa-2d", ["hoard=maybe"], "hoard"),
    ("matmul-cache", MM_SETS + ["c_touch_hint=nope"], "c_touch_hint"),
    ("summa-2d", ["n=0"], "n"),
    ("matmul-cache", MM_SETS + ["machine.write_slow=inf"],
     "machine.write_slow"),
    ("cost-2d-mm", ["--hw=beta_nw=inf"], "beta_nw"),
    ("cost-2d-mm", ["--hw=M3=inf"], "M3"),
]


@pytest.mark.parametrize("kernel, sets, field", MEASURED,
                         ids=[f"{k}-{f}" for k, _, f in MEASURED])
def test_unrunnable_request_exits_2_naming_the_field(kernel, sets, field,
                                                     capsys):
    """Each of these used to exit 1 with a remote traceback or exit 0
    with a wrong record (a bogus key in it, junk read as True, an
    all-zero or infinite-energy record)."""
    argv = ["sweep", "--kernel", kernel, "--no-cache"]
    for item in sets:
        argv += [item] if item.startswith("--") else ["--set", item]
    assert lab_main(argv) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_out_of_regime_cost_point_stays_a_record(capsys):
    """Cost kernels answer well-typed out-of-regime values with a
    ``feasible: False`` record, as before."""
    assert lab_main(["sweep", "--kernel", "cost-2d-mm", "--no-cache",
                     "--set", "P=-4"]) == 0
    assert "False" in capsys.readouterr().out


@pytest.mark.parametrize("fields, named", [
    ({"cache_words": -5}, "machine.cache_words"),
    ({"line_size": 0}, "machine.line_size"),
    ({"associativity": 2.5}, "machine.associativity"),
    ({"policy": "nope"}, "machine.policy"),
    ({"write_slow": math.nan}, "machine.write_slow"),
    ({"read_fast": -3.0}, "machine.read_fast"),
    ({"levels": (256, 0)}, "machine.levels"),
    ({"seed": "x"}, "machine.seed"),
    ({"hw": {"beta_99": 1.0}}, "beta_99"),
    ({"hw": {"M1": 1e12}}, "M1"),
    ({"hw": {"beta_nw": math.inf}}, "beta_nw"),
])
def test_machine_spec_validates_every_field(fields, named):
    """A spec built directly used to take any value; construction,
    override, replace and from_dict now share one check."""
    with pytest.raises(ValueError, match=re.escape(named)):
        MachineSpec(**fields)
    with pytest.raises(ValueError, match=re.escape(named)):
        MachineSpec.from_dict({**MachineSpec().as_dict(), **fields})
    if "hw" not in fields:
        with pytest.raises(ValueError, match=re.escape(named)):
            MachineSpec().override(**fields)


def test_every_kernel_has_a_valid_base_request():
    for kernel in KERNELS:
        machine, params = base(kernel)
        assert len(request(kernel, machine, params)) == 1, kernel


def test_table_row_counts_match_the_tables():
    from repro.distributed.costmodel import HwParams, table1_rows, \
        table2_rows
    hw = HwParams()
    assert len(KERNELS["cost-table1"].params.params["row"].kind) == \
        len(table1_rows(1 << 14, 1 << 20, 4, 16, hw))
    assert len(KERNELS["cost-table2"].params.params["row"].kind) == \
        len(table2_rows(1 << 15, 512, 4, hw))


# --------------------------------------------------------------------- #
# properties over every registered kernel
# --------------------------------------------------------------------- #
needs_hypothesis = pytest.mark.skipif(given is None,
                                      reason="hypothesis not installed")


def _hostile_targets(kernel):
    params = [("param", name) for name in KERNELS[kernel].params.params]
    return params + [("machine", name) for name in MACHINE_DOMAIN]


@needs_hypothesis
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_hostile_values_are_refused_naming_the_field(kernel):
    machine, params = base(kernel)
    breakers = BREAKERS.get(kernel, {})

    @given(st.data())
    def check(data):
        where, name = data.draw(st.sampled_from(_hostile_targets(kernel)))
        pool = HOSTILE + (breakers.get(name, []) if where == "param" else [])
        value = data.draw(st.sampled_from(pool))
        key = name if where == "param" else f"machine.{name}"
        try:
            request(kernel, machine, {**params, key: value})
        except ValueError as exc:
            assert names_field(str(exc), name), (key, value, str(exc))
        else:
            ok = (in_domain(kernel, name, value) if where == "param"
                  else MACHINE_DOMAIN[name](value))
            assert ok, (key, value)

    check()


#: the small box each kernel's in-domain draws come from (sizes <= 64;
#: smaller where the kernel executes every operation in python).
SIZE_CAP = {"matmul-cache": 16, "matmul-hierarchy": 16, "trsm-cache": 16,
            "cholesky-cache": 16, "nbody-cache": 32, "cdag-pebble": 8,
            "twolevel-counts": 12, "co-vs-wa": 16, "summa-2d": 16,
            "summa-l3-ool2": 16, "mm-25d": 16, "lu-ll-nonpivot": 16,
            "lu-rl-nonpivot": 16}
#: parameters kept smaller still (the stencil's dimension and radius).
PARAM_CAP = {"d": 2, "b": 3, "s": 6, "cache_blocks": 6}


def _in_domain_value(kernel, name, p):
    """A strategy for values of declared parameter *p* in the box."""
    cap = PARAM_CAP.get(name, SIZE_CAP.get(kernel, 64))
    if kernel.endswith("-cache") and name == "b":
        cap = 8
    if isinstance(p.kind, tuple):
        return st.sampled_from(p.kind)
    return {"positive int": st.integers(1, cap),
            "int >= 0": st.integers(0, cap),
            "int": st.integers(-4, cap),
            "finite float >= 0": st.floats(0, cap),
            "bool": st.booleans()}[p.kind]


@needs_hypothesis
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_in_domain_values_run_or_are_refused(kernel):
    machine, params = base(kernel)
    decl = KERNELS[kernel].params

    @given(st.data())
    def check(data):
        sets = dict(params)
        for name, p in decl.params.items():
            if p.default is REQUIRED or data.draw(st.booleans()):
                sets[name] = data.draw(_in_domain_value(kernel, name, p))
        try:
            points = request(kernel, machine, sets)
        except ValueError:
            return  # a relation or the machine fit refused it
        for pt in points:
            record = pt.run()
            assert isinstance(record, dict)
            if "feasible" in record and kernel.startswith("cost-"):
                assert record["feasible"] in (True, False)

    check()
