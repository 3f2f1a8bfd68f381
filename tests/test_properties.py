"""Property-based parity layer (hypothesis).

Three equivalence claims the engine's fast paths rest on, attacked with
random inputs instead of hand-picked geometries:

* **sweep == oracle**: for random small line traces (flat and chunked)
  and random capacity grids, ``fastsim.sweep`` reports exactly the
  counters of each policy's per-capacity oracle — CacheSim's per-access
  LRU loop plus ``flush()``, and the reference Belady heap.
* **fold == access loop**: the sweep's clock and segmented-LRU folds
  of a trace of one-line visits report, flush included, the counters
  of ``CacheSim``'s per-access loop plus ``flush()``.
* **vectorized == scalar**: for random ``HwParams`` machines and random
  (including infeasible) grid points, every ``cost-*`` family's
  vectorized batch evaluator emits records bit-identical — compared as
  canonical JSON, the cache's own serialization — to the scalar kernel.

Runs under the slim ``ci`` hypothesis profile by default (see
``tests/conftest.py``); ``HYPOTHESIS_PROFILE=dev`` or ``thorough``
widens the search locally.

Grid integers are drawn well past the vectorized evaluators' float64
exactness domain (``n, c <= 2**16``, ``P <= 2**32``) and below it
(``n, P <= 0``): points inside it vectorize, points beyond it must hit
the enforced scalar fallback — bit-identity is unconditional either
way, and these tests prove it on both sides of the boundary.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.distributed.costmodel import (  # noqa: E402
    TABLE1_ROW_COUNT,
    TABLE2_ROW_COUNT,
    table1_rows,
    table2_rows,
)
from repro.lab.registry import KERNELS, MachineSpec, run_batch  # noqa: E402
from repro.machine.cache import CacheSim  # noqa: E402
from repro.machine.fastsim import sweep  # noqa: E402
from repro.machine.fastsim.belady import belady_reference  # noqa: E402
from repro.machine.trace import Trace  # noqa: E402


# --------------------------------------------------------------------- #
# fastsim.sweep vs each policy's oracle, flat and chunked
# --------------------------------------------------------------------- #
traces = st.lists(
    st.tuples(st.integers(0, 12), st.booleans()),
    min_size=1, max_size=100,
)
capacity_grids = st.lists(st.integers(1, 16), min_size=1, max_size=4,
                          unique=True)


def _arrays(events):
    return (np.array([line for line, _ in events], dtype=np.int64),
            np.array([w for _, w in events], dtype=bool))


def _shapes(events):
    """The events as a flat trace and as one chunk per event: one-line
    visits built by a sort of the lines and by ``symbolize``."""
    lines, writes = _arrays(events)
    return (Trace(lines, writes, None),
            Trace(lines, writes, np.ones(len(lines), dtype=np.int64)))


def _lru_loop(trace, cap):
    sim = CacheSim(cap, line_size=1, policy="lru")
    for line, w in zip(trace.lines.tolist(), trace.writes.tolist()):
        sim.access(line, w)
    sim.flush()
    return sim.stats


@given(events=traces, caps=capacity_grids)
def test_lru_sweep_counters_equal_cachesim(events, caps):
    for trace in _shapes(events):
        res = sweep(trace, {"lru": caps})["lru"]
        for cap in caps:
            assert res.stats(cap) == _lru_loop(trace, cap)


@given(events=traces, caps=capacity_grids)
def test_opt_sweep_counters_equal_cachesim(events, caps):
    for trace in _shapes(events):
        res = sweep(trace, {"belady": caps})["belady"]
        for cap in caps:
            assert res.stats(cap) == belady_reference(trace.lines,
                                                      trace.writes, cap)


# --------------------------------------------------------------------- #
# clock / segmented-LRU folds vs the per-access loop
# --------------------------------------------------------------------- #
# A whole-trace simulation starts from an empty cache: "empty" is the
# one start there is.
@pytest.mark.parametrize("start", ["empty"])
@given(policy=st.sampled_from(["clock", "segmented-lru"]),
       cap=st.integers(1, 16), events=traces)
def test_scalar_replay_equals_access_loop(start, policy, cap, events):
    """The fold of one-line visits, from an empty cache, reports the
    loop's counters plus ``flush()``."""
    _check_fold_against_loop(policy, cap, events)


@pytest.mark.parametrize("policy", ["clock", "segmented-lru"])
def test_scalar_replay_equals_access_loop_on_a_large_cold_fill(policy):
    """The same parity where fill order shows: a 1000-line set filled
    cold, with a third of the fills dirty, then driven into evictions."""
    cap = 1000
    rng = np.random.default_rng(0)
    events = [(2 * cap + i, i % 3 == 0) for i in range(cap)]
    events += [(int(line), bool(w)) for line, w in
               zip(rng.integers(2 * cap, 4 * cap, 3000),
                   rng.random(3000) < 0.3)]
    _check_fold_against_loop(policy, cap, events)


def _check_fold_against_loop(policy, cap, events):
    lines, writes = _arrays(events)
    fold = sweep(Trace(lines, writes, None), {policy: [cap]})[policy]
    looped = CacheSim(cap, line_size=1, policy=policy)
    for line, w in events:
        looped.access(line, w)
    assert fold.stats(cap, include_flush=False) == looped.stats
    assert fold.stats(cap) == looped.flush()


# --------------------------------------------------------------------- #
# vectorized cost batches vs the scalar kernels
# --------------------------------------------------------------------- #
_rate = st.floats(min_value=1e-3, max_value=1e4,
                  allow_nan=False, allow_infinity=False)
# Mostly in-domain values, sometimes far beyond the vectorized
# exactness bounds (2**16 / 2**32) to exercise the scalar fallback, and
# sometimes zero or negative (infeasible on both paths).
_size = st.one_of(st.integers(1, 1 << 16),
                  st.integers(1, 1 << 40),
                  st.integers(-(1 << 16), 0))
_replication = st.one_of(st.integers(1, 40),
                         st.integers(1, 1 << 20),
                         st.integers(-4, 0))


@st.composite
def hw_machines(draw):
    """A MachineSpec whose ``hw`` override set randomly pins rates and
    (consistently ordered) level sizes."""
    overrides = {}
    for name in ("beta_nw", "beta_23", "beta_32", "beta_12", "beta_21",
                 "alpha_nw", "alpha_23"):
        if draw(st.booleans()):
            overrides[name] = draw(_rate)
    if draw(st.booleans()):
        overrides["M1"] = float(2 ** draw(st.integers(8, 18)))
        overrides["M2"] = float(2 ** draw(st.integers(20, 26)))
    name = draw(st.sampled_from(["hw-a", "a-very-different-name"]))
    return MachineSpec(name=name, hw=tuple(sorted(overrides.items())))


def _maybe(strategy):
    """Sometimes omit the parameter, exercising the kernel default."""
    return st.one_of(st.none(), strategy)


_FAMILY_PARAMS = {
    "cost-2d-mm": {"n": _maybe(_size), "P": _maybe(_size)},
    "cost-25d-mm-l2": {"n": _maybe(_size), "P": _maybe(_size),
                       "c2": _maybe(_replication)},
    "cost-25d-mm-l3": {"n": _maybe(_size), "P": _maybe(_size),
                       "c2": _maybe(_replication),
                       "c3": _maybe(_replication)},
    "cost-25d-mm-l3-ool2": {"n": _maybe(_size), "P": _maybe(_size),
                            "c3": _maybe(_replication)},
    "cost-summa-l3-ool2": {"n": _maybe(_size), "P": _maybe(_size)},
    "cost-lu-ll": {"n": _maybe(_size), "P": _maybe(_size)},
    "cost-lu-rl": {"n": _maybe(_size), "P": _maybe(_size)},
    "cost-break-even": {},
    "cost-dominance": {"model": _maybe(st.sampled_from(["2.1", "2.2"])),
                       "n": _maybe(_size), "P": _maybe(_size),
                       "c2": _maybe(_replication),
                       "c3": _maybe(_replication)},
    "cost-table1": {"n": _maybe(_size), "P": _maybe(_size),
                    "c2": _maybe(_replication),
                    "c3": _maybe(_replication),
                    "row": st.integers(0, TABLE1_ROW_COUNT - 1),
                    "algorithm": st.sampled_from(
                        ["2DMML2", "2.5DMML2", "2.5DMML3"])},
    "cost-table2": {"n": _maybe(_size), "P": _maybe(_size),
                    "c3": _maybe(_replication),
                    "row": st.integers(0, TABLE2_ROW_COUNT - 1),
                    "algorithm": st.sampled_from(
                        ["2.5DMML3ooL2", "SUMMAL3ooL2"])},
}

#: every kernel with a grid batch entry: the cost-model kernels.
_GRID_BATCHED = sorted(name for name, kernel in KERNELS.items()
                       if kernel.batch and kernel.batch.toggle == "batch")

assert sorted(_FAMILY_PARAMS) == _GRID_BATCHED


def test_table_row_count_constants_match_the_tables():
    """The structural row counts the grids are sized from must track
    the literal row lists."""
    from repro.distributed.costmodel import HwParams

    hw = HwParams()
    assert len(table1_rows(64, 4096, 2, 4, hw)) == TABLE1_ROW_COUNT
    assert len(table2_rows(64, 4096, 4, hw)) == TABLE2_ROW_COUNT


def _family_points(kernel):
    fields = _FAMILY_PARAMS[kernel]
    point = st.fixed_dictionaries(fields).map(
        lambda d: {k: v for k, v in d.items() if v is not None})
    return st.lists(point, min_size=1, max_size=5)


def _canon(records):
    """The cache's own serialization: equality here is what 'the batched
    path fans out bit-identical records' means on disk."""
    return json.dumps(records, sort_keys=True)


@pytest.mark.parametrize("kernel", _GRID_BATCHED)
@given(data=st.data())
def test_vectorized_cost_rows_equal_scalar(kernel, data):
    machine = data.draw(hw_machines())
    params_list = data.draw(_family_points(kernel))
    group = [(machine, params) for params in params_list]
    batched = run_batch(kernel, group)
    scalar = [KERNELS[kernel].run(machine, params)
              for params in params_list]
    assert _canon(batched) == _canon(scalar)


@given(data=st.data())
def test_vectorized_cost_rows_survive_mixed_feasibility(data):
    """Grids straddling the c3 <= P^(1/3) edge, including non-positive
    P (where python pow goes complex) and c3 = 0: every point yields a
    record, identical on both paths, and P <= 0 is infeasible."""
    machine = data.draw(hw_machines())
    P = data.draw(st.integers(-4096, 4096))
    c3s = data.draw(st.lists(st.integers(0, 64), min_size=2, max_size=6))
    group = [(machine, {"n": 4096, "P": P, "c3": c3}) for c3 in c3s]
    scalar = [KERNELS["cost-25d-mm-l3-ool2"].run(machine, p)
              for _, p in group]
    batched = run_batch("cost-25d-mm-l3-ool2", group)
    assert _canon(batched) == _canon(scalar)
    for rec, c3 in zip(batched, c3s):
        if P <= 0:
            assert rec["feasible"] is False
            assert rec["reason"] == f"P must be >= 1, got {P}"
        else:
            assert rec["feasible"] == (1 <= c3 <= P ** (1 / 3) + 1e-9)
