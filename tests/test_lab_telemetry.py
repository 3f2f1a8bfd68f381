"""Telemetry layer: span nesting, JSONL round-trip, metrics aggregation,
CLI `--trace` output, strict ResultSet errors, remote tracebacks — and
the no-op guard: engine records are bit-identical with tracing on/off."""

import json

import pytest

from repro.experiments.sec6_lru import sec6_scenario
from repro.lab.cache import ResultCache
from repro.lab.cli import main
from repro.lab.executor import PointExecutionError, execute
from repro.lab.results import ResultSet
from repro.lab.scenarios import ScenarioPoint
from repro.lab.telemetry import (
    MetricsRegistry,
    RunTrace,
    active_trace,
    default_trace_path,
    render_attribution,
    render_diff,
    summarize,
    tracing,
)
from repro.machine.fastsim import profile as fs_profile


@pytest.fixture(scope="module")
def tiny_scenario():
    # 2 schemes x 2 capacities x 2 policies = 8 cheap points: one task
    # per scheme's trace, each an lru sweep plus two fifo replays.
    return sec6_scenario(n=16, middle=16, b3=8, b2=4,
                        policies=("lru", "fifo"),
                        schemes=("wa2", "co"))


class TestRunTrace:
    def test_span_nesting_and_timing(self):
        tr = RunTrace()
        with tr.span("outer", kind="sweep") as outer:
            assert tr.current_span() == outer.id
            with tr.span("inner") as inner:
                assert tr.current_span() == inner.id
            outer.tag(points=3)
        spans = [e for e in tr.events if e["type"] == "span"]
        # inner closes (and is emitted) first
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner_ev, outer_ev = spans
        assert inner_ev["parent"] == outer_ev["id"]
        assert outer_ev["parent"] is None
        assert outer_ev["tags"] == {"kind": "sweep", "points": 3}
        assert 0 <= inner_ev["t"] and inner_ev["dur"] <= outer_ev["dur"]
        assert tr.current_span() is None

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tr = RunTrace(path, meta={"scenario": "x"})
        with tr.span("sweep", jobs=2):
            tr.point(index=0, kernel="k", path="scalar", cached=False)
            tr.counter("cache.miss", reason="absent")
            tr.phase("radix_partition", 0.25)
            tr.metric("k.writebacks", 41.0)
        tr.finish(ok=True)
        loaded = RunTrace.load(path)
        assert loaded.meta == {"scenario": "x"}
        assert loaded.events == tr.events
        assert loaded.events[0]["type"] == "meta"
        assert loaded.events[-1]["type"] == "summary"

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tr = RunTrace(path)
        tr.counter("cache.hit")
        tr.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a cra")
        loaded = RunTrace.load(path)
        assert [e["type"] for e in loaded.events] == ["meta", "counter"]

    def test_merge_subtrace_rebases_and_remaps(self):
        parent = RunTrace()
        child = RunTrace()
        with child.span("task_body"):
            child.phase("capacity_fold", 0.5)
        sid = parent.emit_span("task", start_monotonic=parent.epoch,
                               duration=1.0, venue="pool-worker-1")
        parent.merge_subtrace(child.events, child.epoch, parent_id=sid)
        merged = [e for e in parent.events if e["type"] != "meta"]
        body = next(e for e in merged if e.get("name") == "task_body")
        task = next(e for e in merged if e.get("name") == "task")
        assert body["parent"] == task["id"]
        assert body["id"] != task["id"]
        phase = next(e for e in merged if e["type"] == "phase")
        assert phase["dur"] == 0.5

    def test_default_trace_path_sanitizes_label(self, tmp_path):
        p = default_trace_path(tmp_path, "a b/c")
        assert p.parent == tmp_path
        assert p.suffix == ".jsonl" and "/" not in p.stem
        assert p.stem.startswith("a-b-c-")


class TestMetricsRegistry:
    def test_from_events_aggregates(self):
        tr = RunTrace()
        tr.counter("cache.miss", reason="absent")
        tr.counter("cache.miss", reason="stale-fingerprint")
        tr.counter("cache.hit", 3)
        tr.phase("radix_partition", 0.5)
        tr.phase("radix_partition", 1.5)
        tr.metric("k.writebacks", 10.0)
        reg = tr.metrics()
        assert reg.counters["cache.miss"] == 2
        assert reg.counters["cache.miss[absent]"] == 1
        assert reg.counters["cache.miss[stale-fingerprint]"] == 1
        assert reg.counters["cache.hit"] == 3
        h = reg.histograms["phase.radix_partition.seconds"]
        assert h == {"count": 2, "total": 2.0, "min": 0.5, "max": 1.5}
        assert reg.histograms["k.writebacks"]["total"] == 10.0

    def test_dict_round_trip_and_format(self):
        reg = MetricsRegistry()
        reg.count("a", 2)
        reg.gauge("g", 1.5)
        reg.observe("h", 3.0)
        again = MetricsRegistry.from_dict(reg.as_dict())
        assert again.as_dict() == reg.as_dict()
        out = reg.format(title="m")
        for token in ("m", "counter", "gauge", "hist", "a", "g", "h"):
            assert token in out


class TestTracedExecution:
    def test_records_bit_identical_with_tracing_on_and_off(
            self, tiny_scenario):
        pts = tiny_scenario.points()
        plain = execute(pts, jobs=1)
        traced = execute(pts, jobs=1, trace=RunTrace())
        pool = execute(pts, jobs=2, trace=RunTrace())
        assert json.dumps(plain.records()) == json.dumps(traced.records())
        assert json.dumps(plain.records()) == json.dumps(pool.records())

    def test_tracing_leaves_no_global_state_behind(self, tiny_scenario):
        execute(tiny_scenario.points()[:2], jobs=1, trace=RunTrace())
        assert active_trace() is None
        assert fs_profile.phase_hook() is None

    def test_point_tags_consistent_with_cache_state(self, tiny_scenario,
                                                    tmp_path):
        # The acceptance-criterion invariant: path tags and cached flags
        # must agree with what the result cache actually did.
        pts = tiny_scenario.points()
        cold_tr = RunTrace()
        cold = execute(pts, jobs=1, cache=ResultCache(tmp_path),
                       trace=cold_tr)
        cold_pts = [e["tags"] for e in cold_tr.events
                    if e["type"] == "point"]
        assert len(cold_pts) == len(pts)
        assert all(not t["cached"] and t["path"] != "cache"
                   for t in cold_pts)
        s = summarize(cold_tr)
        assert s["cache"]["hits"] == 0
        assert s["cache"]["misses"] == len(pts)
        assert s["cache"]["writes"] == len(pts)
        assert s["batch_coverage"] == 1.0
        # every point rides its trace's task: one per scheme
        assert cold.batches == 2 and cold.batched_points == len(pts)
        assert s["paths"] == {"multi_capacity": len(pts)}

        warm_tr = RunTrace()
        warm = execute(pts, jobs=1, cache=ResultCache(tmp_path),
                       trace=warm_tr)
        warm_pts = [e["tags"] for e in warm_tr.events
                    if e["type"] == "point"]
        assert all(t["cached"] and t["path"] == "cache" for t in warm_pts)
        s = summarize(warm_tr)
        assert s["cache"]["hits"] == len(pts) == warm.hits
        assert s["cache"]["misses"] == 0
        assert warm.records() == cold.records()
        # every point event carries the result-cache key it resolved to
        keys = {t["key"] for t in cold_pts} | {t["key"] for t in warm_pts}
        assert len(keys) == len(pts)

    def test_worker_events_merge_under_task_spans(self, tiny_scenario):
        tr = RunTrace()
        execute(tiny_scenario.points(), jobs=2, trace=tr)
        tasks = [e for e in tr.events
                 if e["type"] == "span" and e["name"] == "task"]
        assert tasks and all(
            t["tags"]["venue"].startswith("pool-worker-")
            and t["tags"]["queue_s"] >= 0 for t in tasks)
        # fastsim phases captured worker-side made it into the parent
        phases = {e["name"] for e in tr.events if e["type"] == "phase"}
        assert {"trace_build", "distance_pass",
                "radix_partition", "capacity_fold"} <= phases

    def test_metric_fields_fold_into_trace(self, tiny_scenario):
        tr = RunTrace()
        execute(tiny_scenario.points()[:2], jobs=1, trace=tr)
        names = {e["name"] for e in tr.events if e["type"] == "metric"}
        assert "matmul-cache.writebacks" in names
        assert "matmul-cache.energy" in names

    def test_render_attribution_and_diff(self, tiny_scenario):
        tr = RunTrace(meta={"scenario": "tiny"})
        execute(tiny_scenario.points(), jobs=1, trace=tr)
        tr.finish()
        out = render_attribution(tr)
        for token in ("tiny", "execution paths", "multi_capacity",
                      "batch efficiency", "queue vs compute"):
            assert token in out
        diff = render_diff(tr, tr, labels=("a", "b"))
        assert "points" in diff and "b/a" in diff

    def test_pool_failure_carries_remote_traceback(self, tiny_scenario):
        pts = tiny_scenario.points()[:1]
        bad = ScenarioPoint("matmul-cache", pts[0].machine,
                            {"n": -5, "middle": 4, "scheme": "wa2"})
        with pytest.raises(PointExecutionError) as ei:
            execute(pts + [bad], jobs=2, multi_capacity=False,
                    batch=False)
        assert ei.value.remote_traceback is not None
        assert "Traceback" in ei.value.remote_traceback
        assert "matmul-cache" in str(ei.value)


class TestCLITrace:
    def test_sweep_preset_trace_prints_attribution(self, tmp_path,
                                                   capsys):
        out = tmp_path / "run.jsonl"
        rc = main(["sweep", "--preset", "prop62", "--quick",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--trace-out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        for token in ("execution paths", "batch efficiency",
                      "result cache:", "run trace written to"):
            assert token in text
        loaded = RunTrace.load(out)
        s = summarize(loaded)
        assert s["points"] > 0 and s["batch_coverage"] == 1.0
        assert loaded.events[-1]["type"] == "summary"

    def test_bare_trace_defaults_under_cache_runs_dir(self, tmp_path,
                                                      capsys):
        cache_dir = tmp_path / "cache"
        rc = main(["sweep", "--preset", "cost-map", "--quick",
                   "--cache-dir", str(cache_dir), "--trace"])
        assert rc == 0
        traces = list((cache_dir / "runs").glob("*.jsonl"))
        assert len(traces) == 1
        assert "run trace written to" in capsys.readouterr().out

    def test_trace_show_and_diff(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["sweep", "--preset", "cost-map", "--quick",
              "--cache-dir", str(tmp_path / "cache"),
              "--trace-out", str(out)])
        capsys.readouterr()
        assert main(["trace", "show", str(out), "--metrics"]) == 0
        text = capsys.readouterr().out
        assert "execution paths" in text and "cache.write" in text
        assert main(["trace", "diff", str(out), str(out)]) == 0
        assert "trace diff" in capsys.readouterr().out

    def test_untraced_cli_run_stays_silent(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "cost-map", "--quick",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "execution paths" not in text
        assert not (tmp_path / "cache" / "runs").exists()


class TestStrictResultSet:
    def test_aggregate_names_offending_row(self):
        rs = ResultSet([{"kernel": "k", "writebacks": 3},
                        {"kernel": "k"}])
        with pytest.raises(ValueError, match=r"row 1 \(kernel='k'\)"):
            rs.aggregate(["kernel"], "writebacks")

    def test_pivot_names_offending_row(self):
        rows = [{"movement": "m", "algorithm": "a", "words": 1},
                {"movement": "m"}]
        with pytest.raises(ValueError,
                           match="pivot column 'algorithm' missing"):
            ResultSet(rows).pivot(["movement"], "algorithm", "words")
        rows = [{"algorithm": "a", "words": 1}]
        with pytest.raises(ValueError,
                           match="pivot index key 'movement' missing"):
            ResultSet(rows).pivot(["movement"], "algorithm", "words")
        rows = [{"movement": "m", "algorithm": "a"}]
        with pytest.raises(ValueError,
                           match="pivot value 'words' missing"):
            ResultSet(rows).pivot(["movement"], "algorithm", "words")

    def test_valid_aggregate_and_pivot_still_work(self):
        rs = ResultSet([{"k": "a", "alg": "x", "v": 1},
                        {"k": "a", "alg": "y", "v": 2}])
        agg = rs.aggregate(["k"], "v", how="sum")
        assert agg.rows[0]["sum_v"] == 3
        wide = rs.pivot(["k"], "alg", "v")
        assert wide.rows[0] == {"k": "a", "x": 1, "y": 2}


class TestNoOpOverhead:
    def test_phase_sites_are_shared_noop_without_hook(self):
        assert fs_profile.phase("radix_partition") is \
            fs_profile.phase("capacity_fold")

    def test_tracing_context_restores_previous(self):
        outer = RunTrace()
        with tracing(outer):
            inner = RunTrace()
            with tracing(inner):
                assert active_trace() is inner
            assert active_trace() is outer
        assert active_trace() is None
