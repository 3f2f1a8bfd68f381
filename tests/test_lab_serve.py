"""The serve daemon: routing, single-flight dedup, cache-served warm
requests, SSE progress, /metrics round-trip, and graceful shutdown."""

import json
import socket
import sys
import threading
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import urlparse

import pytest

import repro.lab.serve as serve_module
from repro.lab.cache import ResultCache
from repro.lab.executor import execute
from repro.lab.results import ResultSet
from repro.lab.serve import ServeDaemon, points_from_request
from repro.lab.telemetry import MetricsRegistry

#: a cheap analytic grid: 4 points, microseconds each.
GRID_BODY = {"kernel": "cost-25d-mm-l3",
             "grid": {"c3": [1, 2], "P": [64, 256]}}


def _post(url, path, body):
    req = urllib.request.Request(
        url + path, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as r:
        return r.status, json.loads(r.read())


def _get(url, path, raw=False):
    with urllib.request.urlopen(url + path) as r:
        blob = r.read()
        return r.status, (blob if raw else json.loads(blob))


def _post_declaring(url, content_length, body=b""):
    """POST /sweep declaring *content_length* and sending *body*, the
    socket held open: the answer's status and body, or a
    ``socket.timeout`` when the daemon waits for more body instead of
    answering."""
    where = urlparse(url)
    with socket.create_connection((where.hostname, where.port),
                                  timeout=3.0) as sock:
        sock.sendall(f"POST /sweep HTTP/1.1\r\nHost: {where.hostname}\r\n"
                     f"Content-Type: application/json\r\n"
                     f"Content-Length: {content_length}\r\n\r\n".encode()
                     + body)
        reply = b""
        while chunk := sock.recv(4096):  # the daemon closes after answering
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)["error"]


def _wait_for(pred, timeout=10.0):
    deadline = timeout / 0.01
    while not pred():
        deadline -= 1
        assert deadline > 0, "condition never became true"
        threading.Event().wait(0.01)


@pytest.fixture
def daemon(tmp_path):
    cache = ResultCache(tmp_path / "cache", code_version="serve-test")
    d = ServeDaemon(port=0, jobs=1, cache=cache).start()
    yield d
    d.shutdown(drain=True)


@pytest.fixture
def gated_execute(monkeypatch):
    """Block the job-runner inside execute until the test releases it —
    the deterministic window for dedup/SSE/cancel assertions."""
    entered = threading.Event()
    release = threading.Event()
    real = serve_module.execute

    def gated(points, **kwargs):
        if not kwargs.get("require_cached"):
            entered.set()
            assert release.wait(10), "test never released the runner"
        return real(points, **kwargs)

    monkeypatch.setattr(serve_module, "execute", gated)
    return entered, release


class TestRequestParsing:
    def test_adhoc_grid(self):
        label, points = points_from_request(GRID_BODY)
        assert label == "adhoc"
        assert len(points) == 4
        assert {p.params["c3"] for p in points} == {1, 2}

    def test_request_codec_matches_cli(self, tmp_path):
        """A JSON body -- typed or CLI-style string literals, "false"
        included -- resolves to exactly the points the CLI builds from
        the same arguments."""
        from repro.lab.cli import _scenario, build_parser

        def cli_payloads(*argv):
            args = build_parser().parse_args(["sweep", *argv])
            return [p.cache_payload() for p in _scenario(args).points()]

        def http_payloads(body):
            return [p.cache_payload() for p in points_from_request(body)[1]]

        adhoc = cli_payloads("--kernel", "cost-25d-mm-l3", "--grid",
                             "c3=1,2", "--grid", "P=64,256")
        assert http_payloads(GRID_BODY) == adhoc
        assert http_payloads({"kernel": "cost-25d-mm-l3",
                              "grid": {"c3": "1,2", "P": "64,256"}}) == adhoc
        full = cli_payloads("--preset", "sec6", "--set", "middle=64")
        quick = cli_payloads("--preset", "sec6", "--quick")
        for falsy in (False, "false", "False"):
            assert http_payloads({"scenario": "sec6", "quick": falsy,
                                  "set": {"middle": "64"}}) == full
        assert http_payloads({"scenario": "sec6", "quick": "true"}) == quick

    def test_scenario_preset(self):
        label, points = points_from_request(
            {"scenario": "sec6", "quick": True})
        assert label == "sec6"
        assert points

    def test_scenario_rejects_grid(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            points_from_request({"scenario": "sec6",
                                 "grid": {"n": [8]}})

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            points_from_request({"scenario": "nope"})

    def test_empty_body(self):
        with pytest.raises(ValueError, match="must name"):
            points_from_request({})

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            points_from_request({"kernel": "nope"})


class TestSweepLifecycle:
    def _wait_done(self, url, job_id, tries=200):
        for _ in range(tries):
            status, st = _get(url, f"/jobs/{job_id}")
            if st["status"] in ("done", "failed", "cancelled"):
                return st
            threading.Event().wait(0.02)
        raise AssertionError(f"job {job_id} never settled: {st}")

    def test_cold_sweep_matches_batch_engine_bit_for_bit(self, daemon):
        status, first = _post(daemon.url, "/sweep", GRID_BODY)
        assert status == 202 and first["source"] == "queued"
        st = self._wait_done(daemon.url, first["job"])
        assert st["status"] == "done" and st["cached"] is False

        status, rows = _get(daemon.url, f"/results/{first['job']}")
        assert status == 200

        # The same grid through the batch engine, fresh cache: the
        # daemon must produce bit-identical records.
        _, points = points_from_request(GRID_BODY)
        direct = ResultSet.from_report(execute(points))
        assert rows == json.loads(direct.to_json())
        # and it round-trips through the ResultSet JSON codec
        assert ResultSet.from_json(json.dumps(rows)).rows == rows

    def test_csv_results(self, daemon):
        _, first = _post(daemon.url, "/sweep", GRID_BODY)
        self._wait_done(daemon.url, first["job"])
        _, blob = _get(daemon.url, f"/results/{first['job']}?format=csv",
                       raw=True)
        lines = blob.decode().strip().splitlines()
        assert len(lines) == 4 + 1  # header + 4 points

    def test_warm_request_is_cache_served_without_enqueuing(self, daemon):
        _, first = _post(daemon.url, "/sweep", GRID_BODY)
        self._wait_done(daemon.url, first["job"])
        executed_before = daemon.manager.executions

        status, second = _post(daemon.url, "/sweep", GRID_BODY)
        assert status == 200
        assert second["source"] == "cached"
        assert second["status"] == "done"  # answered synchronously
        assert second["job"] != first["job"]
        # 0 executed points: nothing was enqueued, nothing ran
        assert daemon.manager.executions == executed_before
        assert second["hits"] == 4 and second["misses"] == 0

        _, warm_rows = _get(daemon.url, f"/results/{second['job']}")
        _, cold_rows = _get(daemon.url, f"/results/{first['job']}")
        # identical records up to the cached-provenance flag
        strip = lambda rows: [{k: v for k, v in r.items()
                               if k != "cached"} for r in rows]
        assert strip(warm_rows) == strip(cold_rows)
        assert all(r["cached"] for r in warm_rows)

        # the counters prove it
        _, metrics = _get(daemon.url, "/metrics")
        counters = metrics["metrics"]["counters"]
        assert counters["serve.cache_hit"] == 1
        assert "serve.dedup" not in counters

    def test_warm_probe_racing_a_gc_runs_cold_on_a_fresh_job(
            self, daemon, monkeypatch):
        """Records that vanish between the warm probe and the read (a
        racing ``cache gc``) used to queue the request on the job the
        failed read had already finished: its trace got the cold run's
        events after a summary footer that read ``failed``."""
        monkeypatch.setattr(daemon.manager, "_probe_warm",
                            lambda points: True)
        status, body = _post(daemon.url, "/sweep", GRID_BODY)
        assert status == 202 and body["source"] == "queued"
        assert self._wait_done(daemon.url, body["job"])["status"] == "done"
        events = daemon.manager.get(body["job"]).trace.events
        assert [ev["type"] for ev in events].count("summary") == 1
        assert events[-1]["type"] == "summary"
        assert events[-1]["tags"] == {"status": "done"}
        # the dropped attempt's four misses are not counted
        _, metrics = _get(daemon.url, "/metrics")
        assert metrics["jobs"] == {"done": 1}
        assert metrics["metrics"]["counters"]["cache.miss"] == 4

    def test_concurrent_cold_requests_single_flight(self, daemon,
                                                    gated_execute):
        entered, release = gated_execute
        results = []

        def client():
            results.append(_post(daemon.url, "/sweep", GRID_BODY))

        t1 = threading.Thread(target=client)
        t1.start()
        assert entered.wait(10)  # first request is inside execute
        t2 = threading.Thread(target=client)
        t2.start()
        t2.join(10)  # second answers immediately: it joined the first
        release.set()
        t1.join(10)

        (s1, r1), (s2, r2) = sorted(results, key=lambda sr: sr[0])
        assert {r1["source"], r2["source"]} == {"queued", "dedup"}
        assert r1["job"] == r2["job"]  # literally the same job
        assert daemon.manager.executions == 1  # exactly one execution

        st = self._wait_done(daemon.url, r1["job"])
        assert st["status"] == "done"
        _, rows_a = _get(daemon.url, f"/results/{r1['job']}")
        _, rows_b = _get(daemon.url, f"/results/{r2['job']}")
        assert rows_a == rows_b

        _, metrics = _get(daemon.url, "/metrics")
        assert metrics["metrics"]["counters"]["serve.dedup"] == 1

    def test_results_before_done_is_409(self, daemon, gated_execute):
        entered, release = gated_execute
        holder = {}
        t = threading.Thread(target=lambda: holder.update(
            _post(daemon.url, "/sweep", GRID_BODY)[1]))
        t.start()
        assert entered.wait(10)
        _wait_for(lambda: "job" in holder)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(daemon.url, f"/results/{holder['job']}")
        assert excinfo.value.code == 409
        release.set()
        t.join(10)

    def test_cancel_endpoint_stops_job(self, daemon, gated_execute):
        entered, release = gated_execute
        holder = {}
        t = threading.Thread(target=lambda: holder.update(
            _post(daemon.url, "/sweep", GRID_BODY)[1]))
        t.start()
        assert entered.wait(10)
        _wait_for(lambda: "job" in holder)
        status, ack = _post(daemon.url, f"/jobs/{holder['job']}/cancel",
                            {})
        assert status == 200 and ack["cancel_requested"]
        release.set()
        st = self._wait_done(daemon.url, holder["job"])
        assert st["status"] == "cancelled"

    def test_unknown_routes_and_jobs(self, daemon):
        for path in ("/jobs/nope", "/results/nope"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(daemon.url, path)
            assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", {"scenario": "nope"})
        assert excinfo.value.code == 400

    def test_unknown_kernel_is_a_400_not_a_dropped_connection(self,
                                                              daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", {"kernel": "nope"})
        assert excinfo.value.code == 400
        assert "unknown kernel" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("declared", ["-1", "abc", "1.5", "+5"])
    def test_negative_or_non_integer_length_is_a_400(self, daemon,
                                                     declared):
        """A negative Content-Length used to read to EOF, so a client
        holding its socket open never got an answer."""
        status, error = _post_declaring(daemon.url, declared)
        assert status == 400
        assert "Content-Length must be a non-negative integer" in error

    def test_oversized_body_is_a_413_before_it_is_read(self, daemon):
        limit = serve_module.MAX_BODY_BYTES
        status, error = _post_declaring(daemon.url, limit + 1)
        assert status == 413
        assert f"{limit + 1} bytes exceeds" in error
        # a body of exactly the limit is read and parsed
        body = b"{}" + b" " * (limit - 2)
        assert _post_declaring(daemon.url, limit, body) == (
            400, "request must name a preset scenario or a kernel")

    def test_bad_hw_value_is_a_400(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", {"kernel": "cost-2d-mm",
                                         "grid": {"n": [64]},
                                         "set": {"P": 16},
                                         "hw": {"M1": 1e12}})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == \
            "level sizes must satisfy M1 < M2 < M3"

    def test_nonpositive_cache_blocks_is_a_400(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", {
                "kernel": "matmul-cache",
                "set": {"n": 16, "middle": 16, "b3": 8, "scheme": "co"},
                "grid": {"cache_blocks": [3, 0]}})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == \
            "cache_blocks must be positive, got 0"

    def test_missing_trace_params_is_a_400(self, daemon):
        """The job used to be accepted and then fail inside the run."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", {"kernel": "matmul-cache",
                                         "set": {"n": 16}})
        assert excinfo.value.code == 400
        assert "missing required parameter(s) ['middle', 'scheme']" in \
            json.loads(excinfo.value.read())["error"]

    MATMUL_CO = {"n": 16, "middle": 16, "scheme": "co"}

    @pytest.mark.parametrize("body, error", [
        ({"kernel": "matmul-cache", "set": {**MATMUL_CO, "b3": 0}},
         "b3 must be positive, got 0"),
        ({"kernel": "matmul-cache", "set": MATMUL_CO,
          "machine": "three-level"}, "`levels`"),
        ({"kernel": "matmul-cache", "set": MATMUL_CO,
          "grid": {"machine.associativity": [3]}},
         "capacity (433 lines) must be a multiple of associativity (3)"),
        ({"kernel": "trsm-cache", "set": {"n": 0, "m": 8, "b": 4}},
         "n must be positive, got 0"),
        ({"kernel": "matmul-hierarchy", "set": MATMUL_CO,
          "machine": "sim-l3"},
         "matmul-hierarchy needs a machine with `levels`"),
        ({"kernel": "matmul-cache", "set": MATMUL_CO,
          "grid": {"machine.policy": ["belady"],
                   "machine.associativity": [1]}},
         "machine.associativity=1"),
        ({"kernel": "matmul-hierarchy", "set": MATMUL_CO,
          "machine": "three-level",
          "grid": {"machine.policy": ["belady"]}},
         "machine.policy=belady"),
    ], ids=["b3=0", "three-level", "associativity=3", "trsm-n=0",
            "hierarchy-sim-l3", "belady-associativity=1",
            "hierarchy-belady"])
    def test_unrunnable_trace_point_is_a_400(self, daemon, body, error):
        """These jobs used to be accepted and then fail inside the run."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", body)
        assert excinfo.value.code == 400
        assert error in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("body, error", [
        ({"kernel": "matmul-cache", "set": {**MATMUL_CO, "bogus": 7}},
         "does not take parameter(s) ['bogus']"),
        ({"kernel": "twolevel-counts", "set": {}},
         "missing required parameter(s) ['algorithm', 'b', 'n', 'seed', "
         "'variant']"),
        ({"kernel": "co-vs-wa", "set": {"n": 0, "M": 0}},
         "missing required parameter(s) ['seed']"),
        ({"kernel": "cdag-pebble",
          "set": {"algorithm": "fft", "n": 0, "M": 4}},
         "n must be positive, got 0"),
    ], ids=["matmul-bogus", "twolevel-bare", "co-vs-wa-seed", "cdag-n=0"])
    def test_unknown_or_missing_param_is_a_400(self, daemon, body, error):
        """An unknown trace-kernel key used to run and enter the record;
        these table jobs used to be accepted and then fail in the run."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", body)
        assert excinfo.value.code == 400
        assert error in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("body, field", [
        ({"kernel": "twolevel-counts",
          "set": {"algorithm": "matmul", "variant": "ijk", "n": 30,
                  "b": 4, "seed": 0}}, "n=30"),
        ({"kernel": "twolevel-counts",
          "set": {"algorithm": "matmul", "variant": "xyz", "n": 32,
                  "b": 4, "seed": 0}}, "variant"),
        ({"kernel": "cdag-pebble",
          "set": {"algorithm": "fft", "n": 6, "M": 4}}, "n=6"),
        ({"kernel": "co-vs-wa", "set": {"n": 8, "M": 2, "seed": 0}}, "M=2"),
        ({"kernel": "mm-25d", "set": {"n": 16, "P": 8, "c": 3}}, "c=3"),
        ({"kernel": "krylov-cg", "set": {"mesh": 0}}, "mesh"),
        ({"kernel": "krylov-gmres",
          "set": {"variant": "zzz", "s": 2, "mesh": 32}}, "variant"),
        ({"kernel": "cost-dominance", "set": {"model": 9}}, "model"),
        ({"kernel": "cost-table1",
          "set": {"row": 99, "algorithm": "2DMML2"}}, "row"),
        ({"kernel": "cost-2d-mm", "set": {"n": "nan"}}, "n"),
        ({"kernel": "matmul-cache",
          "set": {**MATMUL_CO, "machine.write_slow": "nan"}},
         "machine.write_slow"),
        ({"kernel": "matmul-cache",
          "set": {**MATMUL_CO, "machine.write_slow": "inf"}},
         "machine.write_slow"),
        ({"kernel": "cost-2d-mm", "set": {"bogus": 3}}, "bogus"),
        ({"kernel": "summa-2d", "set": {"bogus": 1}}, "bogus"),
        ({"kernel": "krylov-cg", "set": {"bogus": 2}}, "bogus"),
        ({"kernel": "krylov-cacg",
          "set": {"streaming": "no", "s": 2, "mesh": 32}}, "streaming"),
        ({"kernel": "summa-2d", "set": {"hoard": "maybe"}}, "hoard"),
        ({"kernel": "matmul-cache",
          "set": {**MATMUL_CO, "c_touch_hint": "nope"}}, "c_touch_hint"),
        ({"kernel": "summa-2d", "set": {"n": 0}}, "n"),
        ({"kernel": "cost-2d-mm", "hw": {"beta_nw": "inf"}}, "beta_nw"),
        ({"kernel": "cost-2d-mm", "hw": {"M3": "inf"}}, "M3"),
    ])
    def test_undeclared_value_or_key_is_a_400(self, daemon, body, field):
        """Each of these jobs used to fail inside the run or finish with
        a wrong record; the kernel's declaration refuses it up front."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url, "/sweep", body)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]

    def test_adhoc_machine_set_overrides_the_machine(self):
        """``"set": {"machine.policy": "clock"}`` used to run LRU with
        ``machine.policy`` riding along as a kernel parameter."""
        _, [point] = points_from_request({
            "kernel": "matmul-cache", "machine": "sim-l3",
            "set": {"n": 16, "middle": 16, "b3": 8, "scheme": "co",
                    "cache_blocks": 3, "machine.policy": "clock"}})
        assert point.machine.policy == "clock"
        assert "machine.policy" not in point.params
        with pytest.raises(ValueError, match="machine.line_size"):
            points_from_request({"kernel": "matmul-cache",
                                 "set": {"machine.line_size": 0}})

    def test_healthz(self, daemon):
        status, body = _get(daemon.url, "/healthz")
        assert status == 200 and body["ok"]


class TestSSE:
    def test_finished_job_replays_full_trace(self, daemon):
        _, first = _post(daemon.url, "/sweep", GRID_BODY)
        for _ in range(200):
            _, st = _get(daemon.url, f"/jobs/{first['job']}")
            if st["status"] == "done":
                break
            threading.Event().wait(0.02)
        _, blob = _get(daemon.url, f"/jobs/{first['job']}?sse=1",
                       raw=True)
        text = blob.decode()
        kinds = [ln.split(": ", 1)[1] for ln in text.splitlines()
                 if ln.startswith("event: ")]
        assert kinds[0] == "meta"
        assert kinds[-1] == "done"
        assert "summary" in kinds and "point" in kinds
        # every data line is a schema-v1 event verbatim
        for ln in text.splitlines():
            if ln.startswith("data: "):
                json.loads(ln[len("data: "):])

    def test_live_stream_sees_events_exactly_once(self, daemon,
                                                  gated_execute):
        entered, release = gated_execute
        holder = {}
        t = threading.Thread(target=lambda: holder.update(
            _post(daemon.url, "/sweep", GRID_BODY)[1]))
        t.start()
        assert entered.wait(10)
        _wait_for(lambda: "job" in holder)

        stream = {}

        def reader():
            _, blob = _get(daemon.url,
                           f"/jobs/{holder['job']}?sse=1", raw=True)
            stream["text"] = blob.decode()

        rt = threading.Thread(target=reader)
        rt.start()
        release.set()
        rt.join(10)
        t.join(10)
        assert "text" in stream
        events = [json.loads(ln[len("data: "):])
                  for ln in stream["text"].splitlines()
                  if ln.startswith("data: ")]
        points = [ev for ev in events if ev.get("type") == "point"]
        assert len(points) == 4  # each point reported exactly once
        assert events[-2]["type"] == "summary"  # then the done frame


class TestMetrics:
    def test_round_trips_through_registry(self, daemon):
        _, first = _post(daemon.url, "/sweep", GRID_BODY)
        for _ in range(200):
            _, st = _get(daemon.url, f"/jobs/{first['job']}")
            if st["status"] == "done":
                break
            threading.Event().wait(0.02)
        _post(daemon.url, "/sweep", GRID_BODY)  # a cache hit too

        _, payload = _get(daemon.url, "/metrics")
        assert payload["schema_version"] == 1

        # the exported dict round-trips through the registry codec
        reg = MetricsRegistry.from_dict(payload["metrics"])
        assert reg.as_dict() == payload["metrics"]

        # and equals a fresh aggregation of the job traces' events plus
        # the server's own running registry — no second format, no drift
        rebuilt = MetricsRegistry.from_events(
            [ev for job in daemon.manager.jobs_snapshot()
             for ev in job.trace.events])
        rebuilt.merge(daemon.metrics)
        # the /metrics fetches themselves add http_request spans after
        # the snapshot we compare against, so compare counters exactly
        # and histograms on the job-side names only.
        assert rebuilt.counters == reg.counters
        assert rebuilt.histograms["span.sweep.seconds"] == \
            reg.histograms["span.sweep.seconds"]
        assert "span.http_request.seconds" in reg.histograms
        assert reg.counters["serve.request"] == 2
        assert reg.counters["serve.cache_hit"] == 1

    def test_requests_leave_no_per_request_state(self, daemon):
        """The daemon used to keep one span event per request, forever.
        Now 500 requests leave what one left, and /metrics still counts
        every one of them, even when 8 clients race to be counted."""
        def recorded():
            # a handler records its span after it has sent the response
            h = daemon.metrics.histograms.get("span.http_request.seconds")
            return h["count"] if h else 0

        _get(daemon.url, "/healthz")
        _wait_for(lambda: recorded() == 1)
        held = _held_items(daemon)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                codes = list(pool.map(lambda _: _get(daemon.url,
                                                     "/healthz")[0],
                                      range(499), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert codes == [200] * 499
        _wait_for(lambda: recorded() == 500)
        assert _held_items(daemon) == held
        _, payload = _get(daemon.url, "/metrics")
        spans = payload["metrics"]["histograms"]["span.http_request.seconds"]
        assert spans["count"] == 500

    def test_settled_jobs_are_folded_once(self, daemon, monkeypatch):
        """/metrics used to re-aggregate every kept job's events on each
        call; a settled job's events are now folded once, and the
        payload still equals that aggregation."""
        _, cold = _post(daemon.url, "/sweep", GRID_BODY)
        TestSweepLifecycle()._wait_done(daemon.url, cold["job"])
        for _ in range(3):
            _post(daemon.url, "/sweep", GRID_BODY)
        jobs = daemon.manager.jobs_snapshot()
        assert len(jobs) == 4
        want = MetricsRegistry.from_events(
            [ev for job in jobs for ev in job.trace.events])
        want.merge(daemon.metrics)

        folded = []
        real = MetricsRegistry.from_events.__func__

        def counting(cls, events):
            folded.append(len(events))
            return real(cls, events)

        monkeypatch.setattr(MetricsRegistry, "from_events",
                            classmethod(counting))
        got = daemon.metrics_payload()
        assert sum(folded) == 0
        assert got["jobs"] == {"done": 4}
        metrics = got["metrics"]
        assert metrics["counters"] == want.counters
        assert metrics["gauges"] == want.gauges
        assert metrics["histograms"].keys() == want.histograms.keys()
        for name, hist in want.histograms.items():
            assert metrics["histograms"][name] == pytest.approx(hist), name


def _held_items(daemon, depth=4):
    """How many items the containers the daemon (or job manager)
    reaches hold (its HTTP server and threads aside)."""
    def held(obj, depth):
        if depth == 0:
            return 0
        if isinstance(obj, dict):
            return len(obj) + sum(held(v, depth - 1) for v in obj.values())
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            return len(obj) + sum(held(v, depth - 1) for v in obj)
        if hasattr(obj, "__dict__") and not isinstance(obj, type):
            return held(vars(obj), depth)
        return 0
    return held({k: v for k, v in vars(daemon).items()
                 if k not in ("httpd", "_thread", "_runner")}, depth)


def _code(url, path):
    try:
        return _get(url, path)[0]
    except urllib.error.HTTPError as exc:
        return exc.code


class TestJobRetention:
    """The daemon used to keep every job (rows and trace) for its whole
    life: ~40 KB per cache-served request.  Now it keeps the last
    ``MAX_FINISHED_JOBS`` finished ones."""

    def test_oldest_finished_job_is_forgotten_never_a_running_one(
            self, daemon, gated_execute, monkeypatch):
        monkeypatch.setattr(serve_module, "MAX_FINISHED_JOBS", 1)
        entered, release = gated_execute
        release.set()
        _, cold = _post(daemon.url, "/sweep", GRID_BODY)
        TestSweepLifecycle()._wait_done(daemon.url, cold["job"])

        release.clear()
        running = {}
        t = threading.Thread(target=lambda: running.update(_post(
            daemon.url, "/sweep", {**GRID_BODY, "set": {"n": 2048}})[1]))
        t.start()
        _wait_for(lambda: "job" in running)
        warm = [_post(daemon.url, "/sweep", GRID_BODY)[1]["job"]
                for _ in range(2)]
        for job_id in (cold["job"], warm[0]):
            for path in (f"/jobs/{job_id}", f"/results/{job_id}"):
                assert _code(daemon.url, path) == 410
        assert _code(daemon.url, f"/jobs/{warm[1]}") == 200
        assert _code(daemon.url, f"/jobs/{running['job']}") == 200

        release.set()
        t.join(10)
        TestSweepLifecycle()._wait_done(daemon.url, running["job"])
        assert _code(daemon.url, f"/results/{running['job']}") == 200
        assert _code(daemon.url, f"/jobs/{warm[1]}") == 410
        assert _code(daemon.url, "/jobs/job-9999-deadbeef") == 404
        assert _code(daemon.url, "/jobs/no-such-job") == 404
        assert len(daemon.manager.jobs_snapshot()) == 1

        # the forgotten jobs still count in /metrics
        _, payload = _get(daemon.url, "/metrics")
        assert payload["jobs"] == {"done": 4}
        assert payload["metrics"]["histograms"][
            "span.sweep.seconds"]["count"] == 4

    def test_warm_requests_keep_bounded_state(self, daemon):
        """Every cache-served request makes a job, and the 410 answer
        used to remember each forgotten id: 600 warm requests left 345.
        Now the manager holds as much after 600 requests as after 300."""
        _, cold = _post(daemon.url, "/sweep", GRID_BODY)
        TestSweepLifecycle()._wait_done(daemon.url, cold["job"])
        manager = daemon.manager
        ids = [_post(daemon.url, "/sweep", GRID_BODY)[1]["job"]
               for _ in range(299)]
        held = _held_items(manager)
        ids += [_post(daemon.url, "/sweep", GRID_BODY)[1]["job"]
                for _ in range(300)]
        assert len(manager.jobs_snapshot()) == serve_module.MAX_FINISHED_JOBS
        assert _held_items(manager) == held
        assert _code(daemon.url, f"/jobs/{cold['job']}") == 410
        assert _code(daemon.url, f"/jobs/{ids[0]}") == 410
        assert _code(daemon.url, f"/jobs/{ids[-1]}") == 200
        assert _code(daemon.url, "/jobs/job-9999-deadbeef") == 404
        # an issued number written non-canonically, or number 0
        seq, key8 = ids[0].split("-")[1:]
        assert _code(daemon.url, f"/jobs/job-0{seq}-{key8}") == 404
        assert _code(daemon.url, f"/jobs/job-0000-{key8}") == 404
        _, payload = _get(daemon.url, "/metrics")
        assert payload["jobs"] == {"done": 600}


class TestListenBacklog:
    def test_backlog_absorbs_a_burst_of_clients(self, daemon):
        # socketserver's default backlog of 5 overflowed at 32 concurrent
        # clients.  The regression is pinned on the server class rather
        # than on observed resets: a full Linux accept queue usually
        # drops SYNs (retried after a second) instead of resetting.
        assert type(daemon.httpd).request_queue_size >= 128


class TestShutdown:
    def test_drain_completes_queued_jobs(self, tmp_path, gated_execute):
        entered, release = gated_execute
        cache = ResultCache(tmp_path / "cache", code_version="drain")
        d = ServeDaemon(port=0, jobs=1, cache=cache).start()
        try:
            holder = {}
            t = threading.Thread(target=lambda: holder.update(
                _post(d.url, "/sweep", GRID_BODY)[1]))
            t.start()
            assert entered.wait(10)
            t.join(10)
            _wait_for(lambda: "job" in holder)
            release.set()
            d.shutdown(drain=True)  # joins the runner
            job = d.manager.get(holder["job"])
            assert job.status == "done"
            assert job.rows is not None
        finally:
            d.shutdown(drain=True)  # idempotent

    def test_shutdown_stops_accepting(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="stop")
        d = ServeDaemon(port=0, jobs=1, cache=cache).start()
        url = d.url
        d.accepting = False
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(url, "/sweep", GRID_BODY)
        assert excinfo.value.code == 503
        d.shutdown(drain=True)
        with pytest.raises(urllib.error.URLError):  # the socket is closed
            _get(url, "/healthz")

    def test_shutdown_sweeps_cache_temporaries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", code_version="tmp")
        nested = cache.root / "traces" / "ab"
        nested.mkdir(parents=True)
        stray = nested / "stale.npy.tmp"
        stray.write_bytes(b"partial")
        d = ServeDaemon(port=0, jobs=1, cache=cache).start()
        d.shutdown(drain=True)
        assert not stray.exists()
