"""`repro-lab check` — the static contract analyzer.

Two targets: the fixture package (``tests/labcheck_fixtures``, one
deliberate violation per rule, located by MARKER comments so the
expected ``file:line`` never goes stale) and the shipped tree, which
must be clean — that clean-tree test is the tier-1 gate mirroring the
CI ``check`` step.
"""

import json
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
FIXTURE_ROOT = TESTS_DIR / "labcheck_fixtures"
if str(TESTS_DIR) not in sys.path:
    # RegistryView.load imports the fixture registry by module name.
    sys.path.insert(0, str(TESTS_DIR))

from repro.lab import telemetry, vocab  # noqa: E402
from repro.lab.check import (CheckConfig, default_config, render_table,  # noqa: E402
                             run_check)
from repro.lab.cli import main  # noqa: E402


def fixture_config() -> CheckConfig:
    return CheckConfig(
        package_roots=(FIXTURE_ROOT,),
        registry_module="labcheck_fixtures.registry",
        scenarios_module="labcheck_fixtures.scenarios",
        cli_module=None,
        vocab_module="repro.lab.vocab",
        machine_class=("labcheck_fixtures.machine", "FixtureMachine"),
        key_roots=(
            ("labcheck_fixtures.keys", "point_key"),
            ("labcheck_fixtures.keys", "batch_key"),
            ("labcheck_fixtures.keys", "suppressed_key"),
        ),
        display_base=TESTS_DIR,
    )


@pytest.fixture(scope="module")
def fixture_report():
    return run_check(fixture_config())


def marker_line(filename: str, marker: str) -> int:
    """Line number of *marker* in a fixture file — tests assert against
    content, not hard-coded line numbers."""
    text = (FIXTURE_ROOT / filename).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        if marker in line:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in {filename}")


def one(report, **attrs):
    hits = [f for f in report.findings
            if all(getattr(f, k) == v for k, v in attrs.items())]
    assert len(hits) == 1, (attrs, report.findings)
    return hits[0]


class TestFixtureViolations:
    def test_r1_undeclared_read_fires_at_the_read(self, fixture_report):
        f = one(fixture_report, rule="R1", severity="error",
                kernel="fx-undeclared-read")
        assert f.file.endswith("registry.py")
        assert f.line == marker_line("registry.py", "MARKER r1-undeclared")
        assert "write_slow" in f.message

    def test_r1_declared_never_read_warns_at_the_row(self, fixture_report):
        f = one(fixture_report, rule="R1", severity="warning",
                kernel="fx-overdeclared")
        assert f.line == marker_line("registry.py", "MARKER r1-overdeclared")
        assert "policy" in f.message

    def test_r1_batch_evaluator_read_fires_at_the_read(self,
                                                      fixture_report):
        """R1 walks a kernel's batch entry as well as its body: a field
        only the batch evaluator reads still splits the records."""
        f = one(fixture_report, rule="R1", severity="error",
                kernel="fx-batch-read")
        assert f.file.endswith("registry.py")
        assert f.line == marker_line("registry.py", "MARKER r1-batch-read")
        assert "write_slow" in f.message

    def test_r2_preset_with_unregistered_kernel(self, fixture_report):
        f = one(fixture_report, rule="R2", kernel="fx-unregistered")
        assert f.file.endswith("scenarios.py")
        assert f.line == marker_line("scenarios.py", "MARKER r2-bad-preset")

    def test_r3_time_call_in_key_path(self, fixture_report):
        f = one(fixture_report, rule="R3", line=marker_line(
            "keys.py", "MARKER r3-time-in-key"))
        assert "time.time" in f.message

    def test_r3_unsorted_set_in_key_path(self, fixture_report):
        f = one(fixture_report, rule="R3", line=marker_line(
            "keys.py", "MARKER r3-unsorted-set"))
        assert "unsorted set" in f.message

    def test_r4_lambda_process_target(self, fixture_report):
        f = one(fixture_report, rule="R4", line=marker_line(
            "workers.py", "MARKER r4-lambda"))
        assert "lambda" in f.message

    def test_r4_nested_def_process_target(self, fixture_report):
        f = one(fixture_report, rule="R4", line=marker_line(
            "workers.py", "MARKER r4-nested"))
        assert "nested def" in f.message

    def test_r5_rogue_span_name(self, fixture_report):
        f = one(fixture_report, rule="R5", line=marker_line(
            "spans.py", "MARKER r5-rogue-span"))
        assert "bogus-span" in f.message
        # the in-vocabulary counter on the next line stays silent
        assert not any(g.rule == "R5" and g.line == f.line + 1
                       for g in fixture_report.findings)

    def test_r5_rogue_span_aggregated_without_an_event(self,
                                                      fixture_report):
        f = one(fixture_report, rule="R5", line=marker_line(
            "spans.py", "MARKER r5-rogue-observed"))
        assert "bogus-request" in f.message

    def test_inline_suppression_swallows_the_hash_finding(
            self, fixture_report):
        assert fixture_report.suppressed == 1
        hash_line = marker_line("keys.py", "lab-check: ignore[R3]")
        assert not any(f.line == hash_line and f.file.endswith("keys.py")
                       for f in fixture_report.findings)

    def test_table_rendering(self, fixture_report):
        text = render_table(fixture_report, TESTS_DIR)
        assert "RULE" in text and "LOCATION" in text
        assert "labcheck_fixtures/registry.py" in text
        assert "error(s)" in text and "1 suppressed" in text


class TestCleanTree:
    def test_shipped_tree_has_zero_findings(self):
        report = run_check(default_config())
        assert report.findings == [], render_table(report)


class TestR1EndToEnd:
    def test_undeclared_read_means_cache_key_collision(self, monkeypatch,
                                                       fixture_report):
        """The hazard R1 exists for, end to end: a kernel reading an
        undeclared machine field produces *different records* under the
        *same projected cache key* — a stale-serve — and declaring the
        field splits the keys."""
        from dataclasses import replace

        from labcheck_fixtures.registry import (KERNELS,
                                                undeclared_read_kernel)
        from repro.lab import registry
        from repro.lab.cache import point_key
        from repro.lab.scenarios import ScenarioPoint

        declared = KERNELS["fx-undeclared-read"]
        assert declared.machine_fields == ("line_size",)
        monkeypatch.setitem(registry.KERNELS, "fx-undeclared-read",
                            declared)
        fast = registry.MachineSpec(write_slow=2.0)
        slow = registry.MachineSpec(write_slow=30.0)
        params = {"n": 4}

        def key(machine):
            pt = ScenarioPoint("fx-undeclared-read", machine, params)
            return point_key(pt.cache_payload(), "code-v1")

        records = (undeclared_read_kernel(fast, params),
                   undeclared_read_kernel(slow, params))
        assert records[0] != records[1]
        assert key(fast) == key(slow)   # divergence: one key, two records

        # the checker flags exactly this kernel and field...
        f = one(fixture_report, rule="R1", kernel="fx-undeclared-read")
        assert "write_slow" in f.message

        # ...and the fix it demands repairs the key
        monkeypatch.setitem(registry.KERNELS, "fx-undeclared-read",
                            replace(declared, machine_fields=(
                                "line_size", "write_slow")))
        assert key(fast) != key(slow)


class TestCLI:
    def test_check_clean_json_and_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "findings.json"
        code = main(["check", "--format", "json",
                     "--output", str(out_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["errors"] == 0
        assert payload["findings"] == []
        assert json.loads(out_file.read_text()) == payload

    def test_check_rejects_unknown_rule(self, capsys):
        code = main(["check", "--rules", "R9"])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err


class TestVocabulary:
    def test_vocab_schema_version_matches_telemetry(self):
        assert vocab.SCHEMA_VERSION == telemetry.SCHEMA_VERSION

    def test_vocab_sets_are_frozen_and_populated(self):
        for name in ("SPANS", "PHASES", "COUNTERS"):
            values = getattr(vocab, name)
            assert isinstance(values, frozenset) and values
            assert all(isinstance(v, str) for v in values)


class TestMachineFields:
    def test_unknown_kernel_raises_keyerror_naming_it(self):
        from repro.lab.registry import machine_fields

        with pytest.raises(KeyError, match="no-such-kernel"):
            machine_fields("no-such-kernel")
        try:
            machine_fields("no-such-kernel")
        except KeyError as exc:
            assert "matmul-cache" in str(exc)   # lists registered kernels


class TestR1SubGroups:
    def test_read_through_a_comprehension_sub_group_names_the_kernel(
            self, tmp_path):
        """``cost-dominance`` hands ``_family_batch`` a sub-group picked
        by a comprehension (``[group[i] for i in idx]``).  A machine
        read planted in ``_family_batch`` of a copy of the tree must
        reach R1 through it, as it does through the formula-family
        kernels that pass their whole group."""
        import os
        import shutil
        import subprocess

        import repro

        src = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).resolve().parent,
                        src / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "repro" / "lab" / "modelkernels.py"
        text = path.read_text()
        anchor = "    if hw is None:\n        hw = _group_hw(group)\n"
        assert text.count(anchor) == 1
        path.write_text(text.replace(
            anchor, "    group[0][0].write_slow\n" + anchor))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lab", "check", "--rules", "R1",
             "--format", "json"],
            env=env, capture_output=True, text=True, timeout=120)
        findings = json.loads(proc.stdout)["findings"]
        flagged = {f["kernel"] for f in findings
                   if "write_slow" in f["message"]}
        assert "cost-dominance" in flagged
        assert "cost-2d-mm" in flagged
