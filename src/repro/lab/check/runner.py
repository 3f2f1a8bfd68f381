"""Configuration, driver and renderers for `repro-lab check`."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lab.check.findings import (ERROR, Finding, apply_suppressions,
                                      sort_findings)
from repro.lab.check.project import ProjectIndex
from repro.lab.check.rules import RULES, RegistryView
from repro.util import format_table

__all__ = ["CheckConfig", "CheckReport", "default_config", "run_check",
           "render_table", "report_to_json"]

ALL_RULES: Tuple[str, ...] = ("R1", "R2", "R3", "R4", "R5")


@dataclass(frozen=True)
class CheckConfig:
    """What to analyze and against which contracts.

    The default configuration (:func:`default_config`) targets
    ``src/repro``; tests point a config at fixture packages with
    deliberately broken registrations instead.  Each kernel's
    :class:`~repro.lab.params.Kernel` record names every callable R1
    walks and R3 keys on, so no other kernel table is configured.
    """

    #: package directories to parse (module names derive from each
    #: directory's name, so pass e.g. ``src/repro``).
    package_roots: Tuple[Path, ...]
    #: module exposing ``KERNELS`` (name -> ``Kernel`` record) /
    #: ``TRACE_KERNELS`` / ``MACHINES`` / ``POLICIES``.
    registry_module: str
    #: module exposing ``SCENARIOS`` (optional).
    scenarios_module: Optional[str] = None
    #: module whose ``add_argument`` calls define the engine gate flags.
    cli_module: Optional[str] = None
    #: module exposing ``SPANS`` / ``PHASES`` / ``COUNTERS`` (rule R5).
    vocab_module: Optional[str] = None
    #: ``(module, class)`` of the machine-spec dataclass (rule R1).
    machine_class: Optional[Tuple[str, str]] = None
    #: ``(module, class)`` of the trace-kernel protocol class whose
    #: ``run``/``record``/``lines`` methods join every trace kernel's
    #: call graph.
    trace_kernel_class: Optional[Tuple[str, str]] = None
    #: ``(module, qualname)`` roots of the cache-key call graphs (R3).
    key_roots: Tuple[Tuple[str, str], ...] = ()
    #: functions R1 must not descend into (the projection itself).
    r1_exempt: Tuple[Tuple[str, str], ...] = ()
    #: modules R5 skips (the telemetry machinery itself).
    r5_exclude_modules: Tuple[str, ...] = ()
    #: ``(module, qualname)`` of free functions that emit phase timings.
    phase_functions: Tuple[Tuple[str, str], ...] = ()
    #: base directory findings are rendered relative to.
    display_base: Optional[Path] = None
    rules: Tuple[str, ...] = ALL_RULES

    def with_rules(self, rules: Tuple[str, ...]) -> "CheckConfig":
        return replace(self, rules=rules)


@dataclass
class CheckReport:
    """The outcome of one analyzer run."""

    findings: List[Finding]
    suppressed: int
    rules: Tuple[str, ...]

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> int:
        return len(self.findings) - self.errors


def default_config() -> CheckConfig:
    """The shipped-tree configuration: ``src/repro`` and its contracts."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    return CheckConfig(
        package_roots=(package_root,),
        registry_module="repro.lab.registry",
        scenarios_module="repro.lab.scenarios",
        cli_module="repro.lab.cli",
        vocab_module="repro.lab.vocab",
        machine_class=("repro.lab.registry", "MachineSpec"),
        trace_kernel_class=("repro.lab.registry", "TraceKernel"),
        key_roots=(
            ("repro.lab.cache", "point_key"),
            ("repro.lab.scenarios", "ScenarioPoint.payload"),
            ("repro.lab.scenarios", "ScenarioPoint.cache_payload"),
            ("repro.lab.faults", "fault_key"),
            ("repro.lab.executor", "_batch_key"),
            ("repro.lab.registry", "trace_group_payload"),
        ),
        r1_exempt=(("repro.lab.registry", "project_machine"),),
        r5_exclude_modules=("repro.lab.telemetry",),
        phase_functions=(("repro.machine.fastsim.profile", "phase"),),
        display_base=package_root.parent.parent,
    )


def run_check(cfg: CheckConfig) -> CheckReport:
    """Parse, import, run every configured rule, apply suppressions."""
    index = ProjectIndex(cfg.package_roots)
    reg = RegistryView.load(cfg)
    findings: List[Finding] = []
    for rule in cfg.rules:
        findings.extend(RULES[rule](cfg, index, reg))
    suppressions: Dict[str, Dict[int, Set[str]]] = {
        str(m.path): m.suppressions
        for m in index.modules.values() if m.suppressions
    }
    kept = apply_suppressions(findings, suppressions)
    return CheckReport(
        findings=sort_findings(kept),
        suppressed=len(findings) - len(kept),
        rules=cfg.rules,
    )


def render_table(report: CheckReport, base: Optional[Path] = None) -> str:
    """Human-readable findings table plus a one-line verdict."""
    lines: List[str] = []
    if report.findings:
        rows = [(f.rule, f.severity, f.location(base),
                 (f.kernel or "-"), f.message)
                for f in report.findings]
        lines.append(format_table(
            ("RULE", "SEVERITY", "LOCATION", "KERNEL", "MESSAGE"), rows,
            title="lab-check findings"))
        lines.append("")
    verdict = (f"{report.errors} error(s), {report.warnings} warning(s)"
               if report.findings else "clean")
    suppressed = (f", {report.suppressed} suppressed"
                  if report.suppressed else "")
    lines.append(f"lab-check [{', '.join(report.rules)}]: "
                 f"{verdict}{suppressed}")
    return "\n".join(lines)


def report_to_json(report: CheckReport, base: Optional[Path] = None
                   ) -> str:
    payload: Dict[str, Any] = {
        "version": 1,
        "rules": list(report.rules),
        "errors": report.errors,
        "warnings": report.warnings,
        "suppressed": report.suppressed,
        "findings": [f.to_dict(base) for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
