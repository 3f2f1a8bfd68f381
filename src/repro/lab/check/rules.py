"""Rules R1–R5 of the static contract analyzer.

Each rule is a function ``(config, index, registry) -> [Finding]`` over
the parsed project (:class:`~repro.lab.check.project.ProjectIndex`) and
the imported registries (:class:`RegistryView` — the kernel records are
the runtime ground truth; the AST is how reads, calls and literals are
located and attributed).
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Set, Tuple)

from repro.lab.check.findings import ERROR, WARNING, Finding
from repro.lab.check.machinewalk import (MachineModel, MachineReadWalker,
                                         MachineReads)
from repro.lab.check.project import FunctionInfo, ModuleInfo, ProjectIndex

__all__ = ["RegistryView", "rule_r1", "rule_r2", "rule_r3", "rule_r4",
           "rule_r5", "RULES"]


# --------------------------------------------------------------------- #
# runtime ground truth
# --------------------------------------------------------------------- #
@dataclass
class RegistryView:
    """The imported registries the rules validate against: ``kernels``
    maps each name to its :class:`~repro.lab.params.Kernel` record."""

    kernels: Dict[str, Any] = field(default_factory=dict)
    trace_kernels: Dict[str, Any] = field(default_factory=dict)
    machines: Dict[str, Any] = field(default_factory=dict)
    policies: Tuple[str, ...] = ()
    scenarios: Dict[str, Callable[..., Any]] = field(default_factory=dict)

    @classmethod
    def load(cls, cfg: Any) -> "RegistryView":
        reg = importlib.import_module(cfg.registry_module)

        def table(attr: str) -> Dict[str, Any]:
            return dict(getattr(reg, attr, None) or {})

        scenarios: Dict[str, Callable[..., Any]] = {}
        if cfg.scenarios_module:
            scn = importlib.import_module(cfg.scenarios_module)
            scenarios = dict(getattr(scn, "SCENARIOS", None) or {})
        return cls(
            kernels=table("KERNELS"),
            trace_kernels=table("TRACE_KERNELS"),
            machines=table("MACHINES"),
            policies=tuple(getattr(reg, "POLICIES", None) or ()),
            scenarios=scenarios,
        )


# --------------------------------------------------------------------- #
# AST anchors
# --------------------------------------------------------------------- #
def _assign_node(module: Optional[ModuleInfo], name: str
                 ) -> Optional[ast.AST]:
    if module is None:
        return None
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if name in targets:
            return node
    return None


def _dict_entry_lines(module: Optional[ModuleInfo], name: str
                      ) -> Tuple[Dict[str, int], Tuple[str, int]]:
    """Per-key source lines of a top-level ``NAME = {...}`` table, plus
    the table's own ``(file, line)`` fallback anchor."""
    node = _assign_node(module, name)
    if module is None or node is None:
        return {}, ("<unknown>", 1)
    fallback = (str(module.path), node.lineno)
    lines: Dict[str, int] = {}
    value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) \
        else None
    if isinstance(value, ast.Dict):
        for key in value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                lines[key.value] = key.lineno
    return lines, fallback


def _anchor(lines: Dict[str, int], fallback: Tuple[str, int], key: str
            ) -> Tuple[str, int]:
    return (fallback[0], lines.get(key, fallback[1]))


def _walk_with_parents(root: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, node
            stack.append(child)


# --------------------------------------------------------------------- #
# R1 — machine-projection soundness
# --------------------------------------------------------------------- #
def _entry_roles(info: FunctionInfo) -> Dict[str, str]:
    roles: Dict[str, str] = {}
    for p in info.params():
        if p == "machine":
            roles[p] = "machine"
        elif p == "group":
            roles[p] = "group"
    return roles


def _kernel_entries(cfg: Any, index: ProjectIndex, reg: RegistryView,
                    name: str) -> List[Tuple[FunctionInfo, Dict[str, str]]]:
    entries: List[Tuple[FunctionInfo, Dict[str, str]]] = []
    seen: Set[Tuple[str, str]] = set()

    def add_info(info: Optional[FunctionInfo]) -> None:
        if info is None or info.key() in seen:
            return
        roles = _entry_roles(info)
        if roles:
            seen.add(info.key())
            entries.append((info, roles))

    def add(fn: Any) -> None:
        if callable(fn):
            add_info(index.locate_callable(fn))

    kernel = reg.kernels[name]
    add(kernel.run)
    tk = reg.trace_kernels.get(name)
    if tk is not None:
        for attr in ("payload", "capacity_words", "write_lb"):
            add(getattr(tk, attr, None))
        if cfg.trace_kernel_class:
            mod = index.modules.get(cfg.trace_kernel_class[0])
            if mod is not None:
                for meth in ("run", "record", "lines"):
                    add_info(mod.method(cfg.trace_kernel_class[1], meth))
    if kernel.batch is not None:
        add(kernel.batch.run)
        add(kernel.batch.group_key)
    return entries


def rule_r1(cfg: Any, index: ProjectIndex, reg: RegistryView
            ) -> List[Finding]:
    model = None
    if cfg.machine_class:
        model = MachineModel.from_class(index, *cfg.machine_class)
    walker = MachineReadWalker(index, model, cfg.r1_exempt)
    reg_mod = index.modules.get(cfg.registry_module)
    decl_lines, decl_fallback = _dict_entry_lines(reg_mod, "KERNELS")
    findings: List[Finding] = []
    for name in sorted(reg.kernels):
        declared = reg.kernels[name].machine_fields
        entries = _kernel_entries(cfg, index, reg, name)
        if not entries:
            continue
        reads: MachineReads = walker.collect(entries)
        declared_set = set(declared)
        for fname in sorted(reads.fields):
            if fname in declared_set:
                continue
            site = reads.fields[fname]
            findings.append(Finding(
                "R1", ERROR, site.file, site.line, kernel=name,
                message=(f"kernel {name!r} reads machine.{fname} but its "
                         f"machine_fields omit it — the projected "
                         f"cache key cannot see {fname!r} changing, so "
                         f"stale records would be served"),
            ))
        if reads.all_fields is not None:
            spec_fields = (model.fields - {"name"}) if model else set()
            missing = sorted(spec_fields - declared_set)
            if missing:
                site = reads.all_fields
                findings.append(Finding(
                    "R1", ERROR, site.file, site.line, kernel=name,
                    message=(f"kernel {name!r} reads the whole machine "
                             f"spec but its machine_fields omit {missing}"),
                ))
        else:
            unread = sorted(declared_set - set(reads.fields))
            if unread:
                file, line = _anchor(decl_lines, decl_fallback, name)
                findings.append(Finding(
                    "R1", WARNING, file, line, kernel=name,
                    message=(f"kernel {name!r} declares machine field(s) "
                             f"{unread} that its call graph never reads — "
                             f"cache entries split on irrelevant fields"),
                ))
    return findings


# --------------------------------------------------------------------- #
# R2 — registry references
# --------------------------------------------------------------------- #
def rule_r2(cfg: Any, index: ProjectIndex, reg: RegistryView
            ) -> List[Finding]:
    return [*_check_batch_toggles(cfg, index, reg),
            *_check_scenarios(cfg, index, reg)]


def _cli_flags(index: ProjectIndex, cli_module: Optional[str]
               ) -> Optional[Set[str]]:
    module = index.modules.get(cli_module) if cli_module else None
    if module is None:
        return None
    flags: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            for arg in node.args:
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str):
                    flags.add(arg.value)
    return flags


def _check_batch_toggles(cfg: Any, index: ProjectIndex, reg: RegistryView
                         ) -> List[Finding]:
    findings: List[Finding] = []
    reg_mod = index.modules.get(cfg.registry_module)
    lines, fallback = _dict_entry_lines(reg_mod, "KERNELS")
    flags = _cli_flags(index, cfg.cli_module)
    for name in sorted(reg.kernels):
        bk = reg.kernels[name].batch
        if bk is None:
            continue
        file, line = _anchor(lines, fallback, name)
        toggle = bk.toggle
        if not isinstance(toggle, str) or not toggle:
            findings.append(Finding(
                "R2", ERROR, file, line, kernel=name,
                message=f"batch kernel {name!r} has no gate toggle",
            ))
            continue
        if flags is not None:
            flag = "--no-" + toggle.replace("_", "-")
            if flag not in flags:
                findings.append(Finding(
                    "R2", ERROR, file, line, kernel=name,
                    message=(f"batch kernel {name!r} is gated by toggle "
                             f"{toggle!r}, but the CLI defines no "
                             f"{flag!r} flag"),
                ))
    return findings


def _check_scenarios(cfg: Any, index: ProjectIndex, reg: RegistryView
                     ) -> List[Finding]:
    findings: List[Finding] = []
    if not reg.scenarios:
        return findings
    scn_mod = index.modules.get(cfg.scenarios_module or "")
    lines, fallback = _dict_entry_lines(scn_mod, "SCENARIOS")
    for name in sorted(reg.scenarios):
        file, line = _anchor(lines, fallback, name)
        factory = reg.scenarios[name]
        try:
            scenario = factory(True)
            points = scenario.points()
        except Exception as exc:
            findings.append(Finding(
                "R2", ERROR, file, line,
                message=f"preset {name!r} failed to build: {exc}",
            ))
            continue
        bad_kernels = sorted({p.kernel for p in points
                              if p.kernel not in reg.kernels})
        for kernel in bad_kernels:
            findings.append(Finding(
                "R2", ERROR, file, line, kernel=kernel,
                message=(f"preset {name!r} references unregistered "
                         f"kernel {kernel!r}"),
            ))
        if reg.policies:
            bad_policies = sorted({
                p.machine.policy for p in points
                if getattr(p.machine, "policy", None) not in reg.policies})
            for policy in bad_policies:
                findings.append(Finding(
                    "R2", ERROR, file, line,
                    message=(f"preset {name!r} references unregistered "
                             f"replacement policy {policy!r}"),
                ))
    return findings


# --------------------------------------------------------------------- #
# R3 — determinism hazards in cache-key paths
# --------------------------------------------------------------------- #
_R3_PREFIXES = ("time.", "random.", "numpy.random.", "uuid.", "secrets.")
_R3_EXACT = frozenset({"id", "hash", "os.urandom", "globals", "vars"})


def _key_roots(cfg: Any, index: ProjectIndex, reg: RegistryView
               ) -> List[Tuple[FunctionInfo, str]]:
    roots: List[Tuple[FunctionInfo, str]] = []
    for mod_name, qualname in cfg.key_roots:
        info = index.get(mod_name, qualname)
        if info is not None:
            roots.append((info, qualname))
    for name in sorted(reg.kernels):
        bk = reg.kernels[name].batch
        info = None if bk is None else index.locate_callable(bk.group_key)
        if info is not None:
            roots.append((info, f"{name}.group_key"))
    for name in sorted(reg.trace_kernels):
        info = index.locate_callable(
            getattr(reg.trace_kernels[name], "payload", None))
        if info is not None:
            roots.append((info, f"{name}.payload"))
    return roots


def rule_r3(cfg: Any, index: ProjectIndex, reg: RegistryView
            ) -> List[Finding]:
    findings: List[Finding] = []
    visited: Set[Tuple[str, str]] = set()
    queue = [(info, root) for info, root in _key_roots(cfg, index, reg)]
    while queue:
        info, root = queue.pop()
        if info.key() in visited:
            continue
        visited.add(info.key())
        path = str(info.module.path)
        for node, parent in _walk_with_parents(info.node):
            if isinstance(node, ast.Call):
                ext = index.resolve_external(info.module, node.func)
                if ext is not None and (
                        ext in _R3_EXACT
                        or ext.startswith(_R3_PREFIXES)):
                    findings.append(Finding(
                        "R3", ERROR, path, node.lineno,
                        message=(f"call to {ext}() inside the cache-key "
                                 f"path of {root!r} — keys must be a "
                                 f"pure function of the point payload"),
                    ))
                callee = index.resolve_function(info.module, node.func,
                                                info)
                if callee is not None and callee.key() not in visited:
                    queue.append((callee, root))
            elif isinstance(node, (ast.Set, ast.SetComp)) \
                    and not _sorted_wrapped(parent):
                findings.append(Finding(
                    "R3", ERROR, path, node.lineno,
                    message=(f"unsorted set construction inside the "
                             f"cache-key path of {root!r} — iteration "
                             f"order would leak into serialization "
                             f"(wrap in sorted(...))"),
                ))
    return findings


def _sorted_wrapped(parent: ast.AST) -> bool:
    return (isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted")


# --------------------------------------------------------------------- #
# R4 — worker-boundary picklability
# --------------------------------------------------------------------- #
_POOL_METHODS = frozenset({
    "apply", "apply_async", "map", "map_async", "starmap",
    "starmap_async", "imap", "imap_unordered", "submit",
})


def rule_r4(cfg: Any, index: ProjectIndex, reg: RegistryView
            ) -> List[Finding]:
    findings: List[Finding] = []
    for module in index.modules.values():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            ext = index.resolve_external(module, node.func)
            if ext == "multiprocessing.Process" \
                    or (ext or "").startswith("multiprocessing.") \
                    and (ext or "").endswith(".Process"):
                target = None
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = kw.value
                if target is None and len(node.args) > 1:
                    target = node.args[1]
                if target is not None:
                    findings.extend(_check_dispatch(
                        module, target, "multiprocessing.Process target"))
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _POOL_METHODS and node.args:
                if isinstance(node.args[0], ast.Lambda):
                    findings.append(Finding(
                        "R4", ERROR, str(module.path),
                        node.args[0].lineno,
                        message=(f"lambda passed to .{node.func.attr}() — "
                                 f"functions crossing the worker boundary "
                                 f"must be module-level importables"),
                    ))
    return findings


def _check_dispatch(module: ModuleInfo, target: ast.expr, what: str
                    ) -> List[Finding]:
    if isinstance(target, ast.Lambda):
        return [Finding(
            "R4", ERROR, str(module.path), target.lineno,
            message=(f"{what} is a lambda — workers resolve dispatched "
                     f"functions by import, so the target must be a "
                     f"module-level def"),
        )]
    if isinstance(target, ast.Name):
        name = target.id
        if name in module.functions:
            return []   # module-level def: fine
        nested = [q for q in module.functions
                  if q.endswith(f".{name}") and "<lambda" not in q]
        if nested and name not in module.imports:
            return [Finding(
                "R4", ERROR, str(module.path), target.lineno,
                message=(f"{what} {name!r} resolves to a nested def "
                         f"({nested[0]}) — closures cannot cross the "
                         f"worker boundary; hoist it to module level"),
            )]
    return []


# --------------------------------------------------------------------- #
# R5 — telemetry vocabulary
# --------------------------------------------------------------------- #
def rule_r5(cfg: Any, index: ProjectIndex, reg: RegistryView
            ) -> List[Finding]:
    if not cfg.vocab_module:
        return []
    vocab = importlib.import_module(cfg.vocab_module)
    spans = frozenset(getattr(vocab, "SPANS", ()) or ())
    phases = frozenset(getattr(vocab, "PHASES", ()) or ())
    counters = frozenset(getattr(vocab, "COUNTERS", ()) or ())
    method_vocab: Mapping[str, Tuple[str, frozenset]] = {
        "span": ("span", spans),
        "emit_span": ("span", spans),
        "observe_span": ("span", spans),
        "counter": ("counter", counters),
        "phase": ("phase", phases),
    }
    phase_fns = set(cfg.phase_functions)
    exclude = set(cfg.r5_exclude_modules) | {cfg.vocab_module}
    findings: List[Finding] = []
    for module in index.modules.values():
        if module.name in exclude \
                or module.name.startswith("repro.lab.check"):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue   # dynamic names (per-kernel metrics) are exempt
            kind: Optional[Tuple[str, frozenset]] = None
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in method_vocab:
                kind = method_vocab[node.func.attr]
            elif isinstance(node.func, ast.Name):
                callee = index.resolve_function(module, node.func)
                if callee is not None and callee.key() in phase_fns:
                    kind = ("phase", phases)
            if kind is None:
                continue
            label, vocab_set = kind
            if first.value not in vocab_set:
                findings.append(Finding(
                    "R5", ERROR, str(module.path), first.lineno,
                    message=(f"{label} name {first.value!r} is not in the "
                             f"schema-v1 vocabulary "
                             f"({cfg.vocab_module}) — digests and trace "
                             f"diffs would silently miss it"),
                ))
    return findings


RULES: Dict[str, Callable[[Any, ProjectIndex, RegistryView],
                          List[Finding]]] = {
    "R1": rule_r1,
    "R2": rule_r2,
    "R3": rule_r3,
    "R4": rule_r4,
    "R5": rule_r5,
}
