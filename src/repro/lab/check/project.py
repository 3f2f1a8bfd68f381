"""AST project index for the static contract analyzer.

The analyzer is hybrid: registries (``KERNELS``, ``TRACE_KERNELS``,
``SCENARIOS``…) are imported and read as runtime ground truth, but every
rule *walks source*, so each callable must be locatable as an AST node.
This module parses every ``.py`` file under the configured roots —
pinned to ``feature_version`` :data:`FEATURE_VERSION`, the oldest
interpreter the package supports, so syntax only valid on a newer CI
runner cannot sneak past the analyzer — and indexes:

* every module by dotted name and by source path;
* every ``def``/``lambda`` by qualified name and by ``(file, line)``,
  which is how a runtime callable's ``__code__`` is mapped back to its
  AST node;
* per-module import tables, for resolving a call expression to either a
  project function (descend) or an external dotted name (hazard-match);
* inline ``# lab-check: ignore[RULE]`` suppressions per line.
"""

from __future__ import annotations

import ast
import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

__all__ = [
    "FEATURE_VERSION",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "parse_suppressions",
]

#: oldest supported interpreter (``requires-python = ">=3.10"``): the
#: grammar every source file must parse under, regardless of the
#: interpreter running the check.
FEATURE_VERSION: Tuple[int, int] = (3, 10)

_SUPPRESS_RE = re.compile(r"#\s*lab-check:\s*ignore\[([A-Za-z0-9_*,\s]+)\]")

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """``line -> {rule, ...}`` for every inline suppression comment."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",")
                           if r.strip()}
    return out


@dataclass
class FunctionInfo:
    """One ``def`` or ``lambda`` located in a project module."""

    module: "ModuleInfo"
    qualname: str
    node: FuncNode
    #: enclosing class name when this is a method, else ``None``.
    owner_class: Optional[str] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def line(self) -> int:
        return self.node.lineno

    def params(self) -> List[str]:
        """Positional parameter names (including ``self``) in order."""
        a = self.node.args
        return [p.arg for p in (*a.posonlyargs, *a.args)]

    def key(self) -> Tuple[str, str]:
        return (self.module.name, self.qualname)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: Path
    tree: ast.Module
    #: qualname -> info, for defs at any nesting depth (lambdas get
    #: synthetic ``<lambda@LINE:COL>`` leaf names).
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: local name -> absolute dotted target of an import.
    imports: Dict[str, str] = field(default_factory=dict)
    #: top-level ``NAME = other_callable`` aliases.
    aliases: Dict[str, str] = field(default_factory=dict)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: lineno -> functions starting there (``def`` line or first
    #: decorator line, matching CPython's ``co_firstlineno`` behaviour).
    by_line: Dict[int, List[FunctionInfo]] = field(default_factory=dict)

    def method(self, class_name: str, attr: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{class_name}.{attr}")


class _Indexer(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo):
        self.module = module
        self.stack: List[str] = []

    def _add(self, node: FuncNode, leaf: str) -> FunctionInfo:
        qualname = ".".join([*self.stack, leaf]) if self.stack else leaf
        owner = None
        if self.stack and self.stack[-1] in self.module.classes:
            owner = self.stack[-1]
        info = FunctionInfo(self.module, qualname, node, owner)
        self.module.functions[qualname] = info
        for line in {node.lineno, _first_lineno(node)}:
            self.module.by_line.setdefault(line, []).append(info)
        return info

    def _visit_def(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
                   ) -> None:
        self._add(node, node.name)
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._add(node, f"<lambda@{node.lineno}:{node.col_offset}>")
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.stack:
            self.module.classes[node.name] = node
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()


def _first_lineno(node: FuncNode) -> int:
    decorators = getattr(node, "decorator_list", None) or []
    return decorators[0].lineno if decorators else node.lineno


def _collect_imports(module: ModuleInfo) -> None:
    package_parts = module.name.split(".")
    if module.path.name == "__init__.py":
        package = package_parts
    else:
        package = package_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(
                    ".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package[:len(package) - (node.level - 1)] \
                    if node.level > 1 else package
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name


def _collect_aliases(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)):
            module.aliases[node.targets[0].id] = node.value.id


class ProjectIndex:
    """Every parsed module of the project, with call-resolution helpers.

    *roots* are **package directories** (e.g. ``src/repro``): each is
    scanned recursively and module names are derived relative to its
    parent, so ``src/repro/lab/cache.py`` indexes as
    ``repro.lab.cache``.
    """

    def __init__(self, roots: Sequence[Path]):
        self.roots = [Path(r).resolve() for r in roots]
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_file: Dict[str, ModuleInfo] = {}
        for root in self.roots:
            for path in sorted(root.rglob("*.py")):
                self._load(root, path)
        self._packages = {name.split(".")[0] for name in self.modules}

    def _load(self, root: Path, path: Path) -> None:
        rel = path.relative_to(root.parent)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path),
                         feature_version=FEATURE_VERSION)
        module = ModuleInfo(name=name, path=path, tree=tree,
                            suppressions=parse_suppressions(source))
        _Indexer(module).visit(tree)
        _collect_imports(module)
        _collect_aliases(module)
        self.modules[name] = module
        self._by_file[str(path.resolve())] = module

    # ------------------------------------------------------------------ #
    # runtime callable -> AST
    # ------------------------------------------------------------------ #
    def locate_callable(self, fn: Callable[..., Any]
                        ) -> Optional[FunctionInfo]:
        """Map a runtime callable back to its parsed node via
        ``__code__`` — works for lambdas and nested defs, which have no
        importable qualname."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        code = getattr(fn, "__code__", None)
        if code is None:
            return None
        module = self._by_file.get(str(Path(code.co_filename).resolve()))
        if module is None:
            return None
        candidates = module.by_line.get(code.co_firstlineno, [])
        if len(candidates) > 1:
            want = list(code.co_varnames[:code.co_argcount])
            named = [c for c in candidates if c.params() == want]
            if named:
                candidates = named
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------ #
    # call resolution
    # ------------------------------------------------------------------ #
    def resolve_function(self, module: ModuleInfo, expr: ast.expr,
                         within: Optional[FunctionInfo] = None
                         ) -> Optional[FunctionInfo]:
        """The project function *expr* calls, if statically resolvable."""
        if isinstance(expr, ast.Name):
            name = module.aliases.get(expr.id, expr.id)
            info = module.functions.get(name)
            if info is not None and "." not in info.qualname:
                return info
            target = module.imports.get(name)
            if target is not None:
                return self._resolve_dotted(target)
            return None
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if (isinstance(base, ast.Name) and base.id == "self"
                    and within is not None and within.owner_class):
                return module.method(within.owner_class, expr.attr)
            base_module = self._module_of(module, base)
            if base_module is not None:
                info = base_module.functions.get(expr.attr)
                if info is not None and "." not in info.qualname:
                    return info
        return None

    def _module_of(self, module: ModuleInfo, expr: ast.expr
                   ) -> Optional[ModuleInfo]:
        dotted = self._dotted_of(module, expr)
        return self.modules.get(dotted) if dotted else None

    def _dotted_of(self, module: ModuleInfo, expr: ast.expr
                   ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return module.imports.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._dotted_of(module, expr.value)
            return f"{base}.{expr.attr}" if base else None
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        if "." not in dotted:
            return None
        mod_name, attr = dotted.rsplit(".", 1)
        target = self.modules.get(mod_name)
        if target is None:
            return None
        info = target.functions.get(target.aliases.get(attr, attr))
        if info is not None and "." not in info.qualname:
            return info
        return None

    def resolve_external(self, module: ModuleInfo, expr: ast.expr
                         ) -> Optional[str]:
        """Dotted name of an *external* (non-project) call target:
        ``time.time``, ``os.urandom``, or a bare builtin like ``id``."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in module.functions or name in module.aliases:
                return None
            target = module.imports.get(name)
            if target is not None:
                head = target.split(".")[0]
                return None if head in self._packages else target
            if name in _BUILTINS:
                return name
            return None
        if isinstance(expr, ast.Attribute):
            base = self.resolve_external(module, expr.value)
            return f"{base}.{expr.attr}" if base else None
        return None

    def get(self, module_name: str, qualname: str
            ) -> Optional[FunctionInfo]:
        module = self.modules.get(module_name)
        if module is None:
            return None
        return module.functions.get(qualname)

    def module_for_path(self, path: Path) -> Optional[ModuleInfo]:
        return self._by_file.get(str(Path(path).resolve()))


_BUILTINS = frozenset(dir(__import__("builtins")))
