"""Machine-projection call-graph walker (rule R1).

Given a kernel's entry callables, walk their statically-resolvable call
graph tracking every value known to *be* the machine spec — the
parameter named ``machine``, reassignments, ``override``/``with_hw``
copies, ``(machine, params)`` pairs destructured out of a batch
``group`` or out of a sub-group a comprehension picks from it — and
collect each ``machine.<attr>`` read with its source location.  The
union of reads is then compared against the ``machine_fields`` of the
kernel's record: an undeclared read means the result cache can serve
stale records (the field changes, the projected key
does not), a declared-but-never-read field means cache entries split
for no reason.

Deliberate blind spots, documented so findings stay explainable:

* exception-handler bodies are skipped — a raising point produces no
  record, so its reads cannot leak into one;
* calls that cannot be resolved statically (callables fetched from
  dicts, protocol fields like ``tk.payload``) are skipped — the rule
  driver seeds the concrete callables a kernel's record and trace
  protocol name (body, batch entry, payload) as entries instead;
* the projection function itself (``project_machine``) is exempt: it
  reads the full spec *by design* in order to build the projection.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.lab.check.project import FunctionInfo, ProjectIndex

__all__ = ["MachineReads", "MachineModel", "MachineReadWalker", "ReadSite"]

#: tracked-value roles.
_MACHINE = "machine"
_GROUP = "group"      # a sequence of (machine, params) pairs
_PAIR = "pair"        # one (machine, params) tuple


@dataclass(frozen=True)
class ReadSite:
    """Where a field read was observed."""

    file: str
    line: int


@dataclass
class MachineReads:
    """Accumulated reads for one kernel."""

    fields: Dict[str, ReadSite] = field(default_factory=dict)
    #: set when the walk hits ``self.__dict__`` / ``as_dict``-style
    #: whole-spec access.
    all_fields: Optional[ReadSite] = None

    def add(self, name: str, site: ReadSite) -> None:
        self.fields.setdefault(name, site)


@dataclass
class MachineModel:
    """Static model of the machine-spec class, derived from its AST."""

    fields: Set[str]
    methods: Dict[str, FunctionInfo]
    #: methods returning a (new) tracked spec.
    copy_methods: Set[str]

    @classmethod
    def from_class(cls, index: ProjectIndex, module_name: str,
                   class_name: str) -> Optional["MachineModel"]:
        module = index.modules.get(module_name)
        if module is None or class_name not in module.classes:
            return None
        node = module.classes[class_name]
        fields: Set[str] = set()
        methods: Dict[str, FunctionInfo] = {}
        for stmt in node.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                fields.add(stmt.target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = module.method(class_name, stmt.name)
                if info is not None:
                    methods[stmt.name] = info
        copy_methods = {
            name for name, info in methods.items()
            if _returns_spec_copy(info.node, class_name)
        }
        return cls(fields=fields, methods=methods, copy_methods=copy_methods)


def _returns_spec_copy(node: ast.AST, class_name: str) -> bool:
    """Heuristic: the method's annotated return type is the spec class
    itself (``override``/``with_hw``-style copy constructors)."""
    returns = getattr(node, "returns", None)
    if isinstance(returns, ast.Constant) and isinstance(returns.value, str):
        return returns.value.strip("'\"") == class_name
    if isinstance(returns, ast.Name):
        return returns.id == class_name
    return False


class MachineReadWalker:
    """Collects machine-field reads over an entry set's call graph."""

    def __init__(self, index: ProjectIndex,
                 model: Optional[MachineModel],
                 exempt: Sequence[Tuple[str, str]] = ()):
        self.index = index
        self.model = model
        self.exempt = set(exempt)
        self._max_depth = 40

    def collect(self, entries: Sequence[Tuple[FunctionInfo, Dict[str, str]]]
                ) -> MachineReads:
        """*entries* are ``(function, {param_name: role})`` seeds."""
        out = MachineReads()
        visited: Set[Tuple[str, str, Tuple[Tuple[str, str], ...]]] = set()
        for info, roles in entries:
            self._walk(info, roles, out, visited, depth=0)
        return out

    def _walk(self, info: FunctionInfo, roles: Dict[str, str],
              out: MachineReads,
              visited: Set[Tuple[str, str, Tuple[Tuple[str, str], ...]]],
              depth: int) -> None:
        if depth > self._max_depth or not roles:
            return
        key = (*info.key(), tuple(sorted(roles.items())))
        if key in visited:
            return
        visited.add(key)
        visitor = _FnVisitor(self, info, dict(roles), out, visited, depth)
        body = info.node.body
        if isinstance(body, ast.expr):     # lambda
            visitor.visit(body)
        else:
            for stmt in body:
                visitor.visit(stmt)


class _FnVisitor(ast.NodeVisitor):
    def __init__(self, walker: MachineReadWalker, info: FunctionInfo,
                 env: Dict[str, str], out: MachineReads,
                 visited: Set[Tuple[str, str, Tuple[Tuple[str, str], ...]]],
                 depth: int):
        self.walker = walker
        self.info = info
        self.env = env
        self.out = out
        self.visited = visited
        self.depth = depth

    # ------------------------------------------------------------------ #
    # role bookkeeping
    # ------------------------------------------------------------------ #
    def _role(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Subscript):
            base = self._role(expr.value)
            if base == _GROUP:
                return _PAIR
            if base == _PAIR and _is_const(expr.slice, 0):
                return _MACHINE
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if (isinstance(func, ast.Attribute)
                    and self._role(func.value) == _MACHINE
                    and self.walker.model is not None
                    and func.attr in self.walker.model.copy_methods):
                return _MACHINE
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            # A sub-group (``[group[i] for i in idx]``): its element is
            # a pair under the comprehension's own bindings.
            saved = dict(self.env)
            for comp in expr.generators:
                self._bind_iter(comp.target, comp.iter)
            elt = self._role(expr.elt)
            self.env.clear()
            self.env.update(saved)
            return _GROUP if elt == _PAIR else None
        return None

    def _site(self, node: ast.AST) -> ReadSite:
        return ReadSite(str(self.info.module.path),
                        getattr(node, "lineno", self.info.line))

    def _bind(self, target: ast.expr, role: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if role is not None:
                self.env[target.id] = role
            else:
                self.env.pop(target.id, None)

    def _destructure(self, target: ast.expr, role: Optional[str]) -> None:
        """Bind a (machine, params) pair being unpacked."""
        if role == _PAIR and isinstance(target, (ast.Tuple, ast.List)) \
                and target.elts:
            self._bind(target.elts[0], _MACHINE)
            for extra in target.elts[1:]:
                self._bind(extra, None)
        else:
            self._bind(target, role)
            if isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    self._bind(elt, None)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def visit_Assign(self, node: ast.Assign) -> None:
        role = self._role(node.value)
        for target in node.targets:
            self._destructure(target, role)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._destructure(node.target, self._role(node.value))
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._bind(node.target, None)
        self.visit(node.value)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        return None   # error paths produce no record

    def _bind_iter(self, target: ast.expr, iterable: ast.expr) -> None:
        role = self._role(iterable)
        if role == _GROUP:
            if isinstance(target, (ast.Tuple, ast.List)) and target.elts:
                self._bind(target.elts[0], _MACHINE)
            else:
                self._bind(target, _PAIR)
            return
        if isinstance(iterable, ast.Call) \
                and isinstance(iterable.func, ast.Name) \
                and iterable.func.id in ("zip", "enumerate") \
                and isinstance(target, (ast.Tuple, ast.List)):
            args = iterable.args
            if iterable.func.id == "enumerate" and len(target.elts) == 2:
                if args and self._role(args[0]) == _GROUP:
                    self._destructure(target.elts[1], _PAIR)
                return
            for arg, elt in zip(args, target.elts):
                if self._role(arg) == _GROUP:
                    self._destructure(elt, _PAIR)
            return
        self._destructure(target, None)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._bind_iter(node.target, node.iter)
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def _visit_comp(self, node: ast.AST) -> None:
        for comp in node.generators:          # type: ignore[attr-defined]
            self.visit(comp.iter)
            self._bind_iter(comp.target, comp.iter)
            for cond in comp.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)              # type: ignore[attr-defined]

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    # ------------------------------------------------------------------ #
    # reads and call-graph descent
    # ------------------------------------------------------------------ #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._role(node.value) == _MACHINE \
                and isinstance(node.ctx, ast.Load):
            model = self.walker.model
            if node.attr == "__dict__":
                if self.out.all_fields is None:
                    self.out.all_fields = self._site(node)
            elif model is not None and node.attr in model.methods:
                pass   # method reference; descent happens at the call
            else:
                self.out.add(node.attr, self._site(node))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        model = self.walker.model
        if (isinstance(func, ast.Attribute)
                and self._role(func.value) == _MACHINE
                and model is not None and func.attr in model.methods):
            self.walker._walk(model.methods[func.attr],
                              {"self": _MACHINE}, self.out,
                              self.visited, self.depth + 1)
        else:
            callee = self.walker.index.resolve_function(
                self.info.module, func, self.info)
            if callee is not None \
                    and callee.key() not in self.walker.exempt:
                roles = self._arg_roles(callee, node)
                if roles:
                    self.walker._walk(callee, roles, self.out,
                                      self.visited, self.depth + 1)
        self.generic_visit(node)

    def _arg_roles(self, callee: FunctionInfo, node: ast.Call
                   ) -> Dict[str, str]:
        params = callee.params()
        offset = 1 if params and params[0] == "self" else 0
        roles: Dict[str, str] = {}
        for i, arg in enumerate(node.args):
            role = self._role(arg)
            if role is not None and i + offset < len(params):
                roles[params[i + offset]] = role
        for kw in node.keywords:
            if kw.arg is not None:
                role = self._role(kw.value)
                if role is not None and kw.arg in params:
                    roles[kw.arg] = role
        return roles


def _is_const(expr: ast.expr, value: object) -> bool:
    return isinstance(expr, ast.Constant) and expr.value == value
