"""May-modify effect analysis over the Python AST of phase functions.

The analysis answers one question: *given a phase of the program, which
positions of a checkpointed structure may be marked modified before the
next checkpoint?* The answer is a sound over-approximation of the dynamic
behaviour, so a :class:`~repro.spec.modpattern.ModificationPattern` built
from it can be compiled **without run-time guards**.

Abstract domain
---------------

A value is abstracted as the set of shape positions it may alias:

- ``objs`` — the object may be the checkpointable at any of these paths;
- ``lists`` — the value may be the tracked list behind ``(path, field)``;
- ``infos`` — the value may be the ``CheckpointInfo`` of these paths.

The empty abstraction means "no shape alias" (plain ints, strings, helper
objects); writes through it are irrelevant to checkpointing.

Transfer functions mirror the framework's flagging semantics exactly: an
attribute assignment through a field descriptor flags the *owner*, and a
mutating call on a :class:`~repro.core.fields.TrackedList` flags the list's
owner. The analysis is flow-insensitive within a function — statements are
re-interpreted, alias sets only ever grow, until a fixpoint — which soundly
covers loops such as the linked-list walk ``node = node.next``.

Interprocedural propagation follows the *cross-module call graph*: a call
to a name that resolves (through the phase function's globals) to a pure
Python function with available source is analysed with the abstract
arguments bound to its parameters, and methods invoked on checkpointable
objects are resolved through the receiver's class and analysed the same
way. Function sources are loaded through the process-wide code-hash-keyed
:data:`~repro.spec.effects.callgraph.SOURCE_CACHE`, and each (callee,
argument-signature) pair is summarised once in a
:class:`~repro.spec.effects.callgraph.SummaryCache` — subsequent calls
replay the summary's effects instead of re-walking the body. Any call
that cannot be resolved, or that passes a shape alias to unknown code,
triggers the conservative fallback: every position in the escaping
subtree is assumed modifiable, and the report notes the loss of
precision.
"""

from __future__ import annotations

import ast
import builtins
import types
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.errors import EffectAnalysisError
from repro.core.info import HEADER_SLOTS
from repro.spec.effects.callgraph import (
    CallGraph,
    CallSummary,
    SummaryCache,
    load_function_ast,
)
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Path, Shape, ShapeNode

#: builtins that neither mutate nor retain their arguments
_PURE_BUILTINS = frozenset(
    {
        "len", "range", "print", "min", "max", "sum", "abs", "isinstance",
        "issubclass", "repr", "str", "int", "float", "bool", "id", "hash",
        "format", "ord", "chr", "round", "divmod", "callable", "type",
        "any", "all",
    }
)

#: builtins that return (an iterator over) their arguments unchanged
_ALIAS_BUILTINS = frozenset(
    {"list", "tuple", "sorted", "reversed", "iter", "next", "enumerate",
     "set", "frozenset", "zip", "filter"}
)

#: the mutating subset of the TrackedList API (flags the list's owner)
_LIST_MUTATORS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort",
     "replace", "__setitem__", "__delitem__"}
)

#: Checkpointable methods known not to modify checkpointed state
_PURE_OBJ_METHODS = frozenset({"get_checkpoint_info", "children"})

#: CheckpointInfo methods that set the modification flag
_INFO_SETTERS = frozenset({"set_modified"})

_MAX_CALL_DEPTH = 12


class Abs:
    """Abstract value: the shape positions a runtime value may alias."""

    __slots__ = ("objs", "lists", "infos")

    def __init__(
        self,
        objs: FrozenSet[Path] = frozenset(),
        lists: FrozenSet[Tuple[Path, str]] = frozenset(),
        infos: FrozenSet[Path] = frozenset(),
    ) -> None:
        self.objs = objs
        self.lists = lists
        self.infos = infos

    def join(self, other: "Abs") -> "Abs":
        if other is EMPTY:
            return self
        if self is EMPTY:
            return other
        return Abs(
            self.objs | other.objs,
            self.lists | other.lists,
            self.infos | other.infos,
        )

    def is_empty(self) -> bool:
        return not (self.objs or self.lists or self.infos)

    def signature(self) -> Tuple:
        """Hashable summary used for memoization and fixpoint detection."""
        return (
            frozenset(self.objs),
            frozenset(self.lists),
            frozenset(self.infos),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Abs(objs={sorted(self.objs, key=repr)!r}, "
            f"lists={sorted(self.lists, key=repr)!r})"
        )


EMPTY = Abs()


def _join_all(values: Iterable[Abs]) -> Abs:
    result = EMPTY
    for value in values:
        result = result.join(value)
    return result


class WriteSite:
    """Provenance of one inferred may-write: where and why."""

    __slots__ = ("path", "filename", "lineno", "reason")

    def __init__(self, path: Optional[Path], filename: str, lineno: int, reason: str) -> None:
        self.path = path
        self.filename = filename
        self.lineno = lineno
        self.reason = reason

    def location(self) -> str:
        return f"{self.filename}:{self.lineno}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteSite({self.path!r} @ {self.location()}: {self.reason})"


class EffectReport:
    """Result of the analysis: may-written positions plus provenance."""

    def __init__(self, shape: Shape, phase_names: List[str]) -> None:
        self.shape = shape
        self.phase_names = phase_names
        #: path -> evidence sites (first site is the earliest discovered)
        self.sites: Dict[Path, List[WriteSite]] = {}
        #: conservative widenings caused by opaque calls
        self.fallbacks: List[WriteSite] = []
        #: suspicious constructs worth surfacing (flag writes, slot writes,
        #: structural child_list mutations) — not themselves unsound
        self.cautions: List[WriteSite] = []

    # -- recording (used by the analyzer) ----------------------------------

    def add(self, path: Path, site: WriteSite) -> bool:
        """Record a may-write; returns True when the site is new."""
        existing = self.sites.setdefault(path, [])
        for seen in existing:
            if seen.filename == site.filename and seen.lineno == site.lineno:
                return False
        existing.append(site)
        return True

    # -- queries -----------------------------------------------------------

    @property
    def may_write(self) -> FrozenSet[Path]:
        """The inferred over-approximation of modifiable positions."""
        return frozenset(self.sites)

    def is_exact(self) -> bool:
        """True when no opaque-call fallback widened the result."""
        return not self.fallbacks

    def proves_quiescent(self, path: Path) -> bool:
        """True when the analysis proves the position is never written."""
        return tuple(path) not in self.sites

    def pattern(self) -> ModificationPattern:
        """The (sound) modification pattern implied by the inferred effects."""
        return ModificationPattern.only(self.shape, self.may_write)

    def evidence(self, path: Path) -> List[WriteSite]:
        return list(self.sites.get(tuple(path), ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EffectReport({len(self.sites)}/{self.shape.node_count()} "
            f"positions may be written, exact={self.is_exact()})"
        )


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class _Frame:
    """Per-function analysis context."""

    __slots__ = ("env", "filename", "globals", "localfuncs", "ret", "depth",
                 "label")

    def __init__(
        self,
        env: Dict[str, Abs],
        filename: str,
        globs: dict,
        depth: int,
        label: str = "<anonymous>",
    ) -> None:
        self.env = env
        self.filename = filename
        self.globals = globs
        self.localfuncs: Dict[str, ast.FunctionDef] = {}
        self.ret = EMPTY
        self.depth = depth
        #: dotted display name of the analysed function (call-graph node)
        self.label = label

    def bind(self, name: str, value: Abs) -> None:
        old = self.env.get(name, EMPTY)
        self.env[name] = old.join(value)


def _label_of(fn: Callable) -> str:
    module = getattr(fn, "__module__", None) or "<unknown>"
    qualname = getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", repr(fn)
    )
    return f"{module}.{qualname}"


class EffectAnalyzer:
    """Analyses phase functions against one shape.

    ``summaries`` optionally shares a
    :class:`~repro.spec.effects.callgraph.SummaryCache` across analyzers
    (it must be bound to the same shape); ``callgraph`` optionally
    collects the call edges the run discovers.
    """

    def __init__(
        self,
        shape: Shape,
        roots: Optional[Iterable[str]] = None,
        summaries: Optional[SummaryCache] = None,
        callgraph: Optional[CallGraph] = None,
    ) -> None:
        self.shape = shape
        self.roots = frozenset(roots or ())
        self.report: EffectReport = EffectReport(shape, [])
        if summaries is not None and summaries.shape is not shape:
            raise EffectAnalysisError(
                "the summary cache is bound to a different shape: its "
                "recorded paths would be unsound here"
            )
        self.summaries = summaries if summaries is not None else SummaryCache(shape)
        self.callgraph = callgraph
        self._in_progress: set = set()

    # -- entry points ------------------------------------------------------

    def analyze(self, phases: Iterable[Callable]) -> EffectReport:
        phases = list(phases)
        self.report = EffectReport(
            self.shape, [getattr(fn, "__name__", repr(fn)) for fn in phases]
        )
        for fn in phases:
            self._analyze_phase(fn)
        return self.report

    def _analyze_phase(self, fn: Callable) -> None:
        loaded = self._function_ast(fn)
        if loaded is None:
            raise EffectAnalysisError(
                f"cannot analyse phase {fn!r}: source is unavailable"
            )
        fdef, filename, globs = loaded
        env = self._bind_parameters(fn, fdef)
        label = _label_of(fn)
        if self.callgraph is not None:
            self.callgraph.add_root(label)
        frame = _Frame(env, filename, globs, depth=0, label=label)
        self._run_body(fdef.body, frame)

    # -- source loading ----------------------------------------------------

    def _function_ast(
        self, fn: Callable
    ) -> Optional[Tuple[ast.FunctionDef, str, dict]]:
        if not isinstance(fn, types.FunctionType):
            return None
        loaded = load_function_ast(fn)
        if loaded is None:
            return None
        fdef, filename = loaded
        return (fdef, filename, fn.__globals__)

    def _bind_parameters(self, fn: Callable, fdef: ast.FunctionDef) -> Dict[str, Abs]:
        """Bind the phase's root parameter(s) to the shape root."""
        root_abs = Abs(objs=frozenset({()}))
        env: Dict[str, Abs] = {}
        params = [a.arg for a in fdef.args.args]
        annotations = getattr(fn, "__annotations__", {})
        root_cls = self.shape.root.cls
        bound = False
        for name in params:
            if name in self.roots:
                env[name] = root_abs
                bound = True
                continue
            annotation = annotations.get(name)
            matches = annotation is root_cls or (
                isinstance(annotation, str) and annotation == root_cls.__name__
            )
            if matches:
                env[name] = root_abs
                bound = True
        if not bound:
            if "root" in params:
                env["root"] = root_abs
            elif len(params) == 1:
                env[params[0]] = root_abs
            else:
                raise EffectAnalysisError(
                    f"cannot bind the shape root ({root_cls.__name__}) to a "
                    f"parameter of {fn.__qualname__}; annotate the root "
                    "parameter with the root class or pass roots=[name]"
                )
        return env

    # -- fixpoint driver ---------------------------------------------------

    def _run_body(self, body: List[ast.stmt], frame: _Frame) -> Abs:
        limit = self.shape.node_count() + 3
        for _ in range(limit):
            snapshot = self._state_signature(frame)
            for stmt in body:
                self._stmt(stmt, frame)
            if self._state_signature(frame) == snapshot:
                break
        return frame.ret

    def _state_signature(self, frame: _Frame) -> Tuple:
        env_sig = tuple(
            sorted((name, value.signature()) for name, value in frame.env.items())
        )
        report_sig = (
            sum(len(sites) for sites in self.report.sites.values()),
            len(self.report.fallbacks),
            len(self.report.cautions),
        )
        return (env_sig, frame.ret.signature(), report_sig)

    # -- shape helpers -----------------------------------------------------

    def _node(self, path: Path) -> ShapeNode:
        return self.shape.node_at(path)

    def _field_by_name(self, node: ShapeNode, name: str):
        for spec in node.cls._ckpt_schema:
            if spec.name == name:
                return spec
        return None

    def _attr_value(self, base: Abs, attr: str) -> Abs:
        """Abstract result of reading ``base.attr``."""
        objs: set = set()
        lists: set = set()
        infos: set = set()
        for path in base.objs:
            node = self._node(path)
            if attr == "_ckpt_info":
                infos.add(path)
                continue
            name = attr[3:] if attr.startswith("_f_") else attr
            spec = self._field_by_name(node, name)
            if spec is None:
                continue
            if spec.role == "child":
                child = node.child_node(spec.name)
                if child is not None:
                    objs.add(child.path)
            elif spec.role in ("child_list", "scalar_list"):
                lists.add((path, spec.name))
            # scalar reads carry no alias
        for path, field in base.lists:
            if attr == "_items":
                objs.update(self._list_members(path, field))
        if not (objs or lists or infos):
            return EMPTY
        return Abs(frozenset(objs), frozenset(lists), frozenset(infos))

    def _list_members(self, path: Path, field: str) -> FrozenSet[Path]:
        node = self._node(path)
        spec = self._field_by_name(node, field)
        if spec is not None and spec.role == "child_list":
            return frozenset(n.path for n in node.list_nodes(field))
        return frozenset()

    def _elements(self, value: Abs) -> Abs:
        """Abstract elements obtained by iterating/indexing ``value``."""
        objs = set(value.objs)  # container literals keep members in .objs
        for path, field in value.lists:
            objs.update(self._list_members(path, field))
        if not objs:
            return EMPTY
        return Abs(objs=frozenset(objs))

    def _subtree_paths(self, prefix: Path) -> List[Path]:
        return [p for p in self.shape.paths() if p[: len(prefix)] == prefix]

    # -- effect recording --------------------------------------------------

    def _site(self, node: ast.AST, frame: _Frame, reason: str, path: Optional[Path] = None) -> WriteSite:
        return WriteSite(path, frame.filename, getattr(node, "lineno", 0), reason)

    def _effect(self, path: Path, node: ast.AST, frame: _Frame, reason: str) -> None:
        self.report.add(path, self._site(node, frame, reason, path))

    def _taint(self, value: Abs, node: ast.AST, frame: _Frame, reason: str) -> None:
        """Conservative fallback: every reachable position may be written."""
        prefixes: set = set(value.objs)
        prefixes.update(path for path, _field in value.lists)
        prefixes.update(value.infos)
        if not prefixes:
            return
        site = self._site(node, frame, reason)
        if not any(
            f.filename == site.filename and f.lineno == site.lineno
            for f in self.report.fallbacks
        ):
            self.report.fallbacks.append(site)
        for prefix in prefixes:
            for path in self._subtree_paths(prefix):
                self._effect(path, node, frame, f"escapes to opaque code: {reason}")

    def _edge(
        self,
        frame: _Frame,
        callee: str,
        node: ast.AST,
        resolved: bool,
        reason: str = "",
    ) -> None:
        """Record one call edge in the attached call graph (if any)."""
        if self.callgraph is not None:
            self.callgraph.record(
                frame.label, callee, frame.filename,
                getattr(node, "lineno", 0), resolved, reason,
            )

    def _caution(self, node: ast.AST, frame: _Frame, reason: str) -> None:
        site = self._site(node, frame, reason)
        if not any(
            c.filename == site.filename and c.lineno == site.lineno
            and c.reason == reason
            for c in self.report.cautions
        ):
            self.report.cautions.append(site)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt, frame: _Frame) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            frame.localfuncs[node.name] = node
            return
        if isinstance(node, ast.ClassDef):
            return  # class bodies do not run against the live structure
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Pass, ast.Break, ast.Continue)):
            return
        if isinstance(node, ast.Assign):
            value = self._eval(node.value, frame)
            for target in node.targets:
                self._assign_target(target, value, frame)
            return
        if isinstance(node, ast.AnnAssign):
            value = self._eval(node.value, frame) if node.value else EMPTY
            self._assign_target(node.target, value, frame)
            return
        if isinstance(node, ast.AugAssign):
            value = self._eval(node.value, frame)
            # the target is read and re-written
            self._eval_target_read(node.target, frame)
            self._assign_target(node.target, value, frame)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._assign_target(target, EMPTY, frame)
            return
        if isinstance(node, ast.Expr):
            self._eval(node.value, frame)
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                frame.ret = frame.ret.join(self._eval(node.value, frame))
            return
        if isinstance(node, ast.If):
            self._eval(node.test, frame)
            self._run_stmts(node.body, frame)
            self._run_stmts(node.orelse, frame)
            return
        if isinstance(node, ast.While):
            self._eval(node.test, frame)
            self._run_stmts(node.body, frame)
            self._run_stmts(node.orelse, frame)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterable = self._eval(node.iter, frame)
            self._assign_target(node.target, self._elements(iterable), frame)
            self._run_stmts(node.body, frame)
            self._run_stmts(node.orelse, frame)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr, frame)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, value, frame)
            self._run_stmts(node.body, frame)
            return
        if isinstance(node, ast.Try):
            self._run_stmts(node.body, frame)
            for handler in node.handlers:
                self._run_stmts(handler.body, frame)
            self._run_stmts(node.orelse, frame)
            self._run_stmts(node.finalbody, frame)
            return
        if isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, frame)
            return
        # Unknown statement kinds (e.g. Match): walk children conservatively.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child, frame)
            elif isinstance(child, ast.expr):
                self._eval(child, frame)

    def _run_stmts(self, body: List[ast.stmt], frame: _Frame) -> None:
        for stmt in body:
            self._stmt(stmt, frame)

    def _eval_target_read(self, target: ast.expr, frame: _Frame) -> None:
        """AugAssign reads its target before writing it."""
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target, frame)

    # -- write targets -----------------------------------------------------

    def _assign_target(self, target: ast.expr, value: Abs, frame: _Frame) -> None:
        if isinstance(target, ast.Name):
            frame.bind(target.id, value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            element = self._elements(value).join(value)
            for item in target.elts:
                self._assign_target(item, element, frame)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, value, frame)
            return
        if isinstance(target, ast.Attribute):
            self._attribute_write(target, value, frame)
            return
        if isinstance(target, ast.Subscript):
            base = self._eval(target.value, frame)
            if isinstance(target.slice, ast.expr):
                self._eval(target.slice, frame)
            for path, field in base.lists:
                self._effect(
                    path, target, frame,
                    f"item assignment on tracked list field {field!r}",
                )
            return
        # exotic targets: evaluate for completeness
        self._eval(target, frame)

    def _attribute_write(self, target: ast.Attribute, value: Abs, frame: _Frame) -> None:
        base = self._eval(target.value, frame)
        attr = target.attr
        for path in base.objs:
            node = self._node(path)
            if attr == "_ckpt_info":
                self._caution(
                    target, frame,
                    "replacing _ckpt_info defeats modification tracking",
                )
                self._effect(path, target, frame, "assignment to _ckpt_info")
                continue
            if attr in HEADER_SLOTS:
                self._caution(
                    target, frame,
                    f"direct write to header slot {attr!r} bypasses the "
                    "write barrier",
                )
                self._effect(path, target, frame, f"assignment to {attr}")
                continue
            name = attr[3:] if attr.startswith("_f_") else attr
            spec = self._field_by_name(node, name)
            if spec is None:
                continue  # non-schema attribute: not checkpointed state
            if attr.startswith("_f_"):
                self._caution(
                    target, frame,
                    f"write to slot {attr!r} bypasses the field descriptor "
                    "(no modification flag is set)",
                )
            self._effect(
                path, target, frame, f"assignment to field .{spec.name}"
            )
            if spec.role in ("child", "child_list") and not attr.startswith("_f_"):
                self._caution(
                    target, frame,
                    f"reassigning {spec.role} field .{spec.name} changes the "
                    "structure the Shape was derived from",
                )
        for path, field in base.lists:
            if attr == "_items":
                self._caution(
                    target, frame,
                    "write to TrackedList._items bypasses modification tracking",
                )
                self._effect(path, target, frame, f"raw write to {field!r}._items")
        for path in base.infos:
            if attr == "modified":
                self._caution(
                    target, frame,
                    "direct write to CheckpointInfo.modified",
                )
                self._effect(path, target, frame, "direct modified-flag write")

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr, frame: _Frame) -> Abs:
        if isinstance(node, ast.Name):
            return frame.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Attribute):
            return self._attr_value(self._eval(node.value, frame), node.attr)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, frame)
            index: Optional[int] = None
            if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, int):
                index = node.slice.value
            elif isinstance(node.slice, ast.expr):
                self._eval(node.slice, frame)
            objs: set = set(base.objs)  # container-literal members
            for path, field in base.lists:
                members = sorted(self._list_members(path, field))
                if index is not None and 0 <= index < len(members):
                    objs.add(members[index])
                else:
                    objs.update(members)
            return Abs(objs=frozenset(objs)) if objs else EMPTY
        if isinstance(node, ast.Call):
            return self._call(node, frame)
        if isinstance(node, ast.BoolOp):
            return _join_all(self._eval(v, frame) for v in node.values)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, frame)
            return self._eval(node.body, frame).join(self._eval(node.orelse, frame))
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, frame)
            self._assign_target(node.target, value, frame)
            return value
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _join_all(self._eval(e, frame) for e in node.elts)
        if isinstance(node, ast.Dict):
            return _join_all(
                self._eval(v, frame) for v in node.values if v is not None
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, frame)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for comp in node.generators:
                iterable = self._eval(comp.iter, frame)
                self._assign_target(comp.target, self._elements(iterable), frame)
                for test in comp.ifs:
                    self._eval(test, frame)
            return self._eval(node.elt, frame)
        if isinstance(node, ast.DictComp):
            for comp in node.generators:
                iterable = self._eval(comp.iter, frame)
                self._assign_target(comp.target, self._elements(iterable), frame)
                for test in comp.ifs:
                    self._eval(test, frame)
            self._eval(node.key, frame)
            return self._eval(node.value, frame)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, frame)
        if isinstance(node, ast.Yield):
            return self._eval(node.value, frame) if node.value else EMPTY
        if isinstance(node, ast.Lambda):
            return EMPTY  # opaque if ever called through a variable
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare,
                             ast.JoinedStr, ast.FormattedValue, ast.Slice)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, frame)
            return EMPTY
        # Unknown expression: evaluate children, assume no alias.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child, frame)
        return EMPTY

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call, frame: _Frame) -> Abs:
        arg_abs = [self._eval(a, frame) for a in node.args]
        kw_abs = {
            kw.arg: self._eval(kw.value, frame) for kw in node.keywords
        }
        func = node.func

        if isinstance(func, ast.Attribute):
            return self._method_call(func, arg_abs, kw_abs, node, frame)

        if isinstance(func, ast.Name):
            name = func.id
            if name in frame.localfuncs:
                return self._call_ast(
                    frame.localfuncs[name], arg_abs, kw_abs, node, frame,
                    frame.filename, frame.globals, dict(frame.env),
                    label=f"{frame.label}.<locals>.{name}",
                )
            target = frame.globals.get(name, _MISSING)
            if target is _MISSING:
                target = getattr(builtins, name, _MISSING)
            if target is _MISSING:
                self._edge(frame, name, node, resolved=False,
                           reason="unresolved name")
                self._taint_args(arg_abs, kw_abs, node, frame,
                                 f"call to unresolved name {name!r}")
                return EMPTY
            if isinstance(target, types.FunctionType):
                return self._call_function(target, arg_abs, kw_abs, node, frame)
            if isinstance(target, type):
                return self._constructor_call(target, arg_abs, kw_abs, node, frame)
            if name in _PURE_BUILTINS:
                return EMPTY
            if name in _ALIAS_BUILTINS:
                return _join_all(arg_abs + list(kw_abs.values()))
            self._edge(frame, name, node, resolved=False,
                       reason="opaque callable")
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"call to opaque callable {name!r}")
            return EMPTY

        # calling an arbitrary expression (lambda var, function table, ...)
        self._eval(func, frame)
        self._edge(frame, "<expression>", node, resolved=False,
                   reason="call through a non-name expression")
        self._taint_args(arg_abs, kw_abs, node, frame,
                         "call through a non-name expression")
        return EMPTY

    def _method_call(
        self,
        func: ast.Attribute,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
    ) -> Abs:
        base = self._eval(func.value, frame)
        method = func.attr
        result = EMPTY
        handled = False

        for path, field in base.lists:
            handled = True
            spec = self._field_by_name(self._node(path), field)
            if method in _LIST_MUTATORS:
                self._effect(
                    path, node, frame,
                    f".{method}() on tracked list field {field!r}",
                )
                if spec is not None and spec.role == "child_list":
                    self._caution(
                        node, frame,
                        f".{method}() on child_list {field!r} changes the "
                        "structure the Shape was derived from",
                    )
            # pop() and friends may hand a member back to the caller
            result = result.join(Abs(objs=self._list_members(path, field)))

        if base.objs:
            handled = True
            if method == "get_checkpoint_info":
                result = result.join(Abs(infos=base.objs))
            elif method == "children":
                children: set = set()
                for path in base.objs:
                    for edge in self._node(path).edges:
                        children.add(edge.node.path)
                result = result.join(Abs(objs=frozenset(children)))
            elif method in _PURE_OBJ_METHODS:
                pass
            else:
                result = result.join(
                    self._checkpointable_method(
                        base.objs, method, arg_abs, kw_abs, node, frame
                    )
                )

        if base.infos:
            handled = True
            if method in _INFO_SETTERS:
                for path in base.infos:
                    self._effect(
                        path, node, frame, f"CheckpointInfo.{method}() call"
                    )
                self._caution(node, frame,
                              f"direct CheckpointInfo.{method}() call")

        if not handled:
            # Unknown receiver: it may retain or mutate any alias passed in.
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"argument of opaque method .{method}()")
        return result

    def _constructor_call(
        self,
        target: type,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
    ) -> Abs:
        from repro.core.checkpointable import Checkpointable

        if issubclass(target, Checkpointable):
            # A freshly built object is outside the analysed shape; handing
            # existing children to it re-parents them (structural change).
            if any(not a.is_empty() for a in list(arg_abs) + list(kw_abs.values())):
                self._caution(
                    node, frame,
                    f"constructing {target.__name__} from objects of the "
                    "analysed structure re-parents them",
                )
            return EMPTY
        if any(not a.is_empty() for a in list(arg_abs) + list(kw_abs.values())):
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"aliased argument to constructor {target.__name__}")
        return EMPTY

    def _taint_args(
        self,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
        reason: str,
    ) -> None:
        for value in list(arg_abs) + list(kw_abs.values()):
            if not value.is_empty():
                self._taint(value, node, frame, reason)

    # -- interprocedural ---------------------------------------------------

    def _checkpointable_method(
        self,
        obj_paths: FrozenSet[Path],
        method: str,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
    ) -> Abs:
        """Resolve ``receiver.method(...)`` through the receiver's class.

        The receiver may alias positions of several classes; each class's
        method is analysed separately with ``self`` bound to that class's
        positions. Methods without source (generated ``record``/``fold``,
        C-level callables) fall back conservatively: the receiver's whole
        subtree — and every aliased argument — is widened.
        """
        by_cls: Dict[type, set] = {}
        for path in obj_paths:
            by_cls.setdefault(self._node(path).cls, set()).add(path)
        result = EMPTY
        for cls, paths in sorted(
            by_cls.items(), key=lambda item: item[0].__name__
        ):
            receiver = Abs(objs=frozenset(paths))
            target = getattr(cls, method, None)
            loaded = (
                self._function_ast(target)
                if isinstance(target, types.FunctionType)
                else None
            )
            if loaded is None:
                self._edge(frame, f"{cls.__name__}.{method}", node,
                           resolved=False, reason="opaque method")
                self._taint(
                    receiver, node, frame,
                    f"opaque method .{method}() on a checkpointable object",
                )
                self._taint_args(arg_abs, kw_abs, node, frame,
                                 f"argument of opaque method .{method}()")
                continue
            fdef, filename, globs = loaded
            label = _label_of(target)
            self._edge(frame, label, node, resolved=True)
            result = result.join(
                self._call_ast(
                    fdef, [receiver] + list(arg_abs), kw_abs, node, frame,
                    filename, globs, {}, label=label,
                )
            )
        return result

    def _call_function(
        self,
        target: types.FunctionType,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
    ) -> Abs:
        loaded = self._function_ast(target)
        if loaded is None:
            self._edge(frame, _label_of(target), node, resolved=False,
                       reason="source unavailable")
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"call to {target.__name__} (source unavailable)")
            return EMPTY
        fdef, filename, globs = loaded
        label = _label_of(target)
        self._edge(frame, label, node, resolved=True)
        return self._call_ast(fdef, arg_abs, kw_abs, node, frame,
                              filename, globs, {}, label=label)

    def _call_ast(
        self,
        fdef: ast.FunctionDef,
        arg_abs: List[Abs],
        kw_abs: Dict[Optional[str], Abs],
        node: ast.Call,
        frame: _Frame,
        filename: str,
        globs: dict,
        closure_env: Dict[str, Abs],
        label: Optional[str] = None,
    ) -> Abs:
        if frame.depth >= _MAX_CALL_DEPTH:
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"call depth limit reached at {fdef.name}")
            return EMPTY

        params = [a.arg for a in fdef.args.args]
        env: Dict[str, Abs] = dict(closure_env)
        spill: List[Abs] = []
        for index, value in enumerate(arg_abs):
            if index < len(params):
                env[params[index]] = value
            else:
                spill.append(value)
        for name, value in kw_abs.items():
            if name is not None and name in params:
                env[name] = value
            else:
                spill.append(value)
        for value in spill:
            # lands in *args/**kwargs (or is simply surplus): assume the worst
            if not value.is_empty():
                self._taint(value, node, frame,
                            f"unmapped argument to {fdef.name}")
        for param in params:
            env.setdefault(param, EMPTY)

        # Parameter-polymorphic summary key: the function identity (the
        # parsed body object itself — held strongly, so it can never be
        # confused with a later parse) plus the abstract signature of
        # every non-empty binding.
        key = (
            fdef,
            tuple(sorted((n, v.signature()) for n, v in env.items()
                         if not v.is_empty())),
        )
        if key in self._in_progress:
            # recursion: assume the worst for the arguments, stop unfolding
            self._taint_args(arg_abs, kw_abs, node, frame,
                             f"recursive call to {fdef.name}")
            return EMPTY
        summary = self.summaries.get(key)
        if summary is not None:
            return self._replay(summary)

        self._in_progress.add(key)
        mark = self._report_mark()
        try:
            callee = _Frame(env, filename, globs, depth=frame.depth + 1,
                            label=label or f"{frame.label}.<locals>.{fdef.name}")
            result = self._run_body(fdef.body, callee)
        finally:
            self._in_progress.discard(key)
        self.summaries.store(key, self._summarize(result, mark))
        return result

    # -- summary capture/replay --------------------------------------------

    def _report_mark(self) -> Tuple:
        """Snapshot of the report's extents, taken before a callee runs."""
        return (
            {path: len(sites) for path, sites in self.report.sites.items()},
            len(self.report.fallbacks),
            len(self.report.cautions),
        )

    def _summarize(self, ret: Abs, mark: Tuple) -> CallSummary:
        """Package everything the callee added to the report since ``mark``."""
        site_counts, n_fallbacks, n_cautions = mark
        writes = []
        for path, sites in self.report.sites.items():
            for site in sites[site_counts.get(path, 0):]:
                writes.append((path, site))
        return CallSummary(
            ret,
            tuple(writes),
            tuple(self.report.fallbacks[n_fallbacks:]),
            tuple(self.report.cautions[n_cautions:]),
        )

    def _replay(self, summary: CallSummary) -> Abs:
        """Apply a cached callee summary to the current report."""
        for path, site in summary.writes:
            self.report.add(path, site)
        for site in summary.fallbacks:
            if not any(
                f.filename == site.filename and f.lineno == site.lineno
                for f in self.report.fallbacks
            ):
                self.report.fallbacks.append(site)
        for site in summary.cautions:
            if not any(
                c.filename == site.filename and c.lineno == site.lineno
                and c.reason == site.reason
                for c in self.report.cautions
            ):
                self.report.cautions.append(site)
        return summary.ret


_MISSING = object()


def analyze_effects(
    shape: Shape,
    phases: Iterable[Callable],
    roots: Optional[Iterable[str]] = None,
    summaries: Optional[SummaryCache] = None,
    callgraph: Optional[CallGraph] = None,
) -> EffectReport:
    """Infer the positions of ``shape`` the given phases may modify.

    Parameters
    ----------
    shape:
        Structural facts of the checkpointed structure.
    phases:
        The phase functions to analyse. Each must be a pure-Python function
        whose source is available. The root of the structure is bound to
        the parameter annotated with the root class, to a parameter named
        in ``roots``, to a parameter literally named ``root``, or — for
        single-parameter functions — to that parameter.
    roots:
        Optional parameter names to bind to the shape root, for phases
        whose root parameter cannot be recognised by annotation or name.
    summaries:
        Optional :class:`~repro.spec.effects.callgraph.SummaryCache` to
        reuse across analyses of the same shape (effect summaries are
        replayed instead of re-analysing shared helpers).
    callgraph:
        Optional :class:`~repro.spec.effects.callgraph.CallGraph` that
        collects every discovered call edge, resolved or not.

    Returns
    -------
    EffectReport
        Sound over-approximation of may-written positions with `file:line`
        provenance, opaque-call fallback notes, and suspicious-construct
        cautions.
    """
    return EffectAnalyzer(
        shape, roots, summaries=summaries, callgraph=callgraph
    ).analyze(phases)
