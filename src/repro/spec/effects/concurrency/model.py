"""Concurrency model extraction: locks, accesses, and thread entries.

The lockset analysis (:mod:`repro.spec.effects.concurrency.locks`) needs,
for every class in the analyzed files, the facts Eraser's runtime
instrumentation observes dynamically — here recovered statically from the
AST:

- which attributes are **locks** (``self._lock = threading.Lock()`` and
  friends, including locks passed into ``__init__`` as a ``lock``
  parameter, the :mod:`repro.obs.metrics` idiom),
- which attributes are **fields** and where each is read or written, with
  the set of locks *syntactically held* at the access (``with self._lock:``
  blocks and explicit ``acquire()``/``release()`` pairs),
- which methods are **thread entry points** (``threading.Thread(target=
  self._drain)``),
- which in-class **calls** each method makes (so held locksets propagate
  interprocedurally),
- **blocking operations** (``os.fsync``, ``Queue.get/put``, ``Thread.join``,
  ``Event.wait``, ``time.sleep``) and where they happen,
- **dirty-flag mutations** (``.modified`` / ``._ckpt_dirty`` /
  ``set_modified`` / ``_f_*`` writes) for the paper's write-barrier
  discipline.

Extraction is purely syntactic — no import is required, so even modules
that cannot be imported (or that would start threads at import time) are
analyzable, and the same extractor runs over the seeded race fixtures
``tools/make_race_fixture.py`` generates.

Suppression: an access or acquisition on a line carrying a ``# race-ok``
comment (optionally ``# race-ok: reason``) is excluded from rule
evaluation and recorded with its provenance instead; a ``# race-ok`` on a
``def`` line suppresses the whole method.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.spec.effects.suppress import (
    RACE_OK,
    SuppressedSite,
    suppression_lines,
)

#: constructor names that create a mutual-exclusion guard
LOCK_FACTORIES = {"Lock", "RLock"}
#: constructors whose objects are internally synchronized: method-call
#: mutations on attributes of these types need no external guard
THREADSAFE_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Queue",
    "SimpleQueue",
    "LifoQueue",
    "PriorityQueue",
    "local",
}
#: constructor notes marking an attribute as a plain in-process container:
#: only for these receivers does a mutator-method call count as a write
#: (``self.backing.append(...)`` on an unknown-typed collaborator is a
#: *method call*, not a container mutation)
CONTAINER_CTORS = {"list", "dict", "set", "deque", "defaultdict", "OrderedDict"}
#: method names that mutate the receiver container in place
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
    "sort",
    "reverse",
}
#: attribute methods that block while waiting on another thread, by the
#: receiving attribute's constructor
BLOCKING_BY_CTOR = {
    "Thread": {"join"},
    "Event": {"wait"},
    "Condition": {"wait", "wait_for"},
    "Barrier": {"wait"},
    "Queue": {"get", "put", "join"},
    "LifoQueue": {"get", "put", "join"},
    "PriorityQueue": {"get", "put", "join"},
}
#: dotted calls that block regardless of receiver
BLOCKING_CALLS = {
    ("os", "fsync"),
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
}


class LockDecl:
    """One discovered lock attribute of a class."""

    __slots__ = ("owner", "attr", "lineno", "ctor")

    def __init__(self, owner: str, attr: str, lineno: int, ctor: str) -> None:
        self.owner = owner
        self.attr = attr
        self.lineno = lineno
        #: ``Lock`` / ``RLock`` / ``param`` (passed into ``__init__``)
        self.ctor = ctor

    @property
    def name(self) -> str:
        """The global identity of this lock: ``Owner.attr``."""
        return f"{self.owner}.{self.attr}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockDecl({self.name}, {self.ctor})"


class Access:
    """One read or write of ``self.<field>`` inside a method body."""

    __slots__ = ("field", "kind", "method", "lineno", "held", "via")

    def __init__(
        self,
        field: str,
        kind: str,
        method: str,
        lineno: int,
        held: frozenset,
        via: str = "assign",
    ) -> None:
        self.field = field
        #: ``"write"`` or ``"read"``
        self.kind = kind
        self.method = method
        self.lineno = lineno
        #: lock attr names syntactically held at the access (own class)
        self.held = held
        #: how the write happens: ``assign`` / ``augassign`` / ``subscript``
        #: / ``delete`` / ``mutator:<name>``
        self.via = via

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        guard = ",".join(sorted(self.held)) or "-"
        return f"Access({self.kind} {self.field} @{self.lineno} held={guard})"


class Acquisition:
    """One lock acquisition site (``with self.L`` or ``self.L.acquire()``)."""

    __slots__ = ("lock", "method", "lineno", "held_before")

    def __init__(
        self, lock: str, method: str, lineno: int, held_before: frozenset
    ) -> None:
        self.lock = lock
        self.method = method
        self.lineno = lineno
        #: locks already held (syntactically) when this one is taken
        self.held_before = held_before


class BlockingCall:
    """A call that can block, with the locks held when it is made."""

    __slots__ = ("what", "method", "lineno", "held")

    def __init__(
        self, what: str, method: str, lineno: int, held: frozenset
    ) -> None:
        self.what = what
        self.method = method
        self.lineno = lineno
        self.held = held


class FlagMutation:
    """A dirty-flag mutation site (``.modified`` / ``set_modified`` / ``_f_*``)."""

    __slots__ = ("desc", "method", "lineno")

    def __init__(self, desc: str, method: str, lineno: int) -> None:
        self.desc = desc
        self.method = method
        self.lineno = lineno


class MethodModel:
    """Everything one method contributes to the class model."""

    __slots__ = (
        "name",
        "lineno",
        "accesses",
        "calls",
        "acquisitions",
        "blocking",
        "flag_mutations",
        "spawns",
        "suppressed",
    )

    def __init__(self, name: str, lineno: int) -> None:
        self.name = name
        self.lineno = lineno
        self.accesses: List[Access] = []
        #: (callee method name, lineno, locks held at the call)
        self.calls: List[Tuple[str, int, frozenset]] = []
        self.acquisitions: List[Acquisition] = []
        self.blocking: List[BlockingCall] = []
        self.flag_mutations: List[FlagMutation] = []
        #: self-methods handed to ``threading.Thread(target=...)``
        self.spawns: List[str] = []
        #: whole method suppressed by ``# race-ok`` on its ``def`` line
        self.suppressed = False


class ClassModel:
    """The concurrency-relevant facts of one class."""

    def __init__(self, name: str, filename: str, lineno: int) -> None:
        self.name = name
        self.filename = filename
        self.lineno = lineno
        self.locks: Dict[str, LockDecl] = {}
        self.methods: Dict[str, MethodModel] = {}
        #: attr -> constructor name seen in ``self.attr = Ctor(...)``
        self.ctors: Dict[str, str] = {}
        #: methods handed to ``threading.Thread(target=self.<m>)`` anywhere
        self.thread_entries: Set[str] = set()
        #: every attribute the class assigns somewhere
        self.fields: Set[str] = set()

    @property
    def concurrent(self) -> bool:
        """Whether the lockset rules apply to this class.

        A class participates in the concurrency discipline when it either
        declares a lock (it expects concurrent callers) or hands one of
        its methods to a thread (it *creates* concurrency).
        """
        return bool(self.locks) or bool(self.thread_entries)

    def construction_only(self) -> Set[str]:
        """Methods reachable (in-class) only from ``__init__``.

        Their accesses happen before the instance escapes to other
        threads, so they are exempt from the guard rules — Eraser's
        *virgin* state, recovered statically. A method with no in-class
        callers is **not** construction-only (it may be called from
        anywhere), and thread entries never are.
        """
        callers: Dict[str, Set[str]] = {}
        for method in self.methods.values():
            for callee, _lineno, _held in method.calls:
                callers.setdefault(callee, set()).add(method.name)
        result: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in self.methods:
                if name in result or name == "__init__":
                    continue
                if name in self.thread_entries:
                    continue
                calling = callers.get(name)
                if not calling:
                    continue
                if all(c == "__init__" or c in result for c in calling):
                    result.add(name)
                    changed = True
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassModel({self.name}, {len(self.locks)} lock(s), "
            f"{len(self.methods)} method(s))"
        )


class ModuleModel:
    """The extracted model of one file."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.classes: List[ClassModel] = []
        #: lineno -> reason for every ``# race-ok`` comment in the file
        self.race_ok: Dict[int, str] = {}
        self.suppressed: List[SuppressedSite] = []


def race_ok_lines(source: str) -> Dict[int, str]:
    """Map line numbers carrying a ``# race-ok`` comment to their reason.

    Thin wrapper over the shared tokenize-based scanner in
    :mod:`repro.spec.effects.suppress`, kept for the pass's public API.
    """
    return suppression_lines(source, RACE_OK)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _call_name(func: ast.expr) -> Optional[str]:
    """The trailing name of a call target (``threading.Lock`` -> ``Lock``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted(func: ast.expr) -> Optional[Tuple[str, str]]:
    """``("os", "fsync")`` for ``os.fsync`` — module-level dotted calls."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    return None


def _self_attr(node: ast.expr, self_name: str) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _self_attr_root(node: ast.expr, self_name: str) -> Optional[str]:
    """The field a write-through expression ultimately mutates.

    ``self.X[i] = v``, ``del self.X[k]`` and ``self.X[i].y = v`` all
    mutate the object held in field ``X``; peel subscripts and attribute
    hops down to the ``self.X`` root.
    """
    current = node
    while True:
        if isinstance(current, ast.Subscript):
            current = current.value
            continue
        if isinstance(current, ast.Attribute):
            inner = _self_attr(current, self_name)
            if inner is not None:
                return inner
            current = current.value
            continue
        return None


class _MethodExtractor:
    """Walk one method body tracking syntactically held locks."""

    def __init__(
        self,
        cls: ClassModel,
        method: MethodModel,
        self_name: str,
        race_ok: Dict[int, str],
        module: ModuleModel,
    ) -> None:
        self.cls = cls
        self.method = method
        self.self_name = self_name
        self.race_ok = race_ok
        self.module = module

    # -- suppression -------------------------------------------------------

    def _suppressed(self, lineno: int, what: str) -> bool:
        # the annotation may trail the statement or sit on the line above
        reason = self.race_ok.get(lineno)
        if reason is None:
            reason = self.race_ok.get(lineno - 1)
        if reason is None and self.method.suppressed:
            reason = self.race_ok.get(self.method.lineno, "method-level")
        if reason is None:
            return False
        self.module.suppressed.append(
            SuppressedSite(self.module.filename, lineno, reason, what)
        )
        return True

    # -- recording ---------------------------------------------------------

    def _record_write(
        self, field: str, lineno: int, held: Set[str], via: str
    ) -> None:
        if field in self.cls.locks:
            return
        self.cls.fields.add(field)
        if self._suppressed(lineno, f"write {self.cls.name}.{field}"):
            return
        self.method.accesses.append(
            Access(field, "write", self.method.name, lineno, frozenset(held), via)
        )

    def _record_read(self, field: str, lineno: int, held: Set[str]) -> None:
        if field in self.cls.locks:
            return
        self.method.accesses.append(
            Access(field, "read", self.method.name, lineno, frozenset(held), "load")
        )

    # -- statement walking -------------------------------------------------

    def walk(self, body: List[ast.stmt]) -> None:
        self._walk_block(body, set())

    def _walk_block(self, stmts: List[ast.stmt], held: Set[str]) -> None:
        held = set(held)
        for stmt in stmts:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: Set[str]) -> None:
        if isinstance(stmt, ast.With):
            added: List[str] = []
            for item in stmt.items:
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    self._note_acquire(lock, item.context_expr.lineno, held)
                    added.append(lock)
                self._scan_expr(item.context_expr, held)
            inner = set(held) | set(added)
            self._walk_block(stmt.body, inner)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held)
            self._scan_target(stmt.target, held)
            self._walk_block(stmt.body, held)
            self._walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(handler.body, held)
            self._walk_block(stmt.orelse, held)
            self._walk_block(stmt.finalbody, held)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested function runs in an unknown context: its accesses
            # are recorded with no held locks (conservative)
            self._walk_block(stmt.body, set())
            return
        if isinstance(stmt, ast.Expr):
            call = stmt.value
            if isinstance(call, ast.Call):
                lock = self._acquire_release(call)
                if lock is not None:
                    kind, name = lock
                    if kind == "acquire":
                        self._note_acquire(name, stmt.lineno, held)
                        held.add(name)
                    else:
                        held.discard(name)
                    return
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, held)
            for target in stmt.targets:
                self._scan_target(target, held)
            self._maybe_lock_decl(stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, held)
            self._scan_target(stmt.target, held, via="augassign")
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value, held)
            self._scan_target(stmt.target, held)
            self._maybe_lock_decl(stmt)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                root = _self_attr_root(target, self.self_name)
                if root is not None:
                    self._record_write(root, stmt.lineno, held, "delete")
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            value = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
            if value is not None:
                self._scan_expr(value, held)
            return
        if isinstance(stmt, ast.Assert):
            self._scan_expr(stmt.test, held)
            return
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to record
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, held)

    # -- pieces ------------------------------------------------------------

    def _lock_of(self, expr: ast.expr) -> Optional[str]:
        attr = _self_attr(expr, self.self_name)
        if attr is not None and attr in self.cls.locks:
            return attr
        return None

    def _acquire_release(self, call: ast.Call):
        """``("acquire"|"release", lockattr)`` for explicit lock calls."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "acquire",
            "release",
        ):
            attr = _self_attr(func.value, self.self_name)
            if attr is not None and attr in self.cls.locks:
                return (func.attr, attr)
        return None

    def _note_acquire(
        self, lock: str, lineno: int, held: Set[str]
    ) -> None:
        if self._suppressed(lineno, f"acquire {self.cls.name}.{lock}"):
            return
        self.method.acquisitions.append(
            Acquisition(lock, self.method.name, lineno, frozenset(held))
        )

    def _maybe_lock_decl(self, stmt) -> None:
        """Record ``self.X = Lock()``-style declarations (any method).

        Also notes constructor identities (``Event``, ``Queue``, container
        literals) so later passes can tell synchronized and plain-container
        attributes apart.
        """
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            targets = stmt.targets
        else:
            return
        attr = _self_attr(targets[0], self.self_name)
        if attr is None:
            return
        value = stmt.value
        if isinstance(value, (ast.List, ast.ListComp)):
            self.cls.ctors.setdefault(attr, "list")
            return
        if isinstance(value, (ast.Dict, ast.DictComp)):
            self.cls.ctors.setdefault(attr, "dict")
            return
        if isinstance(value, (ast.Set, ast.SetComp)):
            self.cls.ctors.setdefault(attr, "set")
            return
        if isinstance(value, ast.Call):
            ctor = _call_name(value.func)
            if ctor is not None:
                self.cls.ctors.setdefault(attr, ctor)
                if ctor in LOCK_FACTORIES:
                    self.cls.locks.setdefault(
                        attr,
                        LockDecl(self.cls.name, attr, stmt.lineno, ctor),
                    )
        elif (
            isinstance(value, ast.Name)
            and self.method.name == "__init__"
            and (value.id == "lock" or value.id.endswith("_lock"))
        ):
            # the metrics idiom: a guard passed into the constructor
            self.cls.ctors.setdefault(attr, "param")
            self.cls.locks.setdefault(
                attr, LockDecl(self.cls.name, attr, stmt.lineno, "param")
            )

    def _scan_target(
        self, target: ast.expr, held: Set[str], via: str = "assign"
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, held, via)
            return
        # any attribute write can violate the dirty-flag discipline
        # (obj.modified = ..., self.peer._ckpt_dirty = ...),
        # whatever the receiver chain roots at
        if isinstance(target, ast.Attribute):
            self._flag_check(target.attr, target.lineno)
        direct = _self_attr(target, self.self_name)
        if direct is not None:
            self._record_write(direct, target.lineno, held, via)
            return
        root = _self_attr_root(target, self.self_name)
        if root is not None:
            self._record_write(root, target.lineno, held, "subscript")
            return
        if isinstance(target, ast.Attribute):
            self._scan_expr(target.value, held)
        elif isinstance(target, ast.Subscript):
            self._scan_expr(target.value, held)
            self._scan_expr(target.slice, held)

    def _flag_check(self, attr: str, lineno: int) -> None:
        if attr in ("modified", "_ckpt_dirty") or attr.startswith("_f_"):
            if not self._suppressed(lineno, f"flag write .{attr}"):
                self.method.flag_mutations.append(
                    FlagMutation(f".{attr} assignment", self.method.name, lineno)
                )

    def _scan_expr(self, expr: ast.expr, held: Set[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._scan_call(node, held)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                attr = _self_attr(node, self.self_name)
                if attr is not None and attr in self.cls.fields:
                    self._record_read(attr, node.lineno, held)
            elif isinstance(node, (ast.Lambda,)):
                # lambda bodies run in an unknown context; their calls are
                # scanned (ast.walk descends) but hold nothing — handled
                # by the generic walk already
                pass

    def _scan_call(self, call: ast.Call, held: Set[str]) -> None:
        func = call.func
        # threading.Thread(target=self.m)
        name = _call_name(func)
        if name == "Thread":
            for keyword in call.keywords:
                if keyword.arg == "target":
                    target_attr = _self_attr(keyword.value, self.self_name)
                    if target_attr is not None:
                        self.method.spawns.append(target_attr)
        dotted = _dotted(func)
        if dotted in BLOCKING_CALLS:
            if not self._suppressed(
                call.lineno, f"blocking {'.'.join(dotted)}"
            ):
                self.method.blocking.append(
                    BlockingCall(
                        ".".join(dotted),
                        self.method.name,
                        call.lineno,
                        frozenset(held),
                    )
                )
        if isinstance(func, ast.Attribute):
            receiver = _self_attr(func.value, self.self_name)
            if receiver is not None:
                ctor = self.cls.ctors.get(receiver)
                blocking_methods = BLOCKING_BY_CTOR.get(ctor or "", ())
                if func.attr in blocking_methods:
                    if not self._suppressed(
                        call.lineno, f"blocking self.{receiver}.{func.attr}"
                    ):
                        self.method.blocking.append(
                            BlockingCall(
                                f"self.{receiver}.{func.attr}()",
                                self.method.name,
                                call.lineno,
                                frozenset(held),
                            )
                        )
                if (
                    func.attr in MUTATOR_METHODS
                    and receiver not in self.cls.locks
                    and self.cls.ctors.get(receiver) in CONTAINER_CTORS
                ):
                    self._record_write(
                        receiver, call.lineno, held, f"mutator:{func.attr}"
                    )
                if func.attr == "set_modified":
                    if not self._suppressed(
                        call.lineno, "set_modified call"
                    ):
                        self.method.flag_mutations.append(
                            FlagMutation(
                                "set_modified() call",
                                self.method.name,
                                call.lineno,
                            )
                        )
            else:
                # obj.set_modified(...) through any receiver
                if func.attr == "set_modified":
                    if not self._suppressed(
                        call.lineno, "set_modified call"
                    ):
                        self.method.flag_mutations.append(
                            FlagMutation(
                                "set_modified() call",
                                self.method.name,
                                call.lineno,
                            )
                        )
            # self.method(...) in-class call edge
            callee = _self_attr(func, self.self_name)
            if callee is not None and receiver is None:
                pass
        callee = None
        if isinstance(func, ast.Attribute):
            callee = _self_attr(func, self.self_name)
        if callee is not None:
            self.method.calls.append((callee, call.lineno, frozenset(held)))


def _first_param(fn: ast.FunctionDef) -> Optional[str]:
    args = fn.args
    if args.posonlyargs:
        return args.posonlyargs[0].arg
    if args.args:
        return args.args[0].arg
    return None


def _is_static_or_class(fn: ast.FunctionDef) -> bool:
    for decorator in fn.decorator_list:
        name = _call_name(decorator) or (
            decorator.id if isinstance(decorator, ast.Name) else None
        )
        if name in ("staticmethod", "classmethod"):
            return True
    return False


def extract_module(filename: str, source: str) -> Optional[ModuleModel]:
    """Extract the concurrency model of one file (``None`` on syntax error)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return None
    module = ModuleModel(filename)
    module.race_ok = race_ok_lines(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = ClassModel(node.name, filename, node.lineno)
        methods: List[Tuple[ast.FunctionDef, str]] = []
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _is_static_or_class(item):
                continue
            self_name = _first_param(item)
            if self_name is None:
                continue
            methods.append((item, self_name))
        # pass 1: lock declarations + constructor notes (any method may
        # declare; __init__ is just the usual place)
        for fdef, self_name in methods:
            model = MethodModel(fdef.name, fdef.lineno)
            model.suppressed = fdef.lineno in module.race_ok
            cls.methods[fdef.name] = model
            for stmt in ast.walk(fdef):
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    extractor = _MethodExtractor(
                        cls, model, self_name, module.race_ok, module
                    )
                    extractor._maybe_lock_decl(stmt)
        # pass 2: accesses, acquisitions, calls, blocking, spawns
        for fdef, self_name in methods:
            model = cls.methods[fdef.name]
            extractor = _MethodExtractor(
                cls, model, self_name, module.race_ok, module
            )
            extractor.walk(fdef.body)
            for spawned in model.spawns:
                cls.thread_entries.add(spawned)
        module.classes.append(cls)
    return module
