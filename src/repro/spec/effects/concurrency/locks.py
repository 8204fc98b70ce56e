"""Interprocedural lockset rules over the extracted concurrency model.

This is the static half of the Eraser discipline. For every *concurrent
class* — one that declares a lock or hands a method to a thread — the
analysis propagates syntactically-held locksets through the class's
self-call graph, collects every post-construction field write with the
locks effectively held at it, and evaluates the rule family:

``unguarded-shared-write`` (error)
    A field of a concurrent class is written with **no** lock held at any
    site. In a class that guards *anything*, an entirely-bare field is
    either dead state or a race.
``inconsistent-guard`` (error)
    The field is guarded at some write sites and bare at others, or its
    guarded sites share no common lock — the guard exists but does not
    actually establish mutual exclusion.
``lock-order-inversion`` (error)
    The global lock-order graph (an edge ``A -> B`` whenever ``B`` is
    acquired while ``A`` is held) contains a cycle: two threads taking
    the locks in opposite orders can deadlock.
``lock-held-across-blocking-call`` (warning)
    ``os.fsync``, ``Queue.get/put``, ``Thread.join``, ``Event.wait`` or
    ``time.sleep`` runs while a lock is held: every other thread needing
    that lock stalls behind I/O or a wait.
``flag-mutation-outside-commit`` (warning)
    A dirty-flag mutation (``.modified`` or ``._ckpt_dirty`` assignment,
    ``set_modified()``, ``_f_*`` slot write) is reachable from a thread entry point. The
    paper's incremental-checkpoint correctness argument assumes the
    write-barrier flags are mutated only by the committing thread;
    flag traffic from a background thread can dirty (or clean) state
    concurrently with a commit traversal.

Construction is exempt (Eraser's *virgin* state): writes in ``__init__``
and in methods reachable only from it happen before the instance escapes.
A ``# race-ok[: reason]`` comment suppresses the sites on its line (on a
``def`` line: the whole method) — suppressions are reported with their
provenance, never silently dropped.

The analysis is deliberately write-centric: bare *reads* of a guarded
field are not reported (in CPython they are torn-free for references;
flagging them would bury the real races). The dynamic sanitizer
(:mod:`repro.sanitize`) has the same write bias, so the crosscheck's
``static ⊇ dynamic`` comparison is apples to apples.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.spec.effects.concurrency.model import (
    Access,
    ClassModel,
    ModuleModel,
    SuppressedSite,
)


class WriteRecord:
    """One effective write: the access plus interprocedurally-held locks."""

    __slots__ = ("access", "held", "root")

    def __init__(self, access: Access, held: FrozenSet[str], root: str) -> None:
        self.access = access
        #: global lock names (``Cls.attr``) effectively held at the write
        self.held = held
        #: the entry method this write was reached from
        self.root = root


class OrderEdge:
    """``held -> acquired`` with the first site that produced it."""

    __slots__ = ("held", "acquired", "filename", "lineno", "method")

    def __init__(
        self, held: str, acquired: str, filename: str, lineno: int, method: str
    ) -> None:
        self.held = held
        self.acquired = acquired
        self.filename = filename
        self.lineno = lineno
        self.method = method


class FieldGuard:
    """The proven verdict for one field of a concurrent class."""

    __slots__ = ("owner", "field", "locks", "writes", "status")

    def __init__(
        self,
        owner: str,
        field: str,
        locks: Tuple[str, ...],
        writes: int,
        status: str,
    ) -> None:
        self.owner = owner
        self.field = field
        #: the common guard set (empty unless ``status == "guarded"``)
        self.locks = locks
        self.writes = writes
        #: ``guarded`` / ``unguarded`` / ``inconsistent`` / ``construction``
        self.status = status

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.field}"


class ConcurrencyReport:
    """Everything one analysis run over a file set produced."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.modules: List[ModuleModel] = []
        #: per-field verdicts for every concurrent class
        self.guards: List[FieldGuard] = []
        self.order_edges: List[OrderEdge] = []
        self.cycles: List[List[str]] = []
        self.suppressed: List[SuppressedSite] = []

    def concurrent_classes(self) -> List[ClassModel]:
        return [
            cls
            for module in self.modules
            for cls in module.classes
            if cls.concurrent
        ]

    def guard_table(self) -> Dict[str, FieldGuard]:
        """``Cls.field`` -> verdict, for reporting and the crosscheck."""
        return {guard.name: guard for guard in self.guards}

    def unguarded_fields(self) -> Set[Tuple[str, str]]:
        """``(class, field)`` pairs with an unguarded/inconsistent verdict.

        This is the key set the dynamic crosscheck compares sanitizer
        violations against: every dynamic violation must map into it.
        """
        return {
            (guard.owner, guard.field)
            for guard in self.guards
            if guard.status in ("unguarded", "inconsistent")
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConcurrencyReport({len(self.findings)} finding(s), "
            f"{len(self.guards)} field verdict(s))"
        )


# ---------------------------------------------------------------------------
# Lockset propagation
# ---------------------------------------------------------------------------


def _roots_of(cls: ClassModel, construction: Set[str]) -> List[Tuple[str, str]]:
    """(method, kind) entry points: thread entries plus every other
    externally-callable method.

    Excluded: ``__init__`` and construction-only helpers (the Eraser
    initialization exemption), and underscore-private helpers that have
    an in-class caller — those are internal by convention, so their
    locking context is their callers' held sets, which the propagation
    already supplies.  A private helper *nobody* in the class calls is
    kept as a root (it is dead or externally driven; either way its
    accesses should be judged bare).  Thread entries are always roots.
    """
    called_in_class: Set[str] = set()
    for model in cls.methods.values():
        for callee, _lineno, _held in model.calls:
            called_in_class.add(callee)
    roots: List[Tuple[str, str]] = []
    for name in sorted(cls.methods):
        if name == "__init__" or name in construction:
            continue
        if name in cls.thread_entries:
            roots.append((name, "thread"))
            continue
        if name.startswith("_") and name in called_in_class:
            continue
        roots.append((name, "caller"))
    return roots


def _globalize(cls: ClassModel, held: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(f"{cls.name}.{attr}" for attr in held)


class _ClassAnalysis:
    """Propagate held locksets through one class's self-call graph."""

    def __init__(self, cls: ClassModel) -> None:
        self.cls = cls
        self.construction = cls.construction_only()
        #: field -> write records with effective locksets
        self.writes: Dict[str, List[WriteRecord]] = {}
        self.order_edges: List[OrderEdge] = []
        self.blocking: List[Tuple] = []  # (BlockingCall, effective held)
        self._visited: Set[Tuple[str, FrozenSet[str]]] = set()

    def run(self) -> None:
        for root, _kind in _roots_of(self.cls, self.construction):
            self._visit(root, frozenset(), root)

    def thread_reachable(self) -> Set[str]:
        """Methods reachable (in-class) from any thread entry point."""
        frontier = list(self.cls.thread_entries)
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            method = self.cls.methods.get(current)
            if method is None:
                continue
            for callee, _lineno, _held in method.calls:
                if callee in self.cls.methods and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def _visit(self, name: str, held: FrozenSet[str], root: str) -> None:
        method = self.cls.methods.get(name)
        if method is None:
            return
        key = (name, held)
        if key in self._visited:
            return
        self._visited.add(key)
        for access in method.accesses:
            if access.kind != "write":
                continue
            effective = _globalize(self.cls, access.held | held)
            self.writes.setdefault(access.field, []).append(
                WriteRecord(access, effective, root)
            )
        for acquisition in method.acquisitions:
            before = _globalize(self.cls, acquisition.held_before | held)
            acquired = f"{self.cls.name}.{acquisition.lock}"
            for already in before:
                if already != acquired:
                    self.order_edges.append(
                        OrderEdge(
                            already,
                            acquired,
                            self.cls.filename,
                            acquisition.lineno,
                            acquisition.method,
                        )
                    )
        for call in method.blocking:
            effective = _globalize(self.cls, call.held | held)
            if effective:
                self.blocking.append((call, effective))
        for callee, _lineno, call_held in method.calls:
            if callee in self.cls.methods:
                self._visit(callee, held | call_held, root)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _site_list(records: List[WriteRecord], limit: int = 4) -> str:
    sites = sorted(
        {(r.access.method, r.access.lineno) for r in records},
        key=lambda pair: (pair[1], pair[0]),
    )
    shown = [f"{method}:{lineno}" for method, lineno in sites[:limit]]
    extra = len(sites) - len(shown)
    if extra > 0:
        shown.append(f"+{extra} more")
    return ", ".join(shown)


def _anchor(records: List[WriteRecord]) -> WriteRecord:
    return min(records, key=lambda r: (r.access.lineno, r.access.method))


def _evaluate_fields(
    cls: ClassModel, analysis: _ClassAnalysis, report: ConcurrencyReport
) -> None:
    lock_names = ", ".join(sorted(d.name for d in cls.locks.values()))
    spawn_names = ", ".join(sorted(cls.thread_entries))
    context = []
    if lock_names:
        context.append(f"declares lock(s) {lock_names}")
    if spawn_names:
        context.append(f"runs thread entry point(s) {spawn_names}")
    why_concurrent = " and ".join(context)

    for field in sorted(analysis.writes):
        records = analysis.writes[field]
        bare = [r for r in records if not r.held]
        guarded = [r for r in records if r.held]
        if not guarded:
            anchor = _anchor(bare)
            report.guards.append(
                FieldGuard(cls.name, field, (), len(records), "unguarded")
            )
            report.findings.append(
                Finding(
                    "error",
                    "unguarded-shared-write",
                    f"{cls.name}.{field} is written with no lock held at "
                    f"{_site_list(bare)} — the class {why_concurrent}, so "
                    "concurrent access is expected and every write must "
                    "hold a declared lock (or carry a '# race-ok: reason' "
                    "annotation)",
                    filename=cls.filename,
                    lineno=anchor.access.lineno,
                    target=cls.name,
                )
            )
            continue
        if bare:
            anchor = _anchor(bare)
            held_names = ", ".join(
                sorted(set().union(*(r.held for r in guarded)))
            )
            report.guards.append(
                FieldGuard(cls.name, field, (), len(records), "inconsistent")
            )
            report.findings.append(
                Finding(
                    "error",
                    "inconsistent-guard",
                    f"{cls.name}.{field} is guarded by {held_names} at "
                    f"{_site_list(guarded)} but written bare at "
                    f"{_site_list(bare)}: the bare site races every "
                    "guarded one",
                    filename=cls.filename,
                    lineno=anchor.access.lineno,
                    target=cls.name,
                )
            )
            continue
        common = frozenset.intersection(*(r.held for r in guarded))
        if not common:
            anchor = _anchor(guarded)
            per_site = "; ".join(
                f"{r.access.method}:{r.access.lineno} holds "
                f"{{{', '.join(sorted(r.held))}}}"
                for r in sorted(
                    guarded, key=lambda r: (r.access.lineno, r.access.method)
                )[:4]
            )
            report.guards.append(
                FieldGuard(cls.name, field, (), len(records), "inconsistent")
            )
            report.findings.append(
                Finding(
                    "error",
                    "inconsistent-guard",
                    f"no single lock guards every write of "
                    f"{cls.name}.{field}: {per_site} — mutual exclusion "
                    "needs one common lock across all write sites",
                    filename=cls.filename,
                    lineno=anchor.access.lineno,
                    target=cls.name,
                )
            )
            continue
        report.guards.append(
            FieldGuard(
                cls.name, field, tuple(sorted(common)), len(records), "guarded"
            )
        )


def _evaluate_blocking(
    cls: ClassModel, analysis: _ClassAnalysis, report: ConcurrencyReport
) -> None:
    seen: Set[Tuple[int, str]] = set()
    for call, held in analysis.blocking:
        key = (call.lineno, call.what)
        if key in seen:
            continue
        seen.add(key)
        report.findings.append(
            Finding(
                "warning",
                "lock-held-across-blocking-call",
                f"{call.what} can block while holding "
                f"{{{', '.join(sorted(held))}}} (in "
                f"{cls.name}.{call.method}): every thread contending for "
                "the lock stalls behind this call — move the blocking "
                "operation outside the critical section or annotate the "
                "line with '# race-ok: reason' if the ordering is "
                "intentional",
                filename=cls.filename,
                lineno=call.lineno,
                target=cls.name,
            )
        )


def _evaluate_flags(
    cls: ClassModel,
    analysis: _ClassAnalysis,
    report: ConcurrencyReport,
    exempt: bool,
) -> None:
    if exempt or not cls.thread_entries:
        return
    reachable = analysis.thread_reachable()
    for name in sorted(reachable):
        method = cls.methods.get(name)
        if method is None:
            continue
        for mutation in method.flag_mutations:
            report.findings.append(
                Finding(
                    "warning",
                    "flag-mutation-outside-commit",
                    f"dirty-flag mutation ({mutation.desc}) in "
                    f"{cls.name}.{name}, which runs on a background "
                    "thread (reachable from thread entry "
                    f"{', '.join(sorted(cls.thread_entries))}): the "
                    "incremental-checkpoint write-barrier discipline "
                    "assumes modification flags are mutated only by the "
                    "committing thread",
                    filename=cls.filename,
                    lineno=mutation.lineno,
                    target=cls.name,
                )
            )


def _find_cycles(edges: List[OrderEdge]) -> List[List[str]]:
    """Elementary cycles in the lock-order graph (deduplicated by rotation)."""
    graph: Dict[str, Set[str]] = {}
    for edge in edges:
        graph.setdefault(edge.held, set()).add(edge.acquired)
    cycles: List[List[str]] = []
    seen_keys: Set[Tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: List[str], visited: Set[str]) -> None:
        for successor in sorted(graph.get(node, ())):
            if successor == start:
                cycle = path[:]
                # canonicalize: rotate so the lexicographically-least
                # lock comes first
                pivot = cycle.index(min(cycle))
                canonical = tuple(cycle[pivot:] + cycle[:pivot])
                if canonical not in seen_keys:
                    seen_keys.add(canonical)
                    cycles.append(list(canonical))
            elif successor not in visited and successor > start:
                # only explore nodes >= start: each cycle is found from
                # its least node exactly once
                visited.add(successor)
                dfs(start, successor, path + [successor], visited)
                visited.discard(successor)

    for node in sorted(graph):
        dfs(node, node, [node], {node})
    return cycles


def _evaluate_lock_order(report: ConcurrencyReport) -> None:
    report.cycles = _find_cycles(report.order_edges)
    sites: Dict[Tuple[str, str], OrderEdge] = {}
    for edge in report.order_edges:
        sites.setdefault((edge.held, edge.acquired), edge)
    for cycle in report.cycles:
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        description = "; ".join(
            f"{held} -> {acquired} at "
            f"{sites[(held, acquired)].method}:{sites[(held, acquired)].lineno}"
            for held, acquired in pairs
            if (held, acquired) in sites
        )
        first = sites.get(pairs[0])
        report.findings.append(
            Finding(
                "error",
                "lock-order-inversion",
                f"lock-order cycle {' -> '.join(cycle + [cycle[0]])}: "
                f"{description} — two threads taking these locks in "
                "opposite orders can deadlock; pick one global order",
                filename=first.filename if first else None,
                lineno=first.lineno if first else None,
                target=cycle[0].rsplit(".", 1)[0],
            )
        )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_rules(
    modules: List[ModuleModel],
    flag_exempt: Optional[callable] = None,
) -> ConcurrencyReport:
    """Evaluate every rule over the extracted models.

    ``flag_exempt`` is a ``filename -> bool`` predicate exempting files
    from the dirty-flag rule (the framework core implements the flag
    protocol itself); the lockset rules are never exempted.
    """
    report = ConcurrencyReport()
    report.modules = list(modules)
    for module in modules:
        report.suppressed.extend(module.suppressed)
        for cls in module.classes:
            if not cls.concurrent:
                continue
            analysis = _ClassAnalysis(cls)
            analysis.run()
            report.order_edges.extend(analysis.order_edges)
            _evaluate_fields(cls, analysis, report)
            _evaluate_blocking(cls, analysis, report)
            exempt = bool(flag_exempt and flag_exempt(module.filename))
            _evaluate_flags(cls, analysis, report, exempt)
    _evaluate_lock_order(report)
    return report
