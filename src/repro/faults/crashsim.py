"""The crash simulator: prove recovery, don't assume it.

:class:`CrashSim` runs one deterministic session workload twice. The
*reference* run commits into a clean :class:`~repro.core.storage.FileStore`
and records, for every epoch-count prefix, a byte fingerprint of the
recovered object table. Each *scenario* then replays the same workload
(same structures, same mutation schedule, same object identifiers — the
id allocator is pinned) against a fault-injected store, "crashes"
wherever the plan says, repairs the directory with
:class:`~repro.fsck.manager.RecoveryManager`, recovers from a fresh
store, and demands:

1. the recovered object table is **byte-identical** to the reference
   fingerprint at the same durable epoch count (the recovery invariant);
2. a post-repair ``fsck`` scan reports the directory consistent;
3. with a retry policy, transient faults lose **zero** epochs.

:func:`build_matrix` generates the seeded scenario matrix (crash points,
torn-write offsets through the whole header and into the payload, bit
flips, transient bursts, stalls) across the write paths — a retrying
session over the store (run twice, as the ``store`` and ``sink`` paths)
and a background writer — plus the ``branch`` path:
:class:`BranchSim` runs the deterministic time-travel script (commit,
named pin, restore, fork) with faults armed on the store *and* on the
session's restore/fork calls themselves, and demands every surviving
epoch on every branch materialize byte-identically after repair.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.checkpointable import Checkpointable
from repro.core.errors import StorageError
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.restore import ObjectTable
from repro.core.retry import RetryPolicy
from repro.core.storage import BackgroundWriter, CheckpointStore, FileStore
from repro.core.streams import DataOutputStream
from repro.faults.inject import FaultyStore, InjectedCrash
from repro.faults.plan import (
    BITFLIP,
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_FORK,
    CRASH_RESTORE,
    CRASH_TMP,
    SESSION_KINDS,
    STALL,
    TORN,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.faults.replicasim import (
    REPLICA_PATH,
    ReplicaSim,
    build_replica_matrix,
)
from repro.fsck.manager import RecoveryManager
from repro.obs.tracer import NULL_TRACER
from repro.runtime.session import CheckpointSession

#: the branching time-travel path, handled by :class:`BranchSim`
BRANCH_PATH = "branch"

#: the commit paths the matrix must cover (the ``replica`` path runs
#: the same workload through a 3-way :class:`ReplicatedStore`, handled
#: by :class:`~repro.faults.replicasim.ReplicaSim`)
PATHS = ("store", "sink", "background", BRANCH_PATH, REPLICA_PATH)

#: size of the epoch frame header, for torn-write offset sweeps
HEADER_SIZE = 14


def table_fingerprint(table: ObjectTable) -> bytes:
    """A canonical byte image of a recovered object table.

    Objects are re-recorded in identifier order — two tables with the
    same objects, ids, classes, and field values produce identical
    bytes, so "byte-identical recovery" is a plain ``==``.
    """
    out = DataOutputStream()
    for object_id in sorted(table.ids()):
        obj = table[object_id]
        out.write_int32(object_id)
        out.write_int32(obj._ckpt_serial)
        obj.record(out)
    return out.getvalue()


@dataclass
class Workload:
    """A deterministic session workload: build roots, mutate, commit.

    ``build`` returns fresh root objects; ``mutate(roots, step)`` applies
    the step-th deterministic modification. The workload must not depend
    on wall clock, randomness, or prior runs — determinism is what makes
    byte-level comparison across runs meaningful.
    """

    build: Callable[[], Sequence[Checkpointable]]
    mutate: Callable[[Sequence[Checkpointable], int], None]
    #: total epochs committed (one base + epochs-1 deltas)
    epochs: int = 6

    def run(
        self, store: CheckpointStore, retry: Optional[RetryPolicy] = None
    ) -> CheckpointSession:
        roots = self.build()
        session = CheckpointSession(roots=roots, sink=store, retry=retry)
        session.base()
        for step in range(1, self.epochs):
            self.mutate(roots, step)
            session.commit()
        session.flush()
        return session


def default_workload(epochs: int = 6) -> Workload:
    """Three compound structures, two lists of three elements each."""
    from repro.synthetic.structures import build_structures, element_at

    def build():
        return build_structures(3, 2, 3, 1)

    def mutate(roots, step):
        compound = roots[step % len(roots)]
        element = element_at(compound, step % 2, step % 3)
        element.v0 = step * 1000 + 7

    return Workload(build=build, mutate=mutate, epochs=epochs)


@dataclass
class Scenario:
    """One fault-injection run: a plan on one write path."""

    name: str
    plan: FaultPlan
    path: str = "store"
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.path not in PATHS:
            raise StorageError(f"unknown scenario path {self.path!r}")


@dataclass
class ScenarioResult:
    """What one scenario did and whether recovery held."""

    name: str
    path: str
    crashed: bool
    durable_epochs: int
    #: recovered table byte-identical to the reference at that epoch count
    recovered_identical: bool
    #: fsck reports the repaired directory consistent
    fsck_consistent: bool
    #: faults the store actually injected
    injected: List[str] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.recovered_identical and self.fsck_consistent

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "crashed": self.crashed,
            "durable_epochs": self.durable_epochs,
            "recovered_identical": self.recovered_identical,
            "fsck_consistent": self.fsck_consistent,
            "injected": list(self.injected),
            "detail": self.detail,
            "ok": self.ok,
        }


class CrashSim:
    """Run a workload under injected faults and verify recovery.

    Parameters
    ----------
    root_dir:
        Working directory; each run gets its own subdirectory.
    workload:
        The deterministic workload (default: :func:`default_workload`).
    retry:
        Default retry policy for scenarios that don't bring their own.
    """

    def __init__(
        self,
        root_dir: str,
        workload: Optional[Workload] = None,
        retry: Optional[RetryPolicy] = None,
        tracer=None,
    ) -> None:
        self.root_dir = root_dir
        self.workload = workload or default_workload()
        self.retry = retry or RetryPolicy(
            max_attempts=4, base_delay=0.0005, max_delay=0.002
        )
        #: observability hook; the no-op singleton unless one is supplied
        self.tracer = tracer if tracer is not None else NULL_TRACER
        os.makedirs(root_dir, exist_ok=True)
        #: all runs allocate ids from this base, so runs are comparable
        self._id_base = DEFAULT_ALLOCATOR.last_allocated + 1
        self._id_high = self._id_base
        #: fingerprint of the recovered table per durable-epoch count
        self._reference: Optional[Dict[int, bytes]] = None

    # -- id pinning --------------------------------------------------------

    def _pin_ids(self) -> None:
        DEFAULT_ALLOCATOR.reset(self._id_base)

    def _release_ids(self) -> None:
        self._id_high = max(self._id_high, DEFAULT_ALLOCATOR.last_allocated)
        DEFAULT_ALLOCATOR.advance_past(self._id_high)

    # -- reference run -----------------------------------------------------

    def reference(self) -> Dict[int, bytes]:
        """Fingerprints of the fault-free run, per durable-epoch count.

        Key ``d`` maps to the fingerprint of the table recovered from
        the first ``d`` epochs; key ``0`` maps to ``b""`` (nothing
        durable, nothing recoverable).
        """
        if self._reference is not None:
            return self._reference
        directory = os.path.join(self.root_dir, "reference")
        shutil.rmtree(directory, ignore_errors=True)
        self._pin_ids()
        try:
            self.workload.run(FileStore(directory))
        finally:
            self._release_ids()
        store = FileStore(directory)
        epochs = store.epochs()
        fingerprints: Dict[int, bytes] = {0: b""}
        for durable in range(1, len(epochs) + 1):
            prefix = FileStore(
                os.path.join(self.root_dir, f"reference-prefix-{durable}")
            )
            for epoch in epochs[:durable]:
                prefix.append(epoch.kind, epoch.data)
            fingerprints[durable] = table_fingerprint(prefix.recover())
        self._reference = fingerprints
        return fingerprints

    # -- scenario runs -----------------------------------------------------

    def _make_store(self, scenario: Scenario, directory: str):
        """``(faulty store, session store, session retry)`` of a scenario.

        The ``store`` and ``sink`` paths retry in the session; the
        ``background`` path retries in the writer thread.
        """
        if scenario.path not in ("store", "sink", "background"):
            sim = "ReplicaSim" if scenario.path == REPLICA_PATH else "BranchSim"
            raise StorageError(
                f"scenario path {scenario.path!r} needs {sim}, not CrashSim"
            )
        retry = scenario.retry or self.retry
        faulty = FaultyStore(FileStore(directory), scenario.plan)
        if scenario.path == "background":
            return faulty, BackgroundWriter(faulty, retry=retry), None
        return faulty, faulty, retry

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        with self.tracer.span(
            "crashsim.scenario", name=scenario.name, path=scenario.path
        ) as span:
            result = self._run_scenario(scenario)
            span.add(
                crashed=result.crashed,
                durable_epochs=result.durable_epochs,
                ok=result.ok,
            )
        return result

    def _run_scenario(self, scenario: Scenario) -> ScenarioResult:
        directory = os.path.join(self.root_dir, f"run-{scenario.name}")
        shutil.rmtree(directory, ignore_errors=True)
        reference = self.reference()
        faulty, store, retry = self._make_store(scenario, directory)
        self._pin_ids()
        crashed = False
        detail = ""
        try:
            self.workload.run(store, retry=retry)
        except (InjectedCrash, StorageError, OSError) as exc:
            crashed = True
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            self._release_ids()
            # A dead process cannot close anything, but the *simulator*
            # must not leak writer threads across hundreds of scenarios.
            if isinstance(store, BackgroundWriter):
                try:
                    store.close(timeout=5.0)
                except (StorageError, OSError):
                    pass

        injected = list(faulty.injected)

        # -- simulated restart: repair, then recover from a fresh store --
        RecoveryManager(directory, tracer=self.tracer).repair()
        verify = RecoveryManager(directory, tracer=self.tracer).scan()
        fresh = FileStore(directory)
        epochs = fresh.epochs()
        durable = len(epochs)
        if durable == 0:
            recovered = b""
        else:
            self._pin_ids()
            try:
                recovered = table_fingerprint(fresh.recover())
            finally:
                self._release_ids()
        expected = reference.get(durable)
        identical = expected is not None and recovered == expected
        if expected is None:
            detail += f"; no reference for {durable} durable epochs"
        return ScenarioResult(
            name=scenario.name,
            path=scenario.path,
            crashed=crashed,
            durable_epochs=durable,
            recovered_identical=identical,
            fsck_consistent=verify.consistent,
            injected=injected,
            detail=detail,
        )

    def run_matrix(self, scenarios: Sequence[Scenario]) -> List[ScenarioResult]:
        return [self.run_scenario(scenario) for scenario in scenarios]


# ---------------------------------------------------------------------------
# The branching time-travel simulator
# ---------------------------------------------------------------------------

#: epochs the branch script appends on a fault-free run
BRANCH_SCRIPT_EPOCHS = 7


@dataclass
class BranchScript:
    """The deterministic time-travel workload: commit, pin, restore, fork.

    Epoch map of the fault-free run (store append order)::

        0  full   main                base
        1  delta  main                mutate 1
        2  delta  main   name="pin"   mutate 2
        3  delta  main                mutate 3
           -- restore("pin"): auto-fork branch main@2, parent 2 --
        4  delta  main@2 parent=2     mutate 4
           -- fork(at=0, branch="alt"): parent 0 --
        5  delta  alt    parent=0     mutate 5
        6  delta  alt                 mutate 6
    """

    build: Callable[[], Sequence[Checkpointable]]
    mutate: Callable[[Sequence[Checkpointable], int], None]
    epochs: int = BRANCH_SCRIPT_EPOCHS

    def run(
        self,
        store: CheckpointStore,
        session_factory: Callable[..., CheckpointSession] = CheckpointSession,
    ) -> CheckpointSession:
        session = session_factory(roots=self.build(), sink=store)
        session.base()
        self.mutate(session.roots(), 1)
        session.commit()
        self.mutate(session.roots(), 2)
        session.checkpoint("pin")
        self.mutate(session.roots(), 3)
        session.commit()
        session.restore("pin")
        self.mutate(session.roots(), 4)
        session.commit()
        session.fork(at=0, branch="alt")
        self.mutate(session.roots(), 5)
        session.commit()
        self.mutate(session.roots(), 6)
        session.commit()
        session.flush()
        return session


def default_branch_script() -> BranchScript:
    """The default workload's structures, run through the branch script."""
    from repro.synthetic.structures import build_structures, element_at

    def build():
        return build_structures(3, 2, 3, 1)

    def mutate(roots, step):
        compound = roots[step % len(roots)]
        element = element_at(compound, step % 2, step % 3)
        element.v0 = step * 1000 + 7

    return BranchScript(build=build, mutate=mutate)


class _CrashPointSession(CheckpointSession):
    """A session that dies entering (param 0) or leaving (param 1) a
    restore/fork call — the process-death analog one layer above the
    store, where no append is in flight but session state is."""

    def __init__(self, *args, crash_specs=None, crash_log=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._crash_specs: Dict[str, FaultSpec] = crash_specs or {}
        self._crash_log: List[str] = (
            crash_log if crash_log is not None else []
        )

    def _maybe_crash(self, kind: str, point: int, where: str) -> None:
        spec = self._crash_specs.get(kind)
        if spec is not None and int(spec.param) == point:
            self._crash_log.append(where)
            raise InjectedCrash(f"injected {where}")

    def restore(self, target, roots=None):
        self._maybe_crash(
            CRASH_RESTORE, 0, f"crash entering restore({target!r})"
        )
        table = super().restore(target, roots=roots)
        self._maybe_crash(
            CRASH_RESTORE, 1, f"crash leaving restore({target!r})"
        )
        return table

    def fork(self, at=None, branch=None, roots=None):
        self._maybe_crash(CRASH_FORK, 0, f"crash entering fork({branch!r})")
        table = super().fork(at=at, branch=branch, roots=roots)
        self._maybe_crash(CRASH_FORK, 1, f"crash leaving fork({branch!r})")
        return table


class BranchSim:
    """Crash-inject the branching script; verify *every* epoch, per branch.

    The lineage analog of :class:`CrashSim`. The reference run executes
    :class:`BranchScript` fault-free and fingerprints every epoch index
    materialized through its base+delta chain. A scenario replays the
    script with faults armed on the store (append-level kinds) and/or on
    the session itself (``crash-restore`` / ``crash-fork``), repairs the
    directory, and demands that every epoch surviving repair — on both
    sides of every branch point — still materializes byte-identically.
    """

    def __init__(
        self,
        root_dir: str,
        script: Optional[BranchScript] = None,
        retry: Optional[RetryPolicy] = None,
        tracer=None,
    ) -> None:
        self.root_dir = root_dir
        self.script = script or default_branch_script()
        self.retry = retry or RetryPolicy(
            max_attempts=4, base_delay=0.0005, max_delay=0.002
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        os.makedirs(root_dir, exist_ok=True)
        self._id_base = DEFAULT_ALLOCATOR.last_allocated + 1
        self._id_high = self._id_base
        #: fingerprint of the materialized table per epoch index
        self._reference: Optional[Dict[int, bytes]] = None

    def _pin_ids(self) -> None:
        DEFAULT_ALLOCATOR.reset(self._id_base)

    def _release_ids(self) -> None:
        self._id_high = max(self._id_high, DEFAULT_ALLOCATOR.last_allocated)
        DEFAULT_ALLOCATOR.advance_past(self._id_high)

    def reference(self) -> Dict[int, bytes]:
        """Per-epoch-index fingerprints of the fault-free branching run."""
        if self._reference is not None:
            return self._reference
        directory = os.path.join(self.root_dir, "branch-reference")
        shutil.rmtree(directory, ignore_errors=True)
        self._pin_ids()
        try:
            self.script.run(FileStore(directory))
        finally:
            self._release_ids()
        store = FileStore(directory)
        fingerprints: Dict[int, bytes] = {}
        for index in store.lineage().indices():
            self._pin_ids()
            try:
                fingerprints[index] = table_fingerprint(
                    store.materialize(index)
                )
            finally:
                self._release_ids()
        self._reference = fingerprints
        return fingerprints

    def run_scenario(self, scenario: Scenario) -> ScenarioResult:
        with self.tracer.span(
            "crashsim.branch", name=scenario.name
        ) as span:
            result = self._run_scenario(scenario)
            span.add(
                crashed=result.crashed,
                durable_epochs=result.durable_epochs,
                ok=result.ok,
            )
        return result

    def _run_scenario(self, scenario: Scenario) -> ScenarioResult:
        directory = os.path.join(self.root_dir, f"run-{scenario.name}")
        shutil.rmtree(directory, ignore_errors=True)
        reference = self.reference()
        store_plan = FaultPlan(
            [s for s in scenario.plan if s.kind not in SESSION_KINDS]
        )
        crash_specs = {
            s.kind: s for s in scenario.plan if s.kind in SESSION_KINDS
        }
        crash_log: List[str] = []
        retry = scenario.retry or self.retry
        crashed = False
        detail = ""
        faulty = FaultyStore(FileStore(directory), store_plan)

        def session_factory(**kwargs):
            return _CrashPointSession(
                crash_specs=crash_specs, crash_log=crash_log, retry=retry,
                **kwargs,
            )

        self._pin_ids()
        try:
            self.script.run(faulty, session_factory=session_factory)
        except (InjectedCrash, StorageError, OSError) as exc:
            crashed = True
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            self._release_ids()

        injected = list(faulty.injected)
        injected.extend(crash_log)

        # -- simulated restart: repair, then materialize every survivor --
        RecoveryManager(directory, tracer=self.tracer).repair()
        verify = RecoveryManager(directory, tracer=self.tracer).scan()
        fresh = FileStore(directory)
        surviving = fresh.lineage().indices()
        identical = True
        for index in surviving:
            self._pin_ids()
            try:
                recovered = table_fingerprint(fresh.materialize(index))
            finally:
                self._release_ids()
            if reference.get(index) != recovered:
                identical = False
                detail += f"; epoch {index} diverged from reference"
        return ScenarioResult(
            name=scenario.name,
            path=scenario.path,
            crashed=crashed,
            durable_epochs=len(surviving),
            recovered_identical=identical,
            fsck_consistent=verify.consistent,
            injected=injected,
            detail=detail,
        )

    def run_matrix(self, scenarios: Sequence[Scenario]) -> List[ScenarioResult]:
        return [self.run_scenario(scenario) for scenario in scenarios]


def build_branch_matrix(
    epochs: int = BRANCH_SCRIPT_EPOCHS,
) -> List[Scenario]:
    """Scenarios for the branching script: every crash point plus the
    session-level restore/fork crash points."""
    scenarios: List[Scenario] = []
    for kind in (CRASH_BEFORE, CRASH_AFTER, CRASH_TMP):
        for op in range(epochs):
            scenarios.append(
                Scenario(
                    name=f"branch-{kind}-op{op}",
                    plan=FaultPlan.single(FaultSpec(op, kind)),
                    path=BRANCH_PATH,
                )
            )
    # Torn writes before the pin, on the auto-fork branch, at the tail.
    for op in (1, 4, 6):
        scenarios.append(
            Scenario(
                name=f"branch-torn-op{op}",
                plan=FaultPlan.single(FaultSpec(op, TORN, param=7)),
                path=BRANCH_PATH,
            )
        )
    # Silent corruption on a shared ancestor: children of both branches
    # must be stranded together, the other branch must survive.
    for bit in (3, 203):
        scenarios.append(
            Scenario(
                name=f"branch-bitflip-op1-b{bit}",
                plan=FaultPlan.single(FaultSpec(1, BITFLIP, param=bit)),
                path=BRANCH_PATH,
            )
        )
    for kind in (CRASH_RESTORE, CRASH_FORK):
        for point, label in ((0, "enter"), (1, "exit")):
            scenarios.append(
                Scenario(
                    name=f"branch-{kind}-{label}",
                    plan=FaultPlan.single(FaultSpec(0, kind, param=point)),
                    path=BRANCH_PATH,
                )
            )
    scenarios.append(
        Scenario(
            name="branch-transient-x2",
            plan=FaultPlan.single(FaultSpec(4, TRANSIENT, attempts=2)),
            path=BRANCH_PATH,
        )
    )
    return scenarios


def build_matrix(seed: int = 20260806, epochs: int = 6) -> List[Scenario]:
    """The acceptance matrix: ≥ 50 scenarios across all write paths.

    Systematic coverage first — every crash point on every path, torn
    writes at every byte through the header and into the payload, bit
    flips in header and payload, transient bursts against the retry
    policy, stalls — then seeded random plans on top.
    """
    scenarios: List[Scenario] = []

    # Crash points: before / after / mid-append (tmp) at early, middle
    # and last ops, on every path.
    for path in PATHS:
        for kind in (CRASH_BEFORE, CRASH_AFTER, CRASH_TMP):
            for op in (0, epochs // 2, epochs - 1):
                scenarios.append(
                    Scenario(
                        name=f"{path}-{kind}-op{op}",
                        plan=FaultPlan.single(FaultSpec(op, kind)),
                        path=path,
                    )
                )

    # Torn writes: every byte boundary through the header, then strides
    # into the payload (clamped to file size at injection time).
    for offset in list(range(HEADER_SIZE + 1)) + [20, 40, 80]:
        scenarios.append(
            Scenario(
                name=f"store-torn-b{offset}",
                plan=FaultPlan.single(
                    FaultSpec(epochs // 2, TORN, param=offset)
                ),
                path="store",
            )
        )

    # Silent bit flips: header bits and payload bits, two paths.
    for bit in (0, 37, 111, 400, 1600):
        scenarios.append(
            Scenario(
                name=f"sink-bitflip-b{bit}",
                plan=FaultPlan.single(FaultSpec(1, BITFLIP, param=bit)),
                path="sink",
            )
        )

    # Transient bursts the retry policy must absorb, on every path.
    for path in PATHS:
        for attempts in (1, 2, 3):
            scenarios.append(
                Scenario(
                    name=f"{path}-transient-x{attempts}",
                    plan=FaultPlan.single(
                        FaultSpec(1, TRANSIENT, attempts=attempts)
                    ),
                    path=path,
                )
            )

    # Stalls (slow disk) on the async path.
    for op in (0, 2):
        scenarios.append(
            Scenario(
                name=f"background-stall-op{op}",
                plan=FaultPlan.single(FaultSpec(op, STALL, param=0.002)),
                path="background",
            )
        )

    # Seeded random plans for everything the grid above missed.
    store_paths = ("store", "sink", "background")
    for extra in range(8):
        path = store_paths[extra % len(store_paths)]
        scenarios.append(
            Scenario(
                name=f"{path}-seeded-{extra}",
                plan=FaultPlan.generate(seed + extra, ops=epochs),
                path=path,
            )
        )
    # The branching time-travel script, with its session crash points.
    scenarios.extend(build_branch_matrix())
    # The replicated store: volume loss, silent per-replica corruption,
    # torn acked writes, quorum loss, all-ack quorums, a 5-wide group.
    scenarios.extend(build_replica_matrix(epochs=epochs))
    return scenarios


def run(
    root_dir: str, seed: int = 20260806, epochs: int = 6
) -> dict:
    """Run the full matrix; returns a JSON-serializable summary."""
    scenarios = build_matrix(seed=seed, epochs=epochs)
    linear = [
        s for s in scenarios if s.path not in (BRANCH_PATH, REPLICA_PATH)
    ]
    branching = [s for s in scenarios if s.path == BRANCH_PATH]
    replicated = [s for s in scenarios if s.path == REPLICA_PATH]
    results = CrashSim(root_dir).run_matrix(linear)
    results += BranchSim(os.path.join(root_dir, BRANCH_PATH)).run_matrix(
        branching
    )
    results += ReplicaSim(os.path.join(root_dir, REPLICA_PATH)).run_matrix(
        replicated
    )
    failures = [result for result in results if not result.ok]
    return {
        "seed": seed,
        "epochs": epochs,
        "total": len(results),
        "failures": len(failures),
        "scenarios": [result.to_dict() for result in results],
    }


def summarize(summary: dict) -> str:
    lines = [
        f"crashsim: {summary['total']} scenarios, "
        f"{summary['failures']} failure(s) (seed {summary['seed']})"
    ]
    for entry in summary["scenarios"]:
        if not entry["ok"]:
            lines.append(
                f"  FAIL {entry['name']} [{entry['path']}]: "
                f"durable={entry['durable_epochs']} "
                f"identical={entry['recovered_identical']} "
                f"fsck={entry['fsck_consistent']} {entry['detail']}"
            )
    return "\n".join(lines)


def save_json(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
