"""The crash simulator: prove recovery, don't assume it.

:class:`CrashSim` runs every scenario of :func:`build_matrix` through one
loop. A fault-free *reference* run of each deterministic workload — the
linear :class:`Workload` and the time-travel :class:`BranchScript` —
fingerprints the object table every epoch index materializes to. Each
*scenario* then replays its path's workload (same structures, same
mutation schedule, same object identifiers — the id allocator is
pinned) against fault-injected storage, "crashes" wherever the plan
says, simulates a restart — every directory the run left is repaired
by :class:`~repro.fsck.manager.RecoveryManager` and reopened — and
demands:

1. every epoch index that survived repair materializes to a table
   **byte-identical** to the reference at that index (the recovery
   invariant, on every branch);
2. a post-repair ``fsck`` scan reports every directory consistent.

Only the wiring is path-specific (:data:`PATHS`):

- ``store``: a :class:`~repro.faults.inject.FaultyStore` over a
  :class:`~repro.core.storage.FileStore`, retried by the session;
- ``background``: the same store behind a
  :class:`~repro.core.storage.BackgroundWriter` that retries;
- ``branch``: the time-travel script (commit, named pin, restore,
  fork), with ``crash-restore``/``crash-fork`` armed on the session's
  own restore/fork calls;
- ``replica``: a :class:`~repro.core.replica.ReplicatedStore` over
  :class:`~repro.faults.inject.ReplicaFaultStore` children (replica
  kinds target one child; generic kinds ride replica 0's append
  stream). The restart reopens the replicas as plain stores and scrubs
  them, and the path adds three checks: the scrub heals, the replica
  epoch files end byte-identical, and no commit fails while a write
  quorum survives.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.checkpointable import Checkpointable
from repro.core.errors import StorageError
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.replica import ReplicatedStore
from repro.core.restore import ObjectTable
from repro.core.retry import RetryPolicy
from repro.core.storage import BackgroundWriter, CheckpointStore, FileStore
from repro.core.streams import DataOutputStream
from repro.faults.inject import FaultyStore, InjectedCrash, ReplicaFaultStore
from repro.faults.plan import (
    BITFLIP,
    CORRUPT_REPLICA,
    CRASH_AFTER,
    CRASH_BEFORE,
    CRASH_FORK,
    CRASH_RESTORE,
    CRASH_TMP,
    KILL_REPLICA,
    REPLICA_KINDS,
    SESSION_KINDS,
    STALL,
    TORN,
    TORN_REPLICA,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
)
from repro.fsck.manager import RecoveryManager
from repro.obs.tracer import NULL_TRACER
from repro.runtime.session import CheckpointSession

#: the branching time-travel path: the only one with session kinds
BRANCH_PATH = "branch"

#: the replicated-store path: the only one with replica kinds
REPLICA_PATH = "replica"

#: every path a scenario can take
PATHS = ("store", "background", BRANCH_PATH, REPLICA_PATH)

#: size of the epoch frame header, for torn-write offset sweeps
HEADER_SIZE = 14

#: the retry policy of whichever layer retries on a path (the session,
#: the background writer, or the replicated store)
RETRY = RetryPolicy(max_attempts=4, base_delay=0.0005, max_delay=0.002)


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
        self,
        store: CheckpointStore,
        session_factory: Callable[..., CheckpointSession] = CheckpointSession,
    ) -> CheckpointSession:
        roots = self.build()
        session = session_factory(roots=roots, sink=store)
        session.base()
        for step in range(1, self.epochs):
            self.mutate(roots, step)
            session.commit()
        session.flush()
        return session


def _build_default():
    from repro.synthetic.structures import build_structures

    return build_structures(3, 2, 3, 1)


def _mutate_default(roots, step):
    from repro.synthetic.structures import element_at

    compound = roots[step % len(roots)]
    element = element_at(compound, step % 2, step % 3)
    element.v0 = step * 1000 + 7


def default_workload(epochs: int = 6) -> Workload:
    """Three compound structures, two lists of three elements each."""
    return Workload(build=_build_default, mutate=_mutate_default, epochs=epochs)


#: epochs the branch script appends on a fault-free run
BRANCH_SCRIPT_EPOCHS = 7


@dataclass
class BranchScript(Workload):
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
    return BranchScript(build=_build_default, mutate=_mutate_default)


@dataclass
class Scenario:
    """One fault-injection run: a plan on one path.

    ``replicas`` and ``quorum`` size the replicated store of the
    ``replica`` path (``quorum=None`` is a majority); other paths keep
    the defaults.
    """

    name: str
    plan: FaultPlan
    path: str = "store"
    replicas: int = 3
    quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.path not in PATHS:
            raise StorageError(f"unknown scenario path {self.path!r}")
        sized = self.replicas != 3 or self.quorum is not None
        if sized and self.path != REPLICA_PATH:
            raise StorageError(
                f"replicas/quorum apply only to the {REPLICA_PATH!r} path"
            )
        if self.replicas < 1:
            raise StorageError("a replica scenario needs >= 1 replica")
        for spec in self.plan:
            if spec.kind in SESSION_KINDS and self.path != BRANCH_PATH:
                raise StorageError(
                    f"fault kind {spec.kind!r} needs the {BRANCH_PATH!r} path"
                )
            if spec.kind not in REPLICA_KINDS:
                continue
            if self.path != REPLICA_PATH:
                raise StorageError(
                    f"fault kind {spec.kind!r} needs the {REPLICA_PATH!r} path"
                )
            if not 0 <= spec.replica < self.replicas:
                raise StorageError(
                    f"fault targets replica {spec.replica} but the "
                    f"scenario has {self.replicas}"
                )

    @property
    def killed(self) -> int:
        """Distinct replicas a kill-replica spec takes down."""
        return len({s.replica for s in self.plan if s.kind == KILL_REPLICA})

    @property
    def quorum_size(self) -> int:
        return self.quorum or (self.replicas // 2 + 1)

    @property
    def quorum_survives(self) -> bool:
        """Whether enough replicas outlive the plan to keep committing."""
        return (self.replicas - self.killed) >= self.quorum_size


@dataclass
class ScenarioResult:
    """What one scenario did and whether recovery held."""

    name: str
    path: str
    crashed: bool
    #: epoch indices that survived repair
    durable_epochs: int
    #: every survivor byte-identical to the reference at its index
    recovered_identical: bool
    #: fsck reports every repaired directory consistent
    fsck_consistent: bool
    #: faults actually injected (and, on the replica path, what the
    #: run left degraded and what the scrub repaired)
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


@dataclass
class _Wiring:
    """The path-specific half of one scenario run."""

    #: what the session commits into
    store: CheckpointStore
    session: Callable[..., CheckpointSession]
    #: every directory the run leaves behind
    dirs: List[str]
    #: the fault-injecting wrappers, read for their ``injected`` notes
    faulty: List[CheckpointStore]
    #: opens ``dirs`` as a restarted process would
    reopen: Callable[[], CheckpointStore]
    #: session-level crash points that fired
    crash_log: List[str] = field(default_factory=list)


def _epoch_files(directory: str) -> List[str]:
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("epoch-") and name.endswith(".ckpt")
    )


def _replicas_identical(dirs: Sequence[str]) -> bool:
    names = _epoch_files(dirs[0])
    for other in dirs[1:]:
        if _epoch_files(other) != names:
            return False
        _, mismatch, errors = filecmp.cmpfiles(
            dirs[0], other, names, shallow=False
        )
        if mismatch or errors:
            return False
    return True


class CrashSim:
    """Run scenarios of any path under injected faults; verify recovery.

    ``root_dir`` is the working directory (each scenario runs in
    ``run-<name>`` under it); ``tracer`` receives one
    ``crashsim.scenario`` span per scenario.
    """

    def __init__(self, root_dir: str, tracer=None) -> None:
        self.root_dir = root_dir
        #: observability hook; the no-op singleton unless one is supplied
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.workload = default_workload()
        self.script = default_branch_script()
        os.makedirs(root_dir, exist_ok=True)
        #: all runs allocate ids from this base, so runs are comparable
        self._id_base = DEFAULT_ALLOCATOR.last_allocated + 1
        self._id_high = self._id_base
        #: per workload: fingerprint of the materialized table per index
        self._references: Dict[str, Dict[int, bytes]] = {}

    @contextmanager
    def _pinned_ids(self):
        DEFAULT_ALLOCATOR.reset(self._id_base)
        try:
            yield
        finally:
            self._id_high = max(
                self._id_high, DEFAULT_ALLOCATOR.last_allocated
            )
            DEFAULT_ALLOCATOR.advance_past(self._id_high)

    def _workload(self, path: str) -> Workload:
        return self.script if path == BRANCH_PATH else self.workload

    def _fingerprints(self, store: CheckpointStore) -> Dict[int, bytes]:
        """Fingerprint of every epoch index of ``store``, materialized."""
        lineage = store.lineage()
        fingerprints = {}
        for index in lineage.indices():
            with self._pinned_ids():
                fingerprints[index] = table_fingerprint(
                    store.materialize(index, lineage=lineage)
                )
        return fingerprints

    def reference(self, path: str = "store") -> Dict[int, bytes]:
        """Per-epoch-index fingerprints of the fault-free run of the
        workload ``path`` runs (computed once per sim)."""
        key = "branch" if path == BRANCH_PATH else "linear"
        if key not in self._references:
            directory = os.path.join(self.root_dir, f"reference-{key}")
            shutil.rmtree(directory, ignore_errors=True)
            with self._pinned_ids():
                self._workload(path).run(FileStore(directory))
            self._references[key] = self._fingerprints(FileStore(directory))
        return self._references[key]

    # -- per-path wiring ---------------------------------------------------

    def _wire(self, scenario: Scenario, directory: str) -> _Wiring:
        if scenario.path == REPLICA_PATH:
            return self._wire_replicas(scenario, directory)
        faulty = FaultyStore(
            FileStore(directory),
            FaultPlan([s for s in scenario.plan if s.kind not in SESSION_KINDS]),
        )
        wiring = _Wiring(
            faulty,
            partial(CheckpointSession, retry=RETRY),
            [directory],
            [faulty],
            partial(FileStore, directory),
        )
        if scenario.path == "background":
            wiring.store = BackgroundWriter(faulty, retry=RETRY)
            wiring.session = CheckpointSession
        elif scenario.path == BRANCH_PATH:
            wiring.session = partial(
                _CrashPointSession,
                crash_specs={
                    s.kind: s for s in scenario.plan if s.kind in SESSION_KINDS
                },
                crash_log=wiring.crash_log,
                retry=RETRY,
            )
        return wiring

    def _wire_replicas(self, scenario: Scenario, base: str) -> _Wiring:
        dirs = [
            os.path.join(base, f"replica-{i}") for i in range(scenario.replicas)
        ]
        replica_plan = FaultPlan(
            [s for s in scenario.plan if s.kind in REPLICA_KINDS]
        )
        stream_plan = FaultPlan(
            [s for s in scenario.plan if s.kind not in REPLICA_KINDS]
        )
        children: List[CheckpointStore] = []
        stream: List[CheckpointStore] = []
        for ordinal, directory in enumerate(dirs):
            child = FileStore(directory)
            if ordinal == 0 and len(stream_plan):
                child = FaultyStore(child, stream_plan)
                stream.append(child)
            children.append(ReplicaFaultStore(child, replica_plan, ordinal))
        store = ReplicatedStore(
            children,
            quorum=scenario.quorum,
            retry=RETRY,
            # tight breaker so a six-epoch workload exercises
            # fence + probe, not just suspicion
            suspect_after=1,
            fence_after=2,
            probe_after=2,
            probe_jitter=1,
        )
        # a killed volume comes back *readable*, holding whatever it
        # had at death
        return _Wiring(
            store,
            CheckpointSession,
            dirs,
            children + stream,
            lambda: ReplicatedStore(
                [FileStore(d) for d in dirs], quorum=scenario.quorum
            ),
        )

    # -- the one loop ------------------------------------------------------

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
        reference = self.reference(scenario.path)
        wiring = self._wire(scenario, directory)
        crashed = False
        detail = ""
        try:
            with self._pinned_ids():
                self._workload(scenario.path).run(wiring.store, wiring.session)
        except (InjectedCrash, StorageError, OSError) as exc:
            crashed = True
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            # A dead process cannot close anything, but the *simulator*
            # must not leak writer threads across hundreds of scenarios.
            if isinstance(wiring.store, BackgroundWriter):
                try:
                    wiring.store.close(timeout=5.0)
                except (StorageError, OSError):
                    pass
        injected = [note for store in wiring.faulty for note in store.injected]
        injected += wiring.crash_log

        # -- simulated restart: scrub replicas, repair every directory,
        # then materialize every survivor from a fresh store --
        scrub = None
        if scenario.path == REPLICA_PATH:
            injected = [
                f"{state['name']}: {state['state']}"
                + (" behind" if state["behind"] else "")
                for state in wiring.store.replica_status()
                if state["state"] != "healthy" or state["behind"]
            ] + injected
            scrub = wiring.reopen().scrub()

        consistent = True
        for each in wiring.dirs:
            RecoveryManager(each, tracer=self.tracer).repair()
            if not RecoveryManager(each, tracer=self.tracer).scan().consistent:
                consistent = False
                detail += f"; fsck inconsistent: {os.path.basename(each)}"
        survivors = self._fingerprints(wiring.reopen())
        identical = True
        for index, recovered in survivors.items():
            if reference.get(index) != recovered:
                identical = False
                detail += f"; epoch {index} diverged from reference"

        if scrub is not None:
            if scrub.repaired:
                injected.append(
                    f"scrub repaired {len(scrub.repaired)} record(s), "
                    f"quarantined {len(scrub.quarantined)}"
                )
            if not scrub.healed:
                consistent = False
                detail += "; scrub left unrepairable records"
            elif not _replicas_identical(wiring.dirs):
                consistent = False
                detail += "; replicas differ after scrub"
            # A replica loss the quorum absorbs must never surface as a
            # failed commit (a process-crash fault is a different story:
            # the process dying is exactly what it injects).
            if (
                crashed
                and scenario.quorum_survives
                and not any(s.crashes for s in scenario.plan)
            ):
                identical = False
                detail += "; commit stalled although the write quorum survived"

        return ScenarioResult(
            name=scenario.name,
            path=scenario.path,
            crashed=crashed,
            durable_epochs=len(survivors),
            recovered_identical=identical,
            fsck_consistent=consistent,
            injected=injected,
            detail=detail,
        )

    def run_matrix(self, scenarios: Sequence[Scenario]) -> List[ScenarioResult]:
        return [self.run_scenario(scenario) for scenario in scenarios]


# ---------------------------------------------------------------------------
# The scenario matrix
# ---------------------------------------------------------------------------


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
    # A transient burst on the auto-fork branch's first append.
    scenarios.append(
        Scenario(
            name="branch-transient-x2-op4",
            plan=FaultPlan.single(FaultSpec(4, TRANSIENT, attempts=2)),
            path=BRANCH_PATH,
        )
    )
    return scenarios


def build_replica_matrix(epochs: int = 6) -> List[Scenario]:
    """The replicated-store scenarios.

    Every replica dies at every interesting op; silent corruption and
    torn acked writes on each replica; combined loss+rot; quorum loss;
    all-ack quorums; a wider 5-replica group. Every scenario where the
    write quorum survives must commit without a stall.
    """

    def replica(name, specs, **sizing):
        return Scenario(
            name=f"replica-{name}",
            plan=FaultPlan(specs),
            path=REPLICA_PATH,
            **sizing,
        )

    scenarios: List[Scenario] = []
    # A pulled volume: each replica, early / middle / last op.
    for r in range(3):
        for op in (0, epochs // 2, epochs - 1):
            scenarios.append(
                replica(f"kill-r{r}-op{op}", [FaultSpec(op, KILL_REPLICA, replica=r)])
            )
    # Silent bit rot through the child store's own framing: only the
    # end-to-end sha256 can see it. Header-ish and payload offsets.
    for r in range(3):
        for offset in (5, 100):
            scenarios.append(
                replica(
                    f"corrupt-r{r}-b{offset}",
                    [
                        FaultSpec(
                            epochs // 2, CORRUPT_REPLICA, param=offset, replica=r
                        )
                    ],
                )
            )
    # A torn write the replica acked before the power failed.
    for r in range(3):
        scenarios.append(
            replica(
                f"torn-r{r}",
                [FaultSpec(epochs - 1, TORN_REPLICA, param=10, replica=r)],
            )
        )
    # Loss and rot together, quorum still intact.
    scenarios.append(
        replica(
            "kill-r0-corrupt-r2",
            [
                FaultSpec(1, KILL_REPLICA, replica=0),
                FaultSpec(3, CORRUPT_REPLICA, param=40, replica=2),
            ],
        )
    )
    scenarios.append(
        replica(
            "kill-r1-torn-r2",
            [
                FaultSpec(2, KILL_REPLICA, replica=1),
                FaultSpec(4, TORN_REPLICA, param=8, replica=2),
            ],
        )
    )
    # Quorum loss: two of three volumes die; commits must stop, and the
    # surviving prefix must still recover byte-identically.
    scenarios.append(
        replica(
            "quorum-loss",
            [
                FaultSpec(1, KILL_REPLICA, replica=1),
                FaultSpec(3, KILL_REPLICA, replica=2),
            ],
        )
    )
    # quorum=N (all must ack): a single death fails commits...
    scenarios.append(
        replica(
            "allack-kill", [FaultSpec(2, KILL_REPLICA, replica=1)], quorum=3
        )
    )
    # ...while transient blips on the fan-out stream are absorbed.
    scenarios.append(
        replica(
            "allack-transient", [FaultSpec(1, TRANSIENT, attempts=2)], quorum=3
        )
    )
    # A wider group: five replicas, majority quorum, two deaths survive.
    scenarios.append(
        replica(
            "5wide-kill2",
            [
                FaultSpec(1, KILL_REPLICA, replica=0),
                FaultSpec(2, KILL_REPLICA, replica=4),
            ],
            replicas=5,
        )
    )
    scenarios.append(
        replica(
            "5wide-rot3",
            [
                FaultSpec(1, CORRUPT_REPLICA, param=12, replica=1),
                FaultSpec(3, TORN_REPLICA, param=6, replica=2),
                FaultSpec(4, CORRUPT_REPLICA, param=80, replica=3),
            ],
            replicas=5,
        )
    )
    return scenarios


def build_matrix(seed: int = 20260806, epochs: int = 6) -> List[Scenario]:
    """The acceptance matrix: every path, each plan once, unique names.

    Systematic coverage first — every crash point on every append path,
    torn writes at every byte through the header and into the payload,
    bit flips in header and payload, transient bursts against the retry
    policy, stalls — then seeded random plans, the branching script's
    op-by-op sweep, and the replicated-store scenarios.
    """
    scenarios: List[Scenario] = []

    # Crash points: before / after / mid-append (tmp) at early, middle
    # and last ops (the branch path sweeps every op below).
    for path in ("store", "background", REPLICA_PATH):
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
            )
        )

    # Silent bit flips: header bits and payload bits.
    for bit in (0, 37, 111, 400, 1600):
        scenarios.append(
            Scenario(
                name=f"store-bitflip-b{bit}",
                plan=FaultPlan.single(FaultSpec(1, BITFLIP, param=bit)),
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
    for extra in range(8):
        path = "background" if extra % 3 == 2 else "store"
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
    results = CrashSim(root_dir).run_matrix(
        build_matrix(seed=seed, epochs=epochs)
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
