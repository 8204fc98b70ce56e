"""Replica-loss and replica-corruption scenarios for the crash matrix.

:class:`ReplicaSim` is the :class:`~repro.faults.crashsim.CrashSim`
analog for the replicated store: the same deterministic workload commits
through a :class:`~repro.core.replica.ReplicatedStore` over N file-backed
replicas, with faults armed *per replica* — a volume dies mid-run, a
record silently rots on one copy, a write tears after it was acked — or
on the fan-out stream itself (process crash mid-commit, transient
errors, stalls, via the generic :class:`~repro.faults.inject.FaultyStore`
kinds on replica 0).

After the run the simulator simulates a restart: fresh
:class:`~repro.core.storage.FileStore` handles over the replica
directories (a dead volume comes back readable — its *content* is still
whatever it held at death), one scrub pass, then recovery through the
quorum view. It demands:

1. whenever a write quorum survived, the recovered table is
   **byte-identical** to the fault-free reference at the same durable
   epoch count — and even after a quorum *loss*, the surviving prefix
   recovers byte-identically;
2. the scrub pass heals every replica (no unrepairable epochs, no
   repair errors) and quarantines — never deletes — divergent records;
3. after scrub, every replica directory passes ``fsck`` and holds
   byte-identical epoch files;
4. a fenced replica never blocks commits while the quorum holds.
"""

from __future__ import annotations

import filecmp
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.errors import StorageError
from repro.core.ids import DEFAULT_ALLOCATOR
from repro.core.replica import ReplicatedStore
from repro.core.retry import RetryPolicy
from repro.core.storage import FileStore
from repro.faults.inject import FaultyStore, InjectedCrash, ReplicaFaultStore
from repro.faults.plan import (
    KILL_REPLICA,
    REPLICA_KINDS,
    SESSION_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.fsck.manager import RecoveryManager
from repro.obs.tracer import NULL_TRACER

#: the replicated-store path, handled by :class:`ReplicaSim`
REPLICA_PATH = "replica"


@dataclass
class ReplicaScenario:
    """One replicated-store fault run.

    ``plan`` may mix replica-scoped kinds (each spec's ``replica``
    ordinal picks its target) with generic append-stream kinds, which
    are armed on replica 0 through a
    :class:`~repro.faults.inject.FaultyStore`.
    """

    name: str
    plan: FaultPlan
    replicas: int = 3
    quorum: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    path: str = REPLICA_PATH

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise StorageError("a replica scenario needs >= 1 replica")
        for spec in self.plan:
            if spec.kind in SESSION_KINDS:
                raise StorageError(
                    f"fault kind {spec.kind!r} has no session here"
                )
            if spec.kind in REPLICA_KINDS and not (
                0 <= spec.replica < self.replicas
            ):
                raise StorageError(
                    f"fault targets replica {spec.replica} but the "
                    f"scenario has {self.replicas}"
                )

    @property
    def killed(self) -> int:
        """Distinct replicas a kill-replica spec takes down."""
        return len(
            {s.replica for s in self.plan if s.kind == KILL_REPLICA}
        )

    @property
    def quorum_size(self) -> int:
        return self.quorum or (self.replicas // 2 + 1)

    @property
    def quorum_survives(self) -> bool:
        """Whether enough replicas outlive the plan to keep committing."""
        return (self.replicas - self.killed) >= self.quorum_size


class ReplicaSim:
    """Run the workload over replicated storage under per-replica faults.

    Shares :class:`~repro.faults.crashsim.CrashSim`'s reference
    discipline: one fault-free single-store run fingerprints the
    recovered table per durable-epoch count, and every scenario's
    post-scrub quorum recovery must match at its own durable count.
    """

    def __init__(
        self,
        root_dir: str,
        workload=None,
        retry: Optional[RetryPolicy] = None,
        tracer=None,
    ) -> None:
        from repro.faults.crashsim import CrashSim, default_workload

        self.root_dir = root_dir
        self.workload = workload or default_workload()
        self.retry = retry or RetryPolicy(
            max_attempts=4, base_delay=0.0005, max_delay=0.002
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        os.makedirs(root_dir, exist_ok=True)
        # reuse CrashSim's reference machinery (same workload, same
        # id-pinning) rather than growing a second copy of it
        self._refsim = CrashSim(
            os.path.join(root_dir, "single-reference"),
            workload=self.workload,
            retry=self.retry,
            tracer=self.tracer,
        )
        self._id_base = self._refsim._id_base
        self._id_high = self._id_base

    def reference(self) -> Dict[int, bytes]:
        return self._refsim.reference()

    def _pin_ids(self) -> None:
        self._id_high = max(self._id_high, self._refsim._id_high)
        DEFAULT_ALLOCATOR.reset(self._id_base)

    def _release_ids(self) -> None:
        self._id_high = max(self._id_high, DEFAULT_ALLOCATOR.last_allocated)
        self._refsim._id_high = max(self._refsim._id_high, self._id_high)
        DEFAULT_ALLOCATOR.advance_past(self._id_high)

    # -- scenario runs -----------------------------------------------------

    # ReplicaSim also accepts plain crashsim Scenarios routed to the
    # "replica" path (generic crash/transient kinds on the fan-out
    # stream); those carry no replica-count field, so default to 3.

    @staticmethod
    def _replica_count(scenario) -> int:
        return getattr(scenario, "replicas", 3)

    def _replica_dirs(self, scenario, base: str) -> List[str]:
        return [
            os.path.join(base, f"replica-{i}")
            for i in range(self._replica_count(scenario))
        ]

    def _build_store(self, scenario, dirs: Sequence[str]) -> ReplicatedStore:
        replica_plan = FaultPlan(
            [s for s in scenario.plan if s.kind in REPLICA_KINDS]
        )
        stream_plan = FaultPlan(
            [s for s in scenario.plan if s.kind not in REPLICA_KINDS]
        )
        children = []
        for ordinal, directory in enumerate(dirs):
            child = FileStore(directory)
            if ordinal == 0 and len(stream_plan):
                child = FaultyStore(child, stream_plan)
            children.append(ReplicaFaultStore(child, replica_plan, ordinal))
        return ReplicatedStore(
            children,
            quorum=getattr(scenario, "quorum", None),
            retry=scenario.retry or self.retry,
            # tight breaker so a six-epoch workload exercises
            # fence + probe, not just suspicion
            suspect_after=1,
            fence_after=2,
            probe_after=2,
            probe_jitter=1,
        )

    def run_scenario(self, scenario: ReplicaScenario):
        with self.tracer.span(
            "crashsim.replica", name=scenario.name
        ) as span:
            result = self._run_scenario(scenario)
            span.add(
                crashed=result.crashed,
                durable_epochs=result.durable_epochs,
                ok=result.ok,
            )
        return result

    def _run_scenario(self, scenario: ReplicaScenario):
        from repro.faults.crashsim import ScenarioResult, table_fingerprint

        base = os.path.join(self.root_dir, f"run-{scenario.name}")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base, exist_ok=True)
        reference = self.reference()
        dirs = self._replica_dirs(scenario, base)
        crashed = False
        detail = ""
        store = self._build_store(scenario, dirs)
        self._pin_ids()
        try:
            self.workload.run(store)
        except (InjectedCrash, StorageError, OSError) as exc:
            crashed = True
            detail = f"{type(exc).__name__}: {exc}"
        finally:
            self._release_ids()

        injected: List[str] = []
        for state in store.replica_status():
            if state["state"] != "healthy" or state["behind"]:
                injected.append(
                    f"{state['name']}: {state['state']}"
                    + (" behind" if state["behind"] else "")
                )
        for rep_state in store._states:
            wrapper = rep_state.store
            injected.extend(getattr(wrapper, "injected", []))
            inner = getattr(wrapper, "backing", None)
            injected.extend(getattr(inner, "injected", []))

        # -- simulated restart: plain stores over the same directories --
        # (a killed volume comes back *readable*; its content is whatever
        # it held at death — behind and possibly damaged)
        restarted = ReplicatedStore(
            [FileStore(d) for d in dirs],
            quorum=getattr(scenario, "quorum", None),
        )
        scrub = restarted.scrub()
        healed = scrub.healed

        fsck_consistent = True
        for directory in dirs:
            RecoveryManager(directory, tracer=self.tracer).repair()
            if not RecoveryManager(
                directory, tracer=self.tracer
            ).scan().consistent:
                fsck_consistent = False
                detail += f"; fsck inconsistent: {os.path.basename(directory)}"

        # after a heal, every replica must hold byte-identical epoch files
        if healed and not self._replicas_identical(dirs):
            healed = False
            detail += "; replicas differ after scrub"

        epochs = restarted.epochs()
        durable = len(epochs)
        if durable == 0:
            recovered = b""
        else:
            self._pin_ids()
            try:
                recovered = table_fingerprint(restarted.recover())
            finally:
                self._release_ids()
        expected = reference.get(durable)
        identical = expected is not None and recovered == expected
        if expected is None:
            detail += f"; no reference for {durable} durable epochs"
        # A replica loss the quorum absorbs must never surface as a
        # failed commit (a process-crash fault is a different story:
        # the process dying is exactly what it injects).
        replicas = self._replica_count(scenario)
        quorum = getattr(scenario, "quorum", None) or (replicas // 2 + 1)
        killed = len(
            {s.replica for s in scenario.plan if s.kind == KILL_REPLICA}
        )
        quorum_survives = (replicas - killed) >= quorum
        expect_commit_ok = quorum_survives and not any(
            s.crashes for s in scenario.plan
        )
        if expect_commit_ok and crashed:
            identical = False
            detail += "; commit stalled although the write quorum survived"
        if scrub.repaired:
            injected.append(
                f"scrub repaired {len(scrub.repaired)} record(s), "
                f"quarantined {len(scrub.quarantined)}"
            )
        return ScenarioResult(
            name=scenario.name,
            path=scenario.path,
            crashed=crashed,
            durable_epochs=durable,
            recovered_identical=identical,
            fsck_consistent=fsck_consistent and healed,
            injected=injected,
            detail=detail,
        )

    @staticmethod
    def _replicas_identical(dirs: Sequence[str]) -> bool:
        names = sorted(
            name
            for name in os.listdir(dirs[0])
            if name.startswith("epoch-") and name.endswith(".ckpt")
        )
        for other in dirs[1:]:
            other_names = sorted(
                name
                for name in os.listdir(other)
                if name.startswith("epoch-") and name.endswith(".ckpt")
            )
            if other_names != names:
                return False
            match, mismatch, errors = filecmp.cmpfiles(
                dirs[0], other, names, shallow=False
            )
            if mismatch or errors:
                return False
        return True

    def run_matrix(self, scenarios: Sequence[ReplicaScenario]):
        return [self.run_scenario(scenario) for scenario in scenarios]


def build_replica_matrix(epochs: int = 6) -> List[ReplicaScenario]:
    """The replica acceptance scenarios.

    Every replica dies at every interesting op; silent corruption and
    torn acked writes on each replica; combined loss+rot; quorum loss;
    all-ack quorums; a wider 5-replica group. Every scenario where the
    write quorum survives must recover byte-identically.
    """
    from repro.faults.plan import CORRUPT_REPLICA, TORN_REPLICA, TRANSIENT

    scenarios: List[ReplicaScenario] = []

    # A pulled volume: each replica, early / middle / last op.
    for replica in range(3):
        for op in (0, epochs // 2, epochs - 1):
            scenarios.append(
                ReplicaScenario(
                    name=f"replica-kill-r{replica}-op{op}",
                    plan=FaultPlan.single(
                        FaultSpec(op, KILL_REPLICA, replica=replica)
                    ),
                )
            )

    # Silent bit rot through the child store's own framing: only the
    # end-to-end sha256 can see it. Header-ish and payload offsets.
    for replica in range(3):
        for offset in (5, 100):
            scenarios.append(
                ReplicaScenario(
                    name=f"replica-corrupt-r{replica}-b{offset}",
                    plan=FaultPlan.single(
                        FaultSpec(
                            epochs // 2,
                            CORRUPT_REPLICA,
                            param=offset,
                            replica=replica,
                        )
                    ),
                )
            )

    # A torn write the replica acked before the power failed.
    for replica in range(3):
        scenarios.append(
            ReplicaScenario(
                name=f"replica-torn-r{replica}",
                plan=FaultPlan.single(
                    FaultSpec(
                        epochs - 1, TORN_REPLICA, param=10, replica=replica
                    )
                ),
            )
        )

    # Loss and rot together, quorum still intact.
    scenarios.append(
        ReplicaScenario(
            name="replica-kill-r0-corrupt-r2",
            plan=FaultPlan(
                [
                    FaultSpec(1, KILL_REPLICA, replica=0),
                    FaultSpec(3, CORRUPT_REPLICA, param=40, replica=2),
                ]
            ),
        )
    )
    scenarios.append(
        ReplicaScenario(
            name="replica-kill-r1-torn-r2",
            plan=FaultPlan(
                [
                    FaultSpec(2, KILL_REPLICA, replica=1),
                    FaultSpec(4, TORN_REPLICA, param=8, replica=2),
                ]
            ),
        )
    )

    # Quorum loss: two of three volumes die; commits must stop, and the
    # surviving prefix must still recover byte-identically.
    scenarios.append(
        ReplicaScenario(
            name="replica-quorum-loss",
            plan=FaultPlan(
                [
                    FaultSpec(1, KILL_REPLICA, replica=1),
                    FaultSpec(3, KILL_REPLICA, replica=2),
                ]
            ),
        )
    )

    # quorum=N (all must ack): a single death fails commits...
    scenarios.append(
        ReplicaScenario(
            name="replica-allack-kill",
            plan=FaultPlan.single(FaultSpec(2, KILL_REPLICA, replica=1)),
            quorum=3,
        )
    )
    # ...while transient blips on the fan-out stream are absorbed.
    scenarios.append(
        ReplicaScenario(
            name="replica-allack-transient",
            plan=FaultPlan.single(FaultSpec(1, TRANSIENT, attempts=2)),
            quorum=3,
        )
    )

    # A wider group: five replicas, majority quorum, two deaths survive.
    scenarios.append(
        ReplicaScenario(
            name="replica-5wide-kill2",
            plan=FaultPlan(
                [
                    FaultSpec(1, KILL_REPLICA, replica=0),
                    FaultSpec(2, KILL_REPLICA, replica=4),
                ]
            ),
            replicas=5,
        )
    )
    scenarios.append(
        ReplicaScenario(
            name="replica-5wide-rot3",
            plan=FaultPlan(
                [
                    FaultSpec(1, CORRUPT_REPLICA, param=12, replica=1),
                    FaultSpec(3, TORN_REPLICA, param=6, replica=2),
                    FaultSpec(4, CORRUPT_REPLICA, param=80, replica=3),
                ]
            ),
            replicas=5,
        )
    )

    return scenarios
