"""The checkpoint session: one seam over the paper's whole pipeline.

``generic driver → specialized per-phase routine → output stream → stable
storage`` used to be wired separately by every consumer in this
repository. A :class:`CheckpointSession` owns that pipeline once:

- the **root objects** being checkpointed (a fixed sequence or a callable
  for live collections),
- the **strategy** producing each checkpoint's bytes, selected by name
  through a :class:`~repro.runtime.strategy.StrategyRegistry` and
  overridable *per phase* — the paper's per-phase specialization means a
  session swaps strategies at phase boundaries
  (:meth:`CheckpointSession.bind`),
- the **epoch policy** deciding full-vs-delta cadence and delta-chain
  length bounds (:class:`~repro.runtime.policy.EpochPolicy`), including
  automatic compaction of the attached store,
- the **store** the committed epochs drain into (any
  :class:`~repro.core.storage.CheckpointStore`, passed as ``sink=``).

Typical lifecycle::

    session = CheckpointSession(roots=root, sink="ckpts/")
    session.base()                    # full checkpoint: the recovery base
    while working:
        mutate(root)                  # flags tracked by the framework
        session.commit()              # one incremental delta epoch
    table = session.recover()         # base + deltas -> live state

Commits are byte-identical to the direct driver paths they replaced; the
equivalence test suite pins this for every strategy tier.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.checkpoint import (
    CheckingCheckpoint,
    FullCheckpoint,
    restore_flags,
    set_all_flags,
    snapshot_flags,
)
from repro.core.checkpointable import Checkpointable
from repro.core.errors import CheckpointError, RestoreError, StorageError
from repro.core.lineage import AUTO, MAIN_BRANCH, EpochRef, Lineage
from repro.core.registry import DEFAULT_REGISTRY, ClassRegistry
from repro.core.restore import ObjectTable
from repro.core.retry import RetryPolicy, RetryStats
from repro.core.storage import (
    FULL,
    INCREMENTAL,
    _KIND_CODES,
    CheckpointStore,
    FileStore,
    compact as storage_compact,
)
from repro.core.streams import DataOutputStream
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.policy import EpochPolicy
from repro.runtime.strategy import (
    DEFAULT_STRATEGIES,
    DriverStrategy,
    NullStrategy,
    Strategy,
    StrategyRegistry,
)

#: one shared instance; the full driver is stateless between commits
_FULL_DRIVER = DriverStrategy("full", FullCheckpoint)
#: the degradation target: generic, checked, assumes nothing proved
_CHECKED_DRIVER = DriverStrategy("checking", CheckingCheckpoint)

RootsLike = Union[
    Checkpointable,
    Sequence[Checkpointable],
    Callable[[], Sequence[Checkpointable]],
]


def _roots_provider(roots: RootsLike) -> Callable[[], Sequence[Checkpointable]]:
    """Normalize what callers naturally have into a roots callable."""
    if callable(roots) and not isinstance(roots, Checkpointable):
        return roots
    if isinstance(roots, Checkpointable):
        single = (roots,)
        return lambda: single
    try:
        fixed = list(roots)
    except TypeError:
        raise CheckpointError(
            f"cannot use {roots!r} as session roots (expected a "
            "Checkpointable, a sequence of them, or a callable)"
        )
    for obj in fixed:
        if not isinstance(obj, Checkpointable):
            raise CheckpointError(
                f"session root {obj!r} is not a Checkpointable"
            )
    return lambda: fixed


def _store_for(target) -> Optional[CheckpointStore]:
    """The store a ``sink=`` argument names: ``None`` (persist nothing),
    a :class:`~repro.core.storage.CheckpointStore` itself, or a
    directory path for a new :class:`~repro.core.storage.FileStore`."""
    if target is None or isinstance(target, CheckpointStore):
        return target
    if isinstance(target, (str, os.PathLike)):
        return FileStore(os.fspath(target))
    raise StorageError(
        f"cannot use {target!r} as a checkpoint sink (expected None, a "
        "CheckpointStore, or a directory path)"
    )


@dataclass
class CommitReceipt:
    """The durability story of one commit.

    Produced for every persisted commit: what the store did with the
    epoch, how many transient failures were retried on the way, and any
    degradation the runtime performed to keep the delta chain sound
    (strategy fallback, escalation of the next epoch to a full).
    """

    #: ``"durable"`` / ``"queued"`` / ``"quorum"`` / ``"discarded"``
    durability: str = "unknown"
    #: transient failures retried while persisting this epoch
    retries: int = 0
    #: the strategy raised and the generic checked driver took over
    degraded: bool = False
    #: this epoch was escalated to a full checkpoint to repair the chain
    escalated: bool = False
    #: wall time the failed specialized attempt consumed before raising
    failed_wall_seconds: Optional[float] = None
    #: wall time of the checked-driver re-record after the fallback
    fallback_wall_seconds: Optional[float] = None
    #: replicas that acked this epoch (replicated stores only, else None)
    replicas_acked: Optional[List[str]] = None
    #: write quorum the commit had to meet (replicated stores only)
    replica_quorum: Optional[int] = None
    #: replicas that missed the epoch — fenced or failing (replicated stores)
    degraded_replicas: Optional[List[str]] = None
    #: human-readable record of every degradation/escalation/retry event
    events: List[str] = field(default_factory=list)


@dataclass
class CommitResult:
    """What one commit produced (and how long the strategy took).

    The result a commit returns carries the epoch's bytes; the copy kept
    in :attr:`CheckpointSession.history` has ``data=None`` and keeps only
    :attr:`size` (the bytes live in the store).
    """

    kind: str
    #: the epoch's bytes (``None`` on a history entry)
    data: Optional[bytes]
    wall_seconds: float
    strategy: str
    phase: Optional[str] = None
    #: index assigned by the session's store, when it assigns one
    epoch_index: Optional[int] = None
    #: whether this commit triggered an automatic compaction
    compacted: bool = False
    #: durability state, retries, and degradation events of this commit
    receipt: Optional[CommitReceipt] = None
    #: lineage branch the epoch was appended to
    branch: Optional[str] = None
    #: checkpoint name pinned to the epoch (``session.checkpoint(name)``)
    epoch_name: Optional[str] = None
    #: length of the epoch's bytes (set from ``data`` when it is given)
    size: int = 0

    def __post_init__(self) -> None:
        if self.data is not None:
            self.size = len(self.data)


class CheckpointSession:
    """Owns roots, strategy selection, epoch cadence, and the store.

    Parameters
    ----------
    roots:
        What gets checkpointed: a single :class:`Checkpointable`, a
        sequence of them, or a zero-argument callable returning the
        current sequence (for collections that change between commits).
    strategy:
        The default strategy: a registered name, a
        :class:`~repro.runtime.strategy.Strategy` instance, or a factory.
    registry:
        The :class:`~repro.runtime.strategy.StrategyRegistry` names are
        resolved against (default: the built-in tiers).
    policy:
        The :class:`~repro.runtime.policy.EpochPolicy`
        (default: :meth:`~repro.runtime.policy.EpochPolicy.delta_only`).
    sink:
        Where epochs go, kept as :attr:`store`: ``None`` (nothing is
        persisted), a :class:`~repro.core.storage.CheckpointStore`, or
        a directory path for a new :class:`~repro.core.storage.FileStore`.
    retry:
        Optional :class:`~repro.core.retry.RetryPolicy` around each
        ``store.append``: transient persistence failures are retried on
        the commit path and counted in the commit's receipt.
    class_registry:
        The :class:`~repro.core.registry.ClassRegistry` used for recovery
        and compaction (default: the process-wide registry).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`: every commit emits
        typed ``commit.start``/``commit.end`` (plus fallback, compaction,
        retry) events through it, and the store is instrumented with it
        too. Default: the shared no-op :data:`~repro.obs.tracer.NULL_TRACER`
        — the hot path then performs no extra timer calls or allocation.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` recording
        per-phase commit latency histograms, byte counters, strategy-tier
        hit counts, and retry/degradation totals.
    """

    def __init__(
        self,
        roots: RootsLike = (),
        strategy: Union[str, Strategy, Callable[[], Strategy]] = "incremental",
        *,
        registry: Optional[StrategyRegistry] = None,
        policy: Optional[EpochPolicy] = None,
        sink=None,
        retry: Optional[RetryPolicy] = None,
        class_registry: Optional[ClassRegistry] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry or DEFAULT_STRATEGIES
        self.policy = policy or EpochPolicy.delta_only()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: where committed epochs go (``None``: they are discarded)
        self.store: Optional[CheckpointStore] = _store_for(sink)
        if self.store is not None:
            self.store.instrument(self.tracer, self.metrics)
        self._retry = retry
        #: retry accounting for this session's appends
        self.retry_stats = RetryStats()
        self.class_registry = class_registry or DEFAULT_REGISTRY
        self._roots = _roots_provider(roots)
        #: whether the caller supplied a live callable (then the caller —
        #: not restore() — owns rebinding its collection to restored objects)
        self._roots_live = callable(roots) and not isinstance(
            roots, Checkpointable
        )
        self._default = self.registry.resolve(strategy)
        #: guards the session's mutable bookkeeping (counters, history,
        #: escalation/degradation state, phase bindings) against commits
        #: racing bind/compact/close from other threads; reentrant so
        #: the commit path may call :meth:`compact`
        self._state_lock = threading.RLock()
        self._phase_specs: Dict[str, object] = {}
        self._phase_cache: Dict[str, Strategy] = {}
        self._closed = False
        #: the next policy-decided epoch must be a full (chain repair)
        self._escalate_full = False
        #: the store chain the next epoch extends is known to reach a
        #: full epoch (see _chain_has_base)
        self._chain_based = False
        #: lineage branch the next commit appends to
        self._branch = MAIN_BRANCH
        #: explicit parent the next commit must pin to (set by restore/fork;
        #: None means the store auto-resolves the branch tip)
        self._pending_parent: Optional[int] = None

        #: optional shadow-heap dirtiness oracle (attach_oracle)
        self._oracle = None

        #: epochs committed through this session (base() included)
        self.commits = 0
        #: checkpoint bytes produced by committed epochs
        self.bytes_written = 0
        #: incremental epochs since the last full epoch
        self.deltas_since_full = 0
        #: automatic + explicit compactions performed
        self.compactions = 0
        #: strategy fallbacks performed (specialized commit raised)
        self.degradations = 0
        #: restores performed (``restore()`` and rebinding ``fork()``)
        self.restores = 0
        #: branch forks started through this session
        self.forks = 0
        #: every commit's :class:`CommitResult`, in order, without its bytes
        self.history: List[CommitResult] = []

    # -- strategy selection --------------------------------------------------

    def bind(self, phase: str, strategy) -> None:
        """Override the strategy used for commits tagged ``phase``.

        ``strategy`` is resolved through the session's registry: a name,
        a :class:`~repro.runtime.strategy.Strategy`, or a factory
        (factories are resolved lazily, on the phase's first commit).
        Rebinding a phase replaces the override.
        """
        with self._state_lock:
            self._phase_specs[phase] = strategy
            self._phase_cache.pop(phase, None)

    def bind_inferred(
        self,
        phase: str,
        shape,
        phase_fns,
        roots=None,
        name: Optional[str] = None,
    ) -> Strategy:
        """Bind ``phase`` to a statically-inferred specialization.

        The may-modify analysis proves a pattern for ``phase_fns`` over
        ``shape`` and compiles it unguarded (it is sound by construction);
        commits tagged ``phase`` then run the specialized routine. Returns
        the bound :class:`~repro.runtime.strategy.InferredStrategy`.
        """
        from repro.runtime.strategy import InferredStrategy

        strategy = InferredStrategy.from_phases(
            shape, phase_fns, name=name or f"inferred_{phase}", roots=roots
        )
        self.bind(phase, strategy)
        return strategy

    def bind_program(
        self,
        shape,
        driver,
        roots=None,
        session_params: Sequence[str] = ("session",),
    ):
        """Infer per-phase patterns from a whole driver function and bind them.

        ``driver`` is scanned for ``session.commit(phase=...)`` sites, the
        inter-commit regions are analyzed, and every labeled phase is bound
        to an unguarded inferred specialization — the session configures
        itself from the program text. Returns the
        :class:`~repro.spec.effects.wholeprogram.WholeProgramReport` (for
        provenance and diagnostics).
        """
        from repro.runtime.strategy import InferredStrategy
        from repro.spec.effects.wholeprogram import infer_phases

        report = infer_phases(
            shape, driver, roots=roots, session_params=session_params
        )
        bindable = report.bindable()
        if not bindable:
            raise CheckpointError(
                f"no labeled commit site found in {driver.__name__!r}: "
                "nothing to bind (label commits with "
                "session.commit(phase=...))"
            )
        for label, phase in bindable.items():
            self.bind(label, InferredStrategy.from_inferred(phase))
        return report

    def bound(self, phase: str) -> bool:
        """Whether ``phase`` has its own strategy override."""
        return phase in self._phase_specs

    def unbind(self, phase: Optional[str] = None) -> None:
        """Drop one phase's strategy override — or all of them.

        Used when the facts a bound strategy was compiled against change
        (e.g. recovery replaced the structures it was specialized for).
        """
        with self._state_lock:
            if phase is None:
                self._phase_specs.clear()
                self._phase_cache.clear()
            else:
                self._phase_specs.pop(phase, None)
                self._phase_cache.pop(phase, None)

    def strategy_for(self, phase: Optional[str] = None) -> Strategy:
        """The strategy a commit tagged ``phase`` would use."""
        with self._state_lock:
            if phase is None or phase not in self._phase_specs:
                return self._default
            cached = self._phase_cache.get(phase)
            if cached is None:
                cached = self.registry.resolve(self._phase_specs[phase])
                self._phase_cache[phase] = cached
            return cached

    # -- committing ----------------------------------------------------------

    def roots(self) -> Sequence[Checkpointable]:
        """The current root objects."""
        return self._roots()

    def base(
        self,
        roots: Optional[RootsLike] = None,
        name: Optional[str] = None,
    ) -> CommitResult:
        """Record a full checkpoint: the base of the incremental chain.

        Always uses the full driver — every reachable object is recorded
        and flags are cleared, so subsequent :meth:`commit` deltas apply
        on top of it. ``name`` pins the epoch as a named checkpoint.
        """
        return self._commit(
            _FULL_DRIVER, FULL, phase=None, roots=roots, name=name
        )

    def checkpoint(
        self,
        name: str,
        phase: Optional[str] = None,
        roots: Optional[RootsLike] = None,
    ) -> CommitResult:
        """Commit one epoch pinned under ``name`` (a named checkpoint).

        A named epoch is addressable by name in :meth:`restore` /
        :meth:`fork`, and compaction never deletes it or the chain that
        materializes it. Names are unique per store; reusing one raises
        :class:`~repro.core.errors.StorageError`.
        """
        return self.commit(phase=phase, roots=roots, name=name)

    def commit(
        self,
        phase: Optional[str] = None,
        roots: Optional[RootsLike] = None,
        kind: Optional[str] = None,
        name: Optional[str] = None,
    ) -> CommitResult:
        """Record one checkpoint epoch through the session pipeline.

        With ``kind=None`` the epoch policy decides: a scheduled full
        epoch is recorded with the full driver (it must be a standalone
        recovery base), anything else with the phase's strategy. An
        explicit ``kind`` only labels the epoch — the strategy still
        produces the bytes, which is how a full-tier strategy commits
        full-content epochs under a delta label or vice versa.

        After a specialized commit fell back to the generic driver (see
        :class:`CommitReceipt`), the next policy-decided commit is
        escalated to a full checkpoint regardless of cadence, so the
        delta chain regains a sound base. Likewise, a policy-decided
        commit whose chain in the store has no full ancestor yet (no
        :meth:`base` was taken) is recorded as a full epoch: a store of
        deltas alone could not be recovered.
        """
        strategy = self.strategy_for(phase)
        escalated = False
        if kind is None:
            if self._escalate_full:
                kind, strategy, escalated = FULL, _FULL_DRIVER, True
            else:
                kind = self.policy.kind_for(
                    self.commits, self.deltas_since_full
                )
                if kind == FULL or not self._chain_has_base():
                    kind, strategy = FULL, _FULL_DRIVER
        elif kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        return self._commit(
            strategy,
            kind,
            phase=phase,
            roots=roots,
            escalated=escalated,
            name=name,
        )

    def _chain_has_base(self) -> bool:
        """Whether the next epoch's chain in the store reaches a full epoch.

        Checked against the lineage until the answer is yes; from then
        on every epoch of the session chains to that base (a restore
        lands on a materialized chain, a fork on the current tip). A
        session without a store has no chain to recover.
        """
        if self._chain_based or self.store is None:
            return True
        with self._state_lock:
            parent = self._pending_parent
            branch = self._branch
        lineage = self.store.lineage()
        if parent is None:
            parent = lineage.branches().get(branch)
        if parent is not None:
            try:
                lineage.chain(parent)
            except StorageError:
                return False
            with self._state_lock:
                self._chain_based = True
        return self._chain_based

    def attach_oracle(self, oracle) -> None:
        """Hook a :class:`~repro.sanitize.oracle.ShadowHeapOracle` in.

        The oracle byte-diffs the reachable graph against its shadow heap
        around every ``measure``/``commit``/``restore``, reporting flag
        under-/over-approximation through the session's obs seam. Purely
        observational — attach in tests, crosschecks, or debug runs.
        """
        oracle.instrument(self.tracer, self.metrics)
        with self._state_lock:
            self._oracle = oracle

    def detach_oracle(self):
        """Remove and return the attached oracle (if any)."""
        with self._state_lock:
            oracle, self._oracle = self._oracle, None
        return oracle

    def measure(
        self,
        phase: Optional[str] = None,
        roots: Optional[RootsLike] = None,
    ) -> CommitResult:
        """Run the phase's strategy without persisting or counting.

        Used for pure measurement — e.g. the paper's traversal-cost runs.
        The strategy's ``record`` pass clears modification flags as a
        side effect, so the flags are snapshotted before the run and
        reinstated after it: a real :meth:`commit` following a
        :meth:`measure` observes exactly the delta it would have without
        the measurement.
        """
        strategy = self.strategy_for(phase)
        tracer = self.tracer
        out = DataOutputStream()
        use = self._resolve_roots(roots)
        if self._oracle is not None:
            self._oracle.observe(use, phase=phase or "")
        saved = snapshot_flags(use)
        # Strategies with commit-to-commit state beyond the flags (the
        # differential tier's block generations and fingerprints) expose
        # snapshot_state/restore_state so a trial run leaves no trace.
        snapshot_state = getattr(strategy, "snapshot_state", None)
        saved_state = snapshot_state() if snapshot_state is not None else None
        start = time.perf_counter()
        try:
            strategy.write(use, out)
        finally:
            restore_flags(saved)
            if saved_state is not None:
                strategy.restore_state(saved_state)
        wall = time.perf_counter() - start
        result = CommitResult(
            kind=INCREMENTAL,
            data=out.getvalue(),
            wall_seconds=wall,
            strategy=strategy.name,
            phase=phase,
        )
        if tracer.enabled:
            tracer.event(
                "measure",
                phase=phase,
                strategy=strategy.name,
                wall_seconds=wall,
                bytes=result.size,
            )
        if self.metrics.enabled:
            self.metrics.histogram(
                "measure_seconds", phase=phase or ""
            ).observe(wall)
        return result

    def commit_bytes(
        self,
        kind: str,
        data: bytes,
        phase: Optional[str] = None,
        wall_seconds: float = 0.0,
        name: Optional[str] = None,
    ) -> CommitResult:
        """Commit pre-produced checkpoint bytes (e.g. from a metered run).

        The bytes enter the same store/policy path as a normal commit, so
        instrumented producers still get epoch accounting, automatic
        compaction — and the same chain-repair bookkeeping: a ``FULL``
        epoch committed here clears a pending escalation exactly like a
        full-driver commit does, and a pending escalation this commit
        cannot honor (the bytes are already produced, and incremental)
        stays pending and is noted on the receipt.
        """
        if kind not in _KIND_CODES:
            raise StorageError(f"unknown checkpoint kind {kind!r}")
        self._ensure_open()
        receipt = CommitReceipt()
        if self.tracer.enabled:
            self.tracer.event(
                "commit.start", phase=phase, kind=kind, strategy="bytes"
            )
        self._settle_escalation(receipt, repaired=(kind == FULL))
        result = CommitResult(
            kind=kind,
            data=bytes(data),
            wall_seconds=wall_seconds,
            strategy="bytes",
            phase=phase,
            receipt=receipt,
        )
        self._persist(result, name=name)
        return result

    def _settle_escalation(
        self,
        receipt: CommitReceipt,
        repaired: bool,
        pending_before: bool = True,
    ) -> None:
        """Chain-repair bookkeeping shared by every commit path.

        A pending escalation (a specialized commit degraded earlier, so
        the delta chain needs a fresh base) is cleared by any commit that
        persists genuinely full content, and explicitly kept — with a
        receipt note, never silently — by one that does not.
        ``pending_before`` distinguishes an escalation this very commit
        raised (its receipt already says "degraded") from one inherited
        from an earlier epoch.
        """
        if not self._escalate_full:
            return
        if repaired:
            with self._state_lock:
                self._escalate_full = False
            if not receipt.escalated:
                receipt.escalated = True
                receipt.events.append(
                    "pending full-checkpoint escalation cleared by this "
                    "full epoch"
                )
        elif pending_before:
            receipt.events.append(
                "full-checkpoint escalation still pending after this commit"
            )

    @staticmethod
    def _can_fall_back(strategy: Strategy) -> bool:
        """Whether a failing ``strategy`` has a sound generic fallback.

        Specialized / inferred / auto-derived routines do: they are
        optimizations over the generic driver, so the checked driver can
        reproduce their work. The generic tiers themselves do not — a
        failure there is a real bug (or a real cycle) that must surface.
        """
        return not isinstance(strategy, (DriverStrategy, NullStrategy))

    @staticmethod
    def _is_full_driver(strategy: Strategy) -> bool:
        """Whether ``strategy`` records every object (a chain-repairing full)."""
        return (
            isinstance(strategy, DriverStrategy)
            and strategy.driver_factory is FullCheckpoint
        )

    def _commit(
        self,
        strategy: Strategy,
        kind: str,
        phase: Optional[str],
        roots: Optional[RootsLike],
        escalated: bool = False,
        name: Optional[str] = None,
    ) -> CommitResult:
        self._ensure_open()
        tracer = self.tracer
        pending_before = self._escalate_full
        receipt = CommitReceipt(escalated=escalated)
        if escalated:
            receipt.events.append(
                "escalated to full checkpoint after a degraded commit"
            )
        if tracer.enabled:
            tracer.event(
                "commit.start",
                phase=phase,
                kind=kind,
                strategy=strategy.name,
                escalated=escalated,
            )
        out = DataOutputStream()
        use = self._resolve_roots(roots)
        if self._oracle is not None:
            # diff before the drivers run: they clear the flags the
            # oracle compares against
            self._oracle.before_commit(
                use, phase=phase or "", commit_kind=kind
            )
        start = time.perf_counter()
        try:
            strategy.write(use, out)
        except Exception as exc:
            failed_wall = time.perf_counter() - start
            if not self._can_fall_back(strategy):
                raise
            # A specialized routine died mid-commit. Its partial run may
            # already have recorded-and-cleared some modification flags,
            # so an incremental re-record of what is *still* flagged would
            # under-report and recovery would see stale data until the
            # escalated full lands. Instead, re-record *everything* as a
            # full epoch with the generic checked driver (the failure path
            # is rare; the extra traversal never touches a clean commit),
            # and still escalate the next epoch so the chain regains a
            # base produced by an untainted run.
            receipt.degraded = True
            receipt.failed_wall_seconds = failed_wall
            receipt.events.append(
                f"strategy {strategy.name!r} raised "
                f"{type(exc).__name__}: {exc}; fell back to the generic "
                "checked driver"
            )
            with self._state_lock:
                self.degradations += 1
                self._escalate_full = True
            if tracer.enabled:
                tracer.event(
                    "commit.fallback",
                    phase=phase,
                    strategy=strategy.name,
                    error=f"{type(exc).__name__}: {exc}",
                    failed_wall_seconds=failed_wall,
                )
            if self.metrics.enabled:
                self.metrics.counter(
                    "fallbacks_total", strategy=strategy.name
                ).inc()
            out = DataOutputStream()
            fallback_start = time.perf_counter()
            for fallback_root in use:
                set_all_flags(fallback_root)
            _CHECKED_DRIVER.write(use, out)
            receipt.fallback_wall_seconds = (
                time.perf_counter() - fallback_start
            )
            strategy = _CHECKED_DRIVER
            kind = FULL
            receipt.events.append(
                "re-recorded every object as a full epoch (the failed "
                "routine may have cleared modification flags mid-run)"
            )
        wall = time.perf_counter() - start
        block_stats = getattr(strategy, "last_stats", None)
        if block_stats and tracer.enabled:
            tracer.event("commit.blocks", phase=phase, **block_stats)
        self._settle_escalation(
            receipt,
            repaired=(kind == FULL and self._is_full_driver(strategy)),
            pending_before=pending_before,
        )
        result = CommitResult(
            kind=kind,
            data=out.getvalue(),
            wall_seconds=wall,
            strategy=strategy.name,
            phase=phase,
            receipt=receipt,
        )
        self._persist(result, name=name)
        if self._oracle is not None:
            # the epoch is durable: fold the staged images into the shadow
            self._oracle.after_commit()
        return result

    def _persist(
        self, result: CommitResult, name: Optional[str] = None
    ) -> None:
        receipt = result.receipt
        stats = self.retry_stats
        retries_before = stats.retries
        with self._state_lock:
            parent = self._pending_parent
            branch = self._branch
        if self.store is not None:
            result.epoch_index = self._append(
                result.kind,
                result.data,
                parent=AUTO if parent is None else parent,
                branch=branch,
                name=name,
            )
        result.branch = branch
        result.epoch_name = name
        if parent is not None:
            # The append landed, so the restore/fork point is now anchored in
            # the lineage graph; subsequent commits chain off this epoch.
            with self._state_lock:
                if self._pending_parent == parent:
                    self._pending_parent = None
            if receipt is not None:
                receipt.events.append(
                    f"pinned to parent epoch {parent} (first commit after "
                    "restore/fork)"
                )
        if receipt is not None:
            put_retries = stats.retries - retries_before
            receipt.retries += put_retries
            if put_retries:
                receipt.events.extend(stats.events[-put_retries:])
            if self.store is None:
                receipt.durability = "discarded"
            else:
                receipt.durability = self.store.durability()
                self._fill_replica_receipt(receipt)
        with self._state_lock:
            self.commits += 1
            self.bytes_written += result.size
            if result.kind == FULL:
                self.deltas_since_full = 0
                self._chain_based = True
            else:
                self.deltas_since_full += 1
            should_compact = self.store is not None and (
                self.policy.should_compact(self.deltas_since_full)
            )
        # compaction does store IO: run it outside the bookkeeping lock
        # (compact() re-enters the lock for its own counter updates)
        if should_compact:
            self.compact()
            result.compacted = True
        with self._state_lock:
            self.history.append(replace(result, data=None))
        self._record_commit(result)

    def _append(self, kind, data, parent, branch, name) -> Optional[int]:
        """``store.append`` under the retry policy, traced as ``sink.put``."""
        if not (self.tracer.enabled or self.metrics.enabled):
            return self._append_retrying(kind, data, parent, branch, name)
        start = time.perf_counter()
        index = self._append_retrying(kind, data, parent, branch, name)
        elapsed = time.perf_counter() - start
        self.tracer.event(
            "sink.put", kind=kind, bytes=len(data), index=index,
            wall_seconds=elapsed, branch=branch, name=name,
        )
        self.metrics.histogram(
            "sink_put_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        ).observe(elapsed)
        return index

    def _append_retrying(self, kind, data, parent, branch, name):
        # store.append is looked up per call: instance-level wrappers
        # installed after the session was built still see every append
        def append():
            return self.store.append(
                kind, data, parent=parent, branch=branch, name=name
            )

        if self._retry is None:
            return append()
        return self._retry.run(
            append,
            on_retry=lambda attempt, exc, _d: self.retry_stats.note(
                "put", attempt, exc
            ),
        )

    def _fill_replica_receipt(self, receipt: CommitReceipt) -> None:
        """Copy the replicated store's commit receipt onto ours (if any).

        Behind a :class:`~repro.core.storage.BackgroundWriter` the
        numbers describe the newest *drained* epoch, not necessarily
        this still-queued one.
        """
        last = self.store.last_commit
        if last is None:
            return
        receipt.replicas_acked = list(last.get("acked") or [])
        receipt.replica_quorum = last.get("quorum")
        receipt.degraded_replicas = list(last.get("degraded") or [])

    def _record_commit(self, result: CommitResult) -> None:
        """Emit the commit's trace record and metrics (observers only)."""
        receipt = result.receipt
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "commit.end",
                phase=result.phase,
                kind=result.kind,
                strategy=result.strategy,
                wall_seconds=result.wall_seconds,
                bytes=result.size,
                epoch_index=result.epoch_index,
                compacted=result.compacted,
                durability=receipt.durability if receipt else None,
                retries=receipt.retries if receipt else 0,
                degraded=bool(receipt and receipt.degraded),
                escalated=bool(receipt and receipt.escalated),
                failed_wall_seconds=(
                    receipt.failed_wall_seconds if receipt else None
                ),
                fallback_wall_seconds=(
                    receipt.fallback_wall_seconds if receipt else None
                ),
                replicas_acked=(
                    receipt.replicas_acked if receipt else None
                ),
                replica_quorum=(
                    receipt.replica_quorum if receipt else None
                ),
                degraded_replicas=(
                    receipt.degraded_replicas if receipt else None
                ),
            )
        metrics = self.metrics
        if metrics.enabled:
            phase = result.phase or ""
            metrics.counter(
                "commits_total", phase=phase, kind=result.kind
            ).inc()
            metrics.counter("strategy_hits_total", strategy=result.strategy).inc()
            metrics.counter("bytes_written_total", phase=phase).inc(result.size)
            metrics.histogram("commit_seconds", phase=phase).observe(
                result.wall_seconds
            )
            metrics.histogram(
                "commit_bytes", buckets=DEFAULT_SIZE_BUCKETS, phase=phase
            ).observe(result.size)
            if receipt is not None:
                if receipt.retries:
                    metrics.counter("retries_total").inc(receipt.retries)
                if receipt.degraded:
                    metrics.counter("degradations_total").inc()
                if receipt.escalated:
                    metrics.counter("escalations_total").inc()
                if receipt.degraded_replicas:
                    metrics.counter("degraded_replica_commits_total").inc()
            metrics.gauge("deltas_since_full").set(self.deltas_since_full)

    def _resolve_roots(
        self, roots: Optional[RootsLike]
    ) -> Sequence[Checkpointable]:
        if roots is None:
            return self._roots()
        return _roots_provider(roots)()

    def _ensure_open(self) -> None:
        if self._closed:
            raise CheckpointError("the checkpoint session is closed")

    def _require_store(self, action: str) -> CheckpointStore:
        if self.store is None:
            raise StorageError(f"a session without a store {action}")
        return self.store

    # -- store lifecycle -----------------------------------------------------

    def compact(self) -> int:
        """Fold the current branch's recovery line into a fresh full epoch."""
        tracer = self.tracer
        start = time.perf_counter() if tracer.enabled else 0.0
        with self._state_lock:
            if self._pending_parent is not None:
                # Compaction deletes unprotected epochs, and the chain the
                # pending restore/fork sits on is only protected once its
                # first commit anchors a new head there.
                raise StorageError(
                    "cannot compact between a restore/fork and its first "
                    f"commit: the chain at epoch {self._pending_parent} is "
                    "not yet anchored"
                )
            branch = self._branch
        index = storage_compact(
            self._require_store("cannot compact"),
            self.class_registry,
            keep_history=self.policy.keep_history,
            branch=branch,
        )
        with self._state_lock:
            self.deltas_since_full = 0
            self.compactions += 1
        if tracer.enabled:
            tracer.event(
                "compaction",
                epoch_index=index,
                wall_seconds=time.perf_counter() - start,
            )
        if self.metrics.enabled:
            self.metrics.counter("compactions_total").inc()
        return index

    def recover(self) -> ObjectTable:
        """Rebuild the object table from the store's recovery line."""
        return self._require_store("cannot recover state").recover(
            self.class_registry
        )

    # -- time travel ---------------------------------------------------------

    def restore(
        self,
        target: EpochRef,
        roots: Optional[RootsLike] = None,
    ) -> ObjectTable:
        """Materialize epoch ``target`` and make it the session's live state.

        ``target`` is an epoch index or a checkpoint name. The store is
        flushed, the epoch's base+delta chain is replayed, and the
        session's roots are rebound to the restored objects (matched by
        object id; a root that does not exist at ``target`` raises
        :class:`~repro.core.errors.RestoreError`). Roots supplied as a
        live callable are *not* replaced — the caller owns that
        collection and rebinds it from the returned table.

        Restoring the tip of a branch continues that branch; restoring an
        interior epoch starts a fresh auto-named branch forked at it, so
        the epochs above the restore point are never rewritten. Either
        way the next commit is pinned to ``target`` as its parent, any
        pending full-checkpoint escalation is dropped (the restored state
        is exactly the durable epoch — the chain needs no repair), and
        ``deltas_since_full`` reflects the restored chain's length.
        """
        self._ensure_open()
        with self.tracer.span("session.restore", target=str(target)) as span:
            start = time.perf_counter()
            store = self._require_store("cannot restore state")
            store.flush()
            # one header scan: the chain is resolved in this lineage and
            # only its payloads are read
            lineage = store.lineage()
            index = lineage.resolve(target)
            epoch = lineage.epoch(index)
            chain = lineage.chain_indices(index)
            table = store.materialize(
                index, self.class_registry, lineage=lineage
            )
            rebound = self._rebind_roots(table, roots)
            self._reset_block_tiers()
            if self._oracle is not None:
                # restore rewrote object state wholesale; the shadow follows
                self._oracle.resync(self._resolve_roots(None))
            branches = lineage.branches()
            with self._state_lock:
                if branches.get(epoch.branch) == index:
                    # the branch tip: new commits simply continue the branch
                    branch = epoch.branch
                else:
                    branch = self._auto_branch_name(
                        epoch.branch, index, branches
                    )
                self._branch = branch
                self._pending_parent = index
                self._escalate_full = False
                self._chain_based = True
                self.deltas_since_full = len(chain) - 1
                self.restores += 1
            wall = time.perf_counter() - start
            span.add(
                epoch_index=index,
                branch=branch,
                chain_length=len(chain),
                roots_rebound=rebound,
            )
        if self.metrics.enabled:
            self.metrics.counter("restores_total").inc()
            self.metrics.histogram("restore_seconds").observe(wall)
            self.metrics.gauge("restore_chain_length").set(len(chain))
        return table

    def fork(
        self,
        at: Optional[EpochRef] = None,
        branch: Optional[str] = None,
        roots: Optional[RootsLike] = None,
    ) -> Optional[ObjectTable]:
        """Start a new lineage branch for everything committed from now on.

        With ``at`` the session first restores that epoch (exactly like
        :meth:`restore`) and the new branch grows from it; without ``at``
        the live, possibly-dirty state is kept and the branch grows from
        the current branch's tip. ``branch`` names the new branch
        (default: the first unused ``fork-N``); a name already present in
        the store raises :class:`~repro.core.errors.StorageError`.
        Returns the restored table when ``at`` was given, else ``None``.
        """
        self._ensure_open()
        self.flush()
        try:
            branches = self.branches()
        except StorageError:
            branches = {}
        if branch is None:
            branch = self._auto_fork_name(branches)
        elif branch in branches:
            raise StorageError(
                f"branch {branch!r} already exists in the store"
            )
        table = None
        if at is not None:
            table = self.restore(at, roots=roots)
            with self._state_lock:
                self._branch = branch
                parent = self._pending_parent
                self.forks += 1
        else:
            with self._state_lock:
                if self._pending_parent is None:
                    self._pending_parent = branches.get(self._branch)
                parent = self._pending_parent
                self._branch = branch
                self.forks += 1
        if self.tracer.enabled:
            self.tracer.event(
                "session.fork",
                branch=branch,
                parent=parent,
                restored=at is not None,
            )
        if self.metrics.enabled:
            self.metrics.counter("forks_total").inc()
            self.metrics.gauge("branches").set(len(branches) + 1)
        return table

    def _rebind_roots(
        self, table: ObjectTable, roots: Optional[RootsLike]
    ) -> int:
        """Point the session's roots at their restored counterparts."""
        if roots is not None:
            provider = _roots_provider(roots)
            with self._state_lock:
                self._roots = provider
                self._roots_live = callable(roots) and not isinstance(
                    roots, Checkpointable
                )
            return len(provider())
        current = self._roots()
        restored = []
        for root in current:
            object_id = root._ckpt_id
            found = table.get(object_id)
            if found is None:
                raise RestoreError(
                    f"session root {root!r} does not exist at the restored "
                    "epoch; pass roots= to rebind explicitly"
                )
            restored.append(found)
        if not self._roots_live:
            fixed = tuple(restored)
            with self._state_lock:
                self._roots = lambda: fixed
        return len(restored)

    def _reset_block_tiers(self) -> None:
        """Forget every bound strategy's block partition.

        A partition's blocks hold the pre-restore roots, and through them
        the whole replaced graph. Dropping them lets that graph be
        collected once the roots are rebound; the next commit
        re-partitions the restored graph, as it would have anyway
        (restored objects never match the old roots by identity).
        """
        with self._state_lock:
            strategies = [self._default, *self._phase_cache.values()]
        for strategy in strategies:
            tier = getattr(strategy, "tier", None)
            if tier is not None:
                tier.reset()

    @staticmethod
    def _auto_branch_name(
        base_branch: str, index: int, branches: Dict[str, int]
    ) -> str:
        """A deterministic, unused branch name for a fork at ``index``."""
        candidate = f"{base_branch}@{index}"
        n = 1
        while candidate in branches:
            n += 1
            candidate = f"{base_branch}@{index}.{n}"
        return candidate

    @staticmethod
    def _auto_fork_name(branches: Dict[str, int]) -> str:
        n = 1
        while f"fork-{n}" in branches:
            n += 1
        return f"fork-{n}"

    def lineage(self) -> Lineage:
        """The store's epoch lineage graph (durable epochs only)."""
        return self._require_store("keeps no epoch lineage").lineage()

    def branches(self) -> Dict[str, int]:
        """Branch name → tip epoch index, for every branch in the store."""
        return self.lineage().branches()

    def named_checkpoints(self) -> Dict[str, int]:
        """Checkpoint name → epoch index, for every named epoch."""
        return self.lineage().named()

    @property
    def current_branch(self) -> str:
        """The branch the next commit appends to."""
        return self._branch

    def flush(self) -> None:
        """Block until every committed epoch is durable."""
        if self.store is not None:
            self.store.flush()

    def close(self) -> None:
        """Flush and close the store; further commits raise."""
        if self._closed:
            return
        if self.store is not None:
            self.store.close()
        with self._state_lock:
            self._closed = True

    def __enter__(self) -> "CheckpointSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointSession(strategy={self._default.name!r}, "
            f"commits={self.commits}, deltas={self.deltas_since_full})"
        )
