"""The benchmark workloads, run in one closed loop in one process.

Every workload does the same three things: set up (timed several times,
the last set-up is kept), run its timed loop, then read back and verify
what the loop produced: warm ``session.restore`` calls and cold
``FileStore(dir).recover()`` calls, each checked against the state
digest taken at commit time. Each times whole calls into the public surface of
``repro.runtime.session``, ``repro.runtime.strategy``,
``repro.core.storage``, ``repro.core.restore`` and
``repro.analysis.engine``; with a :class:`~spans.SpanRecorder` attached,
the same calls are recorded as spans together with the layer calls
inside them.

A step of a commit workload is "apply one generated mutation, then
``session.commit()``"; the next step starts only after the commit has
returned. Mutations are generated from the seed before each step and are
not timed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.attributes import AttributesTable
from repro.analysis.engine import AnalysisEngine
from repro.analysis.programs import image_pipeline_source, specialization_division
from repro.core import storage
from repro.core.restore import state_digest, structurally_equal
from repro.core.storage import FileStore
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import CheckpointSession
from repro.runtime.strategy import SpecializedStrategy
from repro.synthetic.structures import build_structures, structure_objects

from spans import GcMonitor, SpanRecorder

_clock = time.perf_counter

NUM_LISTS = 5
LIST_LENGTH = 20
ENGINE_PHASES = ("SE", "BTA", "ETA")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    compounds: int
    clustered_steps: int
    clustered_full_interval: int
    scattered_steps: int
    kernels: int
    engine_runs: int
    setup_repeats: int


#: 2,000 compounds x (1 + 5 lists x 20 elements) = 202,000 objects
FULL = Scale(
    compounds=2000,
    clustered_steps=600,
    clustered_full_interval=250,
    scattered_steps=100,
    kernels=128,
    engine_runs=2,
    setup_repeats=3,
)
#: the benchmark's own smoke tests
SMALL = Scale(
    compounds=50,
    clustered_steps=40,
    clustered_full_interval=16,
    scattered_steps=12,
    kernels=4,
    engine_runs=2,
    setup_repeats=2,
)

#: at most this many read rounds (one warm restore, one cold recover) follow
#: the timed loop
MAX_ROUNDS = 8


@dataclass
class Run:
    """State of one benchmark run: settings, checks, and what was measured."""

    seed: int
    seconds: float
    workdir: str
    scale: Scale = FULL
    recorder: Optional[SpanRecorder] = None
    #: flip one byte of a stored epoch before verification (smoke tests)
    flip_epoch_byte: bool = False
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: raw samples, by name (seconds unless the name says otherwise)
    samples: Dict[str, list] = field(default_factory=dict)
    #: single values, by name
    values: Dict[str, float] = field(default_factory=dict)
    gc: GcMonitor = field(default_factory=GcMonitor)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    def add(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_timing(self, name: str, wall: float, op: Optional[int]) -> None:
        """An untraced time goes under ``name``, a traced one under ``name_traced``."""
        self.add(name if op is None else f"{name}_traced", wall)

    def trace(self, on: bool) -> None:
        """Record spans for the next operations, or run them untraced.

        The traced run alternates the two, so its untraced operations give
        the timings and the traced ones the layer breakdown and overhead.
        """
        if self.recorder is not None:
            self.recorder.enabled = on

    def store_dir(self, tag: str) -> str:
        path = os.path.join(self.workdir, tag)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def watch_gc(self):
        """Count collections during the timed loop (traced run only)."""
        return self.gc.watching() if self.recorder is not None else contextlib.nullcontext()

    def timed(self, name: str, fn: Callable):
        """Call ``fn``; return (value, seconds, root span index or None)."""
        if self.recorder is None or not self.recorder.enabled:
            start = _clock()
            value = fn()
            return value, _clock() - start, None
        with self.recorder.span(name) as index:
            value = fn()
        return value, self.recorder.duration(index), index

    def flip_byte(self, directory: str) -> None:
        """Corrupt one payload byte of a mid-history epoch file."""
        if not self.flip_epoch_byte:
            return
        epochs = sorted(n for n in os.listdir(directory) if n.endswith(".ckpt"))
        path = os.path.join(directory, epochs[len(epochs) // 2])
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))


# -- shared pieces -------------------------------------------------------------


def build_population(compounds: int):
    """The synthetic roots plus, per compound, its 100 elements in order."""
    roots = build_structures(compounds, NUM_LISTS, LIST_LENGTH, 1)
    elements = [structure_objects(c)[1:] for c in roots]
    return roots, elements


def roots_digest(roots) -> str:
    """One digest over every root's reachable state, object ids included."""
    hasher = hashlib.sha256()
    for root in roots:
        hasher.update(state_digest(root, include_ids=True).encode("ascii"))
    return hasher.hexdigest()


def clustered_inputs(rng: random.Random, compounds: int):
    """Rewrite every element of a seeded contiguous 1% run of compounds."""
    run = max(compounds // 100, 1)
    start = rng.randrange(compounds - run + 1)
    values = [rng.getrandbits(31) for _ in range(run * NUM_LISTS * LIST_LENGTH)]
    return start, run, values


def apply_clustered(elements, inputs) -> int:
    start, run, values = inputs
    k = 0
    for compound in elements[start : start + run]:
        for element in compound:
            element.v0 = values[k]
            k += 1
    return k


def scattered_inputs(rng: random.Random, compounds: int):
    """One seeded element field per compound: 1% of objects, every block."""
    per = NUM_LISTS * LIST_LENGTH
    return [(rng.randrange(per), rng.getrandbits(31)) for _ in range(compounds)]


def apply_scattered(elements, inputs) -> int:
    for compound, (position, value) in zip(elements, inputs):
        compound[position].v0 = value
    return len(inputs)


def dir_bytes(directory: str) -> int:
    total = 0
    for base, _, names in os.walk(directory):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
    return total


def epoch_count(directory: str) -> int:
    return sum(1 for n in os.listdir(directory) if n.endswith(".ckpt"))


def release(run: "Run") -> None:
    """Collect garbage between timed calls, unseen by the GC monitor."""
    with run.gc.paused():
        gc.collect()


def instrument_store(run: Run, store: FileStore) -> None:
    if run.recorder is not None:
        run.recorder.wrap_method(store, "append", "store.append")
        run.recorder.wrap_method(store, "recovery_line", "store.recovery_line")


def instrument_strategy(run: Run, strategy) -> None:
    if run.recorder is None:
        return
    run.recorder.wrap_method(strategy, "write", "strategy.write")
    tier = getattr(strategy, "tier", None)
    if tier is not None:
        run.recorder.wrap_method(tier, "partition", "blocks.partition")


def commit(run: Run, session: CheckpointSession, store: FileStore, sample: bool):
    """One ``session.commit()``, receipt-checked; records its layer data.

    Returns the commit result and its root span (None when untraced).
    """
    result, wall, op = run.timed("session.commit", session.commit)
    run.check(
        result.receipt is not None and result.receipt.durability == "durable",
        f"commit {result.epoch_index}: receipt durability "
        f"{getattr(result.receipt, 'durability', None)!r}",
    )
    if op is not None:
        run.recorder.set_epoch(op, result.epoch_index)
    if not sample:
        return result, op
    run.add_timing("commit", wall, op)
    if op is not None:
        run.add("commit_op", op)
        run.add("epoch_bytes", result.size)
        stats = getattr(session.strategy_for(), "last_stats", None) or {}
        if "blocks" in stats and result.kind == "incremental":
            run.add("blocks_walked", stats["walked"])
            run.add("blocks_skipped", stats["skipped"])
            run.add("blocks_total", stats["blocks"])
        if result.size:
            epoch_path = os.path.join(
                store.directory, f"epoch-{result.epoch_index:06d}.ckpt"
            )
            written = os.stat(epoch_path).st_size + os.stat(store.manifest_path).st_size
            run.add("write_amp", written / result.size)
    return result, op


def warm_restore(run: Run, session, target, expected: str, roots_of):
    """``session.restore(target)`` on the live session, digest-checked."""
    def call():
        with _replay_traced(run):
            return session.restore(target)

    try:
        table, wall, op = run.timed("session.restore", call)
    except Exception as exc:  # a failed restore is a result, not a crash
        run.fail(f"restore {target}", exc)
        return
    run.add_timing("restore", wall, op)
    if op is not None:
        run.recorder.set_epoch(op, target)
        run.add("restore_op", op)
        run.add("replayed_objects", (op, len(table)))
    verify(run, f"restore {target}", expected, roots_of, table)


def cold_recover(run: Run, directory: str, expected: str, roots_of):
    """Open a fresh ``FileStore`` and ``recover()`` it (the crash path)."""
    def call():
        store = FileStore(directory)
        instrument_store(run, store)
        with _replay_traced(run):
            return store.recover()

    try:
        table, wall, op = run.timed("store.recover", call)
    except Exception as exc:
        run.fail(f"cold recover of {directory}", exc)
        return
    run.add_timing("recover", wall, op)
    if op is not None:
        run.add("recover_op", op)
        run.add("replayed_objects", (op, len(table)))
    verify(run, "cold recover", expected, roots_of, table)


def verify(run: Run, what: str, expected: str, roots_of, table) -> None:
    """Check the restored roots against the digest taken at commit time."""
    try:
        ok = roots_digest(roots_of(table)) == expected
    except (KeyError, ValueError) as exc:  # a root is missing from the table
        run.fail(what, exc)
        return
    run.check(ok, f"{what}: state digest differs from commit time")


def read_rounds(run: Run, loop_start: float, warm: Callable, cold: Callable) -> None:
    """Alternate a warm restore with a cold recover until ``run.seconds``
    have passed since ``loop_start``: once at least, twice in the traced
    run, which traces every other round and needs one of each.

    Every round reads the same targets, so each timing's median is over
    samples of one operation.
    """
    min_rounds = 1 if run.recorder is None else 2
    rounds = 0
    while rounds < min_rounds or (
        rounds < MAX_ROUNDS and _clock() - loop_start < run.seconds
    ):
        run.trace(rounds % 2 == 0)
        for read in (warm, cold):
            release(run)
            read()
        rounds += 1
    run.trace(True)


def _replay_traced(run: Run):
    if run.recorder is None:
        return contextlib.nullcontext()
    return run.recorder.patch(storage, "replay_epochs", "restore.replay_epochs")


def by_ids(ids):
    return lambda table: [table[i] for i in ids]


def finish(run: Run, store_dir: str) -> None:
    run.values["disk_bytes_per_commit"] = dir_bytes(store_dir) / max(
        epoch_count(store_dir), 1
    )
    if run.recorder is not None:
        run.values["store.manifest_bytes"] = os.path.getsize(
            os.path.join(store_dir, "manifest.json")
        )


# -- commit workloads ------------------------------------------------------------


def commit_workload(run: Run, clustered: bool) -> None:
    scale = run.scale
    if clustered:
        strategy = "differential"
        policy = EpochPolicy.periodic_full(scale.clustered_full_interval)
        steps = scale.clustered_steps
        make, apply = clustered_inputs, apply_clustered
    else:
        strategy = "incremental"
        policy = EpochPolicy.delta_only()
        steps = scale.scattered_steps
        make, apply = scattered_inputs, apply_scattered
    rng = random.Random(run.seed)
    session = store = roots = elements = None
    for repeat in range(scale.setup_repeats):
        session = store = roots = elements = None
        release(run)
        start = _clock()
        roots, elements = build_population(scale.compounds)
        store = FileStore(run.store_dir(f"store-{repeat}"))
        instrument_store(run, store)
        session = CheckpointSession(roots, strategy=strategy, sink=store, policy=policy)
        instrument_strategy(run, session.strategy_for())
        commit_base(run, session)
        # the first delta partitions the block tier (differential)
        apply(elements, make(random.Random(run.seed ^ repeat), scale.compounds))
        commit(run, session, store, sample=False)
        run.add("setup", _clock() - start)
    for repeat in range(scale.setup_repeats - 1):
        shutil.rmtree(os.path.join(run.workdir, f"store-{repeat}"), ignore_errors=True)

    release(run)
    writes = 0
    digests = {}
    busy = 0.0
    loop_start = _clock()
    # a fixed number of steps, so the history is the same on every host
    with run.watch_gc():
        for step in range(steps):
            inputs = make(rng, scale.compounds)
            run.trace(step % 2 == 0)
            t0 = _clock()
            writes += apply(elements, inputs)
            t1 = _clock()
            result, op = commit(run, session, store, sample=True)
            if op is None:
                busy += _clock() - t0
            run.add("mutate", t1 - t0)
            if step + 1 == steps // 2:
                # the interior epoch the read phase restores
                digests[result.epoch_index] = roots_digest(roots)
    run.trace(True)
    run.values["steps"] = steps
    run.values["steps_per_s"] = len(run.samples["commit"]) / busy
    run.values["writes"] = writes

    tip = result.epoch_index
    interior = min(digests)
    digests[tip] = roots_digest(roots)
    ids = [r._ckpt_info.object_id for r in roots]
    del roots, elements
    run.flip_byte(store.directory)
    # warm: roll the live session back to the interior epoch (time travel);
    # cold: the crash path, which always recovers the tip
    read_rounds(
        run, loop_start,
        lambda: warm_restore(run, session, interior, digests[interior],
                             lambda _table: session.roots()),
        lambda: cold_recover(run, store.directory, digests[tip], by_ids(ids)),
    )
    session.close()
    finish(run, store.directory)


def commit_base(run: Run, session: CheckpointSession) -> None:
    result = session.base()
    run.check(
        result.receipt is not None and result.receipt.durability == "durable",
        "base commit was not durable",
    )


def clustered_history(run: Run) -> None:
    commit_workload(run, clustered=True)


def scattered_walk(run: Run) -> None:
    commit_workload(run, clustered=False)


# -- analysis engine -------------------------------------------------------------


def analysis_engine(run: Run) -> None:
    scale = run.scale
    source = image_pipeline_source(kernels=scale.kernels)
    division = specialization_division(scale.kernels)
    routines = {}
    engine = None
    for repeat in range(scale.setup_repeats):
        engine = None
        release(run)
        start = _clock()
        engine = AnalysisEngine(
            source, division=division, strategy="specialized",
            store=FileStore(run.store_dir(f"store-{repeat}")),
        )
        t0 = _clock()
        routines = {phase: engine.specialized_for(phase) for phase in ENGINE_PHASES}
        run.add("spec_compile", _clock() - t0)
        run.add("setup", _clock() - start)
    for repeat in range(scale.setup_repeats - 1):
        shutil.rmtree(os.path.join(run.workdir, f"store-{repeat}"), ignore_errors=True)

    first_digest = None
    iterations = busy = 0.0
    loop_start = _clock()
    with run.watch_gc():
        for index in range(scale.engine_runs):
            if index:
                engine = None
                release(run)
                engine = AnalysisEngine(
                    source, division=division, strategy="specialized",
                    store=FileStore(run.store_dir(f"store-{index}")),
                )
            _bind_engine(run, engine, routines)
            run.trace(index % 2 == 0)
            report, wall, op = run.timed("engine.run", engine.run)
            run.add_timing("engine_run", wall, op)
            if op is None:
                iterations += sum(report.phase_iterations.values())
                busy += wall
            else:
                run.add("engine_op", op)
            for result in engine.session.history:
                run.check(
                    result.receipt is not None
                    and result.receipt.durability == "durable",
                    f"engine commit {result.epoch_index} was not durable",
                )
            digest = state_digest(engine.attributes, include_ids=False)
            if first_digest is None:
                first_digest = digest
            run.check(digest == first_digest,
                      "engine run produced different attributes than run 1")
            if index:
                shutil.rmtree(os.path.join(run.workdir, f"store-{index - 1}"),
                              ignore_errors=True)
    run.trace(True)
    run.values["steps"] = scale.engine_runs
    run.values["steps_per_s"] = iterations / busy

    directory = engine.store.directory
    live = engine.attributes
    expected = roots_digest([live])
    tip = engine.session.history[-1].epoch_index
    run.flip_byte(directory)

    def crash_path():
        store = FileStore(directory)
        instrument_store(run, store)
        with _replay_traced(run):
            return AnalysisEngine.recover(
                source, store, division=division, strategy="specialized"
            )

    def recover():
        try:
            recovered, wall, op = run.timed("store.recover", crash_path)
        except Exception as exc:
            run.fail("AnalysisEngine.recover", exc)
            return
        run.add_timing("recover", wall, op)
        if op is not None:
            run.add("recover_op", op)
        run.check(structurally_equal(recovered.attributes, live, compare_ids=True),
                  "AnalysisEngine.recover differs from the live attributes")

    read_rounds(
        run, loop_start,
        lambda: warm_restore(run, engine.session, tip, expected,
                             lambda table: [_attributes_table(table)]),
        recover,
    )
    engine.session.close()
    finish(run, directory)


def _bind_engine(run: Run, engine: AnalysisEngine, routines) -> None:
    """Bind the pre-compiled phase routines; time (or trace) its commits."""
    session = engine.session
    for phase, routine in routines.items():
        strategy = SpecializedStrategy(routine)
        instrument_strategy(run, strategy)
        session.bind(phase, strategy)
    instrument_store(run, engine.store)
    if run.recorder is not None:
        run.recorder.wrap_method(session, "base", "session.base")
    commit_call = session.commit

    def timed_commit(*args, **kwargs):
        result, wall, op = run.timed(
            "session.commit", lambda: commit_call(*args, **kwargs)
        )
        run.add_timing("commit", wall, op)
        return result

    session.commit = timed_commit


def _attributes_table(table):
    found = [obj for obj in table.objects() if isinstance(obj, AttributesTable)]
    if len(found) != 1:
        raise ValueError(f"expected one AttributesTable, found {len(found)}")
    return found[0]


WORKLOADS = {
    "clustered_history": clustered_history,
    "scattered_walk": scattered_walk,
    "analysis_engine": analysis_engine,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
