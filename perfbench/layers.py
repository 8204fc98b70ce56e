"""Which end-to-end metric each per-layer metric should move, and where.

Written down before measuring: a change to one layer should move the
named end-to-end metric on the named workload, and leave the others
alone. The traced run prints this next to every per-layer value.

The whole-operation times (``commit_ms.*``, ``steps_per_s``,
``restore_s.p50``, ``recover_s.p50``, ``engine.run_s.p50``) are listed
here rather than gated as end-to-end metrics: on a 2-vCPU VM whose CPU
speed switches between two levels ~1.6x apart for 5-30 s at a time, the
same fixed pure-Python loop spreads by half its median (IQR/median) across
runs, so no run length in the budget made them steady. The traced run
takes them from its untraced operations, which it interleaves with the
traced ones.
"""

_WHOLE = "whole operation, untraced (not gated: host CPU speed drifts)"

#: per-layer metric -> (layer, end-to-end metric it moves, workloads)
LAYERS = {
    "commit_ms.p50": (_WHOLE + ": session.commit()", "itself", "clustered_history, scattered_walk, analysis_engine"),
    "commit_ms.p90": (_WHOLE + ": session.commit()", "itself", "clustered_history, scattered_walk, analysis_engine"),
    "steps_per_s": (
        _WHOLE + ": mutate + commit cycles (engine: iterations per engine.run second)",
        "itself", "clustered_history, scattered_walk, analysis_engine",
    ),
    "restore_s.p50": (
        _WHOLE + ": warm session.restore of the mid-history epoch (engine: the tip), root rebinding included", "itself", "all (read rounds)",
    ),
    "recover_s.p50": (
        _WHOLE + ": cold FileStore(dir).recover() (engine: AnalysisEngine.recover)",
        "itself", "all (read rounds)",
    ),
    "mutator.write_ns": (
        "core.checkpointable: the `modified` hook on every field write",
        "steps_per_s",
        "scattered_walk (untiered objects); clustered_history (the hook also bumps block generations)",
    ),
    "strategy.write_ms.p50": (
        "runtime.strategy: walk or blocks, then encode",
        "commit_ms.p50",
        "scattered_walk (dominant), clustered_history (~half)",
    ),
    "blocks.skip_frac": ("core.blocks", "commit_ms.p50", "clustered_history"),
    "blocks.walked": ("core.blocks", "commit_ms.p50", "clustered_history"),
    "blocks.skipped": ("core.blocks", "commit_ms.p50", "clustered_history"),
    "blocks.partition_s": ("core.blocks: first commit", "setup_s", "clustered_history"),
    "encode.epoch_bytes": ("core.streams", "disk_bytes_per_commit", "commit workloads"),
    "store.append_ms.p50": ("core.storage: write path", "commit_ms.p50", "clustered_history"),
    "store.append_ms.first_decile": (
        "core.storage: latency vs history length", "commit_ms.p90", "clustered_history",
    ),
    "store.append_ms.last_decile": (
        "core.storage: latency vs history length", "commit_ms.p90", "clustered_history",
    ),
    "store.manifest_bytes": (
        "core.storage", "commit_ms.p90, disk_bytes_per_commit", "clustered_history",
    ),
    "store.write_amp": (
        "core.storage: bytes written per payload byte",
        "commit_ms.p90, disk_bytes_per_commit",
        "clustered_history",
    ),
    "session.self_ms.p50": (
        "runtime.session: commit minus strategy minus append",
        "commit_ms.p50",
        "clustered_history, scattered_walk",
    ),
    "restore.read_ms.p50": (
        "core.storage read + core.lineage (recovery_line), warm", "restore_s.p50", "clustered_history, scattered_walk (read phase)",
    ),
    "recover.read_ms.p50": (
        "core.storage read + core.lineage (recovery_line), cold", "recover_s.p50", "clustered_history, scattered_walk (read phase)",
    ),
    "restore.replay_ms.p50": (
        "core.restore: replay_epochs", "restore_s.p50, recover_s.p50", "clustered_history, scattered_walk (read phase)",
    ),
    "restore.objects_per_s": (
        "core.restore: replay_epochs", "restore_s.p50, recover_s.p50", "clustered_history, scattered_walk (read phase)",
    ),
    "restore.rebind_ms.p50": (
        "runtime.session: restore minus read minus replay", "restore_s.p50", "clustered_history, scattered_walk (read phase)",
    ),
    "engine.run_s.p50": (_WHOLE + ": engine.run()", "steps_per_s", "analysis_engine"),
    "engine.analysis_s": ("analysis", "steps_per_s", "analysis_engine"),
    "engine.checkpoint_s": ("spec: per-phase commits", "steps_per_s, commit_ms.p50", "analysis_engine"),
    "engine.append_s": ("core.storage", "steps_per_s", "analysis_engine"),
    "spec.compile_s": ("spec", "setup_s", "analysis_engine"),
    "gc.collections": ("CPython GC (gc.callbacks)", "commit_ms.p90, restore_s.p50", "scattered_walk"),
    "gc.pause_ms_per_step": ("CPython GC (gc.callbacks)", "commit_ms.p90, restore_s.p50", "scattered_walk"),
    "trace.overhead_frac": (
        "the benchmark's own tracing: median traced / median untraced commit (engine run), "
        "interleaved in one run, minus 1",
        "none", "all",
    ),
    "trace.unaccounted_frac": (
        "1 - sum of the layer medians / median commit (engine run); ~0 by construction, "
        "since the caller's self time is one of the layers",
        "none", "all",
    ),
    "trace.unaccounted_frac.restore": (
        "1 - sum of the layer medians / median warm restore; ~0 by construction, "
        "since the rebind self time is one of the layers",
        "none", "all",
    ),
    "failed_frac": ("the benchmark's checks: failed or unverified ops / attempted", "none", "all"),
}
