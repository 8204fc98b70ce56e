"""End-to-end commit/restore benchmark with a per-layer breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clustered_history --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):
``clustered_history``, ``scattered_walk`` and ``analysis_engine``. With
``--trace 0`` the run is untraced and reports every end-to-end metric;
with ``--trace 1`` every other operation is traced (its layer calls are
recorded as spans), the per-layer metrics are derived from the spans, and
the whole-operation times come from the untraced operations. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is non-zero when any commit,
restore or recover failed its check.

Checkpoint stores, span dumps and result files go to ``.perfbench_work/``
under the current directory. ``--small`` shrinks the population for the
benchmark's own tests; ``--flip-epoch-byte`` corrupts one stored epoch
before verification, to prove the checks catch it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402
from spans import SpanRecorder, median, percentile  # noqa: E402

WORKDIR = ".perfbench_work"
FSYNC_POLICY = (
    "FileStore: each epoch file fsynced before its atomic rename; "
    "manifest rewritten on every append, not fsynced"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--flip-epoch-byte", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORKDIR, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    run = workloads.Run(
        seed=args.seed,
        seconds=args.seconds,
        workdir=workdir,
        scale=workloads.SMALL if args.small else workloads.FULL,
        recorder=SpanRecorder() if args.trace else None,
        flip_epoch_byte=args.flip_epoch_byte,
    )
    env = environment(args.seed, workdir)
    try:
        try:
            workloads.WORKLOADS[args.workload](run)
        except Exception as exc:  # report the run as failed, with its cause
            run.fail(f"{args.workload} aborted", exc)
        values = per_layer(run) if args.trace else end_to_end(run)
        if run.recorder is not None:
            run.recorder.dump(os.path.join(WORKDIR, f"{tag}-spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }
    with open(os.path.join(WORKDIR, f"{tag}-result.json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "failures": run.failures, "values": values, **result},
                  handle, indent=2)

    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(f"workload {args.workload}: {int(run.values.get('steps', 0))} timed ops, "
          f"{run.attempted} checked, {run.failed} failed "
          f"(failed_frac {run.failed / max(run.attempted, 1):.4f})")
    for name in names:
        line = f"  {name} = {values[name]:.6g} {metrics[name]['unit']}"
        if name in LAYERS:
            layer, moves, on = LAYERS[name]
            line += f"    [{layer}; moves {moves} on {on}]"
        print(line)
    for name in sorted(set(values) - set(names)):
        print(f"  ({name} = {values[name]:.6g}, reported per layer)")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct and run.attempted else 1


# -- metrics -----------------------------------------------------------------------


def timings(run: workloads.Run) -> dict:
    """Whole-operation times, from untraced operations only.

    Reported per layer, not gated: see ``layers.py`` for why.
    """
    samples = run.samples
    commit = samples.get("commit", [])
    return {
        "commit_ms.p50": 1e3 * percentile(commit, 0.5),
        "commit_ms.p90": 1e3 * percentile(commit, 0.9),
        "steps_per_s": run.values.get("steps_per_s", 0.0),
        "restore_s.p50": median(samples.get("restore", [])),
        "recover_s.p50": median(samples.get("recover", [])),
        "engine.run_s.p50": median(samples.get("engine_run", [])),
    }


def end_to_end(run: workloads.Run) -> dict:
    return {
        "setup_s": median(run.samples.get("setup", [])),
        "disk_bytes_per_commit": run.values.get("disk_bytes_per_commit", 0.0),
        "peak_rss_mb": workloads.peak_rss_mb(),
        **timings(run),
    }


def per_layer(run: workloads.Run) -> dict:
    rec = run.recorder
    s = run.samples
    ms = 1e3
    commit_ops = s.get("commit_op", [])
    restore_ops = s.get("restore_op", [])
    recover_ops = s.get("recover_op", [])
    engine_ops = s.get("engine_op", [])

    strategy = [rec.op_total(op, "strategy.write") for op in commit_ops]
    append = [rec.op_total(op, "store.append") for op in commit_ops]
    session_self = [rec.self_time(op) for op in commit_ops]
    decile = max(len(append) // 10, 1)
    read_warm = [rec.op_total(op, "store.recovery_line") for op in restore_ops]
    read_cold = [rec.op_total(op, "store.recovery_line") for op in recover_ops]
    replay = {op: rec.op_total(op, "restore.replay_epochs") for op in restore_ops + recover_ops}
    rebind = [rec.self_time(op) for op in restore_ops]
    objects_per_s = [n / replay[op] for op, n in s.get("replayed_objects", []) if replay.get(op)]
    engine_total = [rec.duration(op) for op in engine_ops]
    engine_ckpt = [
        rec.op_total(op, "session.commit") + rec.op_total(op, "session.base")
        for op in engine_ops
    ]
    engine_analysis = [t - c for t, c in zip(engine_total, engine_ckpt)]
    engine_append = [rec.op_total(op, "store.append") for op in engine_ops]
    partitions = [rec.duration(i) for i, span in enumerate(rec.spans) if span[0] == "blocks.partition"]
    blocks_total = s.get("blocks_total", [])
    skipped = s.get("blocks_skipped", [])

    # traced against untraced operations of the same run, interleaved
    main = "engine_run" if engine_ops else "commit"
    untraced = median(s.get(main, []))
    overhead = median(s.get(f"{main}_traced", [])) / untraced - 1.0 if untraced else 0.0

    if engine_ops:
        whole, parts = engine_total, [engine_analysis, engine_ckpt]
    else:
        whole = [rec.duration(op) for op in commit_ops]
        parts = [strategy, append, session_self]
    restore_whole = [rec.duration(op) for op in restore_ops]
    restore_parts = [read_warm, [replay[op] for op in restore_ops], rebind]

    writes = run.values.get("writes", 0)
    steps = run.values.get("steps", 0)
    return {
        **timings(run),
        "mutator.write_ns": 1e9 * sum(s.get("mutate", [])) / writes if writes else 0.0,
        "strategy.write_ms.p50": ms * median(strategy),
        "blocks.skip_frac": (
            sum(k / t for k, t in zip(skipped, blocks_total)) / len(blocks_total)
            if blocks_total else 0.0
        ),
        "blocks.walked": median(s.get("blocks_walked", [])),
        "blocks.skipped": median(skipped),
        "blocks.partition_s": median(partitions),
        "encode.epoch_bytes": median(s.get("epoch_bytes", [])),
        "store.append_ms.p50": ms * median(append),
        "store.append_ms.first_decile": ms * median(append[:decile]),
        "store.append_ms.last_decile": ms * median(append[-decile:]),
        "store.manifest_bytes": run.values.get("store.manifest_bytes", 0.0),
        "store.write_amp": median(s.get("write_amp", [])),
        "session.self_ms.p50": ms * median(session_self),
        "restore.read_ms.p50": ms * median(read_warm),
        "recover.read_ms.p50": ms * median(read_cold),
        "restore.replay_ms.p50": ms * median(replay.values()),
        "restore.objects_per_s": median(objects_per_s),
        "restore.rebind_ms.p50": ms * median(rebind),
        "engine.analysis_s": median(engine_analysis),
        "engine.checkpoint_s": median(engine_ckpt),
        "engine.append_s": median(engine_append),
        "spec.compile_s": median(s.get("spec_compile", [])),
        "gc.collections": run.gc.collections,
        "gc.pause_ms_per_step": ms * run.gc.pause / steps if steps else 0.0,
        "trace.overhead_frac": overhead,
        "trace.unaccounted_frac": unaccounted(whole, parts),
        "trace.unaccounted_frac.restore": unaccounted(restore_whole, restore_parts),
        "failed_frac": run.failed / max(run.attempted, 1),
    }


def unaccounted(whole, parts) -> float:
    """Share of the median ``whole`` the medians of its layer parts leave over.

    Within one operation the parts add up to the whole exactly, because the
    caller's self time (session, rebind, analysis) is one of them; so this
    is about 0 by construction, and shows how far the per-layer medians can
    be added up to the median operation.
    """
    if not whole:
        return 0.0
    return 1.0 - sum(median(p) for p in parts) / median(whole)


# -- environment ---------------------------------------------------------------------


def environment(seed: int, workdir: str) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(ROOT),
        "store_fs": _fs_type(workdir),
        "seed": seed,
        "fsync_policy": FSYNC_POLICY,
        "load_model": "closed loop: 1 caller, 1 process, no extra threads",
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str):
    """The checked-out commit (None unless ``root`` is a git work tree's top)."""
    # the ceiling keeps git from reporting a repository that encloses root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _fs_type(path: str) -> str:
    """Filesystem type of ``path``: the longest matching /proc/mounts entry."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


if __name__ == "__main__":
    sys.exit(main())
