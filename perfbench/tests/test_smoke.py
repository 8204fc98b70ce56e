"""Smoke tests for the benchmark command, on a small population.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics that are 0 only if a wrapper stopped seeing the calls
READ_LAYERS = ["restore_s.p50", "recover_s.p50", "restore.read_ms.p50",
               "recover.read_ms.p50", "restore.replay_ms.p50"]
COMMIT_LAYERS = ["commit_ms.p50", "steps_per_s", "mutator.write_ns",
                 "strategy.write_ms.p50", "store.append_ms.p50",
                 "session.self_ms.p50", "encode.epoch_bytes"]
NONZERO = {
    "clustered_history": READ_LAYERS + COMMIT_LAYERS + ["blocks.partition_s"],
    "scattered_walk": READ_LAYERS + COMMIT_LAYERS,
    "analysis_engine": READ_LAYERS + [
        "commit_ms.p50", "steps_per_s", "engine.run_s.p50", "engine.analysis_s",
        "engine.checkpoint_s", "engine.append_s", "spec.compile_s"],
}


def bench(cwd, workload, trace, *extra, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_emits_every_metric(tmp_path, workload, trace):
    proc = bench(tmp_path, workload, trace, "--small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace or metric["name"] in NONZERO[workload]:
            assert got["value"] > 0, metric["name"]
    env_line = next(l for l in proc.stdout.splitlines() if l.startswith("environment "))
    env = json.loads(env_line[len("environment "):])
    for key in ("python", "cpu_model", "nproc", "git_sha", "store_fs", "seed", "fsync_policy"):
        assert key in env
    assert env["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_epoch_byte_fails_the_run(tmp_path, workload):
    proc = bench(tmp_path, workload, 0, "--small", "--flip-epoch-byte")
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] > 0


def test_flipped_epoch_byte_shows_in_failed_frac(tmp_path):
    proc = bench(tmp_path, "scattered_walk", 1, "--small", "--flip-epoch-byte")
    assert proc.returncode != 0
    assert result_of(proc)["metrics"]["failed_frac"]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "scattered_walk", 0, "--small",
                 script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
