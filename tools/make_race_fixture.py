#!/usr/bin/env python
"""Generate seeded-racy fixture programs for the concurrency analysis.

Each fixture is a small self-contained module seeded with exactly one
race pattern from the static rule family
(:mod:`repro.spec.effects.concurrency`):

- ``unguarded-shared-write`` — a concurrent class whose counter field is
  hammered bare from spawned threads;
- ``inconsistent-guard`` — a field written under its lock on one path
  and bare on another;
- ``lock-order-inversion`` — two locks taken in opposite orders by two
  methods;
- ``lock-held-across-blocking-call`` — ``time.sleep`` inside a critical
  section;
- ``flag-mutation-outside-commit`` — a direct ``_ckpt_dirty``
  poke from a thread-reachable method.

The first three are *runnable*: each module exposes ``run()`` driving
barrier-synchronized threads through the racy code, so the dynamic
sanitizer (:mod:`repro.sanitize`) can observe the race the static pass
predicts.  That pairing is what ``python -m
repro.spec.effects.concurrency --crosscheck`` exercises: for every
runnable fixture, dynamic violations must be a subset of the static
findings.

The ``--seed`` flag perturbs identifiers and iteration counts so the
rule tests cannot accidentally pass by string-matching one frozen
program text.

Run:  python tools/make_race_fixture.py --out DIR [--seed N]
Writes one ``.py`` per pattern plus ``manifest.json`` describing the
expected finding for each (file, class, field, rule, runnable).
"""

import argparse
import json
import random
from pathlib import Path

#: the rule each generated module must trip, keyed by fixture stem
RULES = {
    "unguarded_write": "unguarded-shared-write",
    "inconsistent_guard": "inconsistent-guard",
    "lock_order": "lock-order-inversion",
    "blocking_under_lock": "lock-held-across-blocking-call",
    "flag_outside_commit": "flag-mutation-outside-commit",
}

#: fixtures whose race the dynamic sanitizer can observe at runtime
RUNNABLE = {"unguarded_write", "inconsistent_guard", "lock_order"}

_ADJECTIVES = ["Busy", "Shared", "Hot", "Racy", "Split", "Torn"]
_NOUNS = ["Counter", "Ledger", "Buffer", "Meter", "Tally"]
_FIELDS = ["total", "count", "balance", "hits", "acc"]


def _names(rng):
    """One seeded (class, field) identifier pair."""
    cls = rng.choice(_ADJECTIVES) + rng.choice(_NOUNS)
    field = rng.choice(_FIELDS)
    return cls, field


def make_unguarded_write(rng):
    cls, field = _names(rng)
    iters = rng.randrange(200, 400)
    source = f'''"""Seeded race: {field} written bare from spawned threads."""

import threading


class {cls}:
    def __init__(self):
        self.lock = threading.Lock()
        self.{field} = 0

    def work(self):
        for _ in range({iters}):
            self.{field} += 1  # bare: the declared lock is never taken


def run(threads=4):
    obj = {cls}()
    barrier = threading.Barrier(threads)

    def go():
        barrier.wait()
        obj.work()

    workers = [threading.Thread(target=go) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return obj
'''
    return source, cls, field


def make_inconsistent_guard(rng):
    cls, field = _names(rng)
    iters = rng.randrange(200, 400)
    source = f'''"""Seeded race: {field} guarded on one path, bare on the other."""

import threading


class {cls}:
    def __init__(self):
        self.lock = threading.Lock()
        self.{field} = 0

    def safe_add(self):
        with self.lock:
            self.{field} += 1

    def fast_add(self):
        self.{field} += 1  # bare: races every safe_add


def run(threads=4):
    obj = {cls}()
    barrier = threading.Barrier(threads)

    def go(use_lock):
        barrier.wait()
        for _ in range({iters}):
            if use_lock:
                obj.safe_add()
            else:
                obj.fast_add()

    workers = [
        threading.Thread(target=go, args=(i % 2 == 0,))
        for i in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    return obj
'''
    return source, cls, field


def make_lock_order(rng):
    cls, field = _names(rng)
    source = f'''"""Seeded inversion: two locks taken in opposite orders."""

import threading


class {cls}:
    def __init__(self):
        self.alpha = threading.Lock()
        self.beta = threading.Lock()
        self.{field} = 0

    def forward(self):
        with self.alpha:
            with self.beta:
                self.{field} += 1

    def backward(self):
        with self.beta:
            with self.alpha:
                self.{field} += 1


def run(threads=2):
    obj = {cls}()
    # sequential on purpose: the *order edges* are the bug being
    # detected; interleaving them for real would deadlock the fixture
    obj.forward()
    obj.backward()
    return obj
'''
    return source, cls, "beta"


def make_blocking_under_lock(rng):
    cls, field = _names(rng)
    source = f'''"""Seeded stall: a sleep inside the critical section."""

import threading
import time


class {cls}:
    def __init__(self):
        self.lock = threading.Lock()
        self.{field} = 0

    def slow_update(self):
        with self.lock:
            time.sleep(0.01)  # every contender stalls behind this
            self.{field} += 1
'''
    return source, cls, field


def make_flag_outside_commit(rng):
    cls, field = _names(rng)
    source = f'''"""Seeded protocol bypass: direct dirty-flag mutation off-thread."""

import threading


class {cls}:
    def __init__(self, target):
        self.lock = threading.Lock()
        self.target = target
        self._worker = threading.Thread(target=self.poke)

    def poke(self):
        # the write barrier owns this flag; poking it from a thread
        # races the commit path's record-and-clear
        self.target._ckpt_dirty = True
'''
    return source, cls, "_ckpt_dirty"


GENERATORS = {
    "unguarded_write": make_unguarded_write,
    "inconsistent_guard": make_inconsistent_guard,
    "lock_order": make_lock_order,
    "blocking_under_lock": make_blocking_under_lock,
    "flag_outside_commit": make_flag_outside_commit,
}


def generate(out_dir, seed=0):
    """Write every fixture into ``out_dir``; return the manifest list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    manifest = []
    for stem, build in GENERATORS.items():
        source, cls, field = build(rng)
        path = out / f"{stem}.py"
        path.write_text(source, encoding="utf-8")
        manifest.append(
            {
                "file": path.name,
                "class": cls,
                "field": field,
                "rule": RULES[stem],
                "runnable": stem in RUNNABLE,
            }
        )
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="build/race_fixtures",
        help="directory the fixture modules are written into",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="identifier/iteration seed"
    )
    args = parser.parse_args(argv)
    manifest = generate(args.out, seed=args.seed)
    for entry in manifest:
        flag = "runnable" if entry["runnable"] else "static-only"
        print(
            f"{entry['file']}: {entry['rule']} on "
            f"{entry['class']}.{entry['field']} ({flag})"
        )
    print(f"{len(manifest)} fixture(s) -> {args.out}/manifest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
