#!/usr/bin/env python
"""Generate seeded aliasing-bug fixture programs.

Each fixture is a small standalone module seeded with exactly one alias
bug shape the static escape/alias analysis
(``repro.spec.effects.aliasing``) must flag:

``slot_bypass``
    A raw ``_f_<field>`` store through an alias — the field descriptor
    never fires, the modified flag never moves.
``setattr_bypass``
    The same bug via ``setattr(obj, "_f_<field>", v)``.
``raw_items``
    The ``TrackedList._items`` backing list captured and mutated.
``dict_bypass``
    A slot store through ``vars(obj)`` (static-only: checkpointable
    instances are slot-backed, so ``vars()`` raises ``TypeError`` and
    the runtime itself refuses the bypass).
``shared_subtree``
    One fresh object attached under two recorded roots: either root's
    commit clears the other's dirty flags.
``thread_capture``
    A recorded reference handed to ``threading.Thread``, whose worker
    bypasses the flag.
``escape_global``
    A recorded reference stashed in a module-level container
    (static-only: the escape is the bug, no workload trips it).

Runnable fixtures expose ``run()``, which drives the bug through a real
:class:`~repro.runtime.session.CheckpointSession` with a
:class:`~repro.sanitize.oracle.ShadowHeapOracle` attached and returns
the oracle — the dynamic half of ``python -m repro.spec.effects.aliasing
--crosscheck`` asserts every oracle-observed unflagged mutation was
statically predicted.

Identifiers are drawn from a seeded RNG so repeated generations (and the
process-wide class registry) never collide.

Usage: ``python tools/make_alias_fixture.py --out DIR [--seed N]``
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: fixture stem -> the rule code the static pass must report
RULES = {
    "slot_bypass": "alias-write-bypasses-flag",
    "setattr_bypass": "alias-write-bypasses-flag",
    "raw_items": "alias-write-bypasses-flag",
    "dict_bypass": "alias-write-bypasses-flag",
    "shared_subtree": "shared-subtree-alias",
    "thread_capture": "alias-captured-by-thread",
    "escape_global": "reference-escapes-recorded-graph",
}

#: fixtures whose ``run()`` trips the bug dynamically under the oracle
RUNNABLE = {
    "slot_bypass",
    "setattr_bypass",
    "raw_items",
    "shared_subtree",
    "thread_capture",
}

_ADJECTIVES = [
    "Brisk", "Calm", "Dusty", "Eager", "Faint", "Grand", "Hazy",
    "Irate", "Jolly", "Keen", "Lucid", "Mellow", "Noble", "Odd",
]
_NOUNS = [
    "Ledger", "Basin", "Switch", "Portal", "Relay", "Vault", "Meter",
    "Roster", "Crate", "Signal", "Tally", "Anchor", "Prism", "Gauge",
]
_FIELDS = [
    "amount", "weight", "height", "count", "score", "level", "grade",
    "total", "index", "depth",
]


def _names(rng: random.Random) -> Tuple[str, str, str]:
    """(root class, leaf class, scalar field) — collision-free per draw."""
    adjective = rng.choice(_ADJECTIVES)
    noun = rng.choice(_NOUNS)
    other = rng.choice([n for n in _NOUNS if n != noun])
    suffix = rng.randrange(10_000)
    root_cls = f"{adjective}{noun}{suffix}"
    leaf_cls = f"{adjective}{other}{suffix}"
    field = rng.choice(_FIELDS)
    return root_cls, leaf_cls, field


_PRELUDE = """\
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, child_list, scalar
from repro.runtime.session import CheckpointSession
from repro.core.storage import MemoryStore
from repro.sanitize.oracle import ShadowHeapOracle


class {leaf}(Checkpointable):
    {field} = scalar("int")


class {root}(Checkpointable):
    label = scalar("str")
    kid = child({leaf})
    kids = child_list({leaf})


def _session(root):
    oracle = ShadowHeapOracle()
    session = CheckpointSession(roots=root, sink=MemoryStore())
    session.attach_oracle(oracle)
    session.base()
    return session, oracle
"""


def make_slot_bypass(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = _PRELUDE.format(root=root, leaf=leaf, field=field) + f"""

def run():
    tree = {root}()
    tree.kid = {leaf}()
    session, oracle = _session(tree)
    alias = tree.kid
    alias._f_{field} = 41  # the bug: the descriptor never fires
    session.commit()
    session.close()
    return oracle
"""
    return source, leaf, field


def make_setattr_bypass(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = _PRELUDE.format(root=root, leaf=leaf, field=field) + f"""

def run():
    tree = {root}()
    tree.kid = {leaf}()
    session, oracle = _session(tree)
    setattr(tree.kid, "_f_{field}", 57)  # the bug: raw slot store
    session.commit()
    session.close()
    return oracle
"""
    return source, leaf, field


def make_raw_items(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = _PRELUDE.format(root=root, leaf=leaf, field=field) + f"""

def run():
    tree = {root}()
    tree.kids.append({leaf}())
    session, oracle = _session(tree)
    backing = tree.kids._items
    backing.append({leaf}())  # the bug: the tracked list never touches
    session.commit()
    session.close()
    return oracle
"""
    return source, root, "kids"


def make_dict_bypass(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = _PRELUDE.format(root=root, leaf=leaf, field=field) + f"""

def run():
    tree = {root}()
    tree.kid = {leaf}()
    session, oracle = _session(tree)
    vars(tree.kid)["_f_{field}"] = 7  # the bug: __dict__ store
    session.commit()
    session.close()
    return oracle
"""
    return source, leaf, field


def make_shared_subtree(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = _PRELUDE.format(root=root, leaf=leaf, field=field) + f"""

def run():
    shared = {leaf}()
    left = {root}()
    left.kid = shared
    right = {root}()
    right.kid = shared  # the bug: one subtree under two recorded roots
    left_session = CheckpointSession(roots=left, sink=MemoryStore())
    left_session.base()
    session, oracle = _session(right)
    shared.{field} = shared.{field} + 1  # honest descriptor write
    left_session.commit()  # left's commit clears the shared flag...
    session.commit()  # ...so right's delta silently skips it
    left_session.close()
    session.close()
    return oracle
"""
    return source, leaf, field


def make_thread_capture(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = (
        "import threading\n\n"
        + _PRELUDE.format(root=root, leaf=leaf, field=field)
        + f"""

def _worker(kid):
    kid._f_{field} = 99  # bypass inside the thread body


def run():
    tree = {root}()
    tree.kid = {leaf}()
    session, oracle = _session(tree)
    worker = threading.Thread(target=_worker, args=(tree.kid,))
    worker.start()
    worker.join()
    session.commit()
    session.close()
    return oracle
"""
    )
    return source, leaf, field


def make_escape_global(rng: random.Random) -> Tuple[str, str, str]:
    root, leaf, field = _names(rng)
    source = (
        _PRELUDE.format(root=root, leaf=leaf, field=field)
        + f"""

STASH = []


def remember(tree: {root}):
    STASH.append(tree.kid)  # the bug: outlives the commit discipline
"""
    )
    return source, leaf, field


GENERATORS: Dict[str, Callable[[random.Random], Tuple[str, str, str]]] = {
    "slot_bypass": make_slot_bypass,
    "setattr_bypass": make_setattr_bypass,
    "raw_items": make_raw_items,
    "dict_bypass": make_dict_bypass,
    "shared_subtree": make_shared_subtree,
    "thread_capture": make_thread_capture,
    "escape_global": make_escape_global,
}


def generate(out_dir, seed: int = 0) -> List[dict]:
    """Write every fixture into ``out_dir``; return the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    manifest: List[dict] = []
    for stem, generator in GENERATORS.items():
        source, cls, field = generator(rng)
        filename = f"{stem}.py"
        (out / filename).write_text(source, encoding="utf-8")
        manifest.append(
            {
                "file": filename,
                "class": cls,
                "field": field,
                "rule": RULES[stem],
                "runnable": stem in RUNNABLE,
            }
        )
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="generate seeded aliasing-bug fixtures"
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    manifest = generate(args.out, seed=args.seed)
    for entry in manifest:
        print(
            f"{entry['file']}: {entry['rule']} "
            f"({'runnable' if entry['runnable'] else 'static-only'})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
