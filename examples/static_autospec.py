"""Statically-derived specialization: prove the pattern, drop the guards.

Run with::

    python examples/static_autospec.py

Lint this file (it declares its own ``LINT_TARGETS``)::

    python -m repro.lint examples/static_autospec.py

The paper's future work (section 7) proposes constructing specialization
classes "based on an analysis of the data modification pattern of the
program". ``examples/adaptive_autospec.py`` shows the *dynamic* variant:
observe dirty flags at run time, compile **guarded** because observation
under-approximates. This example shows the *static* one: a may-modify
effect analysis of the phase's source computes an over-approximation of
every position the phase can write, so the derived pattern is sound by
construction and the specialization compiles **unguarded** — the run-time
checks verify nothing that can fail, and the checkpoints are
byte-identical to the generic driver's.
"""

from __future__ import annotations

import time

from repro.core.checkpoint import (
    Checkpoint,
    reset_flags,
    restore_flags,
    snapshot_flags,
)
from repro.core.streams import DataOutputStream
from repro.lint import LintTarget
from repro.spec import (
    AutoSpecializer,
    ModificationPattern,
    PatternObserver,
    Shape,
    SpecClass,
    SpecCompiler,
    analyze_effects,
)
from repro.synthetic.structures import build_structure

NUM_LISTS = 4
LIST_LENGTH = 8
INTS_PER_ELEMENT = 2

STRUCTURE = build_structure(NUM_LISTS, LIST_LENGTH, INTS_PER_ELEMENT)
SHAPE = Shape.of(STRUCTURE)


def hot_phase(structure) -> None:
    """The program phase running between checkpoints.

    Only two of the four lists are ever touched: the head of ``list0``
    and the third element of ``list1``. ``list2`` and ``list3`` are
    read-only for the whole phase — the analysis proves it, so the
    specialized routine never visits them at all (paper Figure 6).
    """
    structure.list0.v0 += 1
    structure.list1.next.next.v0 += 5


#: the promise a programmer would have written by hand; the linter checks
#: it against the analysis (sound and exact here)
DECLARED = ModificationPattern.only(
    SHAPE, [("list0",), ("list1", "next", "next")]
)

LINT_TARGETS = [
    LintTarget(
        "hot-phase",
        shape=SHAPE,
        phases=[hot_phase],
        pattern=DECLARED,
        roots=["structure"],
    ),
]


def generic_checkpoint(structure) -> bytes:
    driver = Checkpoint()
    driver.checkpoint(structure)
    return driver.getvalue()


def specialized_checkpoint(fn, structure) -> bytes:
    out = DataOutputStream()
    fn(structure, out)
    return out.getvalue()


def main() -> None:
    print("=== 1. Static may-modify effect analysis of hot_phase ===")
    report = analyze_effects(SHAPE, [hot_phase], roots=["structure"])
    print(f"shape positions: {SHAPE.node_count()}")
    print(f"may be written:  {len(report.may_write)} "
          f"(analysis exact: {report.is_exact()})")
    for path in sorted(report.may_write, key=repr):
        site = report.evidence(path)[0]
        print(f"  {path!r:34} written at {site.location()}")

    print()
    print("=== 2. Statically proven pattern -> UNGUARDED specialization ===")
    static_spec = SpecClass.from_static_analysis(
        SHAPE,
        [hot_phase],
        name="static_hot_ckpt",
        declared=DECLARED,  # checked for soundness; unsound would raise
        roots=["structure"],
    )
    compiler = SpecCompiler()
    static_fn = compiler.compile(static_spec)
    print(f"compiled {len(static_fn.source_lines())} lines, no guards:")
    print("  untouched lists eliminated:",
          all(f"_f_list{i}" not in static_fn.source for i in (2, 3)))
    print("  runtime checks compiled in:",
          "PatternViolationError" in static_fn.source)

    print()
    print("=== 3. Dynamic contrast: observed pattern -> GUARDED routine ===")
    reset_flags(STRUCTURE)
    observer = PatternObserver(SHAPE)
    hot_phase(STRUCTURE)          # one representative warm-up run
    observer.observe(STRUCTURE)
    auto = AutoSpecializer(SHAPE, observer, name="dynamic_hot_ckpt")
    guarded_fn = auto.compiled()
    print(f"observed dirty positions: {sorted(observer.seen_dirty(), key=repr)}")
    print("  runtime checks compiled in:",
          "PatternViolationError" in guarded_fn.source)

    print()
    print("=== 4. All three record byte-identical checkpoints ===")
    # STRUCTURE is dirty from the warm-up run; replay the identical flag
    # state into each variant.
    snapshot = snapshot_flags([STRUCTURE])
    expected = generic_checkpoint(STRUCTURE)
    restore_flags(snapshot)
    guarded_bytes = specialized_checkpoint(guarded_fn, STRUCTURE)
    restore_flags(snapshot)
    static_bytes = specialized_checkpoint(static_fn, STRUCTURE)
    print(f"generic driver:        {len(expected)} bytes")
    print(f"guarded (dynamic):     identical: {guarded_bytes == expected}")
    print(f"unguarded (static):    identical: {static_bytes == expected}")
    assert guarded_bytes == expected and static_bytes == expected

    print()
    print("=== 5. What dropping the guards buys ===")
    rounds = 3000
    timings = {}
    for label, fn in (("guarded", guarded_fn), ("static", static_fn)):
        restore_flags(snapshot)
        start = time.perf_counter()
        for _ in range(rounds):
            restore_flags(snapshot)
            specialized_checkpoint(fn, STRUCTURE)
        timings[label] = time.perf_counter() - start
    ratio = timings["guarded"] / timings["static"]
    print(f"guarded: {timings['guarded']:.3f}s   "
          f"static unguarded: {timings['static']:.3f}s   "
          f"({ratio:.2f}x)")
    print()
    print("The static route needs no warm-up runs, cannot be surprised by")
    print("an unobserved write (the analysis over-approximates), and pays")
    print("zero run-time checking. Its price: opaque calls in the phase")
    print("would widen the pattern toward all-dynamic.")


if __name__ == "__main__":
    main()
