"""Dynamic counterexample harness for statically-inferred patterns.

The whole-program analysis (:mod:`repro.spec.effects.wholeprogram`) emits
patterns that are *sound by construction* — every write the phases can
perform is covered. This module is the second, independent line of
defense: it runs real workloads — the analysis engine of
:mod:`repro.analysis` and the synthetic populations of
:mod:`repro.synthetic` — under the inferred patterns in checking mode,
and fails with a **minimized write-site repro** if a statically-quiescent
position is ever dirtied at run time. A counterexample here means the
analysis itself has a bug, so the harness is wired into CI next to the
linter.

Three scenario families:

- :func:`crosscheck_phases` — run explicit phase functions against the
  patterns inferred for them, validating dirty flags before each commit
  and cross-validating checkpoint bytes against the ``checking`` driver.
- :func:`crosscheck_driver` — run a whole driver function under a
  validating session: every ``commit(phase=...)`` first checks the live
  dirty state against that phase's inferred pattern.
- :func:`crosscheck_engine` / :func:`crosscheck_synthetic` — the two
  built-in workloads: the three-phase analysis engine and the paper's
  synthetic populations (uniform, restricted-lists, last-element).

Run the whole battery with ``python -m repro.spec.effects.crosscheck``.

The runtime, engine, and synthetic packages import :mod:`repro.spec`, so
everything outside the spec layer is imported lazily inside functions —
this module must stay out of :mod:`repro.spec.effects`'s eager imports.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.checkpoint import (
    CheckingCheckpoint,
    reset_flags,
    restore_flags,
    snapshot_flags,
)
from repro.core.streams import DataOutputStream
from repro.spec.effects.analysis import EffectReport, analyze_effects
from repro.spec.effects.soundness import check_pattern
from repro.spec.effects.wholeprogram import infer_phases
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Path, Shape
from repro.spec.specclass import SpecClass, SpecCompiler


@dataclass
class Counterexample:
    """One run-time violation of a statically-inferred pattern."""

    scenario: str
    phase: str
    #: the statically-quiescent shape position that got dirty
    path: Path
    #: the minimized repro: the single phase function (or region) whose
    #: run alone dirties the position
    repro: str

    def describe(self) -> str:
        return (
            f"[{self.scenario}] phase {self.phase!r}: position {self.path!r} "
            f"was dirtied at run time but inferred quiescent — {self.repro}"
        )


@dataclass
class CrosscheckResult:
    """What one scenario verified, and every violation it found."""

    scenario: str
    #: individual validations performed (flag checks + byte comparisons)
    checks: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def describe(self) -> List[str]:
        status = "ok" if self.ok else "FAILED"
        lines = [f"{self.scenario}: {status} ({self.checks} check(s))"]
        lines.extend(f"  {note}" for note in self.notes)
        lines.extend(f"  {ce.describe()}" for ce in self.counterexamples)
        return lines


# -- helpers -----------------------------------------------------------------


def _checking_bytes(roots) -> bytes:
    """One ``checking``-driver checkpoint of ``roots`` (flags preserved)."""
    saved = snapshot_flags(roots)
    out = DataOutputStream()
    driver = CheckingCheckpoint(out)
    for root in roots:
        driver.checkpoint(root)
    restore_flags(saved)
    return out.getvalue()


def _inferred_bytes(report: EffectReport, name: str, roots) -> bytes:
    """One checkpoint through the unguarded inferred specialization."""
    compiled = SpecCompiler().compile(SpecClass.from_report(report, name=name))
    saved = snapshot_flags(roots)
    out = DataOutputStream()
    compiled.checkpoint_all(roots, out)
    restore_flags(saved)
    return out.getvalue()


def _minimize(
    shape: Shape,
    fns: Sequence[Callable],
    path: Path,
    root_factory: Callable,
    roots: Optional[Sequence[str]],
) -> str:
    """Find the single phase function whose run alone dirties ``path``."""
    for fn in fns:
        probe = root_factory()
        reset_flags(probe)
        fn(probe)
        if path in _dirty_paths(shape, probe):
            report = analyze_effects(shape, [fn], roots=roots)
            missing = "not in its inferred may-write set" if (
                path not in report.may_write
            ) else "in its inferred may-write set (merge bug)"
            return (
                f"minimized: {fn.__name__} alone dirties {path!r} "
                f"({missing})"
            )
    return "no single phase function reproduces the violation (interaction)"


def _dirty_paths(shape: Shape, root) -> List[Path]:
    """Shape positions whose live object is currently flagged modified."""
    dirty: List[Path] = []

    def visit(obj, node) -> None:
        if obj._ckpt_dirty:
            dirty.append(node.path)
        for edge in node.edges:
            child = ModificationPattern._follow(obj, edge)
            if child is not None:
                visit(child, edge.node)

    visit(root, shape.root)
    return dirty


# -- scenario: explicit phase functions --------------------------------------


def crosscheck_phases(
    shape: Shape,
    phases: Dict[str, Sequence[Callable]],
    root_factory: Callable,
    roots: Optional[Sequence[str]] = None,
    rounds: int = 2,
    scenario: str = "phases",
) -> CrosscheckResult:
    """Validate inferred per-phase patterns against live runs.

    For every round and phase: run the phase's functions on a fresh
    structure, assert every dirtied position is inside the inferred
    pattern, and assert the unguarded inferred specialization produces
    exactly the ``checking`` driver's bytes for the resulting state.
    """
    result = CrosscheckResult(scenario=scenario)
    reports = {
        label: analyze_effects(shape, list(fns), roots=roots)
        for label, fns in phases.items()
    }
    for label, report in sorted(reports.items()):
        result.notes.append(
            f"phase {label!r}: {len(report.may_write)}/{shape.node_count()} "
            f"position(s) dynamic, exact={report.is_exact()}"
        )
    for round_index in range(rounds):
        root = root_factory()
        reset_flags(root)
        for label, fns in sorted(phases.items()):
            report = reports[label]
            pattern = report.pattern()
            for fn in fns:
                fn(root)
            violations = pattern.validate_against(root)
            result.checks += 1
            for path in violations:
                result.counterexamples.append(
                    Counterexample(
                        scenario=scenario,
                        phase=label,
                        path=path,
                        repro=_minimize(
                            shape, fns, path, root_factory, roots
                        ),
                    )
                )
            if not violations:
                expected = _checking_bytes([root])
                actual = _inferred_bytes(
                    report, f"crosscheck_{label}", [root]
                )
                result.checks += 1
                if expected != actual:
                    result.counterexamples.append(
                        Counterexample(
                            scenario=scenario,
                            phase=label,
                            path=(),
                            repro=(
                                "inferred specialization produced "
                                f"{len(actual)} byte(s) but the checking "
                                f"driver produced {len(expected)} — the "
                                "compiled routine drops or reorders data"
                            ),
                        )
                    )
            reset_flags(root)
    return result


# -- scenario: a whole driver under a validating session ---------------------


def crosscheck_driver(
    shape: Shape,
    driver: Callable,
    root_factory: Callable,
    roots: Optional[Sequence[str]] = None,
    session_params: Sequence[str] = ("session",),
    scenario: str = "driver",
) -> CrosscheckResult:
    """Run ``driver`` under a session that validates every labeled commit.

    Before each ``commit(phase=...)`` the live dirty state is checked
    against the phase's inferred pattern; afterwards a second run with
    the inferred strategies bound must produce the same per-commit bytes
    as the first (checking-strategy) run.
    """
    from repro.runtime.session import CheckpointSession

    result = CrosscheckResult(scenario=scenario)
    report = infer_phases(
        shape, driver, roots=roots, session_params=session_params
    )
    bindable = report.bindable()
    result.notes.append(
        f"driver {report.driver_name}: {len(report.commit_sites)} commit "
        f"site(s), {len(bindable)} bindable phase(s)"
    )
    patterns = {label: phase.pattern for label, phase in bindable.items()}

    harness = result  # close over the result from the session subclass

    class _ValidatingSession(CheckpointSession):
        def commit(self, phase=None, roots=None, kind=None):
            if phase in patterns:
                use = self._resolve_roots(roots)
                harness.checks += 1
                for root in use:
                    for path in patterns[phase].validate_against(root):
                        harness.counterexamples.append(
                            Counterexample(
                                scenario=scenario,
                                phase=phase,
                                path=path,
                                repro=(
                                    "region "
                                    f"{bindable[phase].region.name!r} "
                                    "(lines "
                                    f"{bindable[phase].region.start_line}-"
                                    f"{bindable[phase].region.end_line}) "
                                    "dirties the position at run time"
                                ),
                            )
                        )
            return super().commit(phase=phase, roots=roots, kind=kind)

    first_root = root_factory()
    reset_flags(first_root)
    checking = _ValidatingSession(roots=[first_root], strategy="checking")
    driver(first_root, checking)
    result.checks += 1

    second_root = root_factory()
    reset_flags(second_root)
    inferred = CheckpointSession(roots=[second_root])
    inferred.bind_program(shape, driver, roots=roots, session_params=session_params)
    driver(second_root, inferred)

    # Same driver, same fresh structure: the per-commit byte sequences
    # must agree except for the object ids (fresh allocations), so we
    # compare sizes and kinds commit by commit.
    if len(checking.history) != len(inferred.history):
        result.counterexamples.append(
            Counterexample(
                scenario=scenario,
                phase="<all>",
                path=(),
                repro=(
                    f"checking run committed {len(checking.history)} "
                    f"epoch(s) but the inferred run {len(inferred.history)}"
                ),
            )
        )
    else:
        for a, b in zip(checking.history, inferred.history):
            result.checks += 1
            if (a.kind, a.size) != (b.kind, b.size):
                result.counterexamples.append(
                    Counterexample(
                        scenario=scenario,
                        phase=a.phase or "<base>",
                        path=(),
                        repro=(
                            f"commit sizes diverge: checking wrote "
                            f"{a.size} byte(s), inferred wrote {b.size}"
                        ),
                    )
                )
    return result


# -- scenario: the analysis engine -------------------------------------------

_ENGINE_SOURCE = """
int g;
int h;

int helper(int x) {
    g = g + x;
    return x * 2;
}

int main() {
    int i;
    i = 0;
    while (i < 10) {
        h = helper(i);
        i = i + 1;
    }
    return h;
}
"""


def _se_probe(attrs) -> None:
    attrs.set_side_effects([1], [2])


def _bta_probe(attrs) -> None:
    attrs.set_bt(1)


def _eta_probe(attrs) -> None:
    attrs.set_et(1)


#: the engine phase -> the Attributes update helper that phase calls
ENGINE_PROBES = {
    "SE": [_se_probe],
    "BTA": [_bta_probe],
    "ETA": [_eta_probe],
}


def crosscheck_engine(source: str = _ENGINE_SOURCE) -> CrosscheckResult:
    """Run the real three-phase analysis engine under inferred patterns.

    The patterns are inferred from the :class:`~repro.analysis.attributes.Attributes`
    update helpers each phase calls (``set_side_effects`` / ``set_bt`` /
    ``set_et``) — resolved interprocedurally through the checkpointable
    receiver. Every fixpoint iteration's dirty state is validated against
    the phase's pattern before the commit clears the flags.
    """
    from repro.analysis.engine import AnalysisEngine

    result = CrosscheckResult(scenario="engine")
    engine = AnalysisEngine(source, strategy="incremental")
    shape = engine.attributes_shape()
    reports = {
        label: analyze_effects(shape, fns, roots=["attrs"])
        for label, fns in ENGINE_PROBES.items()
    }
    for label, report in sorted(reports.items()):
        result.notes.append(
            f"phase {label!r}: inferred "
            f"{sorted(report.may_write, key=repr)!r}, "
            f"exact={report.is_exact()}"
        )
        if not report.is_exact():
            result.counterexamples.append(
                Counterexample(
                    scenario="engine",
                    phase=label,
                    path=(),
                    repro=(
                        "analysis lost precision on the engine's own "
                        "update helpers — they must be fully resolvable"
                    ),
                )
            )

    engine.session.base(roots=[engine.attributes])

    def validate(label: str):
        pattern = reports[label].pattern()

        def on_iteration(_iteration: int) -> None:
            result.checks += 1
            for attrs in engine.attributes.entries._items:
                for path in pattern.validate_against(attrs):
                    result.counterexamples.append(
                        Counterexample(
                            scenario="engine",
                            phase=label,
                            path=path,
                            repro=(
                                f"{label} iteration dirtied the position; "
                                "inferred from "
                                f"{ENGINE_PROBES[label][0].__name__}"
                            ),
                        )
                    )
            # the commit clears flags so the next iteration is validated
            # against its own writes only
            engine.session.commit(phase=label)

        return on_iteration

    engine.side_effects.run(validate("SE"))
    engine.bta.run(validate("BTA"))
    engine.eta.run(validate("ETA"))
    return result


# -- scenario: the synthetic populations -------------------------------------


def _synthetic_phase_source(config, eligible) -> str:
    """Source of a phase function performing the workload's writes.

    Written to a real file so ``inspect.getsource`` (and therefore the
    effect analysis) can see it — the analysis works on program text,
    exactly like it would for user code.
    """
    from repro.synthetic.structures import list_field_name

    lines = ["def mutate(root):"]
    if not eligible:
        lines.append("    pass")
    for list_index, element_index in eligible:
        access = "root." + list_field_name(list_index) + ".next" * element_index
        lines.append(f"    {access}.v0 = {access}.v0 + 1")
    return "\n".join(lines) + "\n"


def _load_phase_module(source: str, tag: str):
    directory = FsPath(tempfile.mkdtemp(prefix="repro_crosscheck_"))
    file = directory / f"workload_{tag}.py"
    file.write_text(source, encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        f"_repro_crosscheck_{tag}", file
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


#: the three pattern families of the paper's synthetic evaluation
SYNTHETIC_PRESETS: Dict[str, dict] = {
    "uniform": dict(num_structures=24, num_lists=3, list_length=3),
    "restricted-lists": dict(
        num_structures=24, num_lists=3, list_length=3, modified_lists=1
    ),
    "last-element": dict(
        num_structures=24, num_lists=3, list_length=3, last_only=True
    ),
}


def crosscheck_synthetic(
    presets: Optional[Dict[str, dict]] = None,
    sample: int = 8,
) -> List[CrosscheckResult]:
    """Cross-validate inferred patterns on the synthetic populations.

    For each preset: generate the workload's writes as a real phase
    function, infer its pattern, diff it against the hand-declared one
    (zero unsound positions required), validate the live dirty state, and
    compare the inferred specialization's bytes against the ``checking``
    driver's on ``sample`` structures. Restricted presets must show at
    least one whole skipped subtree — the paper's headline optimization.
    """
    from repro.synthetic.runner import SyntheticConfig, SyntheticWorkload

    results: List[CrosscheckResult] = []
    for name, kwargs in (presets or SYNTHETIC_PRESETS).items():
        scenario = f"synthetic:{name}"
        result = CrosscheckResult(scenario=scenario)
        workload = SyntheticWorkload(SyntheticConfig(**kwargs))
        module = _load_phase_module(
            _synthetic_phase_source(workload.config, workload.eligible),
            name.replace("-", "_"),
        )
        report = analyze_effects(
            workload.shape, [module.mutate], roots=["root"]
        )

        verdict = check_pattern(workload.pattern, report)
        result.checks += 1
        for path, site in verdict.unsound:
            result.counterexamples.append(
                Counterexample(
                    scenario=scenario,
                    phase="mutate",
                    path=path,
                    repro=(
                        "inferred may-write exceeds the declared pattern"
                        + (f" (written at {site.location()})" if site else "")
                    ),
                )
            )
        inferred_pattern = report.pattern()
        skipped = inferred_pattern.skipped_subtrees()
        result.notes.append(
            f"{len(report.may_write)}/{workload.shape.node_count()} "
            f"position(s) dynamic, {len(skipped)} skipped subtree(s), "
            f"exact={report.is_exact()}"
        )
        # last-element presets keep a dynamic position at the bottom of
        # every list, so no whole subtree collapses (their win is folded
        # record tests); only list-restricted presets must skip subtrees
        restricted = workload.config.modified_lists != workload.config.num_lists
        if restricted and not skipped:
            result.counterexamples.append(
                Counterexample(
                    scenario=scenario,
                    phase="mutate",
                    path=(),
                    repro=(
                        "a restricted preset must yield at least one "
                        "skipped subtree, but the inferred pattern "
                        "collapses nothing"
                    ),
                )
            )

        workload.snapshot.restore()
        for root in workload.structures:
            result.checks += 1
            for path in inferred_pattern.validate_against(root):
                result.counterexamples.append(
                    Counterexample(
                        scenario=scenario,
                        phase="mutate",
                        path=path,
                        repro=(
                            "the applied workload dirtied a position the "
                            "generated phase function cannot write"
                        ),
                    )
                )

        workload.snapshot.restore()
        roots = workload.structures[:sample]
        expected = _checking_bytes(roots)
        actual = _inferred_bytes(report, f"crosscheck_{name.replace('-', '_')}", roots)
        result.checks += 1
        if expected != actual:
            result.counterexamples.append(
                Counterexample(
                    scenario=scenario,
                    phase="mutate",
                    path=(),
                    repro=(
                        f"inferred specialization wrote {len(actual)} "
                        f"byte(s), the checking driver {len(expected)}"
                    ),
                )
            )
        results.append(result)
    return results


# -- entry point -------------------------------------------------------------


def run_all() -> List[CrosscheckResult]:
    """The full battery: runtime probe driver, engine, synthetic presets."""
    from repro.runtime.selfcheck import (
        PROBE_SHAPE,
        probe_driver,
        probe_prototype,
    )

    results = [
        crosscheck_driver(
            PROBE_SHAPE,
            probe_driver,
            probe_prototype,
            roots=["root"],
            scenario="runtime-probe-driver",
        ),
        crosscheck_engine(),
    ]
    results.extend(crosscheck_synthetic())
    return results


def main(argv: Optional[List[str]] = None) -> int:
    results = run_all()
    failed = 0
    for result in results:
        for line in result.describe():
            print(line)
        if not result.ok:
            failed += 1
    total_checks = sum(r.checks for r in results)
    total_counter = sum(len(r.counterexamples) for r in results)
    print(
        f"crosscheck: {len(results)} scenario(s), {total_checks} check(s), "
        f"{total_counter} counterexample(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
