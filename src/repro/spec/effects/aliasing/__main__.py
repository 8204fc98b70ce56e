"""CLI for the escape/alias analysis and its dynamic crosscheck.

Static mode (the default)::

    python -m repro.spec.effects.aliasing src/repro [--format json]

analyzes the given files/directories and prints the alias findings
(writes that bypass the modified flag, subtrees attached under two
recorded roots, references escaping the recorded graph, thread
captures) plus the escape sites. Exit status 1 when any error-severity
finding is present, 2 on usage errors — the same contract as
``python -m repro.lint``.

Crosscheck mode::

    python -m repro.spec.effects.aliasing --crosscheck

validates **static ⊇ dynamic**: it generates the seeded aliasing-bug
fixture programs (``tools/make_alias_fixture.py``), runs each runnable
fixture's workload with a shadow-heap dirtiness oracle
(:class:`~repro.sanitize.oracle.ShadowHeapOracle`) attached to the
session, and also drives the real runtime — the analysis engine, the
synthetic benchmark population, and a commit/restore session cycle —
woven (``weave_runtime``) and oracle-checked.  Every unflagged
mutation the oracle observes must correspond to a rule the static pass
already reported for that fixture; a dynamic-only violation means the
analysis has a false negative and the command exits 1.  (The reverse
direction — static findings the workload never trips — is expected:
static analysis over-approximates reachable aliasing.)
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.lint.findings import (
    count_by_severity,
    exit_code,
    relativize_findings,
    sort_findings,
)
from repro.spec.effects.aliasing import analyze_paths
from repro.spec.effects.aliasing.escape import AliasReport
from repro.spec.effects.suppress import relativize_sites


def _render_human(report: AliasReport, show_escapes: bool) -> str:
    lines: List[str] = [
        finding.format_human() for finding in sort_findings(report.findings)
    ]
    counts = count_by_severity(report.findings)
    summary = ", ".join(
        f"{n} {sev}(s)" for sev, n in sorted(counts.items()) if n
    )
    lines.append(
        f"aliasing: {summary or 'no findings'} "
        f"({report.modules} module(s), "
        f"{report.cache_hits} summary cache hit(s))"
    )
    if report.suppressed:
        lines.append(f"{len(report.suppressed)} suppressed site(s):")
        for site in report.suppressed:
            lines.append(
                f"  {site.filename}:{site.lineno}: {site.what}"
                f" (alias-ok: {site.reason})"
            )
    if show_escapes and report.escapes:
        lines.append("escape sites:")
        for site in report.escapes:
            lines.append(
                f"  {site.filename}:{site.lineno}: {site.kind} ({site.what})"
            )
    return "\n".join(lines)


def _render_json(report: AliasReport) -> str:
    # one schema across every lint pass: Finding.to_dict() records plus
    # the shared severity counts (repro.lint renders the same shape)
    payload = {
        "findings": [f.to_dict() for f in sort_findings(report.findings)],
        "escapes": [site.to_dict() for site in report.escapes],
        "suppressed": [site.to_dict() for site in report.suppressed],
        "counts": count_by_severity(report.findings),
        "modules": report.modules,
        "summary_cache": {
            "hits": report.cache_hits,
            "misses": report.cache_misses,
        },
    }
    return json.dumps(payload, indent=2, default=list)


# -- crosscheck -----------------------------------------------------------


def _repo_root() -> Optional[Path]:
    """The repository root, when running from a source checkout."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "tools" / "make_alias_fixture.py").is_file():
            return parent
    return None


def _load_module(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _static_codes(report: AliasReport) -> Set[str]:
    """Rule codes the static pass reported (info excluded: not verdicts)."""
    return {
        f.code for f in report.findings if f.severity in ("error", "warning")
    }


def _run_fixture_crosscheck(out, seed: int) -> List[dict]:
    """Generate + run the seeded alias fixtures; one row per fixture.

    The comparison key is the fixture's seeded rule: the static pass
    must report that rule for the fixture file, and any unflagged
    mutation the oracle observes at runtime counts as escaped unless
    the rule was statically predicted.
    """
    from repro.sanitize import Sanitizer, unweave_all, weave_runtime

    root = _repo_root()
    if root is None:
        out("crosscheck: tools/make_alias_fixture.py not found "
            "(not a source checkout); skipping fixture workloads")
        return []
    make_alias_fixture = _load_module(
        root / "tools" / "make_alias_fixture.py", "make_alias_fixture"
    )
    rows: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="alias-fixtures-") as tmp:
        manifest = make_alias_fixture.generate(tmp, seed=seed)
        for entry in manifest:
            path = Path(tmp) / entry["file"]
            static = _static_codes(analyze_paths([str(path)]))
            dynamic: Set[Tuple[str, str]] = set()
            if entry["runnable"]:
                module = _load_module(path, f"alias_fixture_{path.stem}")
                sanitizer = Sanitizer()
                try:
                    weave_runtime(sanitizer)
                    oracle = module.run()
                finally:
                    unweave_all()
                dynamic = oracle.violation_keys()
            predicted = entry["rule"] in static
            rows.append(
                {
                    "workload": f"fixture:{path.stem}",
                    "static": static,
                    "dynamic": dynamic,
                    "escaped": set() if predicted else dynamic,
                    "static_miss": None if predicted else entry["rule"],
                }
            )
    return rows


def _runtime_workloads() -> List[Tuple[str, "callable"]]:
    """Honest runtime workloads — the oracle must observe zero
    unflagged mutations on any of them."""

    def engine():
        from repro.analysis.engine import AnalysisEngine
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.spec.effects.crosscheck import _ENGINE_SOURCE

        machine = AnalysisEngine(_ENGINE_SOURCE, strategy="incremental")
        oracle = ShadowHeapOracle()
        machine.session.attach_oracle(oracle)
        machine.run()
        machine.session.close()
        return oracle

    def synthetic():
        from repro.runtime.session import CheckpointSession
        from repro.core.storage import MemoryStore
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.synthetic.runner import (
            SyntheticConfig,
            SyntheticWorkload,
            variant_strategy,
        )
        from repro.synthetic.structures import element_at, value_field_name

        workload = SyntheticWorkload(
            SyntheticConfig(
                num_structures=8,
                num_lists=2,
                list_length=3,
                percent_modified=0.5,
                seed=11,
            )
        )
        oracle = ShadowHeapOracle()
        session = CheckpointSession(
            roots=workload.structures,
            strategy=variant_strategy(workload, "incremental"),
            sink=MemoryStore(),
        )
        session.attach_oracle(oracle)
        session.base()
        field = value_field_name(0)
        for compound in workload.structures:
            element = element_at(compound, 0, 0)
            setattr(element, field, getattr(element, field) + 1)
        session.commit(phase="mutate")
        session.close()
        return oracle

    def session_cycle():
        from repro.runtime.session import CheckpointSession
        from repro.core.storage import MemoryStore
        from repro.sanitize.oracle import ShadowHeapOracle
        from repro.synthetic.structures import (
            build_structures,
            element_at,
            value_field_name,
        )

        roots = build_structures(4, 2, 3, 1)
        oracle = ShadowHeapOracle()
        session = CheckpointSession(roots=roots, sink=MemoryStore())
        session.attach_oracle(oracle)
        session.base()
        field = value_field_name(0)
        for compound in roots:
            element = element_at(compound, 0, 1)
            setattr(element, field, getattr(element, field) + 5)
        session.measure(phase="mutate")
        session.commit(phase="mutate")
        # restore rebinds the session's roots to the restored objects;
        # follow the table so later mutations hit the live graph
        table = session.restore(0)
        roots = [table.get(r._ckpt_id) for r in roots]
        for compound in roots:
            element = element_at(compound, 1, 0)
            setattr(element, field, getattr(element, field) + 7)
        session.commit(phase="after-restore")
        session.close()
        return oracle

    return [
        ("runtime:engine", engine),
        ("runtime:synthetic", synthetic),
        ("runtime:session-cycle", session_cycle),
    ]


def _run_runtime_crosscheck(out, src_static: Set[str]) -> List[dict]:
    from repro.sanitize import Sanitizer, unweave_all, weave_runtime

    rows: List[dict] = []
    for name, workload in _runtime_workloads():
        sanitizer = Sanitizer()
        try:
            weave_runtime(sanitizer)
            oracle = workload()
        finally:
            unweave_all()
        dynamic = oracle.violation_keys()
        rows.append(
            {
                "workload": name,
                "static": src_static,
                "dynamic": dynamic,
                # the runtime discipline is supposed to be airtight: any
                # unflagged mutation here is a soundness escape outright
                "escaped": dynamic,
                "static_miss": None,
            }
        )
    return rows


def _crosscheck(out, seed: int, src_paths: List[str]) -> int:
    rows = _run_fixture_crosscheck(out, seed)
    src_static = _static_codes(analyze_paths(src_paths))
    rows.extend(_run_runtime_crosscheck(out, src_static))
    failures = 0
    for row in rows:
        escaped = row["escaped"]
        if row["static_miss"]:
            verdict = "STATIC-MISS"
        elif escaped:
            verdict = "DYNAMIC-ONLY"
        else:
            verdict = "ok"
        out(
            f"{row['workload']}: static={len(row['static'])} "
            f"dynamic={len(row['dynamic'])} -> {verdict}"
        )
        if row["static_miss"]:
            failures += 1
            out(
                f"  seeded rule never reported: {row['static_miss']} "
                "(the analysis missed the planted bug)"
            )
        for cls, field in sorted(escaped):
            failures += 1
            out(
                f"  escaped the static analysis: {cls}.{field} "
                "(unflagged mutation observed, never flagged statically)"
            )
    out(
        f"crosscheck: {len(rows)} workload(s), "
        f"{failures} soundness hole(s) "
        f"({'static ⊇ dynamic holds' if not failures else 'SOUNDNESS HOLE'})"
    )
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spec.effects.aliasing",
        description="static escape/alias analysis (and its dynamic crosscheck)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human"
    )
    parser.add_argument(
        "--no-escapes",
        action="store_true",
        help="omit the escape-site list from human output",
    )
    parser.add_argument(
        "--crosscheck",
        action="store_true",
        help="run oracle-checked workloads and require static ⊇ dynamic",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fixture-generation seed for --crosscheck",
    )
    args = parser.parse_args(argv)

    paths = args.paths or ["src/repro"]
    if args.crosscheck:
        return _crosscheck(print, args.seed, paths)

    try:
        report = analyze_paths(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    relativize_findings(report.findings)
    relativize_sites(report.suppressed)
    relativize_sites(report.escapes)
    if args.format == "json":
        print(_render_json(report))
    else:
        print(_render_human(report, show_escapes=not args.no_escapes))
    return exit_code(report.findings)


if __name__ == "__main__":
    raise SystemExit(main())
