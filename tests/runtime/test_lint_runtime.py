"""The runtime modules must pass the soundness linter (acceptance item)."""

import json
from pathlib import Path

import repro
from repro.lint.cli import main
from repro.runtime import selfcheck


def _runtime_dir() -> str:
    return str(Path(repro.__file__).parent / "runtime")


class TestLintOverRuntime:
    def test_runtime_package_is_clean(self, capsys):
        assert main([_runtime_dir(), "--strict"]) == 0
        out = capsys.readouterr().out
        # the reference declarations produce pattern-redundant hints by
        # design (static inference proves them); errors and warnings would
        # mean the runtime's own usage is unsound
        assert "error" not in out
        assert "warning" not in out

    def test_selfcheck_target_is_analyzed(self, capsys):
        assert main([_runtime_dir(), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["targets"] >= 1
        assert report["counts"]["error"] == 0

    def test_default_paths_cover_the_runtime(self):
        # `python -m repro.lint` with no paths lints the installed repro
        # package, which contains the runtime modules.
        from repro.lint.cli import discover

        files = discover([str(Path(repro.__file__).parent)])
        names = {str(f) for f in files}
        assert any("runtime" in n and n.endswith("session.py") for n in names)
        assert any(n.endswith("selfcheck.py") for n in names)


class TestSelfCheckProbe:
    def test_probe_phase_conforms_to_its_pattern(self):
        root = selfcheck.probe_prototype()
        from repro.core.checkpoint import reset_flags

        reset_flags(root)
        selfcheck.probe_phase(root)
        selfcheck.PROBE_PATTERN.validate_against(root)

    def test_probe_spec_compiles_and_matches_generic(self):
        from repro.core.checkpoint import Checkpoint, reset_flags
        from repro.core.streams import DataOutputStream
        from repro.runtime import CheckpointSession, SpecializedStrategy

        root = selfcheck.probe_prototype()
        session = CheckpointSession(
            roots=root,
            strategy=SpecializedStrategy.from_spec(selfcheck.probe_spec()),
        )
        session.base()
        reset_flags(root)
        selfcheck.probe_phase(root)

        out = DataOutputStream()
        info = root.counter.get_checkpoint_info()
        was = info.modified
        Checkpoint(out).checkpoint(root)
        info.modified = was  # restore the flag the generic driver cleared
        assert session.commit().data == out.getvalue()
