"""Tests for the ``python -m repro.lint`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestInProcess:
    def test_unsound_fixture_is_an_error(self, capsys):
        code, out = run_cli([str(FIXTURES / "unsound_pattern.py")], capsys)
        assert code == 1
        assert "unsound-pattern" in out
        assert "('right',)" in out
        # the finding points at the violating write, with a line number
        assert "unsound_pattern.py" in out

    def test_overwide_fixture_is_a_hint(self, capsys):
        code, out = run_cli([str(FIXTURES / "overwide_pattern.py")], capsys)
        assert code == 0
        assert "overwide-pattern" in out
        assert "unsound" not in out

    def test_json_output(self, capsys):
        code, out = run_cli([str(FIXTURES), "--format", "json"], capsys)
        assert code == 1
        data = json.loads(out)
        assert data["targets"] == 2
        codes = {finding["code"] for finding in data["findings"]}
        assert "unsound-pattern" in codes
        assert "overwide-pattern" in codes
        assert data["counts"]["error"] >= 1
        assert data["counts"]["hint"] >= 1

    def test_no_import_skips_target_checks(self, capsys):
        code, out = run_cli(
            ["--no-import", str(FIXTURES / "unsound_pattern.py")], capsys
        )
        assert code == 0
        assert "unsound-pattern" not in out

    def test_source_rules_flag_protocol_bypasses(self, tmp_path, capsys):
        bad = tmp_path / "bypasses.py"
        bad.write_text(
            "def mutate(obj):\n"
            "    obj._f_value = 1\n"
            "    obj._ckpt_info.modified = True\n"
        )
        code, out = run_cli([str(bad)], capsys)
        assert code == 0  # warnings alone do not fail
        assert "slot-write" in out
        assert "flag-write" in out

    def test_header_slot_stores_are_flagged(self, tmp_path, capsys):
        bad = tmp_path / "header.py"
        bad.write_text(
            "def mutate(obj, other):\n"
            "    obj._ckpt_dirty = True\n"
            "    obj._ckpt_id = other._ckpt_id\n"
            "    obj._ckpt_block = None\n"
        )
        code, out = run_cli([str(bad)], capsys)
        assert code == 0  # warnings alone do not fail
        assert out.count("header-write") == 3

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        bad = tmp_path / "bypasses.py"
        bad.write_text("def mutate(obj):\n    obj._f_value = 1\n")
        code, _out = run_cli(["--strict", str(bad)], capsys)
        assert code == 1

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code, out = run_cli(["--no-import", str(bad)], capsys)
        assert code == 1
        assert "syntax-error" in out

    def test_missing_path_exits_2(self, capsys):
        code = main([str(FIXTURES / "does_not_exist.py")])
        assert code == 2

    def test_import_failure_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "unimportable.py"
        bad.write_text("raise RuntimeError('boom at import time')\n")
        code, out = run_cli([str(bad)], capsys)
        assert code == 1
        assert "import-error" in out
        assert "boom at import time" in out

    def test_repeated_runs_share_the_module_cache(self, capsys):
        # importing the same fixture twice must not re-register its
        # checkpointable classes (the registry rejects duplicates)
        first, _ = run_cli([str(FIXTURES / "overwide_pattern.py")], capsys)
        second, _ = run_cli([str(FIXTURES / "overwide_pattern.py")], capsys)
        assert first == 0 and second == 0


class TestRaceRules:
    def test_racy_file_fails_the_lint(self, tmp_path, capsys):
        racy = tmp_path / "racy.py"
        racy.write_text(
            "import threading\n"
            "\n"
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        code, out = run_cli(["--no-import", str(racy)], capsys)
        assert code == 1
        assert "unguarded-shared-write" in out

    def test_no_races_flag_skips_the_pass(self, tmp_path, capsys):
        racy = tmp_path / "racy.py"
        racy.write_text(
            "import threading\n"
            "\n"
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        code, out = run_cli(["--no-import", "--no-races", str(racy)], capsys)
        assert code == 0
        assert "unguarded-shared-write" not in out

    def test_race_ok_annotation_suppresses_with_provenance(
        self, tmp_path, capsys
    ):
        racy = tmp_path / "annotated.py"
        racy.write_text(
            "import threading\n"
            "\n"
            "class Tally:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "\n"
            "    def bump(self):\n"
            "        self.count += 1  # race-ok: approximate counter\n"
        )
        code, out = run_cli(["--no-import", str(racy)], capsys)
        assert code == 0
        assert "unguarded-shared-write" not in out


_ALIASED = (
    "from repro.core.checkpointable import Checkpointable\n"
    "from repro.core.fields import child, scalar\n"
    "\n"
    "class AliasLeafL(Checkpointable):\n"
    "    value = scalar('int')\n"
    "\n"
    "class AliasNodeL(Checkpointable):\n"
    "    kid = child(AliasLeafL)\n"
    "\n"
    "def poke(node: AliasNodeL):\n"
    "    node.kid._f_value = 5\n"
)


class TestAliasRules:
    def test_alias_bug_fails_the_lint(self, tmp_path, capsys):
        bad = tmp_path / "aliased.py"
        bad.write_text(_ALIASED)
        code, out = run_cli(["--no-import", str(bad)], capsys)
        assert code == 1
        assert "alias-write-bypasses-flag" in out

    def test_no_aliases_flag_skips_the_pass(self, tmp_path, capsys):
        bad = tmp_path / "aliased.py"
        bad.write_text(_ALIASED)
        code, out = run_cli(
            ["--no-import", "--no-aliases", str(bad)], capsys
        )
        assert code == 0
        assert "alias-write-bypasses-flag" not in out

    def test_alias_ok_annotation_suppresses(self, tmp_path, capsys):
        bad = tmp_path / "annotated_alias.py"
        bad.write_text(
            _ALIASED.replace(
                "    node.kid._f_value = 5\n",
                "    # alias-ok: exercised by the suppression test\n"
                "    node.kid._f_value = 5\n",
            )
        )
        code, out = run_cli(["--no-import", str(bad)], capsys)
        assert code == 0
        assert "alias-write-bypasses-flag" not in out

    def test_identical_findings_are_deduped(self, tmp_path, capsys):
        from repro.lint.findings import Finding, dedupe_findings

        findings = [
            Finding("error", "x-code", "same message", "f.py", 3),
            Finding("error", "x-code", "same message", "f.py", 3),
            Finding("error", "x-code", "other message", "f.py", 3),
        ]
        assert len(dedupe_findings(findings)) == 2
        # and the CLI output carries no duplicate rows
        bad = tmp_path / "aliased.py"
        bad.write_text(_ALIASED)
        code, out = run_cli(
            ["--no-import", "--format", "json", str(bad)], capsys
        )
        assert code == 1
        data = json.loads(out)
        rows = [
            (f["code"], f["file"], f["line"], f["message"])
            for f in data["findings"]
        ]
        assert len(rows) == len(set(rows))


class TestRelativePaths:
    def test_json_paths_under_cwd_are_relative(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code, out = run_cli(
            [str(FIXTURES / "unsound_pattern.py"), "--format", "json"],
            capsys,
        )
        assert code == 1
        data = json.loads(out)
        files = [f["file"] for f in data["findings"] if f["file"]]
        assert files, "expected findings with file locations"
        assert all(not f.startswith("/") for f in files)
        assert any(f.startswith("tests/lint/fixtures") for f in files)

    def test_paths_outside_cwd_stay_absolute(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code, out = run_cli(
            ["--no-import", str(bad), "--format", "json"], capsys
        )
        assert code == 1
        data = json.loads(out)
        files = [f["file"] for f in data["findings"] if f["file"]]
        assert files == [str(bad)]


class TestSubprocess:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO),
        )

    def test_unsound_fixture_exits_nonzero(self):
        result = self._run(str(FIXTURES / "unsound_pattern.py"))
        assert result.returncode == 1
        assert "unsound-pattern" in result.stdout

    def test_overwide_fixture_exits_zero(self):
        result = self._run(str(FIXTURES / "overwide_pattern.py"))
        assert result.returncode == 0
        assert "overwide-pattern" in result.stdout

    def test_src_and_examples_are_clean(self):
        # the exact invocation CI runs
        result = self._run("src", "examples")
        assert result.returncode == 0, result.stdout + result.stderr
