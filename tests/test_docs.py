"""Code examples in the docs run as written.

Every fenced ``python`` block of each document in :data:`DOCS` runs, in
document order, in one fresh interpreter with one shared namespace (a
later block may use what an earlier one defined), inside a temporary
working directory. Each block is saved as a file of its own first, so a
traceback names the document line the block starts on and
``inspect.getsource`` works for functions the docs define.

A block that cannot run — a signature sketch, a fragment of a larger
program — is skipped only when an HTML comment ``<!-- fragment -->``
stands on the line right before its fence *and* its heading is listed
in :data:`FRAGMENTS` with the reason; an unlisted marker fails the test.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = ("README.md", "docs/API.md")

#: (document, heading) -> why the block under it is a fragment
FRAGMENTS = {}

FRAGMENT_MARKER = "<!-- fragment -->"

_FENCE = re.compile(r"^([ \t]*)```python[ \t]*\n(.*?)^[ \t]*```", re.M | re.S)

_RUNNER = """\
import sys
from pathlib import Path

namespace = {"__name__": "__main__"}
for path in sys.argv[1:]:
    exec(compile(Path(path).read_text(encoding="utf-8"), path, "exec"), namespace)
"""


def fenced_blocks(doc: Path):
    """``(line, heading, code, is_fragment)`` of every python block in ``doc``."""
    text = doc.read_text(encoding="utf-8")
    blocks = []
    for match in _FENCE.finditer(text):
        before = text[: match.start()]
        headings = re.findall(r"^#+ .*$", before, re.M)
        previous = before.rstrip("\n").rsplit("\n", 1)[-1].strip()
        blocks.append(
            (
                before.count("\n") + 1,
                headings[-1] if headings else "",
                textwrap.dedent(match.group(2)),
                previous == FRAGMENT_MARKER,
            )
        )
    return blocks


def fenced_block(doc: Path, heading: str) -> str:
    """The first ``python`` block under ``heading`` in ``doc``."""
    for _line, under, code, _fragment in fenced_blocks(doc):
        if under == heading:
            return code
    raise AssertionError(f"no python block under {heading!r}")


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", DOCS)
def test_every_python_block_runs(name, tmp_path):
    doc = ROOT / name
    marked = set()
    paths = []
    for line, heading, code, fragment in fenced_blocks(doc):
        if fragment:
            marked.add((name, heading))
            continue
        path = tmp_path / f"{Path(name).stem}-L{line}.py"
        path.write_text(code, encoding="utf-8")
        paths.append(str(path))
    listed = {key for key in FRAGMENTS if key[0] == name}
    assert marked == listed, "fragment markers and FRAGMENTS disagree"
    assert paths, f"no runnable python block in {name}"
    runner = tmp_path / "run_blocks.py"
    runner.write_text(_RUNNER, encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    completed = _python([str(runner), *paths], cwd=work)
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_api_fault_injection_example_runs(tmp_path):
    code = fenced_block(
        ROOT / "docs" / "API.md", "## Fault injection & store repair"
    )
    completed = _python(["-c", code], cwd=tmp_path)
    assert completed.returncode == 0, completed.stdout + completed.stderr
