"""Code examples in the docs run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fenced_block(doc: Path, heading: str) -> str:
    """The first ```python block under ``heading`` in ``doc``."""
    text = doc.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_api_fault_injection_example_runs(tmp_path):
    code = fenced_block(
        ROOT / "docs" / "API.md", "## Fault injection & store repair"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
