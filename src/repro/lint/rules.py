"""Source-level lint rules (pure AST, no import required).

These rules flag constructs that undermine the incremental-checkpointing
invariant — that every mutation of checkpointed state sets the owner's
modification flag:

``flag-write``
    A direct assignment to a ``.modified`` attribute. The flag protocol
    owns that bit (:func:`repro.core.info.mark_modified` and
    the generated checkpointers reset it); writing it by hand can hide a
    real modification from every later incremental checkpoint.
``slot-write``
    A direct assignment to a ``._f_<name>`` slot. Slots are the storage
    behind the flagging field descriptors; writing one bypasses
    ``__set__`` and the owner stays clean while its state changed.
``header-write``
    A direct assignment to a checkpointable's header slot (``._ckpt_id``,
    ``._ckpt_dirty`` or ``._ckpt_block``). A flag store there skips the
    block-tier half of the write barrier, and an id or block store
    corrupts the object's identity or its dirtiness block.

The framework core (``repro/core``) implements the protocol and is
exempt; everything else — user programs, examples, the synthetic
workloads — is checked.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import List

from repro.core.info import HEADER_SLOTS
from repro.lint.findings import Finding

#: directory chains whose files implement the flag protocol itself
_EXEMPT_PACKAGES = (("repro", "core"),)


def is_exempt(filename: str) -> bool:
    """Whether ``filename`` lives under an exempt package directory.

    Matching is on normalized path *components*, not raw substrings:
    ``src/repro/core/info.py`` is exempt, but ``myrepro/core/x.py`` (a
    different package whose name merely ends the same way) and a file
    named e.g. ``repro/core.py`` are not. Windows separators are
    normalized first so the same files are exempt on every platform.
    """
    parts = tuple(
        part
        for part in PurePosixPath(filename.replace("\\", "/")).parts
        if part != "."
    )
    directories = parts[:-1]  # the last component is the file itself
    for package in _EXEMPT_PACKAGES:
        span = len(package)
        for start in range(len(directories) - span + 1):
            if directories[start : start + span] == package:
                return True
    return False


def check_source(filename: str, source: str) -> List[Finding]:
    """Run every source rule over one file's text."""
    findings: List[Finding] = []
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        findings.append(
            Finding(
                "error",
                "syntax-error",
                f"cannot parse: {exc.msg}",
                filename=filename,
                lineno=exc.lineno or 1,
            )
        )
        return findings
    if is_exempt(filename):
        return findings

    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            findings.extend(_check_target(filename, target))
    return findings


def _check_target(filename: str, target: ast.expr) -> List[Finding]:
    findings: List[Finding] = []
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            findings.extend(_check_target(filename, element))
        return findings
    if not isinstance(target, ast.Attribute):
        return findings
    if target.attr == "modified":
        findings.append(
            Finding(
                "warning",
                "flag-write",
                "direct write to a .modified flag bypasses the flagging "
                "protocol (use CheckpointInfo.set_modified, or let field "
                "descriptors flag the owner)",
                filename=filename,
                lineno=target.lineno,
            )
        )
    elif target.attr in HEADER_SLOTS:
        findings.append(
            Finding(
                "warning",
                "header-write",
                f"direct write to header slot {target.attr!r} bypasses the "
                "write barrier (use CheckpointInfo.set_modified / "
                "reset_modified, or let field descriptors flag the owner)",
                filename=filename,
                lineno=target.lineno,
            )
        )
    elif target.attr.startswith("_f_"):
        findings.append(
            Finding(
                "warning",
                "slot-write",
                f"direct write to slot {target.attr!r} bypasses the "
                "flagging descriptor: the owner is not marked modified and "
                "incremental checkpoints will miss the change",
                filename=filename,
                lineno=target.lineno,
            )
        )
    return findings
