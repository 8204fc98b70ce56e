"""A compiler pipeline that time-travels past its own bugs.

Run with::

    python examples/compiler_pipeline.py

Four phases — parse, flatten, typecheck, lint — run over a program from
:mod:`repro.analysis`, committing a **named checkpoint** after each
phase. A deliberately buggy typecheck pass then corrupts half the IR
before dying; instead of rerunning the pipeline from scratch, the
session **restores the last good phase** (``restore("flatten")`` rolls
the heap back byte-identically) and retries with the fixed pass.
Finally the session **forks** a branch at the typecheck pin to run a
stricter lint configuration side by side — both branches stay
addressable in the same store.
"""

import os
import shutil
import tempfile

from repro.analysis.lang import astnodes as ast
from repro.analysis.lang.parser import parse
from repro.analysis.programs import image_pipeline_source
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child_list, scalar, scalar_list
from repro.core.restore import state_digest
from repro.runtime.session import CheckpointSession

#: type codes the checker assigns to IR operations
UNTYPED, INT, FLOAT = -1, 0, 1


class IROp(Checkpointable):
    """One flattened IR operation (a linearized AST expression)."""

    opcode = scalar("str")
    operands = scalar("int")
    type_code = scalar("int")


class PipelineState(Checkpointable):
    """The pipeline's whole mutable state, as a single checkpoint root."""

    phase = scalar("str")
    nodes = scalar("int")
    ops = child_list(IROp)
    warnings = scalar_list("int")  # node ids the linter flagged


# -- the phases --------------------------------------------------------------


def parse_phase(state, source):
    program = parse(source)
    state.phase = "parse"
    state.nodes = program.node_count
    return program


def flatten_phase(state, program):
    """Linearize every expression into the checkpointable IR list."""
    ops = []
    for node in program.walk():
        if isinstance(node, ast.Expr):
            ops.append(
                IROp(
                    opcode=type(node).__name__,
                    operands=len(node.children()),
                    type_code=UNTYPED,
                )
            )
    state.ops = ops
    state.phase = "flatten"


def typecheck_phase(state, broken=False):
    """Assign a type code to every IR op.

    With ``broken=True`` the pass mis-types the first half of the IR and
    then dies — the injected compiler bug this example recovers from.
    """
    ops = state.ops.as_list() if hasattr(state.ops, "as_list") else state.ops
    for index, op in enumerate(ops):
        if broken and index >= len(ops) // 2:
            raise RuntimeError(
                "injected bug: typecheck died with half the IR corrupted"
            )
        if broken:
            op.type_code = 999  # garbage annotation
        else:
            op.type_code = FLOAT if op.opcode == "FloatLit" else INT
    state.phase = "typecheck"


def lint_phase(state, strict=False):
    """Flag suspicious ops; ``strict`` also flags every call boundary."""
    ops = state.ops.as_list() if hasattr(state.ops, "as_list") else state.ops
    flagged = []
    for index, op in enumerate(ops):
        if op.type_code == FLOAT:
            flagged.append(index)  # float arithmetic: precision warning
        elif strict and op.opcode == "Call":
            flagged.append(index)
    state.warnings = flagged
    state.phase = "lint-strict" if strict else "lint"


# -- the pipeline ------------------------------------------------------------


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-pipeline-")
    try:
        source = image_pipeline_source(kernels=3)
        state = PipelineState(phase="init", nodes=0)
        session = CheckpointSession(
            roots=state, sink=os.path.join(workdir, "checkpoints")
        )

        program = parse_phase(state, source)
        session.base(name="parse")
        print(f"parse:     {state.nodes} AST nodes  -> checkpoint 'parse'")

        flatten_phase(state, program)
        session.checkpoint("flatten")
        flatten_digest = state_digest(state)
        print(
            f"flatten:   {len(state.ops)} IR ops     -> checkpoint 'flatten'"
        )

        # -- the injected failure ----------------------------------------
        try:
            typecheck_phase(state, broken=True)
        except RuntimeError as exc:
            corrupted = sum(
                1 for op in state.ops if op.type_code == 999
            )
            print(f"typecheck: FAILED ({exc}); {corrupted} ops corrupted")
            session.restore("flatten")
            # restore() rebinds the session's roots: pick up the restored
            # object — the local variable still points at the corrupt heap
            state = session.roots()[0]
            assert state_digest(state) == flatten_digest
            print(
                "rollback:  restore('flatten') — state byte-identical to "
                "the last good phase"
            )

        typecheck_phase(state)
        session.checkpoint("typecheck")
        typed = sum(1 for op in state.ops if op.type_code != UNTYPED)
        print(f"typecheck: {typed} ops typed   -> checkpoint 'typecheck'")

        lint_phase(state)
        session.checkpoint("lint")
        print(
            f"lint:      {len(state.warnings)} warnings   -> checkpoint 'lint'"
        )

        # -- fork: a stricter lint on its own branch ----------------------
        session.fork(at="typecheck", branch="strict-lint")
        state = session.roots()[0]
        lint_phase(state, strict=True)
        session.commit()
        strict_warnings = len(state.warnings)
        print(
            f"fork:      branch 'strict-lint' relinted with "
            f"{strict_warnings} warnings"
        )

        # Both outcomes stay addressable in one store.
        branches = session.branches()
        lineage = session.lineage()
        print("\nlineage:")
        for branch, head in sorted(branches.items()):
            chain = lineage.chain_indices(head)
            print(
                f"  {branch:12s} head=epoch {head}  "
                f"(chain of {len(chain)} epochs)"
            )
        print(f"  named pins: {session.named_checkpoints()}")

        relaxed = session.store.materialize("lint")[
            state._ckpt_info.object_id
        ]
        assert len(relaxed.warnings) <= strict_warnings
        print(
            f"\nboth lint configurations recoverable: relaxed="
            f"{len(relaxed.warnings)} strict={strict_warnings} warnings"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
