"""Unit tests for the evaluation-time analysis."""

import pytest

from repro.analysis.attributes import EVAL, RESIDUAL, AttributesTable
from repro.analysis.bta import BindingTimeAnalysis, Division
from repro.analysis.eta import EvaluationTimeAnalysis
from repro.analysis.lang.parser import parse
from repro.analysis.sideeffect import SideEffectAnalysis
from repro.analysis.symbols import resolve


def _analyse(source, division=None):
    program = parse(source)
    symbols = resolve(program)
    attributes = AttributesTable.for_program(program.node_count)
    side_effects = SideEffectAnalysis(program, symbols, attributes)
    side_effects.run()
    bta = BindingTimeAnalysis(program, symbols, attributes, side_effects, division)
    bta.run()
    eta = EvaluationTimeAnalysis(program, symbols, attributes, bta)
    eta.run()
    return program, attributes, eta


def _et(attributes, node):
    return attributes.of(node).et_entry.et.value


class TestInitialization:
    def test_initialized_static_global_evaluable(self):
        program, attrs, _ = _analyse("int n = 4;\nint m = 0;\nvoid f() { m = n + 1; }")
        stmt = program.function("f").body.body[0]
        assert _et(attrs, stmt.expr) == EVAL

    def test_uninitialized_static_local_residual_until_assigned(self):
        program, attrs, _ = _analyse(
            "int n = 1;\nvoid f() { int x; int y = x + 1; x = n; int z = x + 1; }"
        )
        body = program.function("f").body.body
        first_use = body[1].init  # x used before any assignment
        later_use = body[3].init  # x used after x = n
        assert _et(attrs, first_use) == RESIDUAL
        assert _et(attrs, later_use) == EVAL

    def test_dynamic_expression_always_residual(self):
        program, attrs, _ = _analyse(
            "int a[4];\nint x = 0;\nvoid f(int i) { x = a[i]; }"
        )
        stmt = program.function("f").body.body[0]
        assert _et(attrs, stmt.expr) == RESIDUAL


class TestPaths:
    def test_branch_intersection(self):
        # x is static-initialized on only one branch of a static if: after
        # the if, its value at specialization time is not definite.
        program, attrs, _ = _analyse(
            "int n = 1;\nint r = 0;\n"
            "void f() { int x; if (n > 0) { x = 1; } else { r = 2; } r = x; }"
        )
        last = program.function("f").body.body[2]
        assert _et(attrs, last.expr) == RESIDUAL

    def test_both_branches_initialize(self):
        program, attrs, _ = _analyse(
            "int n = 1;\nint r = 0;\n"
            "void f() { int x; if (n > 0) { x = 1; } else { x = 2; } r = x; }"
        )
        last = program.function("f").body.body[2]
        assert _et(attrs, last.expr) == EVAL

    def test_assignment_under_dynamic_control_kills_definiteness(self):
        program, attrs, _ = _analyse(
            "int a[4];\nint n = 1;\nint r = 0;\n"
            "void f(int i) { int x = 1; if (a[i] > 0) { x = 2; } r = x; }"
        )
        last = program.function("f").body.body[2]
        # x's spec-time value depends on a dynamic branch: residual.
        assert _et(attrs, last.expr) == RESIDUAL

    def test_loop_body_feedback(self):
        # x is reset to a static value before the loop but residualized
        # inside it; uses after the loop must be residual.
        program, attrs, _ = _analyse(
            "int a[4];\nint r = 0;\n"
            "void f(int i) { int x = 0; while (i < 3) { x = a[i]; i = i + 1; } r = x; }"
        )
        last = program.function("f").body.body[2]
        assert _et(attrs, last.expr) == RESIDUAL


class TestCalls:
    def test_fully_static_function_evaluable(self):
        program, attrs, eta = _analyse(
            "int n = 2;\nint g(int p) { return p * 2; }\n"
            "int r = 0;\nvoid f() { r = g(n); }"
        )
        assert eta.callable_summaries["g"] is True
        stmt = program.function("f").body.body[0]
        assert _et(attrs, stmt.expr) == EVAL

    def test_function_with_residual_body_not_callable(self):
        program, attrs, eta = _analyse(
            "int a[4];\nint g(int p) { return p + a[0]; }\n"
            "int n = 1;\nint r = 0;\nvoid f() { r = g(n); }"
        )
        assert eta.callable_summaries["g"] is False
        stmt = program.function("f").body.body[0]
        assert _et(attrs, stmt.expr) == RESIDUAL


class TestConvergence:
    def test_paper_iteration_shape(self):
        # The paper reports far fewer ETA than BTA iterations; ours also
        # converges in a small number of passes.
        _, _, eta = _analyse(
            "int n = 4;\nint a[16];\n"
            "void f() { int i; for (i = 0; i < n; i = i + 1) { a[i] = i; } }"
        )
        assert 2 <= eta.iterations <= 5

    def test_rerun_converged_changes_nothing(self):
        program, attrs, eta = _analyse("int n = 1;\nvoid f() { n = n + 2; }")
        for entry in attrs.entries:
            entry.et_entry.et.get_checkpoint_info().modified = False
        assert eta._pass() is False


class TestDynamicCallingContext:
    def test_callee_under_dynamic_control_not_callable_at_spec_time(self):
        _, _, eta = _analyse(
            "int a[4];\nint s = 1;\n"
            "void bump() { s = s + 1; }\n"
            "void f(int i) { if (a[i] > 0) { bump(); } }"
        )
        assert eta.callable_summaries["bump"] is False

    def test_static_context_callee_still_callable(self):
        _, _, eta = _analyse(
            "int s = 1;\nvoid bump() { s = s + 1; }\nvoid f() { bump(); }"
        )
        assert eta.callable_summaries["bump"] is True


class TestSelfStaticForCertification:
    def test_inner_loop_control_certified_under_dynamic_outer(self):
        from repro.analysis.lang import astnodes as ast

        program, attrs, eta = _analyse(
            "int a[16];\nint total = 0;\n"
            "void f(int n) { int i; int j; n = a[0]; "
            "for (i = 0; i < n; i = i + 1) { "
            "for (j = 0; j < 3; j = j + 1) { total = total + a[j]; } } }"
        )
        function = program.function("f")
        outer = function.body.body[3]
        inner = outer.body.body[0]
        assert isinstance(inner, ast.For)
        # Inner loop control is evaluable at specialization time even
        # though the outer loop is dynamic (the unrolling exemption) ...
        assert attrs.of(inner.cond).et_entry.et.value == EVAL
        assert attrs.of(inner.init).et_entry.et.value == EVAL
        assert attrs.of(inner.step).et_entry.et.value == EVAL
        # ... while the outer loop's control is not.
        assert attrs.of(outer.cond).et_entry.et.value == RESIDUAL
