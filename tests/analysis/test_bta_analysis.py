"""Unit tests for the binding-time analysis."""

import pytest

from repro.analysis.attributes import DYNAMIC, STATIC, AttributesTable
from repro.analysis.bta import BindingTimeAnalysis, Division
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
    return program, symbols, attributes, bta


def _bt(attributes, node):
    return attributes.of(node).bt_entry.bt.value


class TestDivision:
    def test_initialized_globals_default_static(self):
        program, _, attrs, bta = _analyse("int n = 4;\nvoid f() { n = n + 1; }")
        assert bta.bt[program.globals[0].symbol.symbol_id] == STATIC

    def test_uninitialized_arrays_default_dynamic(self):
        program, _, _, bta = _analyse("int a[4];\nvoid f(int i) { a[i] = 0; }")
        assert bta.bt[program.globals[0].symbol.symbol_id] == DYNAMIC

    def test_explicit_overrides(self):
        division = Division(dynamic_globals={"n"}, static_globals={"a"})
        program, _, _, bta = _analyse(
            "int n = 4;\nint a[4];\nvoid f() { n = n + 1; }", division
        )
        assert bta.bt[program.globals[0].symbol.symbol_id] == DYNAMIC
        assert bta.bt[program.globals[1].symbol.symbol_id] == STATIC


class TestPropagation:
    def test_static_arithmetic_stays_static(self):
        program, _, attrs, _ = _analyse(
            "int n = 4;\nint m = 0;\nvoid f() { m = n * 2 + 1; }"
        )
        stmt = program.function("f").body.body[0]
        assert _bt(attrs, stmt) == STATIC
        assert _bt(attrs, stmt.expr) == STATIC

    def test_dynamic_taints_assignment_target(self):
        program, _, attrs, bta = _analyse(
            "int a[4];\nint x = 0;\nvoid f(int i) { x = a[i]; }"
        )
        stmt = program.function("f").body.body[0]
        assert _bt(attrs, stmt.expr) == DYNAMIC
        assert bta.bt[stmt.target.symbol.symbol_id] == DYNAMIC

    def test_dynamic_control_taints_assignments(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint flag = 0;\n"
            "void f(int i) { if (a[i] > 0) { flag = 1; } }"
        )
        function = program.function("f")
        if_stmt = function.body.body[0]
        flag_assign = if_stmt.then.body[0]
        assert bta.bt[flag_assign.target.symbol.symbol_id] == DYNAMIC

    def test_static_control_keeps_static(self):
        program, _, _, bta = _analyse(
            "int n = 4;\nint flag = 0;\nvoid f() { if (n > 0) { flag = 1; } }"
        )
        if_stmt = program.function("f").body.body[0]
        assert bta.bt[if_stmt.then.body[0].target.symbol.symbol_id] == STATIC

    def test_loop_feedback_reaches_fixpoint(self):
        # x starts static, but inside a loop it absorbs a dynamic value one
        # iteration later — the pass-based analysis must catch it.
        program, _, attrs, bta = _analyse(
            "int a[4];\nint x = 0;\nint y = 0;\n"
            "void f(int i) { while (i < 4) { y = x; x = a[i]; i = i + 1; } }"
        )
        scope_y = program.globals[2].symbol.symbol_id
        assert bta.bt[scope_y] == DYNAMIC
        assert bta.iterations >= 2

    def test_call_arguments_taint_params(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint g(int p) { return p + 1; }\n"
            "void f(int i) { i = g(a[i]); }"
        )
        param = program.function("g").params[0]
        assert bta.bt[param.symbol.symbol_id] == DYNAMIC
        assert bta.returns["g"] == DYNAMIC

    def test_static_call_stays_static(self):
        program, _, attrs, bta = _analyse(
            "int n = 4;\nint g(int p) { return p + 1; }\n"
            "int h = 0;\nvoid f() { h = g(n); }"
        )
        assert bta.returns["g"] == STATIC
        stmt = program.function("f").body.body[0]
        assert _bt(attrs, stmt) == STATIC

    def test_callee_reading_dynamic_global_is_dynamic(self):
        program, _, attrs, bta = _analyse(
            "int a[4];\nint peek() { return a[0]; }\n"
            "int x = 0;\nvoid f() { x = peek(); }"
        )
        stmt = program.function("f").body.body[0]
        assert _bt(attrs, stmt.expr) == DYNAMIC

    def test_annotations_cover_subexpressions(self):
        program, _, attrs, _ = _analyse(
            "int n = 2;\nint a[4];\nint x = 0;\nvoid f(int i) { x = n + a[i]; }"
        )
        stmt = program.function("f").body.body[0]
        add = stmt.expr
        assert _bt(attrs, add) == DYNAMIC
        assert _bt(attrs, add.left) == STATIC  # n alone is static
        assert _bt(attrs, add.right) == DYNAMIC


class TestConvergence:
    def test_iterations_at_least_two(self):
        _, _, _, bta = _analyse("int n = 1;\nvoid f() { n = n + 1; }")
        assert bta.iterations >= 2

    def test_monotone_no_oscillation(self):
        # Re-running a converged analysis changes nothing.
        program, _, attrs, bta = _analyse(
            "int a[4];\nint x = 0;\nvoid f(int i) { x = a[i]; }"
        )
        for entry in attrs.entries:
            entry.bt_entry.bt.get_checkpoint_info().modified = False
        assert bta._pass() is False


class TestDynamicCallingContext:
    """A function reachable from dynamic control must not be treated as
    specialization-time executable (found by the differential fuzzer)."""

    def test_impure_callee_under_dynamic_control_dynamizes_its_writes(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint s = 1;\n"
            "void bump() { s = s + 1; }\n"
            "void f(int i) { if (a[i] > 0) { bump(); } }"
        )
        assert "bump" in bta.dynamic_callers
        s_symbol = program.globals[1].symbol
        assert bta.bt[s_symbol.symbol_id] == DYNAMIC

    def test_transitive_marking(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint s = 1;\n"
            "void inner() { s = s + 1; }\n"
            "void outer() { inner(); }\n"
            "void f(int i) { if (a[i] > 0) { outer(); } }"
        )
        assert {"outer", "inner"} <= bta.dynamic_callers

    def test_static_context_calls_not_marked(self):
        program, _, _, bta = _analyse(
            "int s = 1;\nvoid bump() { s = s + 1; }\nvoid f() { bump(); }"
        )
        assert "bump" not in bta.dynamic_callers
        assert bta.bt[program.globals[0].symbol.symbol_id] == STATIC

    def test_call_in_dynamic_loop_marked(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint s = 0;\n"
            "void tick() { s = s + 1; }\n"
            "void f(int n) { int i; n = a[0]; "
            "for (i = 0; i < n; i = i + 1) { tick(); } }"
        )
        assert "tick" in bta.dynamic_callers
        assert bta.bt[program.globals[1].symbol.symbol_id] == DYNAMIC

    def test_pure_callee_marked_but_globals_unaffected(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint s = 5;\nint r = 0;\n"
            "int twice(int x) { return x * 2; }\n"
            "void f(int i) { if (a[i] > 0) { r = twice(s); } }"
        )
        assert "twice" in bta.dynamic_callers
        assert bta.bt[program.globals[1].symbol.symbol_id] == STATIC


class TestSelfStaticFor:
    def test_inner_static_loop_survives_dynamic_outer(self):
        program, _, _, bta = _analyse(
            "int a[16];\nint total = 0;\n"
            "void f(int n) { int i; int j; n = a[0]; "
            "for (i = 0; i < n; i = i + 1) { "
            "for (j = 0; j < 3; j = j + 1) { total = total + a[j]; } } }"
        )
        function = program.function("f")
        outer = function.body.body[3]
        inner = outer.body
        while not isinstance(inner, __import__("repro.analysis.lang.astnodes", fromlist=["For"]).For):
            inner = inner.body[0] if hasattr(inner, "body") else inner
        j_symbol = inner.init.target.symbol
        i_symbol = outer.init.target.symbol
        assert bta.bt[j_symbol.symbol_id] == STATIC  # unrollable
        assert bta.bt[i_symbol.symbol_id] == DYNAMIC  # genuinely dynamic

    def test_induction_var_escaping_dynamically_disables_exemption(self):
        program, _, _, bta = _analyse(
            "int a[4];\nint j = 0;\n"
            "void f(int i) { i = a[0]; "
            "while (i > 0) { j = a[i % 4]; i = i - 1; } "
            "for (j = 0; j < 3; j = j + 1) { a[0] = j; } }"
        )
        # j received a dynamic value: the later loop cannot be self-static.
        function = program.function("f")
        loop = function.body.body[2]
        assert not bta.self_static_for(loop)
