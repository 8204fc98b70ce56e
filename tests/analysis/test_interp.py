"""Unit tests for the simplified-C reference interpreter."""

import pytest

from repro.analysis.interp import Interpreter, InterpreterError, run_program
from repro.analysis.lang.parser import parse
from repro.analysis.symbols import resolve


class TestArithmetic:
    def test_integer_division_truncates_toward_zero(self):
        state = run_program(
            "int a = 0;\nint b = 0;\nint c = 0;\nint d = 0;\n"
            "void main() { a = 7 / 2; b = -7 / 2; c = 7 / -2; d = -7 / -2; }"
        )
        assert (state["a"], state["b"], state["c"], state["d"]) == (3, -3, -3, 3)

    def test_modulo_sign_follows_dividend(self):
        state = run_program(
            "int a = 0;\nint b = 0;\n"
            "void main() { a = 7 % 3; b = -7 % 3; }"
        )
        assert (state["a"], state["b"]) == (1, -1)

    def test_division_by_zero(self):
        with pytest.raises(InterpreterError, match="division by zero"):
            run_program("int a = 0;\nvoid main() { a = 1 / (a * 2); }")

    def test_float_arithmetic(self):
        state = run_program(
            "float x = 1.5;\nfloat y = 0.0;\nvoid main() { y = x * 2.0 + 1.0; }"
        )
        assert state["y"] == pytest.approx(4.0)

    def test_comparisons_yield_ints(self):
        state = run_program(
            "int a = 0;\nint b = 0;\n"
            "void main() { a = 3 < 5; b = 3 >= 5; }"
        )
        assert (state["a"], state["b"]) == (1, 0)

    def test_unary_operators(self):
        state = run_program(
            "int a = 0;\nint b = 0;\nint c = 0;\n"
            "void main() { a = -5; b = !0; c = !7; }"
        )
        assert (state["a"], state["b"], state["c"]) == (-5, 1, 0)


class TestShortCircuit:
    def test_and_skips_right_on_false(self):
        # The right operand would divide by zero if evaluated.
        state = run_program(
            "int z = 0;\nint r = 5;\nvoid main() { r = (1 < 0) && (1 / z); }"
        )
        assert state["r"] == 0

    def test_or_skips_right_on_true(self):
        state = run_program(
            "int z = 0;\nint r = 5;\nvoid main() { r = (0 < 1) || (1 / z); }"
        )
        assert state["r"] == 1

    def test_logical_results_normalized(self):
        state = run_program(
            "int a = 0;\nvoid main() { a = 7 && 9; }"
        )
        assert state["a"] == 1


class TestControlAndState:
    def test_globals_zero_initialized(self):
        state = run_program("int x;\nint a[3];\nvoid main() { }")
        assert state["x"] == 0
        assert state["a"] == [0, 0, 0]

    def test_inputs_override_globals(self):
        state = run_program(
            "int x = 1;\nint a[3];\nvoid main() { x = x + a[1]; }",
            inputs={"x": 10, "a": [5, 6, 7]},
        )
        assert state["x"] == 16

    def test_bad_input_names_and_sizes(self):
        with pytest.raises(InterpreterError, match="no global"):
            run_program("int x;\nvoid main() { }", inputs={"y": 1})
        with pytest.raises(InterpreterError, match="exceeds"):
            run_program("int a[2];\nvoid main() { }", inputs={"a": [1, 2, 3]})

    def test_array_bounds_checked(self):
        with pytest.raises(InterpreterError, match="out of bounds"):
            run_program("int a[2];\nint i = 5;\nvoid main() { a[i] = 1; }")

    def test_while_and_for(self):
        state = run_program(
            "int total = 0;\n"
            "void main() { int i = 0; while (i < 5) { total = total + i; "
            "i = i + 1; } for (i = 0; i < 3; i = i + 1) { total = total + 10; } }"
        )
        assert state["total"] == 10 + 30

    def test_recursion(self):
        state = run_program(
            "int r = 0;\n"
            "int fact(int n) { if (n <= 1) { return 1; } "
            "return n * fact(n - 1); }\n"
            "void main() { r = fact(6); }"
        )
        assert state["r"] == 720

    def test_return_unwinds_loops(self):
        state = run_program(
            "int r = 0;\n"
            "int find() { int i; for (i = 0; i < 100; i = i + 1) "
            "{ if (i == 7) { return i; } } return 0 - 1; }\n"
            "void main() { r = find(); }"
        )
        assert state["r"] == 7

    def test_fuel_exhaustion(self):
        with pytest.raises(
            InterpreterError, match=r"fuel exhausted after 1,000 steps.*fuel=.*--fuel"
        ):
            run_program(
                "int x = 1;\nvoid main() { while (x) { x = 1; } }", fuel=1000
            )

    def test_call_api(self):
        program = parse("int twice(int x) { return x * 2; }\nvoid main() { }")
        interp = Interpreter(program, resolve(program))
        interp._init_globals()
        assert interp.call("twice", [21]) == 42
        with pytest.raises(InterpreterError, match="expects 1"):
            interp.call("twice", [])
        with pytest.raises(InterpreterError, match="no function"):
            interp.call("missing", [])
