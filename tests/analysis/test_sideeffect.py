"""Unit tests for the side-effect analysis."""

import pytest

from repro.analysis.attributes import AttributesTable
from repro.analysis.lang.parser import parse
from repro.analysis.sideeffect import SideEffectAnalysis
from repro.analysis.symbols import resolve


def _analyse(source):
    program = parse(source)
    symbols = resolve(program)
    attributes = AttributesTable.for_program(program.node_count)
    analysis = SideEffectAnalysis(program, symbols, attributes)
    analysis.run()
    return program, symbols, attributes, analysis


def _names(symbols, ids):
    return {symbols.symbol(i).name for i in ids}


def _effects(attributes, symbols, node):
    entry = attributes.of(node).se_entry
    return _names(symbols, entry.reads), _names(symbols, entry.writes)


class TestIntraprocedural:
    def test_assignment_reads_and_writes(self):
        program, symbols, attrs, _ = _analyse(
            "int a = 0;\nint b = 0;\nvoid f() { a = b + 1; }"
        )
        stmt = program.function("f").body.body[0]
        reads, writes = _effects(attrs, symbols, stmt)
        assert reads == {"b"}
        assert writes == {"a"}

    def test_array_index_reads(self):
        program, symbols, attrs, _ = _analyse(
            "int a[4];\nint i = 0;\nvoid f() { a[i] = a[i + 1]; }"
        )
        stmt = program.function("f").body.body[0]
        reads, writes = _effects(attrs, symbols, stmt)
        assert reads == {"a", "i"}
        assert writes == {"a"}

    def test_control_flow_aggregates(self):
        program, symbols, attrs, _ = _analyse(
            "int a = 0;\nint b = 0;\nint c = 0;\n"
            "void f() { if (a > 0) { b = 1; } else { c = 1; } }"
        )
        stmt = program.function("f").body.body[0]
        reads, writes = _effects(attrs, symbols, stmt)
        assert reads == {"a"}
        assert writes == {"b", "c"}

    def test_loop_effects(self):
        program, symbols, attrs, _ = _analyse(
            "int n = 4;\nint total = 0;\n"
            "void f() { int i; for (i = 0; i < n; i = i + 1) "
            "{ total = total + i; } }"
        )
        stmt = program.function("f").body.body[1]
        reads, writes = _effects(attrs, symbols, stmt)
        assert "n" in reads and "total" in reads and "i" in reads
        assert writes == {"i", "total"}


class TestInterprocedural:
    def test_call_imports_callee_global_effects(self):
        program, symbols, attrs, analysis = _analyse(
            "int g = 0;\nint h = 0;\n"
            "void callee() { g = h + 1; }\n"
            "void caller() { callee(); }"
        )
        stmt = program.function("caller").body.body[0]
        reads, writes = _effects(attrs, symbols, stmt)
        assert reads == {"h"}
        assert writes == {"g"}

    def test_callee_locals_do_not_leak(self):
        program, symbols, attrs, _ = _analyse(
            "int g = 0;\nvoid callee() { int l; l = 1; g = l; }\n"
            "void caller() { callee(); }"
        )
        stmt = program.function("caller").body.body[0]
        reads, writes = _effects(attrs, symbols, stmt)
        assert writes == {"g"}
        assert "l" not in reads

    def test_recursion_converges(self):
        program, symbols, attrs, analysis = _analyse(
            "int depth = 0;\n"
            "void rec(int n) { if (n > 0) { depth = depth + 1; rec(n - 1); } }"
        )
        summary = analysis.summaries["rec"]
        assert _names(symbols, summary.reads) == {"depth"}
        assert _names(symbols, summary.writes) == {"depth"}

    def test_mutual_recursion_converges(self):
        program, symbols, attrs, analysis = _analyse(
            "int a = 0;\nint b = 0;\n"
            "void even(int n) { if (n > 0) { a = 1; odd(n - 1); } }\n"
            "void odd(int n) { if (n > 0) { b = 1; even(n - 1); } }"
        )
        even = analysis.summaries["even"]
        assert _names(symbols, even.writes) == {"a", "b"}

    def test_call_chain_effects_propagate(self):
        program, symbols, attrs, analysis = _analyse(
            "int g = 0;\n"
            "void low() { g = 1; }\n"
            "void mid() { low(); }\n"
            "void top() { mid(); }"
        )
        assert _names(symbols, analysis.summaries["top"].writes) == {"g"}


class TestFixpointBehaviour:
    def test_iteration_count_at_least_two(self):
        _, _, _, analysis = _analyse("int g = 0;\nvoid f() { g = 1; }")
        assert analysis.iterations >= 2  # converge + verify

    def test_deep_chain_needs_more_iterations(self):
        # Summaries propagate one call edge per pass when callees are
        # defined after their callers.
        source = ["int g = 0;"]
        source.append("void f0() { g = 1; }")
        for i in range(1, 5):
            source.insert(1, f"void f{i}() {{ f{i - 1}(); }}")
        _, _, _, analysis = _analyse("\n".join(source))
        assert analysis.iterations >= 3

    def test_results_written_only_on_change(self):
        program, symbols, attrs, analysis = _analyse(
            "int g = 0;\nvoid f() { g = 1; }"
        )
        # After convergence every flag should be settable to False and a
        # re-run must not dirty anything.
        for entry in attrs.entries:
            entry.get_checkpoint_info().modified = False
            entry.se_entry.get_checkpoint_info().modified = False
        analysis._pass()
        dirty = [
            e.node_id
            for e in attrs.entries
            if e.se_entry._ckpt_dirty
        ]
        assert dirty == []

    def test_on_iteration_callback(self):
        program = parse("int g = 0;\nvoid f() { g = 1; }")
        symbols = resolve(program)
        attributes = AttributesTable.for_program(program.node_count)
        analysis = SideEffectAnalysis(program, symbols, attributes)
        seen = []
        analysis.run(on_iteration=seen.append)
        assert seen == list(range(1, analysis.iterations + 1))
