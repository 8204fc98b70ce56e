"""Unit tests for the partial evaluator and the code generator.

The headline invariant — specialized output is byte-identical to the
generic incremental driver under any conforming modification state — is
checked here on hand-picked states and in test_spec_properties.py with
hypothesis on random ones.
"""

import pytest

from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags, set_all_flags
from repro.core.errors import PatternViolationError
from repro.core.streams import DataOutputStream
from repro.spec.modpattern import ModificationPattern
from repro.spec.pe import Specializer
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecCompiler, SpecializedCheckpointer
from repro.synthetic.structures import build_structure, element_at
from tests.conftest import build_root


def generic_bytes(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def specialized_bytes(fn, root):
    out = DataOutputStream()
    fn(root, out)
    return out.getvalue()


def snapshot_flags(root):
    return [(o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)]


def restore_flags(snapshot):
    for info, modified in snapshot:
        info.modified = modified


@pytest.fixture
def compiled():
    root = build_root()
    shape = Shape.of(root)
    return root, shape, SpecCompiler()


class TestStructureSpecialization:
    def test_byte_identity_all_modified(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape))
        set_all_flags(root)
        snapshot = snapshot_flags(root)
        expected = generic_bytes(root)
        restore_flags(snapshot)
        assert specialized_bytes(fn, root) == expected

    def test_byte_identity_partial_modification(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape))
        reset_flags(root)
        root.mid.leaf.value = 5
        root.kids[1].weight = 2.5
        snapshot = snapshot_flags(root)
        expected = generic_bytes(root)
        restore_flags(snapshot)
        assert specialized_bytes(fn, root) == expected

    def test_flags_reset_identically(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape))
        reset_flags(root)
        root.extra.value = 1
        specialized_bytes(fn, root)
        assert all(not o._ckpt_dirty for o in collect_objects(root))

    def test_no_virtual_calls_in_source(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape))
        source = fn.source
        assert ".record(" not in source
        assert ".fold(" not in source
        assert ".checkpoint(" not in source
        assert "get_checkpoint_info" not in source
        # header reads are lowered to the object's own slots
        assert "_ckpt_info" not in source
        assert ".modified" not in source and ".object_id" not in source

    def test_nothing_modified_writes_nothing(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape))
        reset_flags(root)
        assert specialized_bytes(fn, root) == b""


class TestPatternSpecialization:
    def test_quiescent_subtree_absent_from_source(self, compiled):
        root, shape, compiler = compiled
        pattern = ModificationPattern.only(shape, [("mid", "leaf")])
        fn = compiler.compile(SpecClass(shape, pattern, name="leaf_only"))
        # The extra/kids subtrees may not be modified: no access to them.
        assert "_f_extra" not in fn.source
        assert "_f_kids" not in fn.source
        assert "_f_mid" in fn.source

    def test_spine_traversed_but_untested(self):
        compound = build_structure(num_lists=1, list_length=3, ints_per_element=1)
        shape = Shape.of(compound)
        pattern = ModificationPattern.last_element_of_lists(shape, ["list0"])
        fn = SpecializedCheckpointer(SpecClass(shape, pattern, name="tail_only"))
        # Exactly one modified-test survives (the tail element's), read
        # straight from the object's header slot.
        assert fn.source.count("._ckpt_dirty:") == 1
        # The spine is still chased (3 'next' hops... 2 hops + head access).
        assert fn.source.count("_f_next") == 2

    def test_byte_identity_under_pattern(self):
        compound = build_structure(num_lists=2, list_length=3, ints_per_element=2)
        shape = Shape.of(compound)
        pattern = ModificationPattern.restricted_to_lists(shape, ["list0"])
        fn = SpecializedCheckpointer(SpecClass(shape, pattern, name="l0_only"))
        reset_flags(compound)
        element_at(compound, 0, 1).v0 = 42
        snapshot = snapshot_flags(compound)
        expected = generic_bytes(compound)
        restore_flags(snapshot)
        assert specialized_bytes(fn, compound) == expected

    def test_fully_quiescent_pattern_empty_function(self, compiled):
        root, shape, compiler = compiled
        pattern = ModificationPattern.none_modified(shape)
        fn = compiler.compile(SpecClass(shape, pattern, name="noop"))
        set_all_flags(root)  # even a wildly dirty structure...
        assert specialized_bytes(fn, root) == b""  # ...is skipped wholesale
        assert "pass" in fn.source

    def test_violating_state_diverges_without_guards(self, compiled):
        # Without guards, the specializer trusts the declaration: a dirty
        # quiescent object is silently skipped (the paper's contract).
        root, shape, compiler = compiled
        pattern = ModificationPattern.only(shape, [("mid", "leaf")])
        fn = compiler.compile(SpecClass(shape, pattern, name="trusting"))
        reset_flags(root)
        root.extra.value = 3  # violates the declaration
        assert specialized_bytes(fn, root) == b""


class TestGuards:
    def test_guard_detects_pattern_violation(self, compiled):
        root, shape, compiler = compiled
        pattern = ModificationPattern.only(shape, [("mid", "leaf")])
        fn = compiler.compile(SpecClass(shape, pattern, name="guarded", guards=True))
        reset_flags(root)
        # mid is on the traversal path (spine to the live leaf) but was
        # declared quiescent; dirtying it violates the declaration.
        root.mid.notes.append(9)
        with pytest.raises(PatternViolationError, match="quiescent"):
            specialized_bytes(fn, root)

    def test_guard_detects_class_mismatch(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape, guards=True, name="guarded_cls"))
        root.mid = None  # structure no longer matches the shape
        root.mid = build_root().mid  # a Mid again: fine
        reset_flags(root)
        root.extra = build_root()  # a Root where a Leaf was declared
        with pytest.raises(PatternViolationError, match="is not a"):
            specialized_bytes(fn, root)

    def test_guards_pass_on_conforming_state(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape, guards=True, name="guarded_ok"))
        reset_flags(root)
        root.kids[0].value = 4
        snapshot = snapshot_flags(root)
        expected = generic_bytes(root)
        restore_flags(snapshot)
        assert specialized_bytes(fn, root) == expected


class TestResidualQuality:
    def test_dead_info_bindings_eliminated(self):
        compound = build_structure(num_lists=1, list_length=2, ints_per_element=1)
        shape = Shape.of(compound)
        pattern = ModificationPattern.last_element_of_lists(shape, ["list0"])
        specializer = Specializer(shape, pattern)
        residual = specializer.specialize()
        from repro.spec import ir

        # Exactly one info binding should remain (the tail's); the spine
        # nodes' info reads were dead after their tests were folded away.
        assigns = [
            s
            for s in residual.stmts
            if isinstance(s, ir.Assign) and s.name.startswith("i")
        ]
        assert len(assigns) == 1

    def test_source_compiles_and_is_idempotent(self, compiled):
        root, shape, compiler = compiled
        first = compiler.compile(SpecClass(shape, name="cached"))
        second = compiler.compile(SpecClass(shape, name="cached"))
        assert first is second  # cache hit
        assert len(compiler) == 1

    def test_source_has_prebound_writers(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape, name="writers"))
        assert "_w_i = out.write_int32" in fn.source
        assert "_w_f = out.write_float64" in fn.source

    def test_scalar_list_residual_loop(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape, name="lists"))
        assert "for _e" in fn.source  # notes list content loop survives

    def test_repr_and_source_lines(self, compiled):
        root, shape, compiler = compiled
        fn = compiler.compile(SpecClass(shape, name="meta"))
        assert fn.source_lines()[0].startswith("def meta")
