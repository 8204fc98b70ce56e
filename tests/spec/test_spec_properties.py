"""Property-based tests of the specializer's equivalence invariant.

For any structure shape, any declared modification pattern, and any
run-time modification state *conforming to the pattern*:

1. the specialized checkpointer writes byte-identical output to the
   generic incremental driver, and
2. both leave identical modification-flag state behind.

Shapes are drawn from the synthetic structure family (lists x length x
payload arity — the axes the paper sweeps) plus the conftest Root family;
patterns are random subsets of positions; states are random conforming
flag assignments.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags
from repro.core.streams import DataOutputStream
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import SpecClass, SpecializedCheckpointer
from repro.synthetic.structures import build_structure
from tests.conftest import build_root

# Compile-once caches: hypothesis runs many examples; shapes/compilations
# are deterministic per configuration.
_struct_cache = {}


def _compiled(num_lists, list_length, ints, pattern_paths):
    key = (num_lists, list_length, ints, tuple(sorted(pattern_paths or [])))
    if key not in _struct_cache:
        prototype = build_structure(num_lists, list_length, ints)
        shape = Shape.of(prototype)
        pattern = (
            None
            if pattern_paths is None
            else ModificationPattern.only(shape, pattern_paths)
        )
        fn = SpecializedCheckpointer(
            SpecClass(shape, pattern, name=f"prop_{len(_struct_cache)}")
        )
        _struct_cache[key] = (shape, fn)
    return _struct_cache[key]


def _apply_state(root, objects, dirty_indices):
    reset_flags(root)
    for index in dirty_indices:
        objects[index].get_checkpoint_info().modified = True


def _generic(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _specialized(fn, root):
    out = DataOutputStream()
    fn(root, out)
    return out.getvalue()


def _flag_vector(objects):
    return [o._ckpt_dirty for o in objects]


@st.composite
def synthetic_case(draw):
    num_lists = draw(st.integers(1, 3))
    list_length = draw(st.integers(1, 4))
    ints = draw(st.integers(1, 3))
    node_count = 1 + num_lists * list_length
    dirty = draw(st.sets(st.integers(0, node_count - 1), max_size=node_count))
    return num_lists, list_length, ints, sorted(dirty)


class TestStructureOnlyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(synthetic_case())
    def test_bytes_and_flags_match_generic(self, case):
        num_lists, list_length, ints, dirty = case
        shape, fn = _compiled(num_lists, list_length, ints, None)
        root = build_structure(num_lists, list_length, ints)
        objects = collect_objects(root)

        _apply_state(root, objects, dirty)
        expected = _generic(root)
        expected_flags = _flag_vector(objects)

        _apply_state(root, objects, dirty)
        actual = _specialized(fn, root)
        assert actual == expected
        assert _flag_vector(objects) == expected_flags


@st.composite
def pattern_case(draw):
    num_lists = draw(st.integers(1, 3))
    list_length = draw(st.integers(1, 3))
    prototype_key = (num_lists, list_length)
    # Enumerate positions as paths.
    paths = [()]
    for list_index in range(num_lists):
        for depth in range(list_length):
            paths.append((f"list{list_index}",) + ("next",) * depth)
    allowed = draw(st.sets(st.sampled_from(paths), max_size=len(paths)))
    # Dirty a random subset of the *allowed* positions (conforming state).
    dirty = draw(st.sets(st.sampled_from(sorted(allowed)), max_size=len(allowed))) if allowed else set()
    return num_lists, list_length, sorted(allowed), sorted(dirty)


def _object_at_path(root, path):
    obj = root
    for segment in path:
        obj = getattr(obj, segment)
    return obj


class TestPatternEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(pattern_case())
    def test_conforming_states_match_generic(self, case):
        num_lists, list_length, allowed, dirty = case
        shape, fn = _compiled(num_lists, list_length, 1, allowed)
        root = build_structure(num_lists, list_length, 1)
        objects = collect_objects(root)

        def dirty_state():
            reset_flags(root)
            for path in dirty:
                _object_at_path(root, path).get_checkpoint_info().modified = True

        dirty_state()
        assert shape  # the pattern conforms by construction
        expected = _generic(root)
        expected_flags = _flag_vector(objects)

        dirty_state()
        actual = _specialized(fn, root)
        assert actual == expected
        assert _flag_vector(objects) == expected_flags


class TestMixedFamilyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 5), max_size=6))
    def test_conftest_root_family(self, dirty):
        root = build_root()
        shape = Shape.of(root)
        fn = SpecializedCheckpointer(SpecClass(shape, name="prop_root"))
        objects = collect_objects(root)

        _apply_state(root, objects, dirty)
        expected = _generic(root)
        _apply_state(root, objects, dirty)
        assert _specialized(fn, root) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-1000, 1000)), max_size=8
        )
    )
    def test_value_mutations_roundtrip_through_spec_checkpoints(self, writes):
        """Replaying spec-written deltas reproduces the live state."""
        from repro.core.checkpoint import FullCheckpoint
        from repro.core.restore import replay, structurally_equal

        root = build_root()
        shape = Shape.of(root)
        fn = SpecializedCheckpointer(SpecClass(shape, name="prop_replay"))
        base_driver = FullCheckpoint()
        base_driver.checkpoint(root)
        base = base_driver.getvalue()
        objects = collect_objects(root)
        leaves = [o for o in objects if hasattr(o, "_f_value")]
        deltas = []
        for target, value in writes:
            leaves[target % len(leaves)].value = value
            out = DataOutputStream()
            fn(root, out)
            deltas.append(out.getvalue())
        recovered = replay(base, deltas)[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)
