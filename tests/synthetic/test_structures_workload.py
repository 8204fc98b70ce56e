"""Unit tests for the synthetic structure builders and workloads."""

import pytest

from repro.core.checkpoint import collect_objects, reset_flags
from repro.synthetic.structures import (
    build_structure,
    build_structures,
    compound_class,
    element_at,
    element_class,
    list_field_name,
    structure_objects,
)
from repro.synthetic.workload import (
    FlagSnapshot,
    apply_modifications,
    draw_modified_positions,
    eligible_positions,
)


class TestStructureBuilders:
    def test_classes_cached(self):
        assert element_class(3) is element_class(3)
        assert compound_class(4) is compound_class(4)
        assert element_class(3) is not element_class(4)

    def test_invalid_arities_rejected(self):
        with pytest.raises(ValueError):
            element_class(0)
        with pytest.raises(ValueError):
            compound_class(0)

    def test_structure_layout(self):
        compound = build_structure(num_lists=3, list_length=4, ints_per_element=2)
        assert len(collect_objects(compound)) == 1 + 3 * 4
        for list_index in range(3):
            node = getattr(compound, list_field_name(list_index))
            depth = 0
            while node is not None:
                depth += 1
                node = node.next
            assert depth == 4

    def test_element_payload_fields(self):
        compound = build_structure(1, 1, 10)
        element = compound.list0
        for index in range(10):
            assert getattr(element, f"v{index}") == 0
        assert not hasattr(type(element), "v10")

    def test_element_at_walks_from_head(self):
        compound = build_structure(2, 3, 1)
        assert element_at(compound, 0, 0) is compound.list0
        assert element_at(compound, 0, 2) is compound.list0.next.next

    def test_structure_objects_order(self):
        compound = build_structure(2, 2, 1)
        objects = structure_objects(compound)
        assert objects[0] is compound
        assert len(objects) == 5

    def test_build_structures_population(self):
        population = build_structures(7, 2, 2, 1)
        assert len(population) == 7
        ids = {c._ckpt_id for c in population}
        assert len(ids) == 7


class TestEligibility:
    def test_all_positions(self):
        positions = eligible_positions(3, 4, modified_lists=3, last_only=False)
        assert len(positions) == 12

    def test_restricted_lists(self):
        positions = eligible_positions(5, 2, modified_lists=2, last_only=False)
        assert {p[0] for p in positions} == {0, 1}

    def test_last_only(self):
        positions = eligible_positions(3, 4, modified_lists=3, last_only=True)
        assert positions == [(0, 3), (1, 3), (2, 3)]

    def test_bad_modified_lists(self):
        with pytest.raises(ValueError):
            eligible_positions(3, 4, modified_lists=0, last_only=False)
        with pytest.raises(ValueError):
            eligible_positions(3, 4, modified_lists=4, last_only=False)


class TestDraws:
    def test_exact_global_count(self):
        eligible = eligible_positions(5, 5, 5, False)
        chosen = draw_modified_positions(100, eligible, 0.25, seed=1)
        total = sum(len(c) for c in chosen)
        assert total == round(0.25 * 100 * len(eligible))

    def test_deterministic_per_seed(self):
        eligible = eligible_positions(2, 3, 2, False)
        a = draw_modified_positions(50, eligible, 0.5, seed=9)
        b = draw_modified_positions(50, eligible, 0.5, seed=9)
        c = draw_modified_positions(50, eligible, 0.5, seed=10)
        assert a == b
        assert a != c

    def test_bounds_checked(self):
        eligible = eligible_positions(1, 1, 1, False)
        with pytest.raises(ValueError):
            draw_modified_positions(10, eligible, 1.5, seed=0)


class TestApplication:
    def test_modifications_set_flags_exactly(self):
        population = build_structures(4, 2, 3, 1)
        for compound in population:
            reset_flags(compound)
        eligible = eligible_positions(2, 3, 2, False)
        chosen = draw_modified_positions(4, eligible, 0.5, seed=2)
        count = apply_modifications(population, chosen)
        dirty = sum(
            1
            for compound in population
            for obj in structure_objects(compound)
            if obj._ckpt_dirty
        )
        assert dirty == count == sum(len(c) for c in chosen)

    def test_snapshot_restore(self):
        population = build_structures(2, 1, 2, 1)
        for compound in population:
            reset_flags(compound)
        population[0].list0.v0 = 7
        snapshot = FlagSnapshot(population)
        assert snapshot.modified_count() == 1
        assert snapshot.object_count() == 6
        # Clobber and restore.
        for compound in population:
            reset_flags(compound)
        snapshot.restore()
        assert population[0].list0._ckpt_dirty
        assert not population[1].list0._ckpt_dirty
