"""Unit tests for the static modification-effect analysis + soundness diff."""

import copy

import pytest

from repro.core.errors import EffectAnalysisError, SpecializationError
from repro.spec import ModificationPattern, Shape, analyze_effects, check_pattern
from tests.conftest import Mid, Root, build_root


@pytest.fixture(scope="module")
def shape():
    return Shape.of(build_root())


# -- phases under analysis (module level: the analyzer needs their source) --


def phase_direct(root: Root):
    root.mid.leaf.value += 1


def phase_alias(root: Root):
    m = root.mid
    leaf = m.leaf
    leaf.value = 3


def phase_loop(root: Root):
    for kid in root.kids:
        kid.value += 1


def phase_scalar_list(root: Root):
    root.mid.notes.append(4)


def _helper(mid: Mid):
    mid.leaf.value = 0


def phase_interproc(root: Root):
    _helper(root.mid)


def phase_opaque(root: Root):
    copy.deepcopy(root)


def phase_pure(root: Root):
    total = root.mid.leaf.value + len(root.kids._items)
    return total


def phase_unannotated(structure, rounds):
    structure.extra.value = rounds


def phase_header_slot_store(root: Root):
    root.mid.leaf._ckpt_dirty = True


def phase_conditional(root: Root):
    if root.mid.leaf.flag:
        root.extra.value = 1
    else:
        root.name = "off"


class TestAnalysis:
    def test_header_slot_store_is_an_effect(self, shape):
        report = analyze_effects(shape, [phase_header_slot_store])
        assert report.may_write == {("mid", "leaf")}
        assert any("header slot '_ckpt_dirty'" in c.reason for c in report.cautions)

    def test_direct_write(self, shape):
        report = analyze_effects(shape, [phase_direct])
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()

    def test_alias_chain(self, shape):
        report = analyze_effects(shape, [phase_alias])
        assert report.may_write == {("mid", "leaf")}

    def test_list_iteration(self, shape):
        report = analyze_effects(shape, [phase_loop])
        assert report.may_write == {(("kids", 0),), (("kids", 1),)}

    def test_scalar_list_mutation_flags_owner(self, shape):
        report = analyze_effects(shape, [phase_scalar_list])
        assert report.may_write == {("mid",)}

    def test_interprocedural(self, shape):
        report = analyze_effects(shape, [phase_interproc])
        assert report.may_write == {("mid", "leaf")}
        assert report.is_exact()

    def test_opaque_call_taints_subtree(self, shape):
        report = analyze_effects(shape, [phase_opaque])
        assert not report.is_exact()
        # the root escaped, so every reachable position may be written
        assert report.may_write == frozenset(shape.paths())

    def test_pure_reads_leave_no_effects(self, shape):
        report = analyze_effects(shape, [phase_pure])
        assert report.may_write == frozenset()
        assert report.proves_quiescent(("mid", "leaf"))

    def test_conditional_joins_branches(self, shape):
        report = analyze_effects(shape, [phase_conditional])
        assert report.may_write == {("extra",), ()}

    def test_multiple_phases_union(self, shape):
        report = analyze_effects(shape, [phase_direct, phase_loop])
        assert report.may_write == {
            ("mid", "leaf"),
            (("kids", 0),),
            (("kids", 1),),
        }

    def test_roots_parameter_binding(self, shape):
        report = analyze_effects(
            shape, [phase_unannotated], roots=["structure"]
        )
        assert report.may_write == {("extra",)}

    def test_single_parameter_fallback(self, shape):
        def_only = analyze_effects(shape, [phase_direct])
        assert def_only.may_write == {("mid", "leaf")}

    def test_unbindable_root_raises(self, shape):
        with pytest.raises(EffectAnalysisError):
            analyze_effects(shape, [phase_unannotated])

    def test_source_unavailable_raises(self, shape):
        with pytest.raises(EffectAnalysisError):
            analyze_effects(shape, [len])

    def test_evidence_has_locations(self, shape):
        report = analyze_effects(shape, [phase_direct])
        sites = report.evidence(("mid", "leaf"))
        assert sites
        assert sites[0].filename.endswith("test_effects.py")
        assert sites[0].lineno > 0
        assert "value" in sites[0].reason

    def test_inferred_pattern_is_usable(self, shape):
        report = analyze_effects(shape, [phase_direct])
        pattern = report.pattern()
        assert pattern.may_modify_paths() == {("mid", "leaf")}
        assert pattern.shape is shape


class TestSoundness:
    def test_sound_and_exact(self, shape):
        report = analyze_effects(shape, [phase_direct])
        declared = ModificationPattern.only(shape, [("mid", "leaf")])
        verdict = check_pattern(declared, report)
        assert verdict.sound
        assert verdict.exact
        assert verdict.unsound == []
        assert verdict.overwide == []

    def test_unsound_with_evidence(self, shape):
        report = analyze_effects(shape, [phase_direct, phase_loop])
        declared = ModificationPattern.only(shape, [("mid", "leaf")])
        verdict = check_pattern(declared, report)
        assert not verdict.sound
        missed = {path for path, _ in verdict.unsound}
        assert missed == {(("kids", 0),), (("kids", 1),)}
        for _path, site in verdict.unsound:
            assert site is not None and site.lineno > 0

    def test_overwide_is_sound(self, shape):
        report = analyze_effects(shape, [phase_direct])
        declared = ModificationPattern.all_dynamic(shape)
        verdict = check_pattern(declared, report)
        assert verdict.sound
        assert not verdict.exact
        assert set(verdict.overwide) == set(shape.paths()) - {("mid", "leaf")}

    def test_widened_covers_every_write(self, shape):
        report = analyze_effects(shape, [phase_direct, phase_loop])
        declared = ModificationPattern.none_modified(shape)
        verdict = check_pattern(declared, report)
        widened = verdict.widened()
        assert report.may_write <= widened.may_modify_paths()
        # the original declaration is untouched
        assert declared.may_modify_paths() == frozenset()

    def test_shape_mismatch_rejected(self, shape):
        other_shape = Shape.of(build_root())
        report = analyze_effects(shape, [phase_direct])
        declared = ModificationPattern.all_dynamic(other_shape)
        with pytest.raises(SpecializationError):
            check_pattern(declared, report)
