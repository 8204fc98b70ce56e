"""End-to-end tests for statically-derived unguarded specialization.

``SpecClass.from_static_analysis`` is the static counterpart of the
dynamic :class:`~repro.spec.autospec.AutoSpecializer`: the pattern comes
from the effect analysis instead of run-time observation, and because the
analysis over-approximates, the result is compiled **without guards** —
yet must produce byte-identical checkpoints.
"""

import pytest

from repro.core.checkpoint import Checkpoint, collect_objects, reset_flags
from repro.core.errors import UnsoundPatternError
from repro.core.streams import DataOutputStream
from repro.spec import ModificationPattern, Shape, SpecClass, SpecCompiler
from repro.synthetic.structures import build_structure
from tests.conftest import Root, build_root


def phase_writes(root: Root):
    root.mid.leaf.value += 10
    root.kids[1].value = 99
    root.name = "renamed"


def _generic(root):
    driver = Checkpoint()
    driver.checkpoint(root)
    return driver.getvalue()


def _run(fn, root):
    out = DataOutputStream()
    fn(root, out)
    return out.getvalue()


def _snapshot_flags(root):
    return [
        (o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)
    ]


def _restore_flags(snapshot):
    for info, modified in snapshot:
        if modified:
            info.set_modified()
        else:
            info.reset_modified()


class TestFromStaticAnalysis:
    def test_infers_exact_pattern_and_drops_guards(self):
        shape = Shape.of(build_root())
        spec = SpecClass.from_static_analysis(
            shape, [phase_writes], name="static_infer"
        )
        assert spec.guards is False
        assert spec.pattern.may_modify_paths() == {
            (),
            ("mid", "leaf"),
            (("kids", 1),),
        }
        assert spec.static_report is not None
        assert spec.static_report.is_exact()

    def test_bytes_identical_to_generic(self):
        root = build_root()
        shape = Shape.of(root)
        reset_flags(root)
        phase_writes(root)

        spec = SpecClass.from_static_analysis(
            shape, [phase_writes], name="static_generic_eq"
        )
        fn = SpecCompiler().compile(spec)

        snapshot = _snapshot_flags(root)
        expected = _generic(root)
        _restore_flags(snapshot)
        assert _run(fn, root) == expected

    def test_bytes_identical_to_guarded_dynamic_path(self):
        root = build_root()
        shape = Shape.of(root)
        reset_flags(root)
        phase_writes(root)

        static_spec = SpecClass.from_static_analysis(
            shape, [phase_writes], name="static_vs_guarded"
        )
        compiler = SpecCompiler()
        unguarded = compiler.compile(static_spec)
        guarded = compiler.compile(
            SpecClass(
                shape, static_spec.pattern, name="guarded_twin", guards=True
            )
        )
        assert "Guard" not in type(unguarded).__name__  # sanity only
        snapshot = _snapshot_flags(root)
        guarded_bytes = _run(guarded, root)
        _restore_flags(snapshot)
        assert _run(unguarded, root) == guarded_bytes
        # and the unguarded source really carries no runtime checks
        assert "PatternViolationError" not in unguarded.source
        assert "PatternViolationError" in guarded.source

    def test_unsound_declared_pattern_raises(self):
        shape = Shape.of(build_root())
        declared = ModificationPattern.only(shape, [("mid", "leaf")])
        with pytest.raises(UnsoundPatternError) as exc:
            SpecClass.from_static_analysis(
                shape, [phase_writes], name="static_unsound", declared=declared
            )
        assert "kids" in str(exc.value)

    def test_sound_declared_pattern_is_kept(self):
        shape = Shape.of(build_root())
        declared = ModificationPattern.all_dynamic(shape)
        spec = SpecClass.from_static_analysis(
            shape, [phase_writes], name="static_sound", declared=declared
        )
        assert spec.pattern is declared


def synthetic_phase(structure):
    structure.list0.v0 += 1
    structure.list1.v0 += 2


class TestSyntheticStructures:
    """The paper's benchmark layout, specialized from the analysis."""

    def test_byte_identical_on_synthetic_structure(self):
        structure = build_structure(num_lists=3, list_length=4, ints_per_element=2)
        shape = Shape.of(structure)
        reset_flags(structure)
        synthetic_phase(structure)

        spec = SpecClass.from_static_analysis(
            shape,
            [synthetic_phase],
            name="static_synth",
            roots=["structure"],
        )
        # only the two touched list heads are in the pattern
        assert spec.pattern.may_modify_paths() == {("list0",), ("list1",)}
        fn = SpecCompiler().compile(spec)

        snapshot = _snapshot_flags(structure)
        expected = _generic(structure)
        _restore_flags(snapshot)
        assert _run(fn, structure) == expected

    def test_untouched_list_traversal_is_eliminated(self):
        structure = build_structure(num_lists=3, list_length=4, ints_per_element=2)
        shape = Shape.of(structure)
        spec = SpecClass.from_static_analysis(
            shape,
            [synthetic_phase],
            name="static_synth_elim",
            roots=["structure"],
        )
        fn = SpecCompiler().compile(spec)
        # list2 is never written: no residual code mentions its slot
        assert "_f_list2" not in fn.source
        assert "_f_list0" in fn.source
