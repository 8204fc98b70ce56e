"""Checkpoint strategies and the strategy registry.

A :class:`Strategy` is the unit a :class:`~repro.runtime.session.CheckpointSession`
plugs in at commit time: given the session's root objects and an output
stream, it writes one checkpoint in the shared wire format. Every tier of
the paper's evaluation is expressed as a strategy:

- the generic drivers (full / incremental / reflective / iterative /
  checking) via :class:`DriverStrategy`,
- the compiled per-structure routines of :mod:`repro.spec` via
  :class:`SpecializedStrategy`,
- the observation-driven, self-refining routines of paper section 7 via
  :class:`AutoSpecStrategy`.

Strategies are byte-compatible with the direct driver paths they replace:
``DriverStrategy("incremental", Checkpoint).write(roots, out)`` produces
exactly the bytes of ``driver = Checkpoint(out); for r in roots:
driver.checkpoint(r)`` (the equivalence tests pin this).

The :class:`StrategyRegistry` maps names to strategy factories so
strategies can be selected by configuration string and swapped at phase
boundaries — the session's per-phase overrides are resolved through it.
:data:`DEFAULT_STRATEGIES` registers the built-in tiers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.blocks import (
    DEFAULT_BLOCK_SIZE,
    HASH_OFF,
    HASH_SKIP,
    HASH_VERIFY,
    BlockTier,
)
from repro.core.checkpoint import (
    CheckingCheckpoint,
    Checkpoint,
    FullCheckpoint,
    IterativeCheckpoint,
    PackedCheckpoint,
    ReflectiveCheckpoint,
)
from repro.core.checkpointable import Checkpointable
from repro.core.errors import CheckpointError, PatternViolationError
from repro.core.info import clear_modified
from repro.core.streams import DataOutputStream, PackedEncoder
from repro.spec.autospec import AutoSpecializer, PatternObserver
from repro.spec.effects.analysis import EffectReport
from repro.spec.effects.wholeprogram import InferredPhase
from repro.spec.modpattern import ModificationPattern
from repro.spec.shape import Shape
from repro.spec.specclass import (
    DEFAULT_COMPILER,
    SpecClass,
    SpecCompiler,
    SpecializedCheckpointer,
)


class Strategy:
    """How one commit turns root objects into checkpoint bytes."""

    #: display / registry name of the strategy
    name: str = "strategy"

    def write(
        self, roots: Sequence[Checkpointable], out: DataOutputStream
    ) -> None:
        """Write one checkpoint of ``roots`` into ``out``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class NullStrategy(Strategy):
    """Writes nothing (the ``none`` tier: baseline cost measurement)."""

    name = "none"

    def write(self, roots, out) -> None:
        pass


class DriverStrategy(Strategy):
    """Wrap one of the generic drivers of :mod:`repro.core.checkpoint`.

    A fresh driver is constructed per commit (drivers are cheap,
    stream-bound objects), then applied to every root in order — exactly
    the loop the pre-runtime consumers open-coded.
    """

    def __init__(self, name: str, driver_factory: Callable) -> None:
        self.name = name
        self.driver_factory = driver_factory

    def write(self, roots, out) -> None:
        driver = self.driver_factory(out)
        for root in roots:
            driver.checkpoint(root)


class PackedStrategy(Strategy):
    """The flag walk with the packed codec (``packed`` tier).

    Identical traversal to the ``incremental`` tier; entries are encoded
    by the generated ``record_packed`` methods into a reused
    :class:`~repro.core.streams.PackedEncoder` and appended to ``out`` in
    one ``write_bytes``. Byte-identical to ``incremental``.
    """

    name = "packed"

    def __init__(self) -> None:
        self._enc = PackedEncoder()

    def write(self, roots, out) -> None:
        enc = self._enc
        enc.clear()
        driver = PackedCheckpoint(enc)
        for root in roots:
            driver.checkpoint(root)
        out.write_bytes(enc.getvalue())


class DifferentialStrategy(Strategy):
    """Block-tier differential commit over the packed codec.

    Partitions the roots into :class:`~repro.core.blocks.BlockTier`
    blocks on first use (and again whenever the partition goes out of
    sync — different roots, or any structural edge mutation since). At
    commit, blocks whose generation counters prove them clean are
    skipped without traversal; the flag walk runs only inside dirty
    blocks. With ``hash_mode="off"`` (the registered ``differential``
    tier) the epoch bytes are identical to the ``incremental`` tier's.

    ``hash_mode="verify"`` re-fingerprints generation-clean blocks and
    re-flags (never drops) any block whose content changed behind the
    flags' back; ``hash_mode="skip"`` additionally elides flag-dirty
    blocks whose content fingerprint is unchanged — restore-equivalent,
    not byte-identical.

    :attr:`last_stats` reports, per commit: blocks walked / skipped /
    hash-skipped / healed, plus cumulative repartition counts.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        hash_mode: str = HASH_OFF,
    ) -> None:
        self.tier = BlockTier(block_size=block_size, hash_mode=hash_mode)
        self.name = (
            "differential" if hash_mode == HASH_OFF else f"differential-{hash_mode}"
        )
        self._enc = PackedEncoder()
        self.last_stats: dict = {}

    def write(self, roots, out) -> None:
        roots = list(roots)
        tier = self.tier
        repartitioned = not tier.in_sync(roots)
        if repartitioned:
            tier.partition(roots)
        enc = self._enc
        enc.clear()
        driver = PackedCheckpoint(enc)
        skipped = walked = healed = hash_skips = 0
        for block in tier.blocks:
            clean = tier.is_clean(block)
            if clean and tier.hash_mode == HASH_VERIFY:
                if not tier.fingerprint_unchanged(block):
                    # Content moved without a flag: an unflagged mutation
                    # bypassed the protocol. Re-flag the whole block so
                    # the walk below re-records it (over-approximation,
                    # never silent loss).
                    tier.heal(block)
                    healed += 1
                    clean = False
            if clean:
                skipped += 1
                continue
            if tier.hash_mode == HASH_SKIP and tier.fingerprint_unchanged(block):
                # Flags were raised but the content round-tripped back to
                # its committed state: clear the flags, emit nothing.
                for obj in tier.members(block):
                    clear_modified(obj)
                tier.mark_committed(block)
                hash_skips += 1
                continue
            size_before = enc.pos
            for root in block.roots:
                driver.checkpoint(root)
            tier.mark_committed(block)
            if tier.hash_mode != HASH_OFF and enc.pos != size_before:
                tier.refresh_fingerprint(block)
            walked += 1
        out.write_bytes(enc.getvalue())
        self.last_stats = {
            "blocks": len(tier.blocks),
            "walked": walked,
            "skipped": skipped,
            "hash_skipped": hash_skips,
            "healed": healed,
            "repartitioned": repartitioned,
            "repartitions_total": tier.repartitions,
        }

    # -- trial-commit purity (used by CheckpointSession.measure) -----------

    def snapshot_state(self):
        """Capture tier state so a trial commit can be rolled back."""
        return self.tier.snapshot_state()

    def restore_state(self, state) -> None:
        self.tier.restore_state(state)


class SpecializedStrategy(Strategy):
    """Commit through a compiled, monolithic specialized routine."""

    def __init__(
        self, checkpointer: SpecializedCheckpointer, name: Optional[str] = None
    ) -> None:
        self.checkpointer = checkpointer
        self.name = name or f"specialized:{checkpointer.spec.name}"

    def write(self, roots, out) -> None:
        self.checkpointer.checkpoint_all(roots, out)

    @property
    def source(self) -> str:
        """The generated Python source of the routine."""
        return self.checkpointer.source

    @classmethod
    def from_spec(
        cls,
        spec: SpecClass,
        compiler: Optional[SpecCompiler] = None,
        name: Optional[str] = None,
    ) -> "SpecializedStrategy":
        """Compile a :class:`~repro.spec.specclass.SpecClass` declaration."""
        compiler = compiler or DEFAULT_COMPILER
        return cls(compiler.compile(spec), name=name)

    @classmethod
    def for_prototype(
        cls,
        prototype: Checkpointable,
        pattern: Optional[ModificationPattern] = None,
        name: str = "spec_checkpoint",
        guards: bool = False,
        compiler: Optional[SpecCompiler] = None,
    ) -> "SpecializedStrategy":
        """Derive shape facts from a prototype and compile."""
        spec = SpecClass.for_prototype(prototype, pattern, name, guards)
        return cls.from_spec(spec, compiler=compiler)


class InferredStrategy(SpecializedStrategy):
    """The ``inferred`` tier: specialization derived by static analysis.

    Where :class:`SpecializedStrategy` compiles a *declared* pattern and
    :class:`AutoSpecStrategy` observes one at run time, this tier compiles
    the pattern the whole-program effect analysis *proved*: sound by
    construction, so the routine runs **unguarded** — exactly the paper's
    "automatically construct specialization classes" future work, closed
    statically. Build it from phase functions (:meth:`from_phases`) or
    from one inter-commit region of a driver (:meth:`from_inferred`, fed
    by :func:`~repro.spec.effects.wholeprogram.infer_phases` — usually via
    :meth:`~repro.runtime.session.CheckpointSession.bind_program`).
    """

    def __init__(
        self, checkpointer: SpecializedCheckpointer, name: Optional[str] = None
    ) -> None:
        super().__init__(
            checkpointer, name=name or f"inferred:{checkpointer.spec.name}"
        )

    @property
    def report(self) -> Optional[EffectReport]:
        """The effect report the pattern was proven from."""
        return self.checkpointer.spec.static_report

    @classmethod
    def from_phases(
        cls,
        shape: Shape,
        phases,
        name: str = "inferred_ckpt",
        roots=None,
        compiler: Optional[SpecCompiler] = None,
    ) -> "InferredStrategy":
        """Analyse the phase functions and compile the proven pattern."""
        spec = SpecClass.from_static_analysis(shape, phases, name=name, roots=roots)
        compiler = compiler or DEFAULT_COMPILER
        return cls(compiler.compile(spec))

    @classmethod
    def from_inferred(
        cls,
        phase: InferredPhase,
        name: Optional[str] = None,
        compiler: Optional[SpecCompiler] = None,
    ) -> "InferredStrategy":
        """Compile one inferred inter-commit phase of a driver."""
        spec = phase.spec(name=name)
        compiler = compiler or DEFAULT_COMPILER
        return cls(compiler.compile(spec))


class AutoSpecStrategy(Strategy):
    """Observation-driven specialization (paper section 7), as a strategy.

    The first commit observes which positions the preceding phase actually
    dirtied and checkpoints generically; later commits run the guarded
    auto-derived routine, widening the pattern and recompiling whenever a
    root violates it (so no modification is ever dropped).
    """

    def __init__(
        self,
        shape: Optional[Shape] = None,
        name: str = "auto_spec",
        observer: Optional[PatternObserver] = None,
        auto: Optional[AutoSpecializer] = None,
    ) -> None:
        if auto is None:
            if shape is None:
                raise CheckpointError(
                    "AutoSpecStrategy needs a shape (or a prebuilt "
                    "AutoSpecializer)"
                )
            auto = AutoSpecializer(
                shape, observer or PatternObserver(shape), name=name
            )
        self.auto = auto
        self.name = f"autospec:{auto.name}"

    def write(self, roots, out) -> None:
        auto = self.auto
        if auto.observer.observations == 0:
            # First commit: observe what actually got dirty, then
            # checkpoint generically (nothing is declared yet).
            for root in roots:
                auto.observer.observe(root)
            driver = Checkpoint(out)
            for root in roots:
                driver.checkpoint(root)
            return
        function = auto.compiled()
        roots = list(roots)
        index = 0
        while index < len(roots):
            try:
                function(roots[index], out)
            except PatternViolationError:
                # The phase touched something outside the derived pattern:
                # widen it, recompile, and retry this structure.
                function = auto.refine(roots[index])
                continue
            index += 1


class StrategyRegistry:
    """Named strategy factories; the session's selection seam.

    A factory is a zero-argument callable returning a fresh
    :class:`Strategy`. Registries are cheap to :meth:`copy`, so a session
    (or a test) can extend one without mutating the shared default.
    """

    def __init__(
        self, factories: Optional[Dict[str, Callable[[], Strategy]]] = None
    ) -> None:
        self._factories: Dict[str, Callable[[], Strategy]] = dict(
            factories or {}
        )

    def register(
        self, name: str, factory: Callable[[], Strategy], replace: bool = False
    ) -> None:
        """Register ``factory`` under ``name``.

        Re-registering an existing name raises unless ``replace=True`` —
        silently shadowing a tier is how benchmarks stop measuring what
        they claim to.
        """
        if not replace and name in self._factories:
            raise CheckpointError(
                f"strategy {name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._factories[name] = factory

    def register_inferred(
        self,
        name: str,
        shape: Shape,
        phases,
        roots=None,
        replace: bool = False,
    ) -> None:
        """Register an ``inferred`` tier derived from ``phases`` by analysis.

        Analysis and compilation run once, lazily, on the first
        :meth:`create` — so registering a tier that is never selected
        costs nothing, and repeated creates share one compiled routine
        (it is stateless between commits).
        """
        cell: List[InferredStrategy] = []
        # the spec name becomes the generated function's name, so it must
        # be an identifier even when the registry name is not
        spec_name = "".join(
            c if c.isalnum() or c == "_" else "_" for c in name
        )
        if not spec_name or spec_name[0].isdigit():
            spec_name = f"inferred_{spec_name}"

        def factory() -> Strategy:
            if not cell:
                cell.append(
                    InferredStrategy.from_phases(
                        shape, phases, name=spec_name, roots=roots
                    )
                )
            return cell[0]

        self.register(name, factory, replace=replace)

    def create(self, name: str) -> Strategy:
        """Instantiate the strategy registered under ``name``."""
        factory = self._factories.get(name)
        if factory is None:
            raise CheckpointError(
                f"unknown strategy {name!r}; registered: "
                f"{', '.join(self.names())}"
            )
        strategy = factory()
        if not isinstance(strategy, Strategy):
            raise CheckpointError(
                f"strategy factory {name!r} returned {strategy!r}, "
                "not a Strategy"
            )
        return strategy

    def resolve(self, spec) -> Strategy:
        """Turn a name, a :class:`Strategy`, or a factory into a strategy."""
        if isinstance(spec, Strategy):
            return spec
        if isinstance(spec, str):
            return self.create(spec)
        if callable(spec):
            strategy = spec()
            if not isinstance(strategy, Strategy):
                raise CheckpointError(
                    f"strategy factory returned {strategy!r}, not a Strategy"
                )
            return strategy
        raise CheckpointError(
            f"cannot resolve {spec!r} to a strategy (expected a registered "
            "name, a Strategy, or a factory)"
        )

    def names(self) -> List[str]:
        return sorted(self._factories)

    def copy(self) -> "StrategyRegistry":
        return StrategyRegistry(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)


#: The built-in tiers, by their names throughout the paper's evaluation.
DEFAULT_STRATEGIES = StrategyRegistry(
    {
        "none": NullStrategy,
        "full": lambda: DriverStrategy("full", FullCheckpoint),
        "incremental": lambda: DriverStrategy("incremental", Checkpoint),
        "reflective": lambda: DriverStrategy("reflective", ReflectiveCheckpoint),
        "iterative": lambda: DriverStrategy("iterative", IterativeCheckpoint),
        "checking": lambda: DriverStrategy("checking", CheckingCheckpoint),
        "packed": PackedStrategy,
        "differential": DifferentialStrategy,
        "differential-verify": lambda: DifferentialStrategy(
            hash_mode=HASH_VERIFY
        ),
    }
)
