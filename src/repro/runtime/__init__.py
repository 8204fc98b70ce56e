"""The unified checkpoint runtime: sessions, strategies, policy.

This package is the single seam the paper's pipeline — generic driver →
specialized per-phase routine → output stream → stable storage — flows
through in this repository. Every consumer (the analysis engine, the
synthetic benchmark, the experiment harness, the examples) builds a
:class:`~repro.runtime.session.CheckpointSession` instead of wiring
drivers, specialized routines, and stores by hand.

- :mod:`repro.runtime.session` — the session: owns roots, commits epochs
  straight into its :class:`~repro.core.storage.CheckpointStore` (in
  memory, on disk, asynchronous or replicated), recovers state.
- :mod:`repro.runtime.strategy` — how commit bytes are produced: the
  generic driver tiers, compiled specializations, observation-driven
  auto-specialization; all selectable by name via the
  :class:`~repro.runtime.strategy.StrategyRegistry`.
- :mod:`repro.runtime.policy` — full-vs-delta cadence, automatic
  compaction, delta-chain bounds.
"""

from repro.core.lineage import AUTO, MAIN_BRANCH, Lineage
from repro.core.retry import RetryPolicy, RetryStats
from repro.runtime.policy import EpochPolicy
from repro.runtime.session import (
    CheckpointSession,
    CommitReceipt,
    CommitResult,
)
from repro.runtime.strategy import (
    DEFAULT_STRATEGIES,
    AutoSpecStrategy,
    DriverStrategy,
    InferredStrategy,
    NullStrategy,
    SpecializedStrategy,
    Strategy,
    StrategyRegistry,
)

__all__ = [
    "CheckpointSession",
    "CommitReceipt",
    "CommitResult",
    "EpochPolicy",
    "Lineage",
    "AUTO",
    "MAIN_BRANCH",
    "RetryPolicy",
    "RetryStats",
    "Strategy",
    "NullStrategy",
    "DriverStrategy",
    "SpecializedStrategy",
    "InferredStrategy",
    "AutoSpecStrategy",
    "StrategyRegistry",
    "DEFAULT_STRATEGIES",
]
