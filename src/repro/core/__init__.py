"""Core checkpointing framework (paper section 2).

This subpackage implements the systematic, language-level checkpointing
discipline of the paper: every checkpointable class carries a
:class:`~repro.core.info.CheckpointInfo` (a unique identifier plus a
modification flag), per-class ``record``/``fold`` and
``restore_packed``/``skip_packed`` methods generated from declared fields, and a generic
:class:`~repro.core.checkpoint.Checkpoint` driver that traverses compound
objects, records the local state of modified ones, and recursively visits
children.
"""

from repro.core.checkpoint import Checkpoint, FullCheckpoint, ReflectiveCheckpoint
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, child_list, scalar, scalar_list
from repro.core.info import CheckpointInfo

__all__ = [
    "Checkpoint",
    "FullCheckpoint",
    "ReflectiveCheckpoint",
    "Checkpointable",
    "CheckpointInfo",
    "scalar",
    "scalar_list",
    "child",
    "child_list",
]
