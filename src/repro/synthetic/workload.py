"""Modification patterns for the synthetic benchmark.

The paper's experiments constrain *where* modified elements may occur
(which lists, which positions) and then randomly modify a given fraction
of the eligible elements before each checkpoint. This module computes the
eligible position set for a configuration, draws the modified subset with
a seeded RNG, applies the modifications (through the field descriptors, so
flags are maintained exactly as in production use), and can snapshot and
restore flag state so that several checkpointing variants run against an
identical modification state.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.checkpoint import restore_flags
from repro.core.checkpointable import Checkpointable
from repro.synthetic.structures import element_at, structure_objects, value_field_name

Position = Tuple[int, int]  # (list index, element index; 0 = list head)


def eligible_positions(
    num_lists: int,
    list_length: int,
    modified_lists: int,
    last_only: bool,
) -> List[Position]:
    """Positions where a modified element may occur.

    ``modified_lists`` restricts eligibility to the first *n* lists (the
    paper's Figure 9 knob); ``last_only`` further restricts to the final
    element of each eligible list (the Figure 10 knob). The list *head*
    object is the most recently prepended element, so the "last element"
    of the paper's lists is the deepest node, at index ``list_length - 1``.
    """
    if not 1 <= modified_lists <= num_lists:
        raise ValueError("modified_lists must be between 1 and num_lists")
    positions: List[Position] = []
    for list_index in range(modified_lists):
        if last_only:
            positions.append((list_index, list_length - 1))
        else:
            positions.extend((list_index, e) for e in range(list_length))
    return positions


def draw_modified_positions(
    count: int,
    eligible: Sequence[Position],
    percent_modified: float,
    seed: int,
) -> List[List[Position]]:
    """Per-structure lists of positions to modify.

    Exactly ``round(percent_modified * count * len(eligible))`` positions
    are modified across the whole population (sampled without replacement
    with a seeded RNG), so measured checkpoint sizes are deterministic.
    """
    if not 0.0 <= percent_modified <= 1.0:
        raise ValueError("percent_modified must be in [0, 1]")
    rng = random.Random(seed)
    universe = count * len(eligible)
    wanted = int(round(percent_modified * universe))
    chosen = rng.sample(range(universe), wanted)
    per_structure: List[List[Position]] = [[] for _ in range(count)]
    width = len(eligible)
    for flat in chosen:
        per_structure[flat // width].append(eligible[flat % width])
    return per_structure


def apply_modifications(
    structures: Sequence[Checkpointable],
    positions_per_structure: Sequence[List[Position]],
) -> int:
    """Mutate the chosen elements (writing their first integer field).

    Every write goes through the field descriptors, so modification flags
    are set exactly as they would be in production code. Returns the
    number of modified elements.
    """
    field = value_field_name(0)
    modified = 0
    for compound, positions in zip(structures, positions_per_structure):
        for list_index, element_index in positions:
            element = element_at(compound, list_index, element_index)
            setattr(element, field, getattr(element, field) + 1)
            modified += 1
    return modified


class FlagSnapshot:
    """Captured modification-flag state of a population of structures.

    Running a checkpoint variant resets the flags it records; restoring
    the snapshot lets the next variant observe the identical state.
    """

    def __init__(self, structures: Sequence[Checkpointable]) -> None:
        self._state = []
        for compound in structures:
            for obj in structure_objects(compound):
                self._state.append((obj, obj._ckpt_dirty))

    def restore(self) -> None:
        restore_flags(self._state)

    def modified_count(self) -> int:
        return sum(1 for _, modified in self._state if modified)

    def object_count(self) -> int:
        return len(self._state)
