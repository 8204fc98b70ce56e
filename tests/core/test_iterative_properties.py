"""Property tests: IterativeCheckpoint matches the recursive driver on DAGs.

The iterative driver exists so checkpoint depth is bounded by heap size,
not the Python stack. These properties pin its other obligation: on
structures with *shared* substructure (DAGs — diamonds, shared leaves,
aliased lists) it must produce byte-identical output to the recursive
:class:`Checkpoint`, recording every shared object exactly once at its
first (preorder) visit. A divergence here would make the two drivers
non-interchangeable as session strategies.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    Checkpoint,
    IterativeCheckpoint,
    collect_objects,
    reset_flags,
    set_all_flags,
)
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, child_list, scalar
from repro.core.restore import restore_full, structurally_equal


class DagNode(Checkpointable):
    """A node whose children may alias any earlier-built node."""

    value = scalar("int")
    left = child()
    right = child()
    extras = child_list()


@st.composite
def dag(draw):
    """A random rooted DAG: node i's children are drawn from nodes < i.

    Building children strictly from earlier nodes guarantees acyclicity
    while allowing arbitrary sharing — including the same node appearing
    as ``left``, ``right``, *and* inside ``extras`` of several parents.
    """
    count = draw(st.integers(min_value=1, max_value=24))
    nodes = []
    for i in range(count):
        node = DagNode(value=draw(st.integers(-1000, 1000)))
        if i > 0:
            earlier = st.integers(0, i - 1)
            if draw(st.booleans()):
                node.left = nodes[draw(earlier)]
            if draw(st.booleans()):
                node.right = nodes[draw(earlier)]
            for _ in range(draw(st.integers(0, 3))):
                node.extras.append(nodes[draw(earlier)])
        nodes.append(node)
    return nodes[-1]


def _snapshot_flags(root):
    return [(o.get_checkpoint_info(), o._ckpt_dirty) for o in collect_objects(root)]


def _restore_flags(snapshot):
    for info, modified in snapshot:
        info.modified = modified


@given(dag())
@settings(max_examples=150, deadline=None)
def test_iterative_matches_recursive_on_dags(root):
    """Fresh (all-modified) DAG: both drivers emit identical bytes."""
    flags = _snapshot_flags(root)
    recursive = Checkpoint()
    recursive.checkpoint(root)
    _restore_flags(flags)
    iterative = IterativeCheckpoint()
    iterative.checkpoint(root)
    assert iterative.getvalue() == recursive.getvalue()
    # Both cleared every reachable flag.
    assert all(not o._ckpt_dirty for o in collect_objects(root))


@given(dag(), st.data())
@settings(max_examples=150, deadline=None)
def test_iterative_matches_recursive_on_partial_modification(root, data):
    """Random modified subsets: the incremental outputs stay identical."""
    reset_flags(root)
    objects = collect_objects(root)
    for obj in objects:
        if data.draw(st.booleans(), label=f"modify {obj._ckpt_id}"):
            obj.get_checkpoint_info().modified = True
    flags = _snapshot_flags(root)
    recursive = Checkpoint()
    recursive.checkpoint(root)
    _restore_flags(flags)
    iterative = IterativeCheckpoint()
    iterative.checkpoint(root)
    assert iterative.getvalue() == recursive.getvalue()


@given(dag())
@settings(max_examples=75, deadline=None)
def test_iterative_full_checkpoint_restores_sharing(root):
    """Restoring iterative bytes reproduces the DAG, aliases included."""
    set_all_flags(root)
    iterative = IterativeCheckpoint()
    iterative.checkpoint(root)
    # (FullCheckpoint is NOT the reference here: it records a shared node
    # once per visit, while the flag-gated drivers record it exactly once.)
    table = restore_full(iterative.getvalue())
    recovered = table[root._ckpt_id]
    assert structurally_equal(root, recovered, compare_ids=True)
    # Shared children must restore as shared, not as copies.
    assert len(table) == len(collect_objects(root))


def test_deep_dag_beyond_recursion_limit():
    """Depth + sharing together: recursive raises, iterative is exact."""
    depth = sys.getrecursionlimit() + 500
    shared = DagNode(value=42)
    root = DagNode(value=0, left=shared)
    for i in range(depth):
        root = DagNode(value=i, left=root, right=shared)
    with pytest.raises(RecursionError):
        Checkpoint().checkpoint(root)
    set_all_flags(root)
    driver = IterativeCheckpoint()
    driver.checkpoint(root)
    table = restore_full(driver.getvalue())
    recovered = table[root._ckpt_id]
    # The shared leaf is one object in the restored table too.
    assert recovered.right is recovered.left.right
    assert len(table) == len(collect_objects(root))
