"""Property-based tests of checkpoint/restore over random structures.

Random trees over a small family of checkpointable classes, random value
assignments, and random mutation histories: replaying the recorded
base + deltas must always reproduce the live state exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import Checkpoint, FullCheckpoint, collect_objects
from repro.core.checkpointable import Checkpointable
from repro.core.fields import child, child_list, scalar, scalar_list
from repro.core.restore import replay, state_digest, structurally_equal


class PropLeaf(Checkpointable):
    number = scalar("int")
    weight = scalar("float")
    tag = scalar("str")
    active = scalar("bool")


class PropBranch(Checkpointable):
    left = child()
    right = child()
    notes = scalar_list("int")


class PropBag(Checkpointable):
    items = child_list()
    labels = scalar_list("str")
    size = scalar("int")


@st.composite
def tree(draw, depth=0):
    """A random structure over the three property classes."""
    kind = draw(st.sampled_from(["leaf", "branch", "bag"] if depth < 3 else ["leaf"]))
    if kind == "leaf":
        return PropLeaf(
            number=draw(st.integers(-10_000, 10_000)),
            weight=draw(st.floats(-1e6, 1e6, allow_nan=False)),
            tag=draw(st.text(max_size=12)),
            active=draw(st.booleans()),
        )
    if kind == "branch":
        branch = PropBranch(notes=draw(st.lists(st.integers(-99, 99), max_size=5)))
        if draw(st.booleans()):
            branch.left = draw(tree(depth=depth + 1))
        if draw(st.booleans()):
            branch.right = draw(tree(depth=depth + 1))
        return branch
    bag = PropBag(
        labels=draw(st.lists(st.text(max_size=6), max_size=4)),
        size=draw(st.integers(0, 50)),
    )
    for _ in range(draw(st.integers(0, 3))):
        bag.items.append(draw(tree(depth=depth + 1)))
    return bag


def _mutate(objects, choice: int, payload: int) -> None:
    target = objects[choice % len(objects)]
    if isinstance(target, PropLeaf):
        field = ("number", "weight", "tag", "active")[payload % 4]
        value = {
            "number": payload,
            "weight": payload / 3.0,
            "tag": f"t{payload}",
            "active": payload % 2 == 0,
        }[field]
        setattr(target, field, value)
    elif isinstance(target, PropBranch):
        if payload % 3 == 0:
            target.notes.append(payload)
        elif payload % 3 == 1:
            target.left = PropLeaf(number=payload)
        else:
            target.right = None
    else:
        if payload % 2 == 0:
            target.labels.append(f"l{payload}")
        else:
            target.items.append(PropLeaf(number=payload))


class TestRandomStructureRoundtrips:
    @settings(max_examples=60, deadline=None)
    @given(tree())
    def test_full_checkpoint_roundtrip(self, root):
        driver = FullCheckpoint()
        driver.checkpoint(root)
        table = replay(driver.getvalue(), [])
        recovered = table[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    @settings(max_examples=60, deadline=None)
    @given(
        tree(),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            max_size=12,
        ),
    )
    def test_mutation_history_replays(self, root, history):
        base_driver = FullCheckpoint()
        base_driver.checkpoint(root)
        base = base_driver.getvalue()
        deltas = []
        objects = collect_objects(root)
        for choice, payload in history:
            _mutate(objects, choice, payload)
            objects = collect_objects(root)  # mutations may add objects
            delta = Checkpoint()
            delta.checkpoint(root)
            deltas.append(delta.getvalue())
        recovered = replay(base, deltas)[root._ckpt_id]
        assert structurally_equal(root, recovered, compare_ids=True)

    @settings(max_examples=40, deadline=None)
    @given(tree(), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_delta_records_only_dirty_objects(self, root, choice, payload):
        FullCheckpoint().checkpoint(root)  # clears all flags
        digest_before = state_digest(root)
        objects = collect_objects(root)
        before_ids = {o._ckpt_id for o in objects}
        _mutate(objects, choice, payload)
        delta = Checkpoint()
        delta.checkpoint(root)
        # Mutating anything changes either the digest or at least the
        # delta is bounded by the number of touched + created objects
        # (created = genuinely new ids; a replaced subtree may shrink the
        # reachable set while still adding fresh objects).
        created = sum(
            1
            for o in collect_objects(root)
            if o._ckpt_id not in before_ids
        )
        if delta.size == 0:
            assert state_digest(root) == digest_before
        else:
            from repro.core.inspect import decode_stream

            entries = decode_stream(delta.getvalue())
            assert len(entries) <= 1 + created
