"""Quickstart: make classes checkpointable, checkpoint incrementally, recover.

Run with::

    python examples/quickstart.py

Walks through the whole core API on a small order-book-like structure:

1. declare checkpointable classes with field descriptors,
2. open a :class:`~repro.runtime.session.CheckpointSession` over the root
   and take a base (full) checkpoint,
3. mutate a few objects — the framework tracks modification flags
   automatically — and commit incremental delta epochs,
4. "crash", and rebuild the exact state from base + deltas via the
   session's recovery line.

Everything flows through the session: the strategy (here the generic
incremental driver) produces each epoch's bytes, and the store — an
in-process :class:`~repro.core.storage.MemoryStore` — keeps them the way
a durable one would (pass a directory path as ``sink=`` instead to
persist across processes).
"""

from repro import (
    CheckpointSession,
    Checkpointable,
    MemoryStore,
    child,
    child_list,
    scalar,
    scalar_list,
)
from repro.core.restore import structurally_equal


# -- 1. declare the checkpointable state ------------------------------------
# Every assignment through a declared field marks its object modified; the
# framework generates record/fold/restore methods per class.


class Position(Checkpointable):
    symbol = scalar("str")
    quantity = scalar("int")
    price = scalar("float")


class Account(Checkpointable):
    owner = scalar("str")
    cash = scalar("float")
    positions = child_list(Position)
    audit = scalar_list("int")


class Exchange(Checkpointable):
    name = scalar("str")
    accounts = child_list(Account)
    best_account = child(Account)


def build_exchange() -> Exchange:
    exchange = Exchange(name="DSN-2000")
    for owner in ("julia", "gilles", "compose"):
        account = Account(owner=owner, cash=1000.0)
        account.positions.append(Position(symbol="JVM", quantity=10, price=99.5))
        account.positions.append(Position(symbol="SPEC", quantity=5, price=42.0))
        exchange.accounts.append(account)
    # alias-ok: best_account points into accounts under the same root
    exchange.best_account = exchange.accounts[0]
    return exchange


def main() -> None:
    exchange = build_exchange()
    root_id = exchange.get_checkpoint_info().object_id

    # -- 2. open a session; the base records every reachable object ----------
    session = CheckpointSession(roots=exchange, sink=MemoryStore())
    base = session.base()
    print(f"base checkpoint: {base.size} bytes")

    # -- 3. mutate and commit incremental delta epochs -----------------------
    exchange.accounts[1].cash = 1250.0  # one scalar write -> one dirty object
    exchange.accounts[1].audit.append(1)
    delta1 = session.commit()
    print(f"delta 1 (one account touched): {delta1.size} bytes")

    exchange.accounts[2].positions[0].quantity = 11
    # alias-ok: the pointer retargets within the same recorded root
    exchange.best_account = exchange.accounts[2]  # child pointer change
    delta2 = session.commit()
    print(f"delta 2 (position + root pointer): {delta2.size} bytes")

    # An incremental commit with nothing modified is (almost) free.
    empty = session.commit()
    print(f"delta with no modifications: {empty.size} bytes")

    # -- 4. crash and recover -------------------------------------------------
    # The store holds the recovery line: the base plus every delta after it.
    table = session.recover()
    recovered = table[root_id]

    assert isinstance(recovered, Exchange)
    assert recovered.accounts[1].cash == 1250.0
    assert recovered.accounts[2].positions[0].quantity == 11
    assert recovered.best_account is recovered.accounts[2]
    assert structurally_equal(exchange, recovered, compare_ids=True)
    print("recovered state is identical to the live state")


if __name__ == "__main__":
    main()
