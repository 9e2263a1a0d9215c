"""Property: a block's version store answers like one object per version.

``DataBlock`` keeps every slot's version chain in append-only per-block
columns (``values`` / ``xids`` / ``scns`` / ``prev``) linked by index, with
a head per slot; ``tests/naive_versions.py`` keeps the displaced layout --
a ``VersionChain`` list of ``RowVersion`` objects per slot -- as the
oracle.  Hypothesis feeds one random sequence of block operations to both:
primary appends and rewrites, standby applies with gaps, UNDO, whole
transaction rollback, undo-retention pruning and TRUNCATE's per-version
wipe.  After every operation the two must agree on

* what the operation returned (or raised),
* every slot's chain, read back through :func:`chain_of`,
* Consistent Read at every SCN -- ``SnapshotTooOldError`` included --
  through both the per-row
  ``visible_values`` and the one-pass ``visible_values_batch``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import SnapshotTooOldError, TransactionId
from repro.rowstore import DataBlock
from repro.rowstore.cr import visible_values, visible_values_batch

from tests.naive_versions import (
    NaiveBlock,
    VersionChain,
    chain_of,
    visible_version,
)

CAPACITY = 5
WRITERS = [TransactionId(1, n) for n in range(1, 5)]
KINDS = (
    "append_row", "write_slot", "apply_at_slot", "apply_at_slot",
    "undo_write", "prune_undo", "wipe_through",
)


class Txns:
    def __init__(self, commits):
        self.commits = commits

    def commit_scn_of(self, xid):
        return self.commits.get(xid)


def outcome(call):
    """What a call returned, or the type of what it raised."""
    try:
        return call()
    except (IndexError, RuntimeError, SnapshotTooOldError) as error:
        return type(error)


def oracle_values(chain, scn, txns):
    version = visible_version(chain, scn, txns)
    return None if version is None else version.values


def assert_same(block, naive, txns, top):
    assert block.used_slots == naive.used_slots
    slots = range(CAPACITY + 1)  # one beyond capacity: always empty
    for slot in slots:
        expected = (
            naive.chains[slot] if slot < naive.used_slots else VersionChain()
        )
        assert chain_of(block, slot) == expected
    for scn in range(top + 2):
        for slot in slots:
            chain = chain_of(block, slot)
            assert outcome(
                lambda: visible_values(block, slot, scn, txns)
            ) == outcome(lambda: oracle_values(chain, scn, txns))
        per_row = [
            outcome(lambda: visible_values(block, slot, scn, txns))
            for slot in slots
        ]
        batch = outcome(
            lambda: visible_values_batch([(block, slots)], scn, txns, {})
        )
        if SnapshotTooOldError in per_row:
            assert batch is SnapshotTooOldError
        else:
            assert batch == per_row


@st.composite
def operations(draw):
    kind = draw(st.sampled_from(KINDS))
    slot = draw(st.integers(0, CAPACITY))
    xid = draw(st.sampled_from(WRITERS))
    tombstone = draw(st.integers(0, 4)) == 0
    keep = draw(st.integers(1, 3))
    back = draw(st.integers(0, 6))  # the wipe's distance below the clock
    return kind, slot, xid, tombstone, keep, back


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(operations(), max_size=30),
    commits=st.lists(
        st.one_of(st.none(), st.integers(0, 35)),
        min_size=len(WRITERS), max_size=len(WRITERS),
    ),
)
def test_block_versions_equal_the_object_chains(ops, commits):
    txns = Txns(
        {xid: scn for xid, scn in zip(WRITERS, commits) if scn is not None}
    )
    block = DataBlock(1, 9, CAPACITY)
    naive = NaiveBlock(CAPACITY)
    scn = 0
    for kind, slot, xid, tombstone, keep, back in ops:
        scn += 1
        values = None if tombstone and kind != "append_row" else (scn,)
        if kind == "append_row":
            args = (values, xid, scn)
        elif kind in ("write_slot", "apply_at_slot"):
            args = (slot, values, xid, scn)
        elif kind == "undo_write":
            args = (slot, xid)
        elif kind == "prune_undo":
            args = (keep,)
        else:
            args = (max(scn - back, 0),)
        ours = outcome(lambda: getattr(block, kind)(*args))
        theirs = outcome(lambda: getattr(naive, kind)(*args))
        if kind == "append_row" and ours is not RuntimeError:
            ours = ours.slot  # a RowId; the oracle answers the slot alone
        assert ours == theirs, kind
        assert_same(block, naive, txns, scn)
