"""A unique index refuses a second row with a key already present.

The index is one dict of current keys, so accepting a duplicate would
silently re-point the key at the newer row: deleting that row later left
the older, still live row unreachable through the index.  The primary now
refuses the statement before it writes the block or any redo.
"""

import pytest

from repro.db import ColumnDef, Deployment, TableDef
from repro.rowstore.index import UniqueViolationError


@pytest.fixture
def deployment():
    deployment = Deployment.build()
    deployment.create_table(TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.number("k"),
        ),
        indexes=("id", "k"),
    ))
    return deployment


def committed(primary, *rows):
    txn = primary.begin()
    rowids = [primary.insert(txn, "T", row) for row in rows]
    primary.commit(txn)
    return rowids


def test_insert_of_a_present_key_is_refused_before_redo(deployment):
    primary = deployment.primary
    (first,) = committed(primary, (1, 1.0, None))
    log = primary.redo_logs[0]
    txn = primary.begin()
    before = len(log)
    with pytest.raises(UniqueViolationError):
        primary.insert(txn, "T", (1, 2.0, None))
    assert len(log) == before
    primary.commit(txn)
    # the roadmap's repro: deleting the row the index points at used to
    # leave (1, 1.0) live but unreachable
    assert primary.index_fetch("T", "id", 1) == (1, 1.0, None)
    txn = primary.begin()
    primary.delete(txn, "T", first)
    primary.commit(txn)
    assert primary.index_fetch("T", "id", 1) is None
    assert primary.query("T").rows == []
    deployment.catch_up()
    assert deployment.standby.query("T").rows == []


def test_update_onto_another_rows_key_is_refused(deployment):
    primary = deployment.primary
    __, second = committed(primary, (1, 1.0, 10), (2, 2.0, 20))
    txn = primary.begin()
    with pytest.raises(UniqueViolationError):
        primary.update(txn, "T", second, {"k": 10})
    primary.update(txn, "T", second, {"k": 20, "n1": 3.0})  # its own key
    primary.commit(txn)
    assert primary.index_fetch("T", "k", 10) == (1, 1.0, 10)
    assert primary.index_fetch("T", "k", 20) == (2, 3.0, 20)
    deployment.catch_up()
    assert sorted(deployment.standby.query("T").rows) == [
        (1, 1.0, 10), (2, 3.0, 20),
    ]


def test_null_keys_never_conflict(deployment):
    primary = deployment.primary
    committed(primary, (1, 1.0, None), (2, 2.0, None))
    assert len(primary.query("T").rows) == 2
