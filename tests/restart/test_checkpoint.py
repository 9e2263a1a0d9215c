"""Tests for population checkpoints: capture, store, writer."""

from __future__ import annotations

import numpy as np

from repro.db import Deployment, InMemoryService
from repro.restart.checkpoint import (
    CheckpointStore,
    ObjectCheckpoint,
    UnitCheckpoint,
)

from tests.db.conftest import load, simple_table_def, small_config
from tests.helpers import row_key, row_position


def build_armed_deployment(n=300, heartbeats=True):
    deployment = Deployment.build(
        config=small_config(), heartbeats=heartbeats
    )
    deployment.create_table(simple_table_def())
    rowids, __ = load(deployment, n=n)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    store = deployment.enable_restart_checkpoints()
    deployment.catch_up()
    return deployment, store, rowids


def live_smus(standby, table_name="T"):
    table = standby.catalog.table(table_name)
    units = []
    for object_id in table.object_ids:
        units.extend(standby.imcs.segment(object_id).live_units())
    return units


class TestUnitCheckpoint:
    def test_capture_references_the_live_unit(self):
        """An IMCU never changes once built: the checkpoint holds the unit
        itself, and the SMU's validity as of capture."""
        deployment, __, rowids = build_armed_deployment(n=200)
        smu = live_smus(deployment.standby)[0]
        smu.invalidate_keys([row_key(rowids[1])], smu.imcu.snapshot_scn + 1)
        unit = UnitCheckpoint.capture(smu)
        assert unit.imcu is smu.imcu
        assert unit.imcu._rowids is None  # no address list materialised
        assert np.flatnonzero(unit.invalid_rows).tolist() == [
            row_position(smu.imcu, rowids[1])
        ]
        assert unit.invalid_blocks == smu.invalid_blocks
        assert unit.fully_invalid is False
        assert unit.last_invalidation_scn == smu.last_invalidation_scn

    def test_captured_mask_is_an_owned_copy(self):
        """Post-capture invalidations must not leak into the checkpoint."""
        deployment, __, rowids = build_armed_deployment(n=100)
        smu = live_smus(deployment.standby)[0]
        unit = UnitCheckpoint.capture(smu)
        before = unit.invalid_rows.sum()
        smu.invalidate_fully(smu.imcu.snapshot_scn + 1)
        assert unit.invalid_rows.sum() == before
        assert not unit.fully_invalid


def checkpoint_stub(object_id=1, tenant=0, query_scn=10):
    return ObjectCheckpoint(
        object_id=object_id,
        tenant=tenant,
        query_scn=query_scn,
        tail_start_scn=query_scn + 1,
        units=[],
    )


class TestCheckpointStore:
    def test_latest_capture_replaces_the_one_before(self):
        store = CheckpointStore()
        for scn in (10, 20, 30):
            store.put(checkpoint_stub(query_scn=scn))
        assert store.captures == 3
        assert store.latest(1).query_scn == 30
        assert len(store._by_object) == 1

    def test_coarse_invalidation_discards_tenant(self):
        store = CheckpointStore()
        store.put(checkpoint_stub(object_id=1, tenant=0))
        store.put(checkpoint_stub(object_id=2, tenant=7))
        store.on_coarse_invalidation(0, scn=99)
        assert store.latest(1) is None
        assert store.latest(2) is not None
        assert store.discards == 1

    def test_object_drop_discards_all_versions(self):
        store = CheckpointStore()
        store.put(checkpoint_stub(object_id=5))
        store.put(checkpoint_stub(object_id=5, query_scn=20))
        store.on_object_dropped(5, scn=99)
        assert store.latest(5) is None
        assert len(store._by_object) == 0


class TestCheckpointWriter:
    def test_writer_captures_live_objects(self):
        deployment, store, __ = build_armed_deployment(n=300)
        deployment.run(1.0)  # at least one full capture round
        standby = deployment.standby
        assert store.captures > 0
        for object_id in standby.imcs.enabled_object_ids:
            checkpoint = store.latest(object_id)
            if checkpoint is None:
                continue
            assert checkpoint.n_rows > 0
            # the tail floor can never start above the next-unseen SCN
            assert 0 < checkpoint.tail_start_scn <= checkpoint.query_scn + 1
            assert checkpoint.query_scn <= standby.query_scn.value

    def test_a_capture_round_materialises_no_rowids(self):
        """Capture is O(units) references: a round leaves no ``RowId``
        list cached on any live unit."""
        deployment, store, __ = build_armed_deployment(n=300)
        deployment.run(1.0)  # at least one full capture round
        assert store.captures > 0
        live = live_smus(deployment.standby)
        assert all(smu.imcu._rowids is None for smu in live)
        captured = [
            unit.imcu
            for object_id in deployment.standby.imcs.enabled_object_ids
            for unit in store.latest(object_id).units
        ]
        assert {id(imcu) for imcu in captured} == {
            id(smu.imcu) for smu in live
        }

    def test_writer_idles_while_queryscn_static(self):
        """No new publication => no new capture round (no busy looping)."""
        deployment, store, __ = build_armed_deployment(
            n=100, heartbeats=False
        )
        deployment.run(1.0)
        captured = store.captures
        assert captured > 0
        deployment.run(2.0)  # no redo, no publications
        assert store.captures == captured
