"""The standby dictionary learns a table when its create-table marker is
distributed, so static DBA hashing never waits on another worker."""

from __future__ import annotations

import pytest

from repro.adg import ApplyDistributor, RecoveryWorker
from repro.common import ObjectNotFoundError, TransactionId
from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import Deployment, PrimaryDatabase
from repro.db.applier import PhysicalApplier
from repro.db.catalog import Catalog
from repro.rac.mira import MIRAStandbyCluster, _FilteredDistributor
from repro.redo.records import CVOp, DDLMarkerPayload, ddl_marker_dba
from repro.rowstore import BlockStore
from repro.sim import Scheduler
from repro.txn import TransactionTable

from tests.db.conftest import simple_table_def, small_config
from tests.helpers import batch_of
from tests.naive_batch import ChangeVector, InsertPayload, RedoRecord

X = TransactionId(1, 1)
OBJECT_ID = 777
N_WORKERS = 4


def marker_record(scn, object_id=OBJECT_ID):
    table_def = simple_table_def("U").with_object_ids([("P0", object_id)])
    cv = ChangeVector(
        CVOp.DDL_MARKER, ddl_marker_dba(object_id), object_id, 0, X,
        DDLMarkerPayload("create_table", (object_id,), "U",
                         {"table_def": table_def}),
    )
    return RedoRecord(scn, 1, (cv,))


def insert_record(scn, dba, object_id=OBJECT_ID):
    cv = ChangeVector(
        CVOp.INSERT, dba, object_id, 0, X, InsertPayload(0, (1, 1.0, "a"))
    )
    return RedoRecord(scn, 1, (cv,))


def fresh_applier():
    return PhysicalApplier(Catalog(BlockStore()), TransactionTable())


def run_worker(worker):
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.05)


class TestInstall:
    """The install runs when the distributor routes a batch."""

    def test_data_cv_applies_while_its_marker_waits_elsewhere(self):
        applier = fresh_applier()
        distributor = ApplyDistributor(N_WORKERS, applier)
        marker_worker = ddl_marker_dba(OBJECT_ID) % N_WORKERS
        dba = next(d for d in range(1, 64) if d % N_WORKERS != marker_worker)
        distributor.distribute(
            [batch_of([marker_record(10), insert_record(11, dba)])]
        )
        assert "U" in applier.catalog
        # only the data CV's worker runs: the marker is still queued
        worker = RecoveryWorker(dba % N_WORKERS, distributor, applier)
        run_worker(worker)
        assert worker.cvs_applied == 1 and worker.apply_stalls == 0
        assert distributor.queues[marker_worker]

    def test_unknown_object_raises_from_the_worker(self):
        applier = fresh_applier()
        distributor = ApplyDistributor(1, applier)
        distributor.distribute([batch_of([insert_record(10, dba=5)])])
        with pytest.raises(ObjectNotFoundError):
            run_worker(RecoveryWorker(0, distributor, applier))

    def test_mira_instance_learns_tables_it_owns_none_of(self):
        applier = fresh_applier()
        distributor = _FilteredDistributor(
            2, applier, owns=lambda object_id, dba: False
        )
        distributor.distribute([batch_of([marker_record(10)])])
        assert "U" in applier.catalog
        assert distributor.pending() == 0
        assert distributor.cvs_skipped == 1


def test_create_table_heavy_stream_applies_without_stalls():
    """30 markers, each followed at once by inserts whose blocks hash to
    other workers (113 stalls under hashing before the dictionary moved
    to distribution)."""
    deployment = Deployment.build(
        config=small_config(apply=ApplyConfig(n_workers=N_WORKERS))
    )
    primary = deployment.primary
    for t in range(30):
        deployment.create_table(simple_table_def(f"T{t}"))
        txn = primary.begin()
        for i in range(60):
            primary.insert(txn, f"T{t}", (i, float(i), f"v{i % 5}"))
        primary.commit(txn)
    deployment.catch_up()
    standby = deployment.standby
    assert sum(w.apply_stalls for w in standby.workers) == 0
    snapshot = standby.query_scn.value
    for t in range(30):
        rows = {
            name: sorted(
                values
                for __, values in database.catalog.table(f"T{t}").full_scan(
                    snapshot, database.txn_table
                )
            )
            for name, database in (("standby", standby), ("primary", primary))
        }
        assert rows["standby"] == rows["primary"], t
        assert len(rows["standby"]) == 60


# -- drop then re-create under the same name, SIRA and MIRA ---------------

class SIRA:
    def __init__(self):
        self.deployment = Deployment.build(config=small_config())
        self.primary = self.deployment.primary

    def catch_up(self, timeout):
        self.deployment.catch_up(timeout=timeout)

    def standby_rows(self, name):
        return sorted(self.deployment.standby.query(name).rows)


class MIRA:
    def __init__(self):
        config = SystemConfig(
            imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
            apply=ApplyConfig(n_workers=3),
            rac=RACConfig(primary_instances=2),
        )
        self.sched = Scheduler(seed=config.seed, jitter=0.05)
        self.primary = PrimaryDatabase(config)
        self.primary.attach_actors(self.sched)
        self.cluster = MIRAStandbyCluster(
            self.primary, self.sched, n_instances=2, config=config
        )

    def catch_up(self, timeout):
        target = self.primary.clock.current
        assert self.sched.run_until_condition(
            lambda: self.cluster.query_scn.value >= target, max_time=timeout
        ), f"MIRA lagging: {self.cluster.query_scn.value} < {target}"

    def standby_rows(self, name):
        return sorted(self.cluster.query(name).rows)


@pytest.mark.parametrize("topology", [SIRA, MIRA], ids=["sira", "mira"])
def test_drop_then_recreate_under_the_same_name(topology):
    """The re-create's marker arrives while the old table still holds the
    name (its drop is processed at QuerySCN advancement); it used to be
    skipped by name and the new table's data CVs stalled forever."""
    db = topology()
    primary = db.primary
    primary.create_table(simple_table_def())
    db.catch_up(timeout=60)
    old_ids = primary.catalog.table("T").object_ids
    primary.drop_table("T")
    primary.create_table(simple_table_def())
    txn = primary.begin()
    for i in range(20):
        primary.insert(txn, "T", (i, float(i), f"v{i % 5}"))
    primary.commit(txn)
    db.catch_up(timeout=5)
    expected = sorted(
        values
        for __, values in primary.catalog.table("T").full_scan(
            primary.clock.current, primary.txn_table
        )
    )
    assert len(expected) == 20
    assert db.standby_rows("T") == expected
    catalog = (db.deployment.standby if topology is SIRA else db.cluster).catalog
    assert not any(catalog.has_object(oid) for oid in old_ids)
