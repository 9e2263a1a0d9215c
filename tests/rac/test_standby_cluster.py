"""Integration tests for a SIRA standby RAC (paper, section III-F)."""

import pytest

from repro.imcs import Expression, Predicate, ScanEngine
from repro.rac import MergedStoreView

from tests.db.conftest import load, simple_table_def, small_config
from repro.db import Deployment, InMemoryService, Service
from repro.fleet import FleetRouter


def build_rac(mira=False):
    deployment = Deployment.build(config=small_config())
    member = deployment.add_standby_cluster(n_instances=2, mira=mira)
    deployment.create_table(simple_table_def(rows_per_block=4))
    load(deployment, n=200)
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    deployment.catch_up()
    return deployment, member


@pytest.fixture
def rac_deployment():
    return build_rac()


class TestClusterPopulation:
    def test_imcus_distributed_across_instances(self, rac_deployment):
        deployment, member = rac_deployment
        per_instance = member.populated_rows()
        assert sum(per_instance.values()) == 200
        populated_instances = [n for n, rows in per_instance.items() if rows]
        assert len(populated_instances) >= 2, (
            f"expected distribution, got {per_instance}"
        )

    def test_no_block_is_double_populated(self, rac_deployment):
        deployment, member = rac_deployment
        oid = deployment.standby.catalog.table("T").object_ids[0]
        seen = set()
        for instance in member.instances:
            store = instance.imcs
            if not store.is_enabled(oid):
                continue
            for smu in store.segment(oid).live_units():
                for dba in smu.imcu.covered_dbas:
                    assert dba not in seen, f"dba {dba} populated twice"
                    seen.add(dba)


class TestClusterQueries:
    def test_cluster_scan_matches_rowstore(self, rac_deployment):
        deployment, member = rac_deployment
        result = member.query("T", [Predicate.eq("c1", "v3")])
        assert len(result.rows) == 40
        assert result.stats.imcus_used >= 2  # units from both instances

    def test_member_queries_share_one_scan_engine(self, rac_deployment):
        """Repeat member queries run on the engine built at scale-out and
        reuse its uncovered-block list; each answer equals a fresh
        engine's, also after a repopulation swap on the peer."""
        deployment, member = rac_deployment
        engine = member.scan_engine
        table = deployment.standby.catalog.table("T")
        segment = table.default_partition.segment
        peer = member.peers[0]
        shape = ([Predicate.eq("c1", "v3")], ["id", "n1"])

        def check():
            fresh = ScanEngine(
                MergedStoreView([i.imcs for i in member.instances]),
                deployment.standby.txn_table,
            ).scan(table, member.published_scn, *shape)
            assert member.query("T", *shape).rows == fresh.rows
            uncovered = engine._uncovered[segment]
            assert member.query("T", *shape).rows == fresh.rows
            assert engine._uncovered[segment] is uncovered
            assert member.scan_engine is engine

        check()
        repopulations = peer.population.repopulations
        index = deployment.primary.catalog.table("T").indexes["id"]
        txn = deployment.primary.begin()
        for i in range(0, 200, 2):
            rowid = index.search(i)
            deployment.primary.update(txn, "T", rowid, {"n1": -7.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        assert deployment.sched.run_until_condition(
            lambda: peer.population.repopulations > repopulations,
            max_time=5.0,
        )
        check()

    def test_member_query_on_an_inmemory_expression(self, rac_deployment):
        """A member scan resolves the master's In-Memory Expressions: its
        answer equals the single instance's, a peer unit without the
        materialised column answering from the row store."""
        deployment, member = rac_deployment
        standby = deployment.standby
        standby.add_inmemory_expression("T", Expression(
            "twice", ("n1",), lambda n: None if n is None else 2 * n,
        ))
        deployment.catch_up()
        shape = ([Predicate.gt("twice", 300)], ["id", "twice"])
        expected = standby.query("T", *shape).rows
        assert len(expected) == 49
        result = member.query("T", *shape)
        assert sorted(result.rows) == sorted(expected)
        assert result.stats.imcus_unusable >= 1  # the peer's units

    def test_satellite_instance_snapshot(self, rac_deployment):
        """The member scans at the lowest QuerySCN any of its instances
        has published, so the peer's SMUs cover it."""
        deployment, member = rac_deployment
        peer = member.peers[0]
        assert member.published_scn == min(
            deployment.standby.query_scn.value, peer.query_scn.value
        )
        result = member.query("T")
        assert len(result.rows) == 200


@pytest.mark.parametrize("mira", [False, True], ids=["sira", "mira"])
class TestEveryReadPathReadsEveryInstance:
    """A fully populated member answers from its IMCUs on every read
    path, never from the row store for the blocks a peer homes."""

    @staticmethod
    def record_scans(monkeypatch):
        """The stats of every ``ScanEngine.scan`` from here on."""
        stats = []
        scan = ScanEngine.scan

        def recording(self, *args, **kwargs):
            result = scan(self, *args, **kwargs)
            stats.append(result.stats)
            return result

        monkeypatch.setattr(ScanEngine, "scan", recording)
        return stats

    @staticmethod
    def session(deployment):
        router = FleetRouter(deployment)
        router.registry.create("reports", Service.STANDBY_ONLY)
        return router.connect("reports")

    def test_query_service_scan(self, mira):
        deployment, member = build_rac(mira)
        deployment.start_query_service(n_workers=2)
        result = member.query_service.scan("T")
        assert result.stats.rowstore_rows == 0
        assert result.stats.imcs_rows == 200
        assert result.rows == member.query("T").rows

    def test_sql_projection(self, mira, monkeypatch):
        deployment, member = build_rac(mira)
        session = self.session(deployment)
        scans = self.record_scans(monkeypatch)
        rows = session.execute("SELECT id, n1 FROM T WHERE c1 = 'v3'")
        assert [(s.imcs_rows, s.rowstore_rows) for s in scans] == [(200, 0)]
        expected = member.query("T", [Predicate.eq("c1", "v3")], ["id", "n1"])
        assert rows == expected.rows

    def test_sql_aggregate(self, mira, monkeypatch):
        deployment, member = build_rac(mira)
        session = self.session(deployment)
        scans = self.record_scans(monkeypatch)
        got = session.execute("SELECT COUNT(*), SUM(n1) FROM T")
        assert [(s.imcs_rows, s.rowstore_rows) for s in scans] == [(200, 0)]
        primary = deployment.primary
        n1 = [
            values[1] for __, values in primary.catalog.table("T").full_scan(
                member.published_scn, primary.txn_table
            )
        ]
        assert got == [len(n1), sum(n1)]


class TestRemoteInvalidation:
    def test_update_reaches_remote_smu(self, rac_deployment):
        deployment, member = rac_deployment
        # touch many rows so both instances receive invalidations
        table = deployment.primary.catalog.table("T")
        txn = deployment.primary.begin()
        targets = []
        for i in range(0, 200, 5):
            rowid = table.indexes["id"].search(i)
            deployment.primary.update(txn, "T", rowid, {"n1": -9.0})
            targets.append(i)
        deployment.primary.commit(txn)
        deployment.catch_up()
        assert deployment.standby.flush.router.groups_routed_remote >= 1
        assert all(peer.groups_received >= 1 for peer in member.peers)
        result = member.query("T", [Predicate.eq("n1", -9.0)])
        assert sorted(r[0] for r in result.rows) == targets

    def test_satellite_queryscn_follows_master(self, rac_deployment):
        """Peers trail the master only by in-flight publications: every
        value they expose was published by the master, and once redo goes
        quiet they converge exactly."""
        deployment, member = rac_deployment
        published = {scn for __, scn in deployment.standby.query_scn.history}
        for peer in member.peers:
            assert peer.query_scn.value in published
        master_scn = deployment.standby.query_scn.value
        deployment.sched.run_until_condition(
            lambda: all(
                p.query_scn.value >= master_scn for p in member.peers
            ),
            max_time=5.0,
        )
        for peer in member.peers:
            assert peer.query_scn.value >= master_scn

    def test_batching_limits_message_count(self, rac_deployment):
        deployment, member = rac_deployment
        interconnect = deployment.standby.flush.router.interconnect
        before = interconnect.messages_sent
        txn = deployment.primary.begin()
        table = deployment.primary.catalog.table("T")
        for i in range(100):
            rowid = table.indexes["id"].search(i)
            deployment.primary.update(txn, "T", rowid, {"n1": -3.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        sent = interconnect.messages_sent - before
        # batching: far fewer messages than invalidated rows (plus acks
        # and QuerySCN publications, which dominate the remainder)
        assert sent < 100

    def test_cluster_consistency_under_mixed_dml(self, rac_deployment):
        deployment, member = rac_deployment
        table = deployment.primary.catalog.table("T")
        txn = deployment.primary.begin()
        for i in range(0, 50, 3):
            rowid = table.indexes["id"].search(i)
            deployment.primary.update(txn, "T", rowid, {"c1": "upd"})
        deployment.primary.commit(txn)
        txn = deployment.primary.begin()
        for i in range(1, 30, 7):
            rowid = table.indexes["id"].search(i)
            deployment.primary.delete(txn, "T", rowid)
        deployment.primary.commit(txn)
        load(deployment, n=13, start=9000)
        deployment.catch_up()

        snapshot = member.published_scn
        got = sorted(member.query("T").rows)
        expected = sorted(
            values
            for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        assert got == expected


@pytest.mark.parametrize("mira", [False, True], ids=["sira", "mira"])
def test_truncate_drops_units_on_every_instance(mira):
    """A DDL marker drops the object's units on every instance's store.
    Under SIRA it used to drop them on the master only: the peer kept its
    populated rows and the member scan served the wiped rows."""
    deployment, member = build_rac(mira)
    assert all(rows for rows in member.populated_rows().values())
    deployment.primary.truncate_table("T")
    deployment.catch_up()
    assert member.populated_rows() == {1: 0, 2: 0}
    snapshot = member.published_scn
    table = deployment.primary.catalog.table("T")
    assert list(table.full_scan(snapshot, deployment.primary.txn_table)) == []
    assert member.query("T").rows == []
