"""DBLog-style chunked backfill: watermark windows, de-dup, DDL mid-cut."""

from __future__ import annotations

from repro import obs
from repro.cdc import BACKFILL, UPSERT, CollectingSubscriber
from repro.chaos import sites

from tests.cdc.test_egress import (
    build_cdc_deployment,
    drain,
    standby_rows,
)


class TestChunkedBackfill:
    def test_preexisting_rows_arrive_via_chunks(self):
        with obs.collecting(obs.MetricsRegistry()):
            deployment, egress, replica, __ = build_cdc_deployment(n=40)
        events = CollectingSubscriber()
        deployment.member().cdc.subscribe(events, name="collector")
        drain(deployment, egress)
        assert replica.rows("T") == standby_rows(deployment)
        assert egress.backfill_rows == 40
        # chunk windows are block-granular: 40 rows / 8 per block over
        # chunk_blocks=4 means at least two windows ran
        assert egress.backfill_chunks >= 2
        backfilled = [e for e in events.events if e.source == BACKFILL]
        assert len(backfilled) == 40
        assert all(e.kind == UPSERT for e in backfilled)
        # every chunk selected at its high watermark: a published cut
        published = {scn for __, scn in
                     deployment.standby.query_scn.history}
        assert {e.scn for e in backfilled} <= published
        # the cut-window histogram observed every window
        assert egress._cut_window.stats()["count"] == egress.backfill_chunks

    def test_live_wins_dedup_inside_window(self):
        """A row touched by a live event while the watermark window is
        open must not be re-emitted by the chunk select (the DBLog
        de-dup rule) -- the live event already carries its state at an
        equal-or-newer certified cut."""
        deployment, egress, replica, rowids = build_cdc_deployment(n=40)
        # let the pump open the first watermark window...
        deployment.run(0.005)
        # ...then commit a change to a first-chunk row inside it
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -7.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert egress.backfill_deduped >= 1
        assert egress.backfill_rows + egress.backfill_deduped == 40
        assert replica.rows("T") == standby_rows(deployment)

    def test_tail_inserts_covered_by_live_path(self):
        """Blocks that materialise after the backfill started are the
        live path's responsibility -- the combination still converges."""
        deployment, egress, replica, __ = build_cdc_deployment(n=24)
        primary = deployment.primary
        for burst in range(3):
            txn = primary.begin()
            for i in range(6):
                primary.insert(
                    txn, "T", (5000 + burst * 10 + i, float(i), "tail")
                )
            primary.commit(txn)
            deployment.run(0.03)
        deployment.catch_up()
        drain(deployment, egress)
        assert len(replica.rows("T")) == 24 + 18
        assert replica.rows("T") == standby_rows(deployment)

    def test_truncate_mid_backfill_restarts_chunk_walk(self):
        """DDL mid-cut: the resync abandons the open window and the
        finished chunks, re-certifying the object from scratch."""
        deployment, egress, replica, __ = build_cdc_deployment(n=48)
        # run just far enough for some chunks to finish, not all
        assert deployment.sched.run_until_condition(
            lambda: egress.backfill_chunks >= 1, max_time=10.0
        )
        assert not egress.drained
        deployment.primary.truncate_table("T")
        txn = deployment.primary.begin()
        for i in range(7):
            deployment.primary.insert(txn, "T", (8000 + i, float(i), "re"))
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert egress.resyncs >= 1
        assert len(replica.rows("T")) == 7
        assert replica.rows("T") == standby_rows(deployment)

    def test_backfill_chaos_stall_and_delay_still_converge(self):
        registry = sites.SiteRegistry()
        with sites.recording(registry):
            deployment, egress, replica, rowids = build_cdc_deployment(n=40)

        class StormInjector:
            """Stall the first window opens, delay the first close."""

            opens = 0
            closes = 0

            def decide(self, site, event, context):
                if event == "open" and self.opens < 3:
                    self.opens += 1
                    return sites.Decision(sites.Action.STALL)
                if event == "close" and self.closes < 1:
                    self.closes += 1
                    return sites.Decision(sites.Action.DELAY, delay=0.05)
                return sites.PROCEED

        injector = StormInjector()
        registry.install("cdc.backfill", injector)
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[3], {"n1": -2.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        drain(deployment, egress)
        assert injector.opens == 3 and injector.closes == 1
        assert replica.rows("T") == standby_rows(deployment)
