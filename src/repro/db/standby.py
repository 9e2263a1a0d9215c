"""The physical standby database.

Wires together every component of sections II-A and III:

* inbound redo (:class:`~repro.redo.shipping.RedoReceiver`), the log
  merger, the apply distributor, N recovery workers and the recovery
  coordinator publishing the QuerySCN;
* the DBIM-on-ADG components: the mining component installed as the
  workers' batch sniffer, the IM-ADG Journal / Commit Table / DDL Information
  Table, and the invalidation flush component installed as the
  coordinator's advance protocol (with cooperative flush hooks on the
  workers);
* the standby's own IMCS, populated only at published QuerySCNs;
* a recovered transaction table, fed exclusively by applied control CVs,
  backing Consistent Read for standby queries.

The standby is strictly read-only: its public query API scans at the
current QuerySCN, which the advancement protocol guarantees is covered by
all flushed invalidations -- the precondition the scan engine relies on.

``restart()`` models the paper's section III-E scenario: all DBIM-on-ADG
state is volatile ("the IMCS has no persistent footprint other than the
underlying row-store objects"), while the row store and apply progress
survive.
"""

from __future__ import annotations

from typing import Optional

from repro.adg.apply import ApplyDistributor, RecoveryWorker
from repro.adg.coordinator import RecoveryCoordinator
from repro.adg.merger import LogMerger
from repro.adg.queryscn import QuerySCNPublisher
from repro.common.config import SystemConfig
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.flush import InvalidationFlushComponent
from repro.dbim_adg.journal import IMADGJournal
from repro.dbim_adg.mining import MiningComponent
from repro.obs.restart import record_restart
from repro.restart.replay import RestartReport, instant_restart
from repro.redo.shipping import RedoReceiver
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Scheduler
from repro.db.applier import PhysicalApplier
from repro.db.features import Database


class StandbyInstance:
    """What every instance of a standby runs: an IMCS populated at the
    instance's published QuerySCN (paper, III-A).  An apply instance adds
    recovery workers with DBIM-on-ADG mining beside them (III-B, III-C).
    The host sets ``config``, ``node``, ``imcs``, ``query_scn`` and
    ``population``."""

    #: Instance number inside a RAC standby; the apply master is 1.
    instance_id = 1

    #: No population below this QuerySCN: a restart forgets the
    #: invalidations mined from redo it had already merged, so a unit
    #: built below that redo would hold rows nothing will invalidate.
    population_floor: SCN = 0

    def _capture_snapshot(self) -> Optional[SCN]:
        """Population snapshot = the current published QuerySCN (paper,
        III-A).  A publication is one scheduler step and so is this
        capture: the quiesce period can never be observed mid-flight."""
        if self.query_scn.value == 0:
            return None  # no consistency point published yet
        if self.query_scn.value < self.population_floor:
            return None  # a restart's forgotten redo is not yet published
        return self.query_scn.value

    def _init_mining(self) -> None:
        """This instance's IM-ADG Journal, Commit Table, DDL Information
        Table and the Mining Component that fills them."""
        # four sorted commit-table partitions remove the single-list
        # insertion bottleneck (III-D-1)
        self.journal = IMADGJournal()
        self.commit_table = IMADGCommitTable(4)
        self.ddl_table = DDLInformationTable()
        self.miner = MiningComponent(
            self.journal, self.commit_table, self.ddl_table, self.imcs
        )

    def _recovery_workers(
        self,
        distributor: ApplyDistributor,
        applier: PhysicalApplier,
        flush: InvalidationFlushComponent,
    ) -> list[RecoveryWorker]:
        """Workers that mine into this instance's journal and, unless the
        cooperative-flush ablation is off, help drain ``flush``'s worklink
        (paper III-D-2)."""
        apply_cfg = self.config.apply
        flush_helper = (
            flush.worker_flush if apply_cfg.cooperative_flush else None
        )
        workers = [
            RecoveryWorker(
                i,
                distributor,
                applier=applier,
                batch_sniffer=self.miner.sniff_chunk,
                flush_helper=flush_helper,
                batch=apply_cfg.worker_batch,
                flush_batch=apply_cfg.cooperative_flush_batch,
                node=self.node,
                cost_per_cv=apply_cfg.apply_cost_per_cv,
                name=f"{self.node.name}-recovery-worker-{i}",
            )
            for i in range(apply_cfg.n_workers)
        ]
        if flush_helper is not None:
            flush.waiters.extend(workers)
        return workers


class StandbyDatabase(Database, StandbyInstance):
    """One standby instance (the apply master of a RAC standby)."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        node: Optional[CpuNode] = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.node = node or CpuNode("standby-1", n_cpus=16)
        # the row store ("datafiles" + recovered dictionary), the IMCS and
        # population at the QuerySCN (StandbyInstance._capture_snapshot)
        self._mount()
        self.applier = PhysicalApplier(self.catalog, self.txn_table)

        # --- media recovery pipeline -------------------------------------
        apply_cfg = self.config.apply
        self.receiver = RedoReceiver()
        # actors are named after the node, so N standbys can share one
        # scheduler without name collisions
        prefix = self.actor_prefix = self.node.name
        self.merger = LogMerger(
            self.receiver, node=self.node, name=f"{prefix}-log-merger"
        )
        self.distributor = ApplyDistributor(apply_cfg.n_workers, self.applier)
        self.query_scn = QuerySCNPublisher()

        # --- DBIM-on-ADG components -------------------------------------
        self._init_mining()
        self.flush = InvalidationFlushComponent(
            self.journal,
            self.commit_table,
            self.ddl_table,
            self.imcs,
            ddl_applier=self.applier.apply_ddl,
        )
        self.workers = self._recovery_workers(
            self.distributor, self.applier, self.flush
        )
        self.coordinator = RecoveryCoordinator(
            self.merger,
            self.distributor,
            self.workers,
            self.query_scn,
            self.flush,
            interval=apply_cfg.coordinator_interval,
            flush_batch=apply_cfg.coordinator_flush_batch,
            node=self.node,
            name=f"{prefix}-recovery-coordinator",
        )
        self.restarts = 0
        self.instant_restarts = 0
        # --- instant restart (opt-in, see enable_restart_checkpoints) ----
        #: Population checkpoint store, or None for cold restarts only.
        self.checkpoint_store = None
        #: (lo_scn, hi_scn) -> redo records, for tail replay at restart.
        self.redo_tail_fetch = None
        #: Report of the most recent restart (None before the first).
        self.last_restart_report = None

    def query_snapshot(self) -> SCN:
        return self.query_scn.value

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def attach_actors(self, sched: Scheduler) -> None:
        """Schedule this standby's pipeline and population workers."""
        for actor in (
            self.merger, self.coordinator, *self.workers,
            *self.population.workers(self.node.name, self.node),
        ):
            self.attach_actor(sched, actor)

    @property
    def mounted(self) -> bool:
        """Whether the pipeline is scheduled: ``attach_actors`` ran and
        ``detach_actors`` (standby loss, failover) has not."""
        return bool(self._actors)

    # ------------------------------------------------------------------
    # instance restart (paper, III-E / instant restart, repro.restart)
    # ------------------------------------------------------------------
    def enable_restart_checkpoints(
        self, store, redo_tail_fetch
    ) -> None:
        """Arm the instant-restart path (:mod:`repro.restart`).

        ``store`` is a :class:`~repro.restart.checkpoint.CheckpointStore`
        (registered as an invalidation listener so coarse invalidations
        and DDL drops discard superseded checkpoints); ``redo_tail_fetch``
        resolves ``(lo_scn, hi_scn)`` to the redo records of the tail.
        """
        self.checkpoint_store = store
        self.redo_tail_fetch = redo_tail_fetch
        self.flush.add_invalidation_listener(store)

    def restart(self, cold: bool = False) -> None:
        """Bounce the instance: every DBIM-on-ADG structure is volatile.

        The row store, the recovered transaction table (rebuilt from redo
        in reality; its content is exactly reproducible, so it stays) and
        the apply pipeline's positions survive; the journal, commit table,
        DDL information table, every IMCU and all queued population work
        are lost.  Redo that was mined-but-not-flushed before the restart
        is what the section III-E coarse-invalidation protocol exists for.
        The restart queues population of every enabled block afresh; it
        captures nothing until the QuerySCN reaches the redo merged before
        the bounce (``population_floor``).

        With :meth:`enable_restart_checkpoints` armed (and ``cold=False``)
        the instant path reinstalls a warm IMCS from the latest population
        checkpoints and re-mines only the redo tail instead of coarse-
        invalidate-and-repopulate; see :mod:`repro.restart.replay`.
        """
        # An in-flight advancement's target was computed against the
        # pre-restart commit table; publishing it after the clear would
        # skip every invalidation the tail replay re-mines below it.
        self.coordinator.reset_advance()
        self.population_floor = self.merger.merged_through_scn
        self.journal.clear()
        self.commit_table.clear()
        self.ddl_table.clear()
        self.flush.clear()
        self.miner.clear()
        # Queued chunks were mined into the (now cleared) journal:
        # everything not yet applied must be re-mined.
        for queue in self.distributor.queues:
            for chunk in queue:
                chunk.reset_mining()
        for segment in list(self.imcs.segments()):
            self.imcs.drop_units(segment.object_id)
            segment.pending.clear()
        store = self.checkpoint_store
        if cold or store is None or self.redo_tail_fetch is None:
            if store is not None:
                # checkpoints never outlive the incarnation that captured
                # them: the cleared journal breaks their tail-floor proof
                store.clear()
            report = RestartReport(mode="cold")
        else:
            report = instant_restart(
                self, store, self.redo_tail_fetch, self.config.restart
            )
        self.last_restart_report = report
        record_restart(report)
        if report.mode == "instant":
            self.instant_restarts += 1
        self.population.reset()
        self.population.schedule_all()
        self.restarts += 1
