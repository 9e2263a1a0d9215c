"""Failover: the standby becomes the primary -- and keeps its IMCS.

ADG's whole purpose is disaster recovery ("Disaster recoverability is a
function of how quickly the Standby database can sync up with the redo
logs being pushed by the Primary database"), and one under-appreciated
consequence of DBIM-on-ADG is that after a role transition the *already
populated* standby column store carries straight over into the new
primary role: analytics keep their speed through the failover instead of
waiting for a cold re-population.

:func:`failover` performs the transition:

1. **terminal recovery** -- drain every received record through merge,
   apply and invalidation flush, publishing the final QuerySCN (nothing
   shipped is lost);
2. **activation** -- build a :class:`~repro.db.primary.PrimaryDatabase`
   over the standby's physical structures (block store, catalog,
   recovered transaction table) with the SCN clock resumed past the final
   QuerySCN and transaction sequences resumed past every recovered
   transaction;
3. **IMCS carry-over** -- the standby's IMCUs/SMUs become the new
   primary's column store; maintenance switches from redo mining to the
   primary's synchronous commit-hook invalidation.  Section-V state
   (join groups, expressions) carries over too.
"""

from __future__ import annotations

from repro.chaos import sites
from repro.common.errors import InvalidStateError
from repro.common.ids import InstanceId
from repro.common.scn import SCNClock
from repro.imcs.population import PopulationEngine
from repro.imcs.scan import ScanEngine
from repro.redo.log import RedoLog
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Scheduler
from repro.txn.manager import TransactionManager
from repro.db.primary import PrimaryDatabase, PrimaryInstance
from repro.db.standby import StandbyDatabase


def terminal_recovery(
    standby: StandbyDatabase, sched: Scheduler, timeout: float = 600.0
) -> int:
    """Apply every received record and publish the final QuerySCN.

    Returns the final QuerySCN.  Raises on timeout (the apply pipeline is
    wedged, which would mean data loss on activation).
    """

    def drained() -> bool:
        if standby.receiver.pending() or standby.merger.pending_merged:
            return False
        if standby.distributor.pending():
            return False
        return standby.query_scn.value >= standby.merger.merged_through_scn

    if not sched.run_until_condition(drained, max_time=timeout):
        raise InvalidStateError("terminal recovery did not complete")
    return standby.query_scn.value


def _next_sequence_for(standby: StandbyDatabase, instance: InstanceId) -> int:
    """Resume transaction sequences past every recovered transaction."""
    highest = 0
    for xid in standby.txn_table._states:
        if xid.instance == instance and xid.sequence > highest:
            highest = xid.sequence
    return highest + 1


def activate(
    standby: StandbyDatabase,
    sched: Scheduler,
    n_instances: int = 1,
) -> PrimaryDatabase:
    """Open the (terminal-recovered) standby read-write as a new primary."""
    config = standby.config
    primary = PrimaryDatabase.__new__(PrimaryDatabase)
    primary.config = config
    primary.clock = SCNClock(start=max(standby.query_scn.value, 1) + 1)
    primary.txn_table = standby.txn_table
    primary.block_store = standby.block_store
    primary.buffer_cache = standby.buffer_cache
    primary.catalog = standby.catalog
    primary.imcs_enabled_objects = set(standby.imcs.enabled_object_ids)
    primary.instances = []
    primary._actors = []
    for i in range(1, n_instances + 1):
        node = CpuNode(f"activated-primary-{i}", n_cpus=16)
        log = RedoLog(thread=i)
        manager = TransactionManager(
            instance=i,
            clock=primary.clock,
            txn_table=primary.txn_table,
            redo_log=log,
            imcs_enabled_objects=primary.imcs_enabled_objects,
            specialized_commit_redo=config.journal.specialized_commit_redo,
        )
        manager._next_sequence = _next_sequence_for(standby, i)
        manager.on_commit.append(primary._dbim_commit_hook)
        primary.instances.append(PrimaryInstance(i, manager, log, node))

    # the column store survives the role transition
    primary.imcs = standby.imcs
    primary.population = PopulationEngine(
        primary.imcs,
        primary.txn_table,
        snapshot_capture=lambda owner: primary.clock.current,
        config=config.imcs,
    )
    primary.scan_engine = ScanEngine(primary.imcs, primary.txn_table)
    # section-V feature state carries over
    primary.join_groups = standby.join_groups
    primary._join_executor = standby._join_executor
    primary._aggregator = standby._aggregator
    # rebind the executors' scan engines to the new role's engine
    primary._join_executor.scan_engine = primary.scan_engine
    primary._aggregator.scan_engine = primary.scan_engine
    return primary


def failover(
    standby: StandbyDatabase,
    sched: Scheduler,
    n_instances: int = 1,
    timeout: float = 600.0,
) -> PrimaryDatabase:
    """Terminal recovery + activation; detaches the apply pipeline."""
    chaos = sites.declare("db.failover", owner=standby)
    if chaos.injectors is not None:
        decision = chaos.consult("begin", query_scn=standby.query_scn.value)
        if decision.action is sites.Action.DELAY and decision.delay > 0:
            # failure detection / decision lag before the role transition
            sched.run_for(decision.delay)
    terminal_recovery(standby, sched, timeout)
    if chaos.injectors is not None:
        chaos.consult("terminal_recovered", query_scn=standby.query_scn.value)
    # the old primary is gone: the apply pipeline stops, and so do the
    # standby's population workers -- the activated primary runs its
    # own, with current-SCN snapshots instead of QuerySCN ones
    standby.detach_actors(sched)
    primary = activate(standby, sched, n_instances)
    primary.attach_actors(sched, heartbeats=False)
    primary.attach_undo_retention(sched)
    if chaos.injectors is not None:
        chaos.consult("activated", query_scn=standby.query_scn.value)
    return primary
