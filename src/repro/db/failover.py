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
2. **activation** -- a :class:`~repro.db.primary.PrimaryDatabase`
   mounted over the standby's core: block store, catalog, recovered
   transaction table and the populated IMCS carry over by
   identity, the SCN clock resumes past the final QuerySCN and transaction
   sequences past every recovered transaction.  IMCS maintenance switches
   from redo mining to the primary's synchronous commit-hook invalidation;
3. **transaction recovery** -- every transaction still open at the
   primary's loss is rolled back.
"""

from __future__ import annotations

from repro.chaos import sites
from repro.common.errors import InvalidStateError
from repro.sim.scheduler import Scheduler
from repro.db.primary import PrimaryDatabase
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


def activate(
    standby: StandbyDatabase,
    sched: Scheduler,
    n_instances: int = 1,
) -> PrimaryDatabase:
    """Open the (terminal-recovered) standby read-write as a new primary."""
    primary = PrimaryDatabase(
        standby.config,
        n_instances,
        mounted=standby,
        start_scn=max(standby.query_scn.value, 1) + 1,
    )
    _roll_back_losers(primary)
    return primary


def _roll_back_losers(primary: PrimaryDatabase) -> None:
    """Transaction recovery: strip each still-ACTIVE transaction's versions
    off the chain heads (repairing the indexes as apply does) and abort
    it."""
    txns = primary.txn_table
    losers = set(txns.open_transactions())
    for table in primary.catalog.tables() if losers else ():
        for part in table.partitions.values():
            for block in part.segment.blocks():
                for slot, head in enumerate(block.heads):
                    while head >= 0 and block.xids[head] in losers:
                        table.apply_undo(
                            part.object_id, block.dba, slot,
                            block.xids[head], primary.clock.current,
                        )
                        head = block.heads[slot]
    for xid in losers:
        txns.abort(xid)


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
