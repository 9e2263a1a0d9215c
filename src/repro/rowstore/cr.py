"""Consistent Read: SCN-snapshot visibility over a block's version chains.

Implements Oracle's CR model [Bridge et al., VLDB '97] at row granularity:
a version is visible at snapshot SCN ``s`` iff its writing transaction
committed with commitSCN <= ``s`` (or the reader *is* that transaction).
Commit SCNs are resolved through a :class:`TransactionView`, the minimal
interface both the primary's transaction manager and the standby's
recovered transaction table provide.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.common.errors import SnapshotTooOldError
from repro.common.ids import TransactionId
from repro.common.scn import SCN
from repro.rowstore.block import END, PRUNED, DataBlock


#: Sentinel distinguishing "not looked up yet" from a cached ``None``
#: (uncommitted) commit SCN in the batch memo below.
_UNRESOLVED = object()


class TransactionView(Protocol):
    """What CR needs to know about transactions."""

    def commit_scn_of(self, xid: TransactionId) -> Optional[SCN]:
        """CommitSCN of ``xid``, or ``None`` if uncommitted/aborted/unknown."""
        ...


def visible_values(
    block: DataBlock,
    slot: int,
    snapshot_scn: SCN,
    txns: TransactionView,
    reader_xid: Optional[TransactionId] = None,
) -> Optional[tuple]:
    """The row at ``block``/``slot`` as of ``snapshot_scn``, or ``None``.

    ``None`` covers a slot beyond ``used_slots``, a row not inserted yet or
    whose writer had not committed by the snapshot, and a visible delete
    tombstone.  A reader always sees its own uncommitted changes.  Raises
    :class:`SnapshotTooOldError` when the walk falls off a pruned chain,
    i.e. the undo needed to reconstruct the row has been discarded.
    """
    i = block.heads[slot] if slot < block.used_slots else END
    while i >= 0:
        xid = block.xids[i]
        if reader_xid is not None and xid == reader_xid:
            return block.values[i]
        commit_scn = txns.commit_scn_of(xid)
        if commit_scn is not None and commit_scn <= snapshot_scn:
            return block.values[i]
        i = block.prev[i]
    if i == PRUNED:
        raise SnapshotTooOldError(
            f"no version visible at SCN {snapshot_scn} on a truncated chain"
        )
    return None


def settled_rows(
    block,
    snapshot_scn: SCN,
    txns: TransactionView,
    memo: dict,
    slots: Optional[Sequence[int]] = None,
) -> tuple[int, Sequence[int], list[tuple]]:
    """One CR pass over a block for population: ``(captured, slots, rows)``.

    ``captured`` is the length of the prefix of *settled* slots: a slot is
    settled when something is visible at the snapshot -- a row or a
    committed tombstone.  A slot whose chain is empty (apply gap) or whose
    only content is not yet visible (insert uncommitted at the snapshot,
    or committed beyond it) ends the prefix: it and everything after it
    stay row-store-only ("edge" rows) until repopulation, otherwise their
    rows would be lost -- the SMU cannot invalidate rows an IMCU never
    captured.  ``slots`` / ``rows`` are the prefix's live rows.

    ``slots`` (ascending; default every used slot) narrows the pass: the
    caller vouches that each slot it leaves out is settled, so the prefix
    still ends at the first *walked* slot that is not -- delta
    repopulation leaves out the rows its outgoing unit holds valid.

    ``memo`` (writer -> commitSCN) is shared by the blocks of one IMCU
    build and must not outlive it: the next snapshot is a different one.
    """
    if slots is None:
        slots = range(block.used_slots)
    settled = visible_values_batch(
        ((block, slots),), snapshot_scn, txns, memo, stop_unsettled=True
    )
    walked = len(settled)
    captured = slots[walked] if walked < len(slots) else block.used_slots
    if None not in settled:  # no tombstone among them
        return captured, slots[:walked], settled
    live = [i for i, row in enumerate(settled) if row is not None]
    return captured, [slots[i] for i in live], [settled[i] for i in live]


def visible_values_batch(
    work,
    snapshot_scn: SCN,
    txns: TransactionView,
    memo: dict,
    stop_unsettled: bool = False,
) -> list[Optional[tuple]]:
    """Consistent values for the slots of many blocks, walked in one pass.

    ``work`` is ``(block, slots)`` pairs -- everything one scan step wants
    from the row store (a unit's invalid and edge rows, a run of uncovered
    blocks); the answer is one flat list in ``work`` order.  Slots beyond
    ``block.used_slots``, tombstones and slots with nothing visible come
    back as ``None``, exactly like :func:`visible_values`; with
    ``stop_unsettled`` (population) the walk ends *before* the first slot
    with no visible version -- a visible tombstone is a version.

    ``memo`` (writer -> commitSCN) is shared by every call of one scan and
    must not outlive it.  Within a scan it cannot go stale, even when apply
    proceeds between the scan's morsels: a writer seen uncommitted
    (``None``) can only commit *above* the snapshot -- every commit at or
    below a QuerySCN is in the transaction table before that QuerySCN is
    published, and on the primary the snapshot is the current SCN -- so
    its versions are invisible to this scan either way.
    """
    commit_scn_of = txns.commit_scn_of
    memo_get = memo.get
    # Writers reuse one TransactionId object for every row they touch, so
    # consecutive versions usually share ``xid`` *by identity*; caching the
    # last resolution in locals skips even the memo-dict hash per row.
    cached_xid: object = _UNRESOLVED
    cached_scn: Optional[SCN] = None
    out: list[Optional[tuple]] = []
    append = out.append
    for block, slots in work:
        heads, rows = block.heads, block.values
        xids, prev = block.xids, block.prev
        used = len(heads)
        for slot in slots:
            if slot >= used:
                append(None)
                continue
            i = heads[slot]
            values = None
            while i >= 0:  # newest to oldest
                xid = xids[i]
                if xid is cached_xid:
                    commit_scn = cached_scn
                else:
                    commit_scn = memo_get(xid, _UNRESOLVED)
                    if commit_scn is _UNRESOLVED:
                        commit_scn = commit_scn_of(xid)
                        memo[xid] = commit_scn
                    cached_xid = xid
                    cached_scn = commit_scn
                if commit_scn is not None and commit_scn <= snapshot_scn:
                    # a tombstone's values are already None -- exactly the
                    # "no visible row" marker this walk returns
                    values = rows[i]
                    break
                i = prev[i]
            else:
                if i == PRUNED:
                    raise SnapshotTooOldError(
                        f"no version visible at SCN {snapshot_scn} "
                        f"on a truncated chain"
                    )
                if stop_unsettled:
                    return out
            append(values)
    return out
