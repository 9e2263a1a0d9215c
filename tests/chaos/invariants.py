"""Invariant checkers: what must hold no matter what chaos ran.

These are the consistency properties the integration suite used to
assert inline, lifted into reusable checkers:

* :class:`StandbyMatchesPrimaryCR` -- the golden invariant: a standby
  scan at the published QuerySCN equals a primary consistent read at the
  same SCN (paper, section III: transactional consistency at every
  published snapshot), held per mounted member over all its instances;
* :class:`QuerySCNMonotonic` -- published QuerySCNs never move backwards
  (they may leapfrog, never regress);
* :class:`JournalDrained` -- after catch-up, the IM-ADG Journal buffers
  anchors only for transactions still open, and the commit table holds
  nothing at or below the published QuerySCN;
* :class:`NoGapSkip` -- redo positions form a contiguous landed prefix
  per thread: the receiver never advanced its expected position past
  records that were neither shipped nor FAL-fetched.

Checkers take the :class:`~tests.chaos.harness.ChaosContext` so custom
scenario invariants can reach anything (e.g. a post-failover primary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from tests.chaos.harness import ChaosContext


@dataclass(frozen=True, slots=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


class Invariant:
    """Base class: a named check over the final deployment state."""

    name = "invariant"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        raise NotImplementedError

    def _result(self, passed: bool, detail: str) -> InvariantResult:
        return InvariantResult(self.name, passed, detail)


def _primary_cr(deployment, table_name: str, snapshot: int) -> list:
    """The primary's consistent read of ``table_name`` at ``snapshot``."""
    table = deployment.primary.catalog.table(table_name)
    return sorted(
        values
        for __, values in table.full_scan(
            snapshot, deployment.primary.txn_table
        )
    )


def _where(deployment, member) -> str:
    """Report-line prefix naming ``member`` -- empty when it is the only
    one, so a two-node report reads as it always has."""
    return f"{member.name}: " if len(deployment.members) > 1 else ""


class StandbyMatchesPrimaryCR(Invariant):
    """Every mounted member's scan at its own published QuerySCN ==
    primary consistent read at that SCN."""

    name = "standby_scan_equals_primary_cr"

    def __init__(self, table: str = "T") -> None:
        self.table = table

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        details = []
        for member in deployment.mounted_members:
            snapshot = member.published_scn
            expected = _primary_cr(deployment, self.table, snapshot)
            got = sorted(member.query(self.table).rows)
            where = _where(deployment, member)
            if got != expected:
                return self._result(
                    False,
                    f"{where}divergence at QuerySCN {snapshot}: standby "
                    f"{len(got)} rows vs primary CR {len(expected)} rows "
                    f"({self.table})",
                )
            details.append(
                f"{where}{len(got)} rows identical at QuerySCN {snapshot}"
            )
        return self._result(True, "; ".join(details))


class QuerySCNMonotonic(Invariant):
    """Every member's published QuerySCN history (lost members included)
    is strictly increasing."""

    name = "queryscn_monotonic"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        total = 0
        for member in deployment.members:
            history = [scn for __, scn in member.standby.query_scn.history]
            for earlier, later in zip(history, history[1:]):
                if later <= earlier:
                    return self._result(
                        False,
                        f"{_where(deployment, member)}QuerySCN regressed: "
                        f"{earlier} -> {later}",
                    )
            total += len(history)
        return self._result(
            True, f"{total} publications, strictly increasing"
        )


class JournalDrained(Invariant):
    """After catch-up every mounted member's journals (one per apply
    instance) hold anchors only for still-open transactions and its commit
    tables buffer nothing already published."""

    name = "journal_drained_after_catchup"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        details = []
        for member in deployment.mounted_members:
            standby = member.standby
            flush = standby.flush
            where = _where(deployment, member)
            open_txns = len(standby.txn_table.open_transactions())
            # an open transaction has at most one anchor per journal
            anchors = max(j.anchor_count for j in flush.journals)
            stale = sum(len(table) for table in flush.commit_tables)
            if anchors > open_txns:
                return self._result(
                    False,
                    f"{where}{anchors} journal anchors but only "
                    f"{open_txns} open transactions: committed work left "
                    "unflushed",
                )
            if stale:
                return self._result(
                    False,
                    f"{where}{stale} commit-table nodes left below the "
                    f"published QuerySCN {standby.query_scn.value}",
                )
            details.append(
                f"{where}{anchors} anchors for {open_txns} open "
                "transactions, commit table empty"
            )
        return self._result(True, "; ".join(details))


class NoGapSkip(Invariant):
    """On every member, every redo position below each thread's
    expected-position watermark was landed exactly once (shipped or
    FAL-fetched) -- the receiver never skipped over a gap.  Dismounted
    members are checked too: a receiver's accounting must hold wherever
    its standby stopped (after a failover that is the only member)."""

    name = "no_gap_skip"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        threads = len(deployment.primary.redo_logs)
        details = []
        for member in deployment.members:
            receiver = member.standby.receiver
            where = _where(deployment, member)
            for log in deployment.primary.redo_logs:
                thread = log.thread
                expected = receiver.expected_position(thread)
                landed = receiver.records_landed.get(thread, 0)
                if expected != landed:
                    return self._result(
                        False,
                        f"{where}thread {thread}: expected-position "
                        f"watermark {expected} != {landed} records landed",
                    )
                if expected > len(log):
                    return self._result(
                        False,
                        f"{where}thread {thread}: watermark {expected} "
                        f"beyond the log's {len(log)} records",
                    )
            details.append(
                f"{where}{threads} threads contiguous, "
                f"{receiver.gaps_resolved} gaps FAL-healed, "
                f"{receiver.duplicates_discarded} duplicate records "
                "discarded"
            )
        return self._result(True, "; ".join(details))


def standard_invariants(table: str = "T") -> list[Invariant]:
    """The default battery every scenario runs unless it overrides."""
    return [
        StandbyMatchesPrimaryCR(table),
        QuerySCNMonotonic(),
        JournalDrained(),
        NoGapSkip(),
    ]
