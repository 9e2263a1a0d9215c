"""The IM-ADG Commit Table (paper, section III-D-1, Fig. 8).

"DBIM-on-ADG Mining Component maintains an in-memory, sorted linked list
of transaction identifiers and their commitSCN in the IM-ADG Commit Table.
[...] The Commit Table node contains a direct reference to the anchor node
in the IM-ADG Journal which hosts the transaction's invalidation records.
[...] To address the bottleneck of insertion into a single, sorted linked
list by the Mining Component, the IM-ADG Commit Table can be partitioned to
create multiple sorted linked lists."

At QuerySCN advancement the coordinator *chops* each partition at the
target commitSCN; the chopped prefixes form the worklink.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.common.ids import TenantId, TransactionId
from repro.common.scn import SCN
from repro.dbim_adg.journal import AnchorNode


@dataclass(slots=True)
class CommitTableNode:
    """One committed (or prepared) transaction awaiting flush."""

    xid: TransactionId
    commit_scn: SCN
    #: Direct, one-step reference into the IM-ADG Journal.
    anchor: Optional[AnchorNode]
    tenant: TenantId
    #: True when the section III-E restart protocol demands coarse
    #: invalidation: the commit record's flag says (or pessimism assumes)
    #: the transaction modified IMCS objects, but its begin was never mined.
    coarse: bool = False


class IMADGCommitTable:
    """CommitSCN-sorted, partitioned lists of commit-table nodes."""

    def __init__(self, n_partitions: int = 4) -> None:
        if n_partitions < 1:
            raise ValueError("commit table needs at least one partition")
        self._partitions: list[list[CommitTableNode]] = [
            [] for __ in range(n_partitions)
        ]
        self.inserts = 0
        obs.bind(self, {"inserts": "dbim.commit_table.inserts"})

    @property
    def n_partitions(self) -> int:
        return len(self._partitions)

    def _partition_index(self, xid: TransactionId) -> int:
        return hash(xid) % len(self._partitions)

    def insert_batch(self, nodes: list[CommitTableNode]) -> None:
        """Insert one chunk's nodes, each into its xid's partition in
        commitSCN order (ties resolve existing-before-new)."""
        by_partition: dict[int, list[CommitTableNode]] = {}
        for node in nodes:
            by_partition.setdefault(
                self._partition_index(node.xid), []
            ).append(node)
        for index, group in by_partition.items():
            group.sort(key=lambda n: n.commit_scn)  # stable
            partition = self._partitions[index]
            if (
                not partition
                or partition[-1].commit_scn <= group[0].commit_scn
            ):
                # the common case: new commits land past the tail
                partition.extend(group)
            else:
                # a chunk's few commits into a long partition cost
                # O(k log n), where a merge would walk all of it
                for node in group:
                    partition.insert(
                        bisect.bisect_right(
                            partition,
                            node.commit_scn,
                            key=lambda n: n.commit_scn,
                        ),
                        node,
                    )
        self.inserts += len(nodes)

    def chop(self, up_to_scn: SCN) -> list[CommitTableNode]:
        """Cut every partition at ``up_to_scn``; returns the removed nodes
        (commitSCN order across partitions is restored by an O(n log p)
        merge of the already-sorted per-partition runs).

        Runs on the recovery coordinator during QuerySCN advancement,
        inside one scheduler step like every other access.
        """
        runs: list[list[CommitTableNode]] = []
        for partition in self._partitions:
            cut = bisect.bisect_right(
                partition, up_to_scn, key=lambda n: n.commit_scn
            )
            if cut:
                runs.append(partition[:cut])
                del partition[:cut]
        if not runs:
            return []
        if len(runs) == 1:
            return runs[0]
        # heapq.merge breaks commitSCN ties toward the earlier run, which
        # is exactly the partition-index order the old stable sort gave
        return list(heapq.merge(*runs, key=lambda n: n.commit_scn))

    def clear(self) -> None:
        for partition in self._partitions:
            partition.clear()

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    @property
    def min_pending_scn(self) -> Optional[SCN]:
        heads = [p[0].commit_scn for p in self._partitions if p]
        return min(heads) if heads else None
