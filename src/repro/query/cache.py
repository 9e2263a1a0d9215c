"""The QuerySCN-consistent result cache.

Keyed by ``(QuerySCN, table, fingerprint)`` where the fingerprint covers
the compiled predicate list, projection and partition list.  Two
properties make the cache safe (cf. Li et al., "consistent snapshot"
algorithms -- reuse is sound exactly when the snapshot is immutable):

* a result computed at a *published* QuerySCN can never change -- the
  advancement protocol flushes every invalidation with commitSCN <= S
  before publishing S, and Consistent Read pins all reads to S;
* entries are nevertheless evicted the moment a flush group / coarse
  invalidation / DDL marker touches their object, **before** the new
  QuerySCN is published (the cache registers as an
  :class:`~repro.dbim_adg.flush.InvalidationListener`), so no entry ever
  survives a publication that invalidated its object.

A per-object *epoch* guards the in-flight window: a morsel-parallel
query that completes after its object was invalidated must not store its
(still snapshot-correct, but now stale-keyed) result -- the service
captures the epochs at submit and :meth:`put` refuses the store if they
moved.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Hashable, Iterable, Optional

from repro import obs
from repro.common.ids import ObjectId, TenantId
from repro.common.scn import SCN
from repro.dbim_adg.flush import InvalidationListener
from repro.imcs.scan import ScanResult

#: Simulated cost of serving a scan from the cache (hash probe + copy).
CACHE_HIT_COST = 2e-7

CacheKey = Hashable


class ResultCache(InvalidationListener):
    """LRU result cache with object-granular invalidation."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: key -> (result, object_ids the result depends on)
        self._entries: "OrderedDict[CacheKey, tuple[ScanResult, frozenset[ObjectId]]]" = (
            OrderedDict()
        )
        self._by_object: dict[ObjectId, set[CacheKey]] = {}
        self._epochs: dict[ObjectId, int] = {}
        self._global_epoch = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.stale_stores = 0
        self.invalidation_evictions = 0
        obs.bind(self, {
            "hits": "query.cache.hits",
            "misses": "query.cache.misses",
            "stores": "query.cache.stores",
            "stale_stores": "query.cache.stale_stores",
            "invalidation_evictions": "query.cache.invalidation_evictions",
        })
        obs.bind(self, {"entries": "query.cache.entries"}, "gauge")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # epochs (in-flight store guard)
    # ------------------------------------------------------------------
    def snapshot_epochs(
        self, object_ids: Iterable[ObjectId]
    ) -> dict[Optional[ObjectId], tuple[int, int]]:
        """Epoch snapshot the in-flight store guard compares against.

        A zero-object scan (e.g. an explicit empty partition list) has no
        per-object epochs to pin, so it is keyed to the *global* epoch --
        otherwise its ``{} == {}`` guard would pass vacuously and a store
        racing a coarse invalidation (``clear()``) could never be
        refused.  ``None`` is the global-epoch sentinel key.
        """
        epochs = {
            oid: (self._global_epoch, self._epochs.get(oid, 0))
            for oid in object_ids
        }
        if not epochs:
            return {None: (self._global_epoch, 0)}
        return epochs

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: CacheKey) -> Optional[ScanResult]:
        """A hit returns a *copy* whose cost is the (tiny) cache-serve
        cost -- the original scan's cost stays on the stored entry."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        result, __ = entry
        return ScanResult(
            rows=list(result.rows),
            stats=replace(result.stats, cost_seconds=CACHE_HIT_COST),
        )

    def put(
        self,
        key: CacheKey,
        object_ids: Iterable[ObjectId],
        result: ScanResult,
        epochs: Optional[dict[ObjectId, tuple[int, int]]] = None,
    ) -> bool:
        """Store a result; refused (False) if any dependency object was
        invalidated since ``epochs`` were captured at submit time."""
        object_ids = frozenset(object_ids)
        if epochs is not None and epochs != self.snapshot_epochs(object_ids):
            self.stale_stores += 1
            return False
        if key in self._entries:
            self._drop(key)
        while len(self._entries) >= self.capacity:
            oldest, __ = next(iter(self._entries.items()))
            self._drop(oldest)
        self._entries[key] = (result, object_ids)
        for oid in object_ids:
            self._by_object.setdefault(oid, set()).add(key)
        self.stores += 1
        return True

    def _drop(self, key: CacheKey) -> None:
        __, object_ids = self._entries.pop(key)
        for oid in object_ids:
            keys = self._by_object.get(oid)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_object[oid]

    def _evict_object(self, object_id: ObjectId) -> None:
        self._epochs[object_id] = self._epochs.get(object_id, 0) + 1
        for key in list(self._by_object.get(object_id, ())):
            self._drop(key)
            self.invalidation_evictions += 1

    def clear(self) -> None:
        self._global_epoch += 1
        self.invalidation_evictions += len(self._entries)
        self._entries.clear()
        self._by_object.clear()

    # ------------------------------------------------------------------
    # InvalidationListener (called during flush, before publication)
    # ------------------------------------------------------------------
    def on_object_invalidated(self, object_id: ObjectId, scn: SCN) -> None:
        self._evict_object(object_id)

    def on_object_dropped(self, object_id: ObjectId, scn: SCN) -> None:
        self._evict_object(object_id)

    def on_coarse_invalidation(self, tenant: TenantId, scn: SCN) -> None:
        # coarse invalidation is tenant-wide and the cache is not
        # tenant-indexed: drop everything (rare: post-restart catch-up)
        self.clear()
