"""Oracle RAC support (paper, section III-F) and its MIRA extension (V).

The primary side of RAC (multiple instances, one redo thread each, shared
SCN clock) lives in :mod:`repro.db.primary`.  This package adds the standby
side: ``Deployment.add_standby_cluster`` scales a member out to N
instances over one mounted database.

* Instance 1, the member's :class:`~repro.db.standby.StandbyDatabase`,
  runs the recovery coordinator and the invalidation flush component; each
  other instance is a :class:`PeerInstance`.
* IMCUs are distributed across instances by the **home-location map**
  (hashing scheme over object/block ranges, after [Mukherjee et al.,
  VLDB'15]).
* During QuerySCN advancement the master's flush component routes
  invalidation groups for remotely-homed IMCUs over the **interconnect**
  -- with batching and pipelined transmission -- to the **local recovery
  coordinator** on each peer, which stages them, acknowledges, and flushes
  them into its SMUs when the master's QuerySCN publication arrives.
* Under **SIRA** only the master applies redo and mines.  Under **MIRA**
  every instance applies the change vectors the same map says it owns and
  mines them into its own journal; the master's coordinator and flush
  component advance over all of them.
"""

from repro.rac.home_location import HomeLocationMap
from repro.rac.messaging import Interconnect
from repro.rac.cluster import (
    MergedStoreView,
    PeerInstance,
    RemoteInvalidationRouter,
    scale_out,
)

__all__ = [
    "HomeLocationMap",
    "Interconnect",
    "MergedStoreView",
    "PeerInstance",
    "RemoteInvalidationRouter",
    "scale_out",
]
