"""Active Data Guard: parallel redo apply on the physical standby.

Implements section II-A of the paper:

* the **log merger** SCN-orders redo records arriving from multiple
  primary redo threads (``merger.py``);
* **parallel apply**: change vectors are hashed by DBA to recovery worker
  processes, each of which applies its share in SCN order
  (``apply.py``);
* the **recovery coordinator** tracks worker progress, establishes
  consistency points and publishes them as the **QuerySCN** -- the
  Consistent Read snapshot every standby query runs at
  (``coordinator.py``, ``queryscn.py``).

The DBIM-on-ADG machinery (``repro.dbim_adg``) plugs into these
components exactly where the paper places it: mining piggybacks on the
workers' CV stream, invalidation flush rides QuerySCN advancement, and
population captures only a published QuerySCN (a publication is one
scheduler step: the quiesce period).
"""

from repro.adg.queryscn import ListenerFanoutError, QuerySCNPublisher
from repro.adg.merger import LogMerger
from repro.adg.apply import ApplyDistributor, RecoveryWorker, CVApplier
from repro.adg.coordinator import RecoveryCoordinator, AdvanceProtocol

__all__ = [
    "QuerySCNPublisher",
    "ListenerFanoutError",
    "LogMerger",
    "ApplyDistributor",
    "RecoveryWorker",
    "CVApplier",
    "RecoveryCoordinator",
    "AdvanceProtocol",
]
