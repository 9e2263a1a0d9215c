"""repro.query -- the standby query service layer.

The paper's deployment story (Fig. 2, Table 1/2) offloads analytics to
the standby; this package turns the single-threaded ``ScanEngine.scan``
into a service that can carry that load:

* :mod:`repro.query.executor` -- morsel-parallel scan execution: a scan
  is planned into per-IMCU / per-block-chunk morsels
  (:meth:`ScanEngine.plan_morsels`) and dispatched to a pool of
  scheduler-actor query workers;
* :mod:`repro.query.admission` -- admission control for the session
  layer (bounded concurrency, wait queue with timeouts);
* :mod:`repro.query.service` -- :class:`QueryService`, tying the
  executor to one standby member.
"""

from repro.query.admission import (
    AdmissionController,
    AdmissionTimeout,
    PoolExhaustedError,
)
from repro.query.executor import PendingQuery, QueryWorker, QueryWorkerPool
from repro.query.service import QueryHandle, QueryService

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "PendingQuery",
    "PoolExhaustedError",
    "QueryHandle",
    "QueryService",
    "QueryWorker",
    "QueryWorkerPool",
]
