"""repro.query -- the standby query service layer (paper Fig. 2).

* :mod:`repro.query.service` -- :class:`QueryService`, one member's
  morsel-parallel scans at its QuerySCN, run by the service's
  :class:`QueryWorker` actors; the :class:`PendingQuery` a submit
  returns is the client's handle;
* :mod:`repro.query.admission` -- admission control for the session
  layer (bounded concurrency, wait queue with timeouts).
"""

from repro.query.admission import (
    AdmissionController,
    AdmissionTimeout,
    PoolExhaustedError,
)
from repro.query.service import PendingQuery, QueryService, QueryWorker

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "PendingQuery",
    "PoolExhaustedError",
    "QueryService",
    "QueryWorker",
]
