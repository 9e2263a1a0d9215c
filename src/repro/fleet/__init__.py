"""repro.fleet: routed sessions over a deployment's standby members.

The paper's capacity-expansion deployment (Fig. 2) scales real-time
analytics by putting N standby databases behind one primary, all fed by
the same redo stream.  The topology itself is
:meth:`repro.db.Deployment.build` (``n_standbys=N``); this package is the
serving layer in front of it:

* :class:`~repro.fleet.router.FleetRouter` — typed, lag- and load-aware
  read-only session routing with admission control, read-your-writes
  floors on queued connects and standby-loss drain/failover;
* :class:`~repro.fleet.wave.SessionWave` — the simulated OLTAP client
  wave used by the reader-farm benchmark and the standby-loss chaos
  scenario.
"""

from repro.fleet.router import FleetRouter, FleetSession, PendingFleetSession
from repro.fleet.wave import ClientRecord, SessionWave, WaveConfig

__all__ = [
    "FleetRouter",
    "FleetSession",
    "PendingFleetSession",
    "ClientRecord",
    "SessionWave",
    "WaveConfig",
]
