"""Deterministic discrete-event simulation kernel.

The paper's system is massively concurrent: OLTP sessions on the primary,
log shipping, a log merger, N parallel recovery workers, a recovery
coordinator, population workers and query sessions all race each other, and
the interesting correctness hazards (QuerySCN leapfrogging, journal flush
ordering, quiesce windows) come exactly from that racing.

Rather than OS threads -- which make failures unreproducible -- every
concurrent entity is an :class:`Actor` with a ``step`` method, and a
:class:`Scheduler` interleaves actors on a simulated clock.  Each actor has
its own local timeline; the scheduler always runs the actor whose timeline
is furthest behind, which is a standard discrete-event simulation of real
parallelism.  Given one seed, a run is bit-for-bit reproducible.

CPU usage is accounted by charging each step's returned cost to the
:class:`CpuNode` the actor runs on, which is how the harness reproduces the
paper's CPU-transfer measurements (section IV-A/B).
"""

from repro.sim.clock import SimClock
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler

__all__ = ["SimClock", "CpuNode", "Actor", "Scheduler"]
