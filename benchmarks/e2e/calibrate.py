"""Calibrated time: the benchmark's answer to a noisy two-core sandbox.

Three things were measured on this box (numbers in README.md):

* the process is descheduled for milliseconds at a time (up to half of a
  1.5 s window), which inflates wall time but not CPU time -- so every
  timed region is read on ``time.process_time`` and wall is kept beside it
  as information only (the benchmark is one process, one thread and never
  sleeps, so on an idle machine the two agree);
* CPU time for *identical* work still swings by up to 50%, with no steal
  reported, and the swing changes on a ~10 ms time scale -- so a small
  fixed kernel is run every few milliseconds of timed work and each timed
  entry is divided by the kernel samples right next to it:
  ``cal_s = cpu_s * CAL_REF_S / mean(kernel cpu_s before and after)``;
* what calibration cannot track is spiky, so every repeat of a run does
  identical work entry by entry and the roll-up takes each entry's median
  over the repeats before summing.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: CPU seconds one kernel run took when the constant was fixed.  Dividing
#: by the kernel time measured *now* and multiplying by this turns CPU
#: seconds into seconds of that reference machine state.
CAL_REF_S = 0.0006
#: timed CPU seconds between two kernel samples
KERNEL_EVERY_CPU_S = 0.003


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: float) -> None:
        self.value = value
        self.next = self


class Kernel:
    """~0.6 ms of fixed work shaped like the system under test: a pointer
    chase over slotted objects and dict lookups with scattered keys
    (interpreter side), numpy sort / mask / unique (kernel side)."""

    def __init__(self) -> None:
        rng = random.Random(1)
        n = 50_000
        nodes = [_Node(float(i)) for i in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._node = nodes[0]
        self._table = {i: (i, str(i)) for i in range(n)}
        self._keys = [rng.randrange(n) for _ in range(350 * 140)]
        self._key_at = 0
        self._array = np.random.default_rng(1).random(4_000)

    def run(self) -> float:
        """Run the kernel once; returns its CPU seconds.  Successive runs
        walk on through the node ring and the key list, so the interpreter
        side keeps missing caches the way the system's object graph does."""
        start = time.process_time()
        node = self._node
        total = 0.0
        for _ in range(700):
            node = node.next
            total += node.value
        self._node = node
        table = self._table
        at = self._key_at
        picked = [table[key] for key in self._keys[at:at + 350]]
        self._key_at = (at + 350) % len(self._keys)
        array = self._array
        np.sort(array)
        array[array > 0.5].sum()
        np.unique((array * 1000).astype(np.int64))
        return time.process_time() - start


class Meter:
    """CPU + wall stopwatch for one phase of one repeat, together with the
    kernel samples interleaved in that phase.

    Every timed entry is calibrated *locally*: by the mean of the kernel
    samples taken just before and just after it, because contention comes
    and goes within a phase.  Entries are kept one by one, in order, so
    the roll-up can take each entry's median over the identical repeats
    of a run before summing -- which drops the spikes calibration cannot
    track (see README.md for the measurements behind both choices).
    """

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self._bucket: list[str] = []
        #: ``process_time`` at which each entry started, its CPU and wall
        self._start: list[float] = []
        self._cpu: list[float] = []
        self._wall: list[float] = []
        #: ``process_time`` at which each kernel sample ended, and its CPU
        self._kernel_at: list[float] = []
        self._kernel_cpu: list[float] = []
        self._cpu_since_kernel = 0.0

    @contextmanager
    def timed(self, bucket: str) -> Iterator[None]:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - cpu0
            self._wall.append(time.perf_counter() - wall0)
            self._start.append(cpu0)
            self._cpu.append(cpu)
            self._bucket.append(bucket)
            self._cpu_since_kernel += cpu

    def calibrate(self) -> None:
        self._kernel_cpu.append(self._kernel.run())
        self._kernel_at.append(time.process_time())
        self._cpu_since_kernel = 0.0

    def maybe_calibrate(self) -> None:
        """Run the kernel once enough timed work has passed since the last
        sample; kernel time stays a little over a tenth of the phase."""
        if self._cpu_since_kernel >= KERNEL_EVERY_CPU_S:
            self.calibrate()

    def factor_at(self, cpu_time: float) -> float:
        """Calibrated seconds per CPU second at ``process_time`` reading
        ``cpu_time``: ``CAL_REF_S`` over the mean of the kernel samples
        taken just before and just after it.  Samples are only taken
        between timed entries, so an entry and every span recorded inside
        it share one factor.  Needs a sample on either side (the harness
        brackets every phase with ``calibrate``)."""
        following = bisect_right(self._kernel_at, cpu_time)
        samples = self._kernel_cpu
        return CAL_REF_S * 2.0 / (samples[following - 1] + samples[following])

    def calibrated(self) -> dict[str, list[float]]:
        """``bucket -> calibrated seconds of each of its entries``, in
        order."""
        result: dict[str, list[float]] = defaultdict(list)
        for bucket, start, cpu in zip(self._bucket, self._start, self._cpu):
            result[bucket].append(cpu * self.factor_at(start))
        return dict(result)

    def wall_s(self) -> dict[str, float]:
        """``bucket -> raw wall seconds`` (information only)."""
        result: dict[str, float] = defaultdict(float)
        for bucket, wall in zip(self._bucket, self._wall):
            result[bucket] += wall
        return dict(result)

    @property
    def kernel_share(self) -> float:
        """Kernel CPU time as a share of the phase's timed CPU time."""
        return sum(self._kernel_cpu) / sum(self._cpu)
