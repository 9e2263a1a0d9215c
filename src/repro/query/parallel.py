"""Real-parallel scan execution over shared-memory CU buffers.

The simulated :class:`~repro.query.executor.QueryWorkerPool` models
multicore speedup on the virtual clock; this module makes it real: an
opt-in ``parallel_backend="process"`` executes the columnar part of each
IMCU morsel in a :class:`concurrent.futures.ProcessPoolExecutor`, with
the CU buffers published once into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and attached zero-copy by the
workers.

The split per IMCU morsel keeps parallel == serial row-for-row:

* parent: usability check, SMU pin, storage-index pruning, validity
  mask, stats accounting, and the row-store reconcile tail
  (:meth:`ScanEngine._reconcile_unit` -- it needs the block store and
  Consistent Read, which do not cross process boundaries);
* worker: predicate masks + position extraction via the *same*
  :func:`~repro.imcs.scan.unit_matched_positions` kernel the serial scan
  uses, then batch ``take`` projection -- the CPU-heavy encoded-domain
  work.

Morsels the worker cannot take (row-store chunks, stats placeholders,
unusable units, aggregation push-down hooks) run in the parent exactly
as the serial path would.  Partials are merged in plan order, so rows
and stats are byte-identical to ``parallel_backend="sim"`` and to the
serial scan.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.imcs.compression import cu_from_export, export_cu
from repro.imcs.scan import (
    IMCS_COST_PER_ROW,
    Predicate,
    ScanMorsel,
    ScanResult,
    unit_matched_positions,
)

#: (shm_name, dtype_str, shape) -- enough to rebuild a numpy view.
ArraySpec = tuple[str, str, tuple[int, ...]]


@dataclass(frozen=True)
class ColumnarTask:
    """Picklable description of one IMCU morsel's columnar work."""

    #: (column name, cu cache key, export kind, buffer specs, meta)
    columns: tuple[tuple[str, tuple, str, tuple[tuple[str, ArraySpec], ...], dict], ...]
    valid: ArraySpec
    predicates: tuple[Predicate, ...]
    names: tuple[str, ...]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_CU_CACHE: dict[tuple, object] = {}


def _attach_array(spec: ArraySpec) -> np.ndarray:
    name, dtype, shape = spec
    shm = _ATTACHED.get(name)
    if shm is None:
        # Attaching re-registers the name with the fork-shared resource
        # tracker; registrations collapse, and the parent unlinks (and
        # unregisters) every segment exactly once at shutdown.
        shm = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


class _ColumnSet:
    """Duck-types ``IMCU.column`` for :func:`unit_matched_positions`."""

    __slots__ = ("_columns",)

    def __init__(self, columns: dict) -> None:
        self._columns = columns

    def column(self, name: str):
        return self._columns[name]


def _run_columnar_task(task: ColumnarTask) -> list[tuple]:
    """Worker entry point: masks + projection over shared CU buffers."""
    columns = {}
    for name, cu_key, kind, specs, meta in task.columns:
        cu = _CU_CACHE.get(cu_key)
        if cu is None:
            arrays = {buf: _attach_array(spec) for buf, spec in specs}
            cu = cu_from_export(kind, arrays, meta)
            _CU_CACHE[cu_key] = cu
        columns[name] = cu
    valid = _attach_array(task.valid)
    positions = unit_matched_positions(
        _ColumnSet(columns), valid, list(task.predicates)
    )
    if positions.size == 0:
        return []
    taken = [columns[name].take(positions) for name in task.names]
    if len(taken) == 1:
        return [(value,) for value in taken[0]]
    return list(zip(*taken))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _ShmArena:
    """Parent-side registry of shared-memory segments.

    Each distinct buffer (keyed by CU identity / SMU validity epoch) is
    copied into shared memory once and reused across queries; everything
    is unlinked at :meth:`close`.
    """

    def __init__(self) -> None:
        self._segments: dict[tuple, tuple[shared_memory.SharedMemory, ArraySpec]] = {}

    def share(self, key: tuple, array: np.ndarray) -> ArraySpec:
        entry = self._segments.get(key)
        if entry is not None:
            return entry[1]
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[...] = array
        spec: ArraySpec = (shm.name, array.dtype.str, tuple(array.shape))
        self._segments[key] = (shm, spec)
        return spec

    def close(self) -> None:
        for shm, _spec in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()


class ProcessScanBackend:
    """Executes scan morsels with real OS processes.

    Only the columnar kernels cross the process boundary; everything
    stateful (SMU pins, block store, Consistent Read, push-down hooks)
    stays in the parent.  ``run_morsels`` returns one partial per morsel
    in plan order.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._arena = _ShmArena()
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._executor

    def _export_task(self, ctx, valid: np.ndarray) -> ColumnarTask:
        imcu = ctx.smu.imcu
        compiled = ctx.compiled
        columns = []
        for name in compiled.needed:
            cu = imcu.column(name)
            kind, arrays, meta = export_cu(cu)
            cu_key = (imcu.imcu_id, name)
            specs = tuple(
                (buf, self._arena.share(cu_key + (buf,), array))
                for buf, array in arrays.items()
            )
            columns.append((name, cu_key, kind, specs, meta))
        valid_spec = self._arena.share(
            (imcu.imcu_id, "::valid", ctx.smu._epoch), valid
        )
        return ColumnarTask(
            columns=tuple(columns),
            valid=valid_spec,
            predicates=tuple(compiled.predicates),
            names=tuple(compiled.names),
        )

    # ------------------------------------------------------------------
    def run_morsels(self, morsels: list[ScanMorsel]) -> list[ScanResult]:
        """Run every morsel; columnar parts fan out across processes.

        A worker process dying mid-scan surfaces as
        :class:`BrokenProcessPool`; the whole backend is torn down before
        re-raising -- the executor cannot be reused, and keeping the
        arena's segments linked would orphan them in ``/dev/shm`` (the
        parent would never reach :meth:`close` on this executor
        generation).  A fresh executor and arena are built lazily on the
        next call.
        """
        try:
            return self._run_morsels(morsels)
        except BrokenProcessPool:
            self._teardown()
            raise

    def _run_morsels(self, morsels: list[ScanMorsel]) -> list[ScanResult]:
        executor = self._ensure_executor()
        # Pass 1 (submit): pin usable units, ship their columnar tasks.
        plan: list[tuple] = []  # ("parent",) | ("pruned", ctx) | ("task", ctx, fut)
        pinned: list = []
        try:
            for morsel in morsels:
                ctx = morsel.unit_ctx
                if (
                    morsel.kind != "imcu"
                    or ctx is None
                    or ctx.on_imcu_matches is not None
                    or not ctx.smu.serves(ctx.compiled.needed_set)
                ):
                    plan.append(("parent",))
                    continue
                ctx.smu.pin()
                pinned.append(ctx)
                valid = ctx.smu.valid_row_mask()
                if any(
                    p.can_prune(ctx.smu.imcu) for p in ctx.compiled.predicates
                ):
                    plan.append(("pruned", ctx))
                    continue
                task = self._export_task(ctx, valid)
                plan.append(("task", ctx, executor.submit(
                    _run_columnar_task, task
                )))

            # Pass 2 (collect, in plan order): parent-side work overlaps
            # with the workers still computing later morsels.
            partials: list[ScanResult] = []
            for i, entry in enumerate(plan):
                if entry[0] == "parent":
                    partials.append(morsels[i].run())
                    continue
                ctx = entry[1]
                partial = ScanResult()
                try:
                    if entry[0] == "pruned":
                        partial.stats.imcus_pruned += 1
                    else:
                        partial.rows.extend(entry[2].result())
                        imcu = ctx.smu.imcu
                        partial.stats.imcus_used += 1
                        partial.stats.imcs_rows += imcu.n_rows
                        partial.stats.cost_seconds += (
                            IMCS_COST_PER_ROW * imcu.n_rows
                        )
                    ctx.engine._reconcile_unit(
                        ctx.table, ctx.store, ctx.smu, ctx.snapshot_scn,
                        ctx.compiled, partial,
                    )
                finally:
                    pinned.remove(ctx)
                    ctx.smu.unpin()
                partials.append(partial)
            return partials
        finally:
            # Exception path: drop pins taken in pass 1 but not yet
            # released by pass 2 (empty on success).
            for ctx in pinned:
                ctx.smu.unpin()

    # ------------------------------------------------------------------
    def _teardown(self) -> None:
        """Emergency cleanup after a worker death: abandon the broken
        executor without waiting and unlink every shared segment."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._arena.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._arena.close()
