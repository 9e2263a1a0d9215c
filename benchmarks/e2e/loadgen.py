"""The benchmark's own load generator.

Tables, seeded row makers, DML driver actors and the closed-loop query
client live here and call only public ``PrimaryDatabase`` /
``StandbyDatabase`` methods -- deliberately *not* ``repro.workload.oltap``,
so a later change under ``src/`` cannot alter the offered load.

DML is open-loop on the *sim* clock: a driver's step issues a fixed number
of operations and returns the sim time they are due to take, so a run is a
fixed amount of work whose completion the harness times.  Queries come
from one closed-loop caller (the harness calls ``QueryClient.next`` and
runs the query before moving on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.db.schema_def import ColumnDef, TableDef
from repro.imcs.aggregate import AggregateSpec
from repro.imcs.scan import Predicate
from repro.rowstore.table import RowLockConflictError
from repro.sim.scheduler import Actor, Scheduler

REGIONS = ("north", "south", "east", "west", "emea", "apac", "latam", "anz")
STATUSES = ("new", "open", "paid", "shipped", "closed")


@dataclass(frozen=True)
class Query:
    """One standby query: a filter + projection scan, or (with
    ``aggregates``) an aggregation push-down."""

    kind: str
    table: str
    predicates: tuple[Predicate, ...] = ()
    columns: Optional[tuple[str, ...]] = None
    aggregates: tuple[AggregateSpec, ...] = ()

    def run(self, standby):
        """Returns ``(answer, ScanStats)``; the answer is the row list, or
        the aggregate value list."""
        predicates = list(self.predicates)
        if self.aggregates:
            result = standby.aggregate(
                self.table, list(self.aggregates), predicates
            )
            return result.values, result.stats
        columns = list(self.columns) if self.columns else None
        result = standby.query(self.table, predicates, columns)
        return result.rows, result.stats


class WideTable:
    """The paper's Fig. 9-11 table: 1 id + 50 number + 50 varchar columns,
    50 rows per block, index on ``id``."""

    name = "W"
    rows_per_block = 50
    load_batch = 100
    query_kinds = ("q1_number_eq", "q2_varchar_eq")

    def table_def(self) -> TableDef:
        columns = [ColumnDef.number("id", nullable=False)]
        columns += [ColumnDef.number(f"n{i}") for i in range(1, 51)]
        columns += [ColumnDef.varchar(f"c{i}") for i in range(1, 51)]
        return TableDef(
            self.name, tuple(columns),
            rows_per_block=self.rows_per_block, indexes=("id",),
        )

    def row(self, row_id: int, n_rows: int, rng: random.Random) -> tuple:
        numbers = [float(rng.randrange(10_000)) for _ in range(50)]
        strings = [f"s{rng.randrange(50):05d}" for _ in range(50)]
        return (row_id, *numbers, *strings)

    def update(self, rng: random.Random) -> dict[str, object]:
        if rng.random() < 0.5:
            return {f"n{rng.randrange(1, 51)}": float(rng.randrange(10_000))}
        return {f"c{rng.randrange(1, 51)}": f"s{rng.randrange(50):05d}"}

    def query(self, kind: str, rng: random.Random) -> Query:
        if kind == "q1_number_eq":
            predicate = Predicate.eq("n1", float(rng.randrange(10_000)))
        else:
            predicate = Predicate.eq("c1", f"s{rng.randrange(50):05d}")
        return Query(kind, self.name, (predicate,))


class FactTable:
    """``F(id, amount, qty, region, status, day, cust)``: ``day`` sorted
    (run-length), ``region``/``status`` low-cardinality dictionary, ``cust``
    high-cardinality dictionary, numeric ``amount``/``qty``."""

    name = "F"
    rows_per_block = 100
    load_batch = 500
    query_kinds = (
        "eq_project", "range_all", "rle_eq", "agg_filtered", "agg_minmax",
    )

    def table_def(self) -> TableDef:
        columns = (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("amount"),
            ColumnDef.number("qty"),
            ColumnDef.varchar("region"),
            ColumnDef.varchar("status"),
            ColumnDef.number("day"),
            ColumnDef.varchar("cust"),
        )
        return TableDef(
            self.name, columns,
            rows_per_block=self.rows_per_block, indexes=("id",),
        )

    def row(self, row_id: int, n_rows: int, rng: random.Random) -> tuple:
        # integer-valued floats throughout, so SUM is exact in any order
        return (
            row_id,
            float(rng.randrange(100_000)),
            float(rng.randrange(1, 1000)),
            REGIONS[rng.randrange(len(REGIONS))],
            STATUSES[rng.randrange(len(STATUSES))],
            float(min(row_id, n_rows - 1) * 365 // n_rows),
            f"c{rng.randrange(max(n_rows // 2, 1)):06d}",
        )

    def update(self, rng: random.Random) -> dict[str, object]:
        return {
            "amount": float(rng.randrange(100_000)),
            "status": STATUSES[rng.randrange(len(STATUSES))],
        }

    def query(self, kind: str, rng: random.Random) -> Query:
        name = self.name
        if kind == "eq_project":  # selective numeric equality, projected
            return Query(
                kind, name,
                (Predicate.eq("qty", float(rng.randrange(1, 1000))),),
                ("id", "amount"),
            )
        if kind == "range_all":  # ~2% range, every column
            low = float(rng.randrange(98_000))
            return Query(
                kind, name, (Predicate.between("amount", low, low + 2000.0),)
            )
        if kind == "rle_eq":  # equality on the run-length column
            return Query(
                kind, name,
                (Predicate.eq("day", float(rng.randrange(365))),),
                ("id", "cust"),
            )
        if kind == "agg_filtered":  # COUNT/SUM/MAX push-down under a filter
            region = REGIONS[rng.randrange(len(REGIONS))]
            return Query(
                kind, name, (Predicate.eq("region", region),),
                aggregates=(
                    AggregateSpec("count"),
                    AggregateSpec("sum", "amount"),
                    AggregateSpec("max", "qty"),
                ),
            )
        return Query(  # unfiltered MIN/MAX
            kind, name,
            aggregates=(
                AggregateSpec("min", "amount"), AggregateSpec("max", "amount"),
            ),
        )


class Dataset:
    """One table's rows as the load generator knows them: committed row
    ids (update targets) and the next free ``id`` value."""

    def __init__(self, table, n_rows: int, seed: int) -> None:
        self.table = table
        self.n_rows = n_rows
        self.rng = random.Random(seed)
        self.rowids: list = []
        self.next_id = 0

    def make_row(self, rng: random.Random) -> tuple:
        row = self.table.row(self.next_id, self.n_rows, rng)
        self.next_id += 1
        return row

    def load_batch(self, primary) -> int:
        """Bulk-load the next batch in one transaction; returns the rows
        loaded (0 once ``n_rows`` are in), so the caller can interleave
        calibration between batches."""
        count = min(self.table.load_batch, self.n_rows - self.next_id)
        if count <= 0:
            return 0
        txn = primary.begin()
        rowids = [
            primary.insert(txn, self.table.name, self.make_row(self.rng))
            for _ in range(count)
        ]
        primary.commit(txn)
        self.rowids.extend(rowids)
        return count


@dataclass(frozen=True)
class DriverSpec:
    """Offered DML load of one driver actor."""

    ops_per_sim_s: float
    pct_update: float
    pct_insert: float  # the remainder is index fetches
    instance_id: int = 1
    #: half of the update targets drawn Pareto-hot instead of uniformly
    hot_half: bool = False
    ops_per_step: int = 8


class DMLDriver(Actor):
    """Issues the update / insert / index-fetch mix on the primary at a
    fixed rate on the sim clock, in transactions of 1-12 statements, and
    keeps the commit log the visibility-lag metrics are computed from."""

    node = None  # generator cost is the benchmark's, not the system's

    def __init__(
        self, primary, data: Dataset, spec: DriverSpec, seed: int
    ) -> None:
        self.primary = primary
        self.data = data
        self.spec = spec
        self.rng = random.Random(seed)
        self.name = f"e2e-dml-driver-{spec.instance_id}"
        self._txn = None
        self._txn_left = 0
        self._txn_inserted: list = []
        self._started_at: Optional[float] = None
        self._now = 0.0
        self._steps = 0
        self.updates = 0
        self.inserts = 0
        self.fetches = 0
        #: row-lock conflicts: the statement is dropped, not a failure
        self.retries = 0
        #: (sim time, commitSCN) of every commit
        self.commit_log: list[tuple[float, int]] = []
        #: worst lateness against the open-loop schedule, sim seconds
        self.max_late_s = 0.0

    @property
    def dml_ops(self) -> int:
        return self.updates + self.inserts

    def _target_row(self):
        rowids = self.data.rowids
        rng = self.rng
        if self.spec.hot_half and rng.random() < 0.5:
            return rowids[min(len(rowids), int(rng.paretovariate(1.2))) - 1]
        return rowids[rng.randrange(len(rowids))]

    def _statement(self, is_update: bool) -> None:
        primary, name, rng = self.primary, self.data.table.name, self.rng
        if self._txn is None:
            self._txn = primary.begin(instance_id=self.spec.instance_id)
            self._txn_left = rng.randint(1, 12)
        if is_update:
            try:
                primary.update(
                    self._txn, name, self._target_row(),
                    self.data.table.update(rng),
                )
                self.updates += 1
            except RowLockConflictError:
                self.retries += 1
        else:
            self._txn_inserted.append(
                primary.insert(self._txn, name, self.data.make_row(rng))
            )
            self.inserts += 1
        self._txn_left -= 1
        if self._txn_left <= 0:
            self.commit(self._now)

    def commit(self, now: float) -> None:
        """Commit the open transaction, if any (also called at stop)."""
        if self._txn is None:
            return
        scn = self.primary.commit(self._txn)
        self.commit_log.append((now, scn))
        # rows become update targets only once committed, so another
        # driver never trips over this one's uncommitted inserts
        self.data.rowids.extend(self._txn_inserted)
        self._txn_inserted = []
        self._txn = None

    def step(self, sched: Scheduler) -> Optional[float]:
        spec = self.spec
        step_s = spec.ops_per_step / spec.ops_per_sim_s
        now = self._now = sched.now
        if self._started_at is None:
            self._started_at = now
        late = now - (self._started_at + self._steps * step_s)
        self.max_late_s = max(self.max_late_s, late)
        self._steps += 1
        rng = self.rng
        for _ in range(spec.ops_per_step):
            draw = rng.random()
            if draw < spec.pct_update:
                self._statement(is_update=True)
            elif draw < spec.pct_update + spec.pct_insert:
                self._statement(is_update=False)
            else:
                self.primary.index_fetch(
                    self.data.table.name, "id",
                    rng.randrange(self.data.next_id),
                )
                self.fetches += 1
        return step_s


class QueryClient:
    """The single closed-loop query caller: hands out the table's query
    kinds round-robin with seeded constants."""

    def __init__(self, table, seed: int) -> None:
        self.table = table
        self.rng = random.Random(seed)
        self.issued = 0

    def next(self) -> Query:
        kinds = self.table.query_kinds
        kind = kinds[self.issued % len(kinds)]
        self.issued += 1
        return self.table.query(kind, self.rng)

    def round(self) -> list[Query]:
        """One query of every kind: the unit a latency sample is taken
        over, so that every kind weighs in on every percentile."""
        return [self.next() for _ in self.table.query_kinds]
