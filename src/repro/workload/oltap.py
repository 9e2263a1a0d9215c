"""The synthetic OLTAP workload.

Paper, section IV-A: "The setup includes a synthetic OLTAP workload that
simulates an insert/update workload interspersed with queries.  The test
consists of a wide table with 6M rows, and 101 columns (1 identity column,
50 number columns and 50 varchar2 columns) with an index on the identity
column. [...] The test was run for 1 hour with a target throughput of 4000
ops/sec.  The percentage of DMLs and analytic queries in the workload was
tunable."

Scaled down: the defaults use 6,000 rows (config raises it), simulated
seconds instead of wall hours, and the same tunable mix.  The drivers are
scheduler actors:

* :class:`DMLDriver` runs the update/insert/index-fetch mix on the primary
  at the target rate (pacing via its actor timeline; CPU charged per-op to
  the primary node);
* :class:`QueryDriver` runs Table 1's Q1/Q2 full scans against whichever
  database it is pointed at and records response times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.common.ids import InstanceId
from repro.db.deployment import Deployment, InMemoryService
from repro.db.schema_def import ColumnDef, PartitionScheme, TableDef
from repro.imcs.scan import Predicate
from repro.obs import Histogram
from repro.rowstore.table import RowLockConflictError
from repro.sim.scheduler import Actor, Scheduler

# Simulated CPU seconds per DML-path operation on the primary.  These model
# the row-store code path (index maintenance, buffer access, redo
# generation); the redo transport and apply sides are charged by their own
# actors.
UPDATE_CPU_COST = 25e-6
INSERT_CPU_COST = 30e-6
FETCH_CPU_COST = 8e-6


@dataclass(slots=True)
class OLTAPConfig:
    """Tunable workload shape (paper defaults in comments)."""

    table_name: str = "C101_6P1M_HASH"
    n_rows: int = 6_000           # paper: 6M
    n_number_columns: int = 50
    n_varchar_columns: int = 50
    rows_per_block: int = 50
    target_ops_per_sec: float = 4000.0
    # operation mix (fractions of total ops); the remainder is index fetch
    pct_update: float = 0.70      # update-only workload: 70%
    pct_insert: float = 0.0
    pct_scan: float = 0.01        # 1% ad-hoc full scans
    #: statements per transaction, sampled uniformly from this range
    #: ("short, medium and long-running transaction mix", section IV-C).
    txn_statements: tuple[int, int] = (1, 4)
    duration: float = 5.0         # simulated seconds (paper: 1 hour)
    seed: int = 7
    #: distinct values per varchar column (drives dictionary cardinality)
    varchar_cardinality: int = 50

    def validate(self) -> None:
        total = self.pct_update + self.pct_insert + self.pct_scan
        if total > 1.0 + 1e-9:
            raise ValueError(f"operation mix sums to {total} > 1")


def wide_table_def(config: OLTAPConfig) -> TableDef:
    """The 101-column wide table of the paper's evaluation."""
    columns = [ColumnDef.number("id", nullable=False)]
    columns += [
        ColumnDef.number(f"n{i}") for i in range(1, config.n_number_columns + 1)
    ]
    columns += [
        ColumnDef.varchar(f"c{i}")
        for i in range(1, config.n_varchar_columns + 1)
    ]
    return TableDef(
        config.table_name,
        tuple(columns),
        rows_per_block=config.rows_per_block,
        scheme=PartitionScheme.single(),
        indexes=("id",),
    )


def make_row(config: OLTAPConfig, row_id: int, rng: random.Random) -> tuple:
    numbers = [
        float(rng.randrange(0, 10_000))
        for __ in range(config.n_number_columns)
    ]
    strings = [
        f"s{rng.randrange(config.varchar_cardinality):05d}"
        for __ in range(config.n_varchar_columns)
    ]
    return (row_id, *numbers, *strings)


# ----------------------------------------------------------------------
class DMLDriver(Actor):
    """Issues the DML/fetch mix against the primary at the target rate."""

    #: Operations per step; the step's pacing covers all of them.
    OPS_PER_STEP = 8

    def __init__(
        self,
        deployment: Deployment,
        config: OLTAPConfig,
        next_id_start: int,
        instance_id: InstanceId = 1,
    ) -> None:
        self.deployment = deployment
        self.config = config
        self.rng = random.Random(config.seed + instance_id)
        self.instance_id = instance_id
        self.name = f"dml-driver-{instance_id}"
        self.node = None  # CPU charged manually per op
        self._next_id = next_id_start
        self._txn = None
        self._txn_remaining = 0
        self.ops_issued = 0
        self.updates = 0
        self.inserts = 0
        self.fetches = 0
        self.conflicts = 0

    # -- operation implementations ------------------------------------
    def _ensure_txn(self):
        primary = self.deployment.primary
        if self._txn is None or not self._txn.is_active:
            self._txn = primary.begin(instance_id=self.instance_id)
            lo, hi = self.config.txn_statements
            self._txn_remaining = self.rng.randint(lo, hi)
        return self._txn

    def _finish_statement(self) -> None:
        self._txn_remaining -= 1
        if self._txn_remaining <= 0 and self._txn is not None:
            self.deployment.primary.commit(self._txn)
            self._txn = None

    def _random_rowid(self):
        table = self.deployment.primary.catalog.table(self.config.table_name)
        key = self.rng.randrange(0, self._next_id)
        return table.indexes["id"].search(key)

    def _do_update(self) -> float:
        txn = self._ensure_txn()
        rowid = self._random_rowid()
        if rowid is None:
            return FETCH_CPU_COST
        config = self.config
        if self.rng.random() < 0.5:
            column = f"n{self.rng.randrange(1, config.n_number_columns + 1)}"
            value: object = float(self.rng.randrange(0, 10_000))
        else:
            column = f"c{self.rng.randrange(1, config.n_varchar_columns + 1)}"
            value = f"s{self.rng.randrange(config.varchar_cardinality):05d}"
        try:
            self.deployment.primary.update(
                txn, config.table_name, rowid, {column: value}
            )
            self.updates += 1
        except RowLockConflictError:
            self.conflicts += 1
        self._finish_statement()
        return UPDATE_CPU_COST

    def _do_insert(self) -> float:
        txn = self._ensure_txn()
        row = make_row(self.config, self._next_id, self.rng)
        self._next_id += 1
        self.deployment.primary.insert(txn, self.config.table_name, row)
        self.inserts += 1
        self._finish_statement()
        return INSERT_CPU_COST

    def _do_fetch(self) -> float:
        key = self.rng.randrange(0, self._next_id)
        self.deployment.primary.index_fetch(self.config.table_name, "id", key)
        self.fetches += 1
        return FETCH_CPU_COST

    # -- actor ----------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        config = self.config
        node = self.deployment.primary.instance(self.instance_id).node
        # DML share of the total ops rate driven by this actor
        dml_fraction = 1.0 - config.pct_scan
        cpu = 0.0
        for __ in range(self.OPS_PER_STEP):
            draw = self.rng.random() * dml_fraction
            if draw < config.pct_update:
                cpu += self._do_update()
            elif draw < config.pct_update + config.pct_insert:
                cpu += self._do_insert()
            else:
                cpu += self._do_fetch()
            self.ops_issued += 1
        node.charge(cpu)
        # pacing: this step accounted for OPS_PER_STEP of the DML budget
        dml_rate = config.target_ops_per_sec * dml_fraction
        return self.OPS_PER_STEP / dml_rate


class QueryDriver(Actor):
    """Issues Table 1's Q1/Q2 full scans and records response times.

    ``target`` is ``"primary"`` or ``"standby"``: the deployment's
    database whose ``query`` runs the scans and whose ``node`` is charged.
    """

    def __init__(
        self,
        deployment: Deployment,
        config: OLTAPConfig,
        target: str = "standby",
    ) -> None:
        if target not in ("primary", "standby"):
            raise ValueError(
                f"query target must be 'primary' or 'standby', not {target!r}"
            )
        self.deployment = deployment
        self.config = config
        self.target = target
        self.scans_per_sec = config.target_ops_per_sec * config.pct_scan
        self.rng = random.Random(config.seed + 1000)
        self.name = "query-driver"
        self.node = None  # charged manually to the target's node
        self.q1 = Histogram("Q1")
        self.q2 = Histogram("Q2")

    def _database(self):
        return (
            self.deployment.standby
            if self.target == "standby"
            else self.deployment.primary
        )

    def run_one_query(self) -> float:
        """Run one ad-hoc scan; returns its simulated response time."""
        database = self._database()
        if self.rng.random() < 0.5:
            # Q1: numeric filter that may have been updated
            value = float(self.rng.randrange(0, 10_000))
            result = database.query(
                self.config.table_name, [Predicate.eq("n1", value)]
            )
            series = self.q1
        else:
            # Q2: varchar filter that may have been updated
            value = f"s{self.rng.randrange(self.config.varchar_cardinality):05d}"
            result = database.query(
                self.config.table_name, [Predicate.eq("c1", value)]
            )
            series = self.q2
        latency = result.stats.cost_seconds
        series.observe(latency)
        return latency

    def step(self, sched: Scheduler) -> Optional[float]:
        if self.scans_per_sec <= 0:
            return None
        latency = self.run_one_query()
        self._database().node.charge(latency)
        # pacing: one scan per 1/rate seconds (response time included
        # -- the paper's drivers block on their queries)
        return max(latency, 1.0 / self.scans_per_sec)


# ----------------------------------------------------------------------
class OLTAPWorkload:
    """Builds the wide table, loads it, and runs the configured mix."""

    def __init__(self, deployment: Deployment, config: OLTAPConfig) -> None:
        config.validate()
        self.deployment = deployment
        self.config = config
        self.rng = random.Random(config.seed)
        self.dml_driver: Optional[DMLDriver] = None
        self.query_driver: Optional[QueryDriver] = None

    # ------------------------------------------------------------------
    def setup(
        self,
        service: Optional[InMemoryService] = InMemoryService.BOTH,
    ) -> None:
        """Create + bulk-load the wide table, 500 rows per transaction;
        optionally enable in-memory (None = row store only, the paper's
        'without DBIM' baseline)."""
        config = self.config
        self.deployment.create_table(wide_table_def(config))
        primary = self.deployment.primary
        loaded = 0
        while loaded < config.n_rows:
            txn = primary.begin()
            for __ in range(min(500, config.n_rows - loaded)):
                primary.insert(
                    txn, config.table_name,
                    make_row(config, loaded, self.rng),
                )
                loaded += 1
            primary.commit(txn)
        if service is not None:
            self.deployment.enable_inmemory(config.table_name, service=service)
        self.deployment.catch_up()

    # ------------------------------------------------------------------
    def start(self, scan_target: str = "standby") -> None:
        """Attach the drivers to the deployment's scheduler."""
        config = self.config
        self.dml_driver = DMLDriver(
            self.deployment, config, next_id_start=config.n_rows
        )
        self.deployment.sched.add_actor(self.dml_driver)
        if config.pct_scan > 0:
            self.query_driver = QueryDriver(
                self.deployment, config, target=scan_target
            )
            self.deployment.sched.add_actor(self.query_driver)

    def run(self) -> None:
        self.deployment.run(self.config.duration)

    def stop(self) -> None:
        for driver in (self.dml_driver, self.query_driver):
            if driver is not None:
                self.deployment.sched.remove_actor(driver)
        driver = self.dml_driver
        if driver is not None:
            if driver._txn is not None and driver._txn.is_active:
                self.deployment.primary.commit(driver._txn)
            driver._txn = None
