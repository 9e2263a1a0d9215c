"""The ban list: names of code that left, and where they must not return.

Each row is one removal DESIGN.md records (the "Removed" table of §3, or
the section named in ``design``): a regular expression, the paths it
searches (relative to the repository root, recursively), whether only
``*.py`` files are read, and what is exempt -- a path prefix (a file or a
directory), or a line pattern.  A row fails with every line it matched.

A row with ``paths_only`` matches the expression against the relative
paths of the files under its paths instead of their lines.

This file names every banned pattern, so it is exempt from every row.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SELF = pathlib.Path(__file__).resolve().relative_to(ROOT).as_posix()
EVERYWHERE = ("src", "tests", "examples", "benchmarks")


@dataclass(frozen=True)
class Ban:
    id: str
    pattern: str
    paths: tuple[str, ...]
    design: str
    py_only: bool = True
    exempt: tuple[str, ...] = ()
    exempt_lines: str = ""
    paths_only: bool = False


BANS = [
    Ban(
        "kick",
        r"kick\(",
        ("src/repro",),
        "§2 Wake on work: every producer resumes its parked consumers "
        "with `wake`; there is no `kick`",
    ),
    Ban(
        "name_prefix_detach",
        r"name\.startswith\(",
        ("src/repro",),
        "§12: actors are detached by identity, never swept by name prefix "
        "(the CrashActor fault, whose input is a prefix, lives in "
        "tests/chaos)",
    ),
    Ban(
        "redo_objects",
        r"ChangeVector\(|RedoRecord\(|from_records\(",
        ("src/repro",),
        "§15 One redo representation: redo is columns; the record objects "
        "and the transpose live in tests/naive_batch.py as the oracle",
    ),
    Ban(
        "redo_round_trip",
        r"CVScalars|encode_xid|_XID_SHIFT|\.scalars\b|xid_objects",
        ("src/repro",),
        "§15 One redo representation: a batch is list slices of the log "
        "from the statement to the worker; the packed xid lives in "
        "tests/numpy_miner.py with the numpy mining oracle",
    ),
    Ban(
        "apply_routing",
        r"DependencyAware|ApplyStall|ROUTING_POLICIES|note_applied"
        r"|chained_cvs",
        ("src/repro",),
        "§2 (ADG media recovery row): one apply routing policy, static "
        "DBA hashing; the dictionary learns a table when its marker is "
        "distributed",
    ),
    Ban(
        "row_version_objects",
        r"RowVersion|VersionChain|\.chains?\(|visible_version",
        ("src/repro",),
        "§17 The block version store: row versions are the block's "
        "columns; the version objects and the per-chain walk live in "
        "tests/naive_versions.py as the oracle",
        exempt_lines=r"itertools\.chain\(",
    ),
    Ban(
        "metrics_surfaces",
        r"obs\.view\(|repro\.metrics|LatencySeries|TimeSeries",
        EVERYWHERE,
        "§10: one metrics surface, repro.obs; a counter is a plain "
        "attribute the registry reads by name",
        exempt=("benchmarks/e2e/",),
    ),
    Ban(
        "samplers",
        r"MetricsSampler|FleetLagSampler|LagSampler|sample_metrics"
        r"|dml_instances|sample_every",
        EVERYWHERE,
        "§10: observers stay off the scheduler; lag is read from the "
        "lifecycle tracer",
        exempt=("benchmarks/e2e/",),
    ),
    Ban(
        "observer_actors",
        r"class \w+\(Actor\)",
        ("src/repro/obs", "tests/chaos/harness.py"),
        "§10: no sampler actor draws from the scheduler's jitter stream",
    ),
    Ban(
        "result_cache_external_tables",
        r"ResultCache|ExternalTable|create_external_table|enable_cache"
        r"|cache_capacity|CACHE_HIT_COST|EXTERNAL_FETCH_COST",
        EVERYWHERE,
        "§3 Removed: `imcs/external.py` (In-Memory External Tables) and "
        "`query/cache.py` (QuerySCN result cache)",
        exempt=("tests/common/test_config.py",),
    ),
    Ban(
        "standby_member_kinds",
        r"MIRAStandbyCluster|MIRACoordinator|MIRAApplyInstance"
        r"|_InstancePump|StandbySatellite|ClusterMatchesPrimaryCR"
        r"|standby_instances",
        EVERYWHERE,
        "§3 Removed: `rac/mira.py` and `StandbySatellite`, "
        "`StandbyCluster`, `ClusterMatchesPrimaryCR`, "
        "`RACConfig.standby_instances`",
        exempt=("tests/common/test_config.py",),
    ),
    Ban(
        "checkpoint_export",
        r"export_cu|cu_from_export|rebuild_imcu|GlobalDictionary\.from_values"
        r"|CheckpointStore\(keep_versions|restart\.keep_versions",
        EVERYWHERE,
        "§3 Removed: `export_cu` / `cu_from_export`, `rebuild_imcu`, "
        "`RestartConfig.keep_versions`, `IMCU(rowids=)`",
        exempt=("tests/common/test_config.py",),
    ),
    Ban(
        "tail_row_closures",
        r"row_matcher|add_values|_match_any_row",
        ("src/repro",),
        "§9: the row-store tail filters and folds as columns; the per-row "
        "closures live in tests/naive_predicate.py as the oracle",
    ),
    Ban(
        "tail_columns",
        r"TailColumn|merge_rows|on_tail_matches|number_eq_mask"
        r"|number_range_mask|\b_aggregate\(",
        ("src/repro",),
        "§9: a tail image's columns are CUs, filtered and folded like a "
        "unit's",
    ),
    Ban(
        "numpy_mining_pass",
        r"enabled_mask",
        ("src/repro",),
        "§15 Live widths: the miner filters enabled objects with one dict "
        "lookup per data CV; the numpy pass lives in tests/numpy_miner.py "
        "as the oracle",
    ),
    Ban(
        "btree_index",
        r"BTreeIndex|_split_leaf|_split_interior|next_leaf",
        ("src/repro",),
        "§4: the row store's index is one dict (point lookups; NULL keys "
        "not indexed)",
    ),
    Ban(
        "database_core",
        r"PrimaryDatabase\.__new__|InMemoryFeaturesMixin|_init_features"
        r"|_next_sequence_for|txn_table\._states",
        ("src/repro",),
        "§5 (failover row): one database core, and activation is a "
        "primary mounted over the standby's core",
    ),
    Ban(
        "cu_get",
        r"def get\(self, i",
        ("src/repro/imcs/compression.py",),
        "§9: a CU decodes through bulk take only; tests decode through "
        "take or tests/helpers.py::cu_buffers",
    ),
    Ban(
        "run_length_cu",
        r"RunLengthCU|RLE_MIN_AVG_RUN|RLE_SLICE_EXPAND|run_view|_run_length"
        r"|random_plan",
        EVERYWHERE,
        "§3 Removed: `RunLengthCU`, its upgrade and run-skipping; "
        "`chaos.plan.random_plan`",
    ),
    Ban(
        "session_knobs",
        r"affinity_key|prefer_standby|per_service=|queue_limit|load_weight"
        r"|ReadOnlyError|NoQualifyingStandbyError|last_seen_scn"
        r"|commit_table_partitions",
        EVERYWHERE,
        "§3 Removed: `FleetSession`'s writes, session affinity, "
        "`prefer_standby`, `FleetRouter(load_weight=)`, the immediate "
        "read-your-writes floor, `AdmissionController`'s caps, "
        "`JournalConfig.commit_table_partitions`",
        exempt=("benchmarks/e2e/",),
    ),
    Ban(
        "chaos_harness_files",
        r"^src/repro/chaos/(?!__init__\.py$|sites\.py$)",
        ("src/repro/chaos",),
        "§3 Removed: the chaos harness in `src/` (src/repro/chaos keeps "
        "only the injection sites)",
        py_only=False,
        paths_only=True,
    ),
    Ban(
        "chaos_harness_names",
        r"repro\.chaos\.(faults|plan|invariants|harness|scenarios)"
        r"|repro\.obs\.__main__|ChaosHarness|F\.Timed|class Timed",
        EVERYWHERE,
        "§3 Removed: the chaos harness in `src/`, `python -m repro.obs`, "
        "`faults.Timed`",
        py_only=False,
        exempt=("benchmarks/e2e/",),
    ),
    Ban(
        "bucket_latches",
        r"BucketLatchSet|class Latch\b|LatchBusyError|_with_recovery"
        r"|_recover_latch|latch_breaks|mined_xids|pending_commits"
        r"|data_mined|mined_pos",
        ("src", "benchmarks", "examples"),
        "§3 Removed: the IM-ADG Journal's bucket latches and every "
        "latch-miss path (a scheduler step is the critical section)",
        exempt=("benchmarks/e2e/",),
    ),
    Ban(
        "quiesce_lock_and_pins",
        r"QuiesceLock|quiesce_lock|try_acquire_(shared|exclusive)"
        r"|\.pin\(\)|unpin\(|\.pinned\b|_pins\b",
        ("src/repro",),
        "§3 Removed: the quiesce lock and the SMU pins (a publication, a "
        "capture and a unit scan are each one scheduler step)",
    ),
    Ban(
        "invalidate",
        r"cache\.invalidate\(|def invalidate\(self, dba",
        EVERYWHERE,
        "§3 Removed: `BufferCache.invalidate` (nothing evicts a block, so "
        "a tail image's repeat counts its blocks as hits untouched)",
    ),
    Ban(
        "join_groups_and_prepare",
        r"JoinGroup|join_group|SharedDictionaryCU|GlobalDictionary"
        r"|join_dictionar|TXN_PREPARE|TxnState\.PREPARED",
        ("src/repro", "examples"),
        "§3 Removed: In-Memory Join Groups (their shared dictionaries and "
        "code-keyed join; `Database.join` is one hash join keyed by value) "
        "and two-phase prepare",
    ),
    Ban(
        "invalidation_numpy",
        r"import numpy|\bnp\.",
        ("src/repro/dbim_adg", "src/repro/rac/cluster.py"),
        "§15 One record from the miner to the mask: mining, the journal, "
        "the flush and the RAC split hold a record as plain values",
    ),
    Ban(
        "journal_matrix",
        r"mined_columns",
        ("src/repro",),
        "§3 Removed: the journal's `(4, n)` matrix (`CVBatch.mined_columns`"
        "); a `RecordChunk` is lists of object ids and row keys",
    ),
    Ban(
        "plain_adg_mode",
        r"dbim_on_adg|dbim_enabled",
        EVERYWHERE,
        "§3 Removed: every standby and MIRA peer runs DBIM-on-ADG; the "
        "paper's \"without DBIM-on-ADG\" arm is a standby with nothing "
        "enabled in memory",
    ),
    Ban(
        "cooperative_double_switch",
        r"self\.cooperative\b",
        ("src/repro/dbim_adg",),
        "§3 Removed: `ApplyConfig.cooperative_flush` is decided once, where "
        "the standby withholds the workers' flush helper",
    ),
    Ban(
        "single_row_invalidation",
        r"invalidate_row\(|position_of\(|positions_for_keys\(",
        ("src/repro",),
        "§3 Removed: every invalidation reaches an SMU through "
        "`invalidate_keys`; tests address one row with "
        "`tests/helpers.py::row_position`",
    ),
    Ban(
        "merge_kernels",
        r"_merge_numeric|_merge_sorted_columns|encode_column",
        ("src/repro",),
        "§3 Removed and §17 Delta repopulation: one gather-and-patch "
        "merge inside `encode_rows(carried=...)`; tests encode one column "
        "through `tests/helpers.py::encode_column`",
    ),
    Ban(
        "txn_change_list",
        r"ChangeRecord|touched_objects|began_in_redo|\.changes\b",
        ("src/repro",),
        "§3 Removed and §15 One way in, one way out: a transaction's "
        "change list is its redo (`Transaction.cv_offsets`, read back by "
        "`TransactionManager.changed_rows`); a client that wants its "
        "inserted rows keeps them (`tests/helpers.py::ClientInserts`)",
    ),
    Ban(
        "commit_hook_list",
        r"on_commit",
        ("src/repro",),
        "§3 Removed: `PrimaryDatabase.commit` invalidates the primary's "
        "own IMCS itself, right after the manager commits",
    ),
    Ban(
        "pool_budget",
        r"pool_size_bytes|has_capacity_for|capacity_skips",
        ("src/repro",),
        "§3 Removed: the IMCS pool budget; every unit population builds "
        "is registered",
    ),
    Ban(
        "population_priority",
        r"priority",
        (
            "src/repro/imcs/population.py",
            "src/repro/imcs/store.py",
            "src/repro/db",
        ),
        "§3 Removed: population priority; the engine runs its tasks first "
        "in, first out",
    ),
    Ban(
        "own_write_reads",
        r"reader_xid",
        ("src/repro",),
        "§3 Removed: own-transaction reads; every consistent read is at a "
        "snapshot SCN and sees committed rows only",
    ),
    Ban(
        "member_reads_instance_one",
        r"member\.standby|\.standby\.(query|aggregate|scan_engine|catalog"
        r"|query_scn)\b",
        ("src/repro/fleet", "src/repro/query"),
        "§3 Removed: `StandbyMember.query`'s single-instance fork; the "
        "query service, SQL sessions and the router read the member "
        "(`ReadSide`, every instance's IMCS at `published_scn`), never "
        "instance 1",
    ),
    Ban(
        "test_only_reads",
        r"def (clone|contains_dba|row_count_current|rollback_transaction"
        r"|state_of|is_finished|drop_next|min_pending_scn|captured_tables"
        r"|checkpointed_objects|last_value)\b",
        ("src/repro",),
        "§3 Removed: second ways into state that only tests called; tests "
        "read the state itself (`tests/helpers.py::txn_state`, "
        "`current_rows`), undo a write with `DataBlock.undo_write` and "
        "drop a shipment through the `redo.ship` chaos site",
    ),
    Ban(
        "test_only_sizes",
        r"def __(len|contains)__",
        (
            "src/repro/rowstore/index.py",
            "src/repro/rowstore/segment.py",
            "src/repro/dbim_adg/ddl.py",
            "src/repro/dbim_adg/journal.py",
            "src/repro/txn/table.py",
        ),
        "§3 Removed: the sizes only tests asked for (`HashIndex`, "
        "`BlockStore`, `DDLInformationTable`, `RecordChunk`, "
        "`TransactionTable`)",
    ),
    Ban(
        "test_only_sizes_catalog",
        r"def __len__",
        ("src/repro/db/catalog.py",),
        "§3 Removed: `Catalog.__len__`; `__contains__` stays, the "
        "catalog's readers ask it",
    ),
    Ban(
        "second_lag_and_cdc_reads",
        r"def (applied_through_scn|cdc|advance_to)\b",
        (
            "src/repro/db/standby.py",
            "src/repro/db/deployment.py",
            "src/repro/common/scn.py",
        ),
        "§3 Removed: `StandbyMember.applied_through_scn` is the one read, "
        "`start_cdc` returns the egress and `member.cdc` holds it, and the "
        "SCN clock only moves by `next`",
    ),
    Ban(
        "column_cu_stubs",
        r"NotImplementedError|NumericCU\(",
        ("src/repro/imcs",),
        "§3 Removed: `ColumnCU` is the alias `NumericCU | DictionaryCU`, "
        "with no stub base class; a NUMBER CU is built by `encode_rows` "
        "(tests: `tests/helpers.py::encode_column`)",
    ),
    Ban(
        "unset_knobs",
        r"group_block_limit|ops_per_step|scans_per_sec: |self\.interval\b"
        r"|speed",
        (
            "src/repro/dbim_adg/flush.py",
            "src/repro/workload/oltap.py",
            "src/repro/db/primary.py",
            "src/repro/rowstore/undo_retention.py",
            "src/repro/adg/apply.py",
        ),
        "§3 Removed: values no driver set are constants "
        "(`InvalidationFlushComponent.GROUP_BLOCK_LIMIT`, "
        "`DMLDriver.OPS_PER_STEP`, `LogShipper.BATCH`, "
        "`HEARTBEAT_INTERVAL`, `SWEEP_INTERVAL`; a worker's `speed` is "
        "`Actor`'s attribute); `tests/settable_values.txt` lists the rest",
    ),
    Ban(
        "shipment_size_knob",
        r"self\.batch\b",
        ("src/repro/redo/shipping.py",),
        "§3 Removed: `LogShipper(batch=)`; a shipment is at most "
        "`LogShipper.BATCH` records",
    ),
    Ban(
        "scheduler_test_helpers",
        r"FunctionActor|run_steps",
        ("src/repro",),
        "§3 Removed: `FunctionActor` and `Scheduler.run_steps` live in "
        "tests/helpers.py",
    ),
    Ban(
        "query_service_wrappers",
        r"QueryWorkerPool|QueryHandle|query_service\.pool"
        r"|query\.service\.submitted|repro\.query\.executor",
        EVERYWHERE,
        "§3 Removed / §11: one `QueryService` owns its workers, its "
        "`query.pool.*` instruments and the `query.pool` site; the "
        "`PendingQuery` a submit returns is the handle",
    ),
    Ban(
        "query_executor_module",
        r"^src/repro/query/executor\.py$",
        ("src/repro/query",),
        "§3 Removed: `query/executor.py`; the workers live in "
        "`query/service.py`",
        paths_only=True,
    ),
    Ban(
        "test_only_second_reads",
        r"def destinations\b|\.destinations\b|scn_gap_at\(",
        EVERYWHERE,
        "§3 Removed: `LogShipper.destinations` and "
        "`RedoLifecycleTracer.scn_gap_at`; tests read the shipper's "
        "receivers and the tracer's series (`value_at`)",
    ),
    Ban(
        "site_registry_names",
        r"def names\b",
        ("src/repro/chaos",),
        "§3 Removed: `SiteRegistry.names`; `sites(name)` is the read",
    ),
    Ban(
        "registry_reads",
        r"Optional\[Instrument\]|list\[Instrument\]"
        r"|isinstance\(inst, Bound\)",
        ("src/repro/obs/registry.py",),
        "§3 Removed: `MetricsRegistry.get` / `find` / `total`; a snapshot "
        "(`registry.snapshot()`) is the one read surface",
    ),
]


def files_of(ban: Ban):
    """Every file under the ban's paths it reads, as (relative path,
    path)."""
    for root in ban.paths:
        top = ROOT / root
        found = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in found:
            rel = path.relative_to(ROOT).as_posix()
            if (
                not path.is_file()
                or "__pycache__" in path.parts
                or (ban.py_only and path.suffix != ".py")
                or rel == SELF
                or rel.startswith(ban.exempt)
            ):
                continue
            yield rel, path


def matches(ban: Ban) -> list[str]:
    pattern = re.compile(ban.pattern)
    exempt_line = re.compile(ban.exempt_lines) if ban.exempt_lines else None
    out = []
    for rel, path in files_of(ban):
        if ban.paths_only:
            if pattern.search(rel):
                out.append(rel)
            continue
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            continue  # a binary file
        for number, line in enumerate(lines, 1):
            if pattern.search(line) and not (
                exempt_line is not None and exempt_line.search(line)
            ):
                out.append(f"{rel}:{number}: {line.strip()}")
    return out


@pytest.mark.parametrize("ban", BANS, ids=[ban.id for ban in BANS])
def test_removed_name_stays_removed(ban):
    found = matches(ban)
    assert not found, f"{ban.design}:\n" + "\n".join(found)


def test_every_searched_path_exists():
    """A renamed directory would make its rows pass vacuously."""
    for ban in BANS:
        for root in ban.paths:
            assert (ROOT / root).exists(), (ban.id, root)
