"""The synthetic OLTAP workload kit (paper, section IV).

Recreates the paper's evaluation setup at laptop scale: a wide table named
``C101_6P1M_HASH`` with 101 columns (1 identity + 50 NUMBER + 50
VARCHAR2), an index on the identity column, and a driver issuing a tunable
mix of updates, inserts, index fetches and full-table-scan queries at a
target ops/s.
"""

from repro.workload.oltap import (
    OLTAPConfig,
    OLTAPWorkload,
    DMLDriver,
    QueryDriver,
    wide_table_def,
)

__all__ = [
    "OLTAPConfig",
    "OLTAPWorkload",
    "DMLDriver",
    "QueryDriver",
    "wide_table_def",
]
