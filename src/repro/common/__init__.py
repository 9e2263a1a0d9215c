"""Shared primitives: ids, SCNs, errors, configuration.

Everything in this package is dependency-free (standard library only) and is
used by every other subpackage.  The vocabulary follows the paper's (and
Oracle's) terminology: SCN, DBA, transaction id, tenant id.
"""

from repro.common.errors import (
    ReproError,
    SnapshotTooOldError,
    ObjectNotFoundError,
    NotInMemoryError,
    InvalidStateError,
)
from repro.common.ids import (
    DBA,
    RowId,
    ObjectId,
    TenantId,
    TransactionId,
    InstanceId,
    WorkerId,
)
from repro.common.scn import SCN, NULL_SCN, SCNClock
from repro.common.config import (
    RowStoreConfig,
    IMCSConfig,
    ApplyConfig,
    JournalConfig,
    RACConfig,
    SystemConfig,
)

__all__ = [
    "ReproError",
    "SnapshotTooOldError",
    "ObjectNotFoundError",
    "NotInMemoryError",
    "InvalidStateError",
    "DBA",
    "RowId",
    "ObjectId",
    "TenantId",
    "TransactionId",
    "InstanceId",
    "WorkerId",
    "SCN",
    "NULL_SCN",
    "SCNClock",
    "RowStoreConfig",
    "IMCSConfig",
    "ApplyConfig",
    "JournalConfig",
    "RACConfig",
    "SystemConfig",
]
