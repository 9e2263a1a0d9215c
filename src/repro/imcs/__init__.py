"""Oracle Database In-Memory: the dual-format column store.

Implements the DBIM side of the paper (section II-B):

* **IMCUs** -- read-only In-Memory Columnar Units holding a DBA range of a
  segment in compressed, encoded column vectors with min/max storage
  indexes (``imcu.py``, ``compression.py``);
* **SMUs** -- Snapshot Metadata Units tracking the validity of IMCU data at
  block and row granularity (``smu.py``);
* **population / repopulation** -- background construction of IMCUs at a
  snapshot SCN, and refresh when too much of an IMCU has been invalidated
  (``population.py``);
* the **In-Memory Scan Engine** -- vectorised predicate evaluation with
  storage-index pruning, reconciling invalid/missing rows against the row
  store buffer cache (``scan.py``);
* the **IMCS** itself -- the in-memory pool mapping enabled objects to
  their IMCU/SMU pairs (``store.py``);
* the section-V extension features: In-Memory Expressions
  (``expressions.py``) and aggregation push-down (``aggregate.py``).
"""

from repro.imcs.compression import (
    ColumnCU,
    DictionaryCU,
    NumericCU,
)
from repro.imcs.imcu import IMCU
from repro.imcs.smu import SMU
from repro.imcs.store import InMemoryColumnStore, InMemorySegment
from repro.imcs.population import PopulationEngine, PopulationTask
from repro.imcs.scan import Predicate, ScanEngine, ScanResult, ScanStats
from repro.imcs.aggregate import AggregateResult, AggregateSpec, Aggregator
from repro.imcs.expressions import Expression, ExpressionSet, RowResolver

__all__ = [
    "ColumnCU",
    "NumericCU",
    "DictionaryCU",
    "IMCU",
    "SMU",
    "InMemoryColumnStore",
    "InMemorySegment",
    "PopulationEngine",
    "PopulationTask",
    "Predicate",
    "ScanEngine",
    "ScanResult",
    "ScanStats",
    "AggregateResult",
    "AggregateSpec",
    "Aggregator",
    "Expression",
    "ExpressionSet",
    "RowResolver",
]
