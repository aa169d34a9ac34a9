"""Storage engine substrate.

An in-memory record manager shared by the relational, network, and
hierarchical data models.  It provides record storage with stable record
ids, secondary indexes, and an operation-metrics counter that every data
model and conversion strategy reports into, so experiments compare
"access path length" (the paper's efficiency measure, Section 2.1.2)
on identical terms.
"""

from repro.engine.metrics import Metrics, MetricsScope
from repro.engine.savepoint import Savepoint, fingerprint
from repro.engine.storage import Record, RecordStore
from repro.engine.index import HashIndex

__all__ = [
    "Metrics",
    "MetricsScope",
    "Record",
    "RecordStore",
    "HashIndex",
    "Savepoint",
    "fingerprint",
]
