"""Per-node storage substrate: WAL, memtables, SSTables (Bigtable-style).

Spinnaker reused Cassandra's storage layer (Appendix C); this package is
our from-scratch equivalent, shared by both the Spinnaker implementation
(:mod:`repro.core`) and the eventually consistent baseline
(:mod:`repro.baseline`).
"""

from .lsn import LSN
from .records import (CatchupMarker, CheckpointRecord, CommitMarker,
                      LogRecord, WriteRecord, decode_record, encode_record)
from .wal import DuplicateLSN, SharedLog, StaleLSN
from .memtable import Cell, Memtable, lsn_order, timestamp_order
from .sstable import SSTable
from .compaction import SizeTieredPolicy, compact
from .snapshot import SnapshotManifest
from .engine import StorageEngine

__all__ = [
    "LSN",
    "WriteRecord", "CommitMarker", "CheckpointRecord", "CatchupMarker",
    "LogRecord", "encode_record", "decode_record",
    "SharedLog", "DuplicateLSN", "StaleLSN",
    "Cell", "Memtable", "lsn_order", "timestamp_order",
    "SSTable",
    "compact", "SizeTieredPolicy",
    "SnapshotManifest",
    "StorageEngine",
]
