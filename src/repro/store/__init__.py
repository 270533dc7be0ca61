"""Spill-to-disk columnar alert store + the out-of-core query layer.

The analytics data plane: the engine sink streams every ruled-on alert
into struct-packed, CRC-framed column files partitioned by
``(category, hour)``; :class:`AlertQuery` is the single access path the
analysis and reporting layers read alerts through — partition-pushdown
aggregates, chunked column scans, and exact-emit-order object scans
that are byte-equivalent to the in-memory lists they replace.
"""

from .columnar import (
    ColumnarStore,
    ColumnarStoreWriter,
    Partition,
    PartitionMeta,
    StoreError,
    is_store_dir,
)
from .format import (
    COLUMN_MAGIC,
    PAGE_ROWS,
    PARTITION_SECONDS,
    StoreFormatError,
    partition_hour,
)
from .memory import MemoryAlertStore
from .query import AlertChunk, AlertQuery, StoredAlertSequence
from .replay import load_result, run_summary
from .sink import ColumnarSink

__all__ = [
    "AlertChunk",
    "AlertQuery",
    "COLUMN_MAGIC",
    "ColumnarSink",
    "ColumnarStore",
    "ColumnarStoreWriter",
    "MemoryAlertStore",
    "PAGE_ROWS",
    "PARTITION_SECONDS",
    "Partition",
    "PartitionMeta",
    "StoreError",
    "StoreFormatError",
    "StoredAlertSequence",
    "is_store_dir",
    "load_result",
    "partition_hour",
    "run_summary",
]
