"""Parallel execution layer: sharded tagging behind a sequential filter.

The paper processed ~1 billion messages / 111.67 GB of raw logs; this
package removes the one-core cap on our equivalent hot path.  Tagging is
per-record and order-free, so it shards across worker processes
(:class:`ShardedTagger`); the spatio-temporal filter (Algorithm 3.1) is
order-*defined*, so it stays the single sequential consumer of the
outcomes, collected in submission order.  Serial and parallel runs are
therefore byte-for-byte equivalent — a claim the differential test
harness (``tests/parallel/``) enforces, not just asserts.

Entry points: ``api.run_stream(..., parallel=ParallelConfig(...))``,
``api.run_system(..., parallel=...)``, and the CLI's
``study --workers N --batch-size B``.
"""

from .config import ParallelConfig, default_mp_context, default_workers
from .sharded import (
    KILL_SENTINEL,
    ShardStats,
    ShardedTagger,
    TaggerErrorReplay,
    chunked,
)

__all__ = [
    "KILL_SENTINEL",
    "ParallelConfig",
    "ShardStats",
    "ShardedTagger",
    "TaggerErrorReplay",
    "chunked",
    "default_mp_context",
    "default_workers",
]
