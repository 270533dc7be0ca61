"""Streaming correlation mining and online failure prediction.

The offline analyses of Section 4/5 — spatial and inter-tag correlation
(:mod:`repro.analysis.correlation`) and the per-category predictor
ensemble (:mod:`repro.prediction.ensemble`) — promoted into the engine
as a composable stage:

* :class:`StreamingCorrelationMiner` — a windowed co-occurrence graph
  over (category, category) and (category, source) pairs, maintained
  incrementally with exponential decay, bounded memory (top-k edge
  retention, watermark-driven window eviction), and snapshot/restore
  through the durable checkpoint wire;
* :class:`OnlineEnsemble` — the Section 5 ensemble refit on a doubling
  schedule over the live alert stream, emitting lead-time-stamped
  warnings as alerts arrive;
* :class:`PredictionStage` — the engine-facing stage tying both to the
  watermark of the alert stream, attached to any driver's sink seam via
  ``api.run_stream(..., predict=True)``.

The miner is also the kernel behind the offline
:func:`~repro.analysis.correlation.tag_correlation` /
:func:`~repro.analysis.correlation.spatial_correlation`.  The
differential suites in ``tests/prediction/`` pin it to the per-alert
reference loops for any batch partition of the stream, including batch
size 1 and out-of-order arrival within the reorder tolerance.
"""

from .miner import (
    CorrelationEdge,
    CorrelationGraph,
    SourceEdge,
    StreamingCorrelationMiner,
)
from .online import OnlineEnsemble, OnlineWarning, SlimAlert
from .stage import PredictionConfig, PredictionReport, PredictionStage, prediction_stage

__all__ = [
    "CorrelationEdge",
    "CorrelationGraph",
    "OnlineEnsemble",
    "OnlineWarning",
    "PredictionConfig",
    "PredictionReport",
    "PredictionStage",
    "SlimAlert",
    "SourceEdge",
    "StreamingCorrelationMiner",
    "prediction_stage",
]
