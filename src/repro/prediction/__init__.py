"""Failure prediction: single-feature baselines and the per-category
ensemble the paper recommends (Sections 4 and 5)."""

from .base import PredictionScore, Predictor, Warning_, evaluate
from .dft import DftPredictor
from .ensemble import (
    DEFAULT_FACTORIES,
    EnsembleMember,
    PredictorEnsemble,
)
from .features import AlertHistory
from .predictors import BurstPredictor, PrecursorPredictor, SeverityPredictor

__all__ = [
    "PredictionScore",
    "Predictor",
    "Warning_",
    "evaluate",
    "DftPredictor",
    "DEFAULT_FACTORIES",
    "EnsembleMember",
    "PredictorEnsemble",
    "AlertHistory",
    "BurstPredictor",
    "PrecursorPredictor",
    "SeverityPredictor",
]
