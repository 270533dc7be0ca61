"""The paper's primary contribution: alert tagging and filtering.

Public surface:

* :class:`~repro.core.categories.Alert`, :class:`~repro.core.categories.CategoryDef`,
  :class:`~repro.core.categories.Ruleset`, :class:`~repro.core.categories.AlertType`
  — the alert vocabulary;
* :mod:`repro.core.rules` — the 77 expert rules for the five machines;
* :class:`~repro.core.tagging.Tagger` — regex tagging engine;
* :class:`~repro.core.filtering.SpatioTemporalFilter` — the one
  redundancy clock, and :func:`~repro.core.filtering.log_filter` — the
  paper's Algorithm 3.1 (simultaneous spatio-temporal filtering) over a
  whole stream;
* :func:`~repro.core.serial_filter.serial_filter` — the Liang et al.
  temporal-then-spatial baseline;
* per-category thresholds (``SpatioTemporalFilter(thresholds=...)``, fed
  by :func:`~repro.core.adaptive_filter.suggest_thresholds`) and
  correlation-aware keys (:func:`~repro.core.correlated_filter.alias_key`)
  — the extensions the paper recommends as future work;
* :mod:`repro.core.tupling` — Tsao-style tuple clustering baseline;
* :class:`~repro.core.severity.SeverityTaggerConfig` — the severity-field
  baseline the paper evaluates (Tables 5 and 6).
"""

from .categories import Alert, AlertType, CategoryDef, Ruleset
from .tagging import (
    Tagger,
    count_by_category,
    count_by_type,
    observed_categories,
)
from .filtering import (
    DEFAULT_THRESHOLD,
    FilterReport,
    OutOfOrderError,
    SpatioTemporalFilter,
    log_filter,
    sorted_by_time,
)
from .serial_filter import serial_filter
from .adaptive_filter import suggest_thresholds
from .correlated_filter import (
    alias_key,
    learn_correlated_groups,
    pair_cooccurrence,
)
from .tupling import AlertTuple, tuple_alerts
from .attribution import (
    FailureReport,
    attribution_summary,
    build_failure_reports,
)
from .monitor import Disposition, LogMonitor, MonitorStats, OperatorEvent
from .severity import SeverityTaggerConfig
from .rules import RULESETS, get_ruleset

__all__ = [
    "Alert",
    "AlertType",
    "CategoryDef",
    "Ruleset",
    "Tagger",
    "count_by_category",
    "count_by_type",
    "observed_categories",
    "DEFAULT_THRESHOLD",
    "FilterReport",
    "OutOfOrderError",
    "SpatioTemporalFilter",
    "log_filter",
    "sorted_by_time",
    "serial_filter",
    "suggest_thresholds",
    "alias_key",
    "learn_correlated_groups",
    "pair_cooccurrence",
    "AlertTuple",
    "tuple_alerts",
    "FailureReport",
    "attribution_summary",
    "build_failure_reports",
    "Disposition",
    "LogMonitor",
    "MonitorStats",
    "OperatorEvent",
    "SeverityTaggerConfig",
    "RULESETS",
    "get_ruleset",
]
