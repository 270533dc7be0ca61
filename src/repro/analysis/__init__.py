"""Statistical analyses of tagged and filtered alert streams.

Implements the measurement half of the paper: interarrival statistics and
log-histograms (Figures 5-6), distribution fitting with goodness-of-fit
(Section 4's modeling discussion), spatial and inter-tag correlation
(Figure 3, the CPU-bug discovery), traffic time series and per-source
skew (Figure 2), phase-shift detection (system evolution), severity
cross-tabulation (Tables 5-6), and context-aware RAS metrics (Section 5).
"""

from .checkpointing import (
    CheckpointOutcome,
    daly_interval,
    interval_sweep,
    simulate_lost_work,
    young_interval,
)
from .correlation import (
    SpatialCorrelation,
    TagCorrelation,
    correlation_matrix,
    spatial_correlation,
    tag_correlation,
)
from .distributions import (
    FitResult,
    ModelComparison,
    compare_models,
    empirical_cdf,
    exponentiality_score,
    fit_all,
    fit_exponential,
    fit_lognormal,
    fit_weibull,
)
from .interarrival import (
    LogHistogram,
    interarrival_times,
    interarrivals_by_category,
    log_histogram,
    summary_statistics,
)
from .patterns import (
    Template,
    mine_templates,
    suggest_rules,
    template_coverage,
)
from .phases import PhaseShift, detect_phase_shifts
from .ras import (
    LostWorkEntry,
    LostWorkReport,
    lost_work_report,
    mttf_sensitivity,
    naive_log_mttf,
)
from .severity_eval import (
    DetectorScore,
    SeverityCrossTab,
    score_severity_detector,
)
from .timeseries import (
    RateSeries,
    SourceDistribution,
    bucket_counts,
    hourly_message_counts,
    messages_by_source,
    rate_bytes_per_second,
)

__all__ = [
    "CheckpointOutcome",
    "daly_interval",
    "interval_sweep",
    "simulate_lost_work",
    "young_interval",
    "SpatialCorrelation",
    "TagCorrelation",
    "correlation_matrix",
    "spatial_correlation",
    "tag_correlation",
    "FitResult",
    "ModelComparison",
    "compare_models",
    "empirical_cdf",
    "exponentiality_score",
    "fit_all",
    "fit_exponential",
    "fit_lognormal",
    "fit_weibull",
    "LogHistogram",
    "interarrival_times",
    "interarrivals_by_category",
    "log_histogram",
    "summary_statistics",
    "Template",
    "mine_templates",
    "suggest_rules",
    "template_coverage",
    "PhaseShift",
    "detect_phase_shifts",
    "LostWorkEntry",
    "LostWorkReport",
    "lost_work_report",
    "mttf_sensitivity",
    "naive_log_mttf",
    "DetectorScore",
    "SeverityCrossTab",
    "score_severity_detector",
    "RateSeries",
    "SourceDistribution",
    "bucket_counts",
    "hourly_message_counts",
    "messages_by_source",
    "rate_bytes_per_second",
]
