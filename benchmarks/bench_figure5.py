"""Bench F5: regenerate Figure 5 (Thunderbird ECC interarrivals).

Shape claims: filtered ECC alerts "are basically independent" — their
interarrival distribution is exponential-ish (and lognormal fits well),
filtering "had little effect on the distribution" (raw ~ filtered for
ECC), and ECC is *more* exponential than the bursty categories (VAPI).
"""

from repro.analysis.distributions import (
    compare_models,
    exponentiality_score,
    fit_exponential,
)
from repro.analysis.interarrival import interarrival_times
from repro.reporting.figures import figure5

from _bench_utils import write_artifact


def _category_alerts(result, category, which="filtered_alerts"):
    return [a for a in getattr(result, which) if a.category == category]


def test_figure5_ecc_independence(benchmark, thunderbird_burst_alerts):
    ecc = _category_alerts(thunderbird_burst_alerts, "ECC")
    gaps = interarrival_times(ecc)
    comparison = benchmark(compare_models, gaps)
    text = figure5(ecc)
    write_artifact("figure5.txt", text)

    # Exponential is statistically acceptable for ECC (alpha = 0.05 KS).
    assert comparison.fits["exponential"].acceptable
    # The lognormal view of Figure 5(b) fits too.
    assert comparison.fits["lognormal"].acceptable


def test_figure5_filtering_had_little_effect_on_ecc(
    benchmark, thunderbird_burst_alerts,
):
    """Paper: 'These data are filtered, but that had little effect on the
    distribution' — ECC raw ~= filtered (146 vs 143)."""
    raw = benchmark(
        _category_alerts, thunderbird_burst_alerts, "ECC", "raw_alerts"
    )
    filtered = _category_alerts(thunderbird_burst_alerts, "ECC")
    assert len(filtered) >= 0.9 * len(raw)


def test_figure5_ecc_vs_bursty_categories(benchmark, thunderbird_burst_alerts):
    ecc_gaps = interarrival_times(
        _category_alerts(thunderbird_burst_alerts, "ECC")
    )
    vapi_gaps = interarrival_times(
        _category_alerts(thunderbird_burst_alerts, "VAPI", "raw_alerts")
    )
    scores = benchmark(
        lambda: (exponentiality_score(ecc_gaps),
                 exponentiality_score(vapi_gaps))
    )
    assert scores[0] > scores[1]
    # The raw VAPI stream is so bursty the exponential is flatly rejected.
    assert not fit_exponential(vapi_gaps).acceptable
