"""Unit tests for phase-shift (changepoint) detection."""

import numpy as np
import pytest

from repro.analysis.phases import detect_phase_shifts
from repro.analysis.timeseries import RateSeries


def _series(values, bucket=3600.0, start=0.0):
    return RateSeries(
        bucket_seconds=bucket, start=start, counts=np.asarray(values)
    )


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(55)


class TestDetection:
    def test_detects_single_step(self, rng):
        values = np.concatenate(
            [rng.poisson(50, 200), rng.poisson(150, 200)]
        )
        shifts = detect_phase_shifts(_series(values))
        assert len(shifts) == 1
        assert abs(shifts[0].bucket_index - 200) <= 5
        assert shifts[0].magnitude == pytest.approx(3.0, rel=0.2)

    def test_detects_multiple_steps(self, rng):
        values = np.concatenate(
            [rng.poisson(40, 150), rng.poisson(120, 150), rng.poisson(70, 150)]
        )
        shifts = detect_phase_shifts(_series(values))
        assert len(shifts) == 2
        indices = [s.bucket_index for s in shifts]
        assert abs(indices[0] - 150) <= 8
        assert abs(indices[1] - 300) <= 8

    def test_flat_noise_yields_nothing(self, rng):
        values = rng.poisson(80, 500)
        assert detect_phase_shifts(_series(values)) == []

    def test_min_segment_rejects_transient_storm(self, rng):
        """A one-hour storm is a failure, not system evolution."""
        values = rng.poisson(50, 400)
        values[200] = 5000
        shifts = detect_phase_shifts(_series(values), min_segment=24)
        assert shifts == []

    def test_timestamps_follow_buckets(self, rng):
        values = np.concatenate([rng.poisson(20, 100), rng.poisson(200, 100)])
        series = _series(values, bucket=3600.0, start=1e9)
        (shift,) = detect_phase_shifts(series)
        assert shift.timestamp == 1e9 + shift.bucket_index * 3600.0

    def test_short_series_is_quiet(self):
        assert detect_phase_shifts(_series([5, 6, 5, 7])) == []
