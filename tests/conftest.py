"""Shared fixtures: small generated logs, cached per test session.

Generation is deterministic, so caching materialized streams is safe and
keeps the suite fast — the big systems are only generated once.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro import api as pipeline
from repro.core.categories import Alert, AlertType
from repro.logmodel.record import LogRecord
from repro.resilience import wire
from repro.resilience.durability import AlertCopy
from repro.resilience.faults import FaultyFilesystem

#: Scales small enough for unit-test speed, large enough for structure.
SMALL_SCALE = 2e-5
MEDIUM_SCALE = 1e-3

SEED = 20070625  # DSN 2007 conference date

#: Worker count for parallel-path tests.  The CI matrix job widens this
#: via REPRO_PARALLEL_WORKERS; the default of 2 keeps local runs cheap
#: while still crossing a real process boundary.
ENV_WORKERS = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))


@pytest.fixture(scope="session")
def env_workers() -> int:
    return ENV_WORKERS


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def liberty_result():
    """Full pipeline over a small Liberty log (cheapest rich system)."""
    return pipeline.run_system("liberty", scale=SMALL_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def bgl_result():
    """Full pipeline over a medium BG/L log (it is tiny even at 1e-3)."""
    return pipeline.run_system("bgl", scale=MEDIUM_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def redstorm_result():
    return pipeline.run_system("redstorm", scale=SMALL_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def spirit_result():
    return pipeline.run_system("spirit", scale=SMALL_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def thunderbird_result():
    return pipeline.run_system("thunderbird", scale=SMALL_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def all_results(
    bgl_result, thunderbird_result, redstorm_result, spirit_result,
    liberty_result,
):
    return {
        "bgl": bgl_result,
        "thunderbird": thunderbird_result,
        "redstorm": redstorm_result,
        "spirit": spirit_result,
        "liberty": liberty_result,
    }


def make_alert(
    t: float,
    source: str = "n1",
    category: str = "CAT",
    alert_type: AlertType = AlertType.SOFTWARE,
    system: str = "test",
) -> Alert:
    """Hand-built alert for filter/analysis unit tests."""
    record = LogRecord(
        timestamp=t,
        source=source,
        facility="kernel",
        body=f"synthetic {category}",
        system=system,
    )
    return Alert(
        timestamp=t,
        source=source,
        category=category,
        alert_type=alert_type,
        record=record,
    )


class Hostile:
    """Pickles to ``os.system("touch <sentinel>")``: loading it would run
    a shell command, which is what a tampered state file could do before
    the durable codec confined payloads to ``wire.STATE_TYPES``."""

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def __reduce__(self):
        return (os.system, (f"touch {self.sentinel}",))


class Killed(BaseException):
    """The process died.  A ``BaseException``, so no ``except
    Exception`` in the program can absorb it."""


class KillableFilesystem(FaultyFilesystem):
    """``FaultyFilesystem`` whose kill unwinds the caller instead of
    ending the process (the torn half-write has already reached the
    disk)."""

    def _kill(self, op, path):
        raise Killed(f"{op} {path}")


def copy_frames(state):
    """The token and the frames of a state dir's alert copy, each as
    ``(seq, kept, raw, filtered)``: where it starts, and its alerts."""
    data = (Path(state) / AlertCopy.NAME).read_bytes()
    payloads, _end, error = wire.scan_frames(data)
    assert error is None
    frames = []
    for payload in payloads[1:]:
        at, at_kept, rows, kept_at = wire.loads(payload, tuple)
        raw = [Alert(*row[:4], LogRecord(*row[4])) for row in rows]
        frames.append((at, at_kept, raw, [raw[i] for i in kept_at]))
    return wire.loads(payloads[0], str), frames
