"""Shared fixtures for the stage-engine suite: the golden corpus as
materialized record lists plus serial baseline results to diff against.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import api as pipeline
from repro.engine.path import AlertPath
from repro.logio.reader import read_log
from repro.systems.specs import SYSTEMS

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
ALL_SYSTEMS = sorted(SYSTEMS)


def load_expected(system):
    path = GOLDEN_DIR / f"{system}.expected.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def golden_records():
    """Materialized golden log per system (replayable: tests iterate the
    list as many times as their driver matrix needs)."""
    return {
        system: list(read_log(
            GOLDEN_DIR / f"{system}.log", system,
            year=load_expected(system)["year"],
        ))
        for system in ALL_SYSTEMS
    }


@pytest.fixture(scope="session")
def serial_baselines(golden_records):
    """The reference outputs every driver combination must reproduce."""
    return {
        system: pipeline.run_stream(iter(records), system)
        for system, records in golden_records.items()
    }


def result_signature(result):
    """Everything observable about a run, for exact-equality diffs."""
    return {
        "messages": result.stats.messages,
        "raw_bytes": result.stats.raw_bytes,
        "compressed_bytes": result.stats.compressed_bytes,
        "corrupted": result.corrupted_messages,
        "raw_alerts": [
            (round(a.timestamp, 9), a.source, a.category, a.alert_type.value)
            for a in result.raw_alerts
        ],
        "filtered_alerts": [
            (round(a.timestamp, 9), a.source, a.category, a.alert_type.value)
            for a in result.filtered_alerts
        ],
        "category_counts": result.category_counts(),
        "severity_messages": dict(result.severity_tab.messages),
        "severity_alerts": dict(result.severity_tab.alerts),
    }


def reference_path(system, stream, **path_options):
    """The per-record reference every batch shape and driver must
    reproduce: ``admit``/``process``, one record at a time."""
    path = AlertPath(system, **path_options)
    for record in stream:
        if path.admit(record):
            path.process(record)
    return path


def letter_trace(dead_letters):
    """The ordered dead-letter list, by record identity — equality would
    lie: a NaN clock never compares equal to itself."""
    return [(id(letter.record), letter.reason, letter.detail)
            for letter in dead_letters or ()]


def assert_equivalent(result, baseline):
    assert result_signature(result) == result_signature(baseline)
