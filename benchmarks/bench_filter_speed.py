"""Bench A1: simultaneous vs serial filtering (Section 3.3.2).

The paper's performance claim: performing temporal and spatial filtering
simultaneously "reduces computational costs (16% faster on the Spirit
logs), and increases conceptual simplicity."  The quality claim: the
simultaneous filter removes duplicates the serial pipeline leaves ("at
most one true positive was removed on any single machine, whereas
sometimes dozens of false positives were removed").

We time both algorithms on the same Spirit alert stream and check both
claims' shapes: the one-pass filter is at least as fast (in this Python
implementation the two-pass baseline pays far more than 16%), and its
output is a subset of the serial output.
"""

import time

from repro.core.filtering import log_filter, sorted_by_time
from repro.core.serial_filter import serial_filter

from _bench_utils import write_artifact


def test_simultaneous_filter_speed(benchmark, spirit_result):
    alerts = sorted_by_time(spirit_result.raw_alerts)
    kept = benchmark(lambda: list(log_filter(alerts)))
    assert 0 < len(kept) < len(alerts)


def test_serial_filter_speed(benchmark, spirit_result):
    alerts = sorted_by_time(spirit_result.raw_alerts)
    kept = benchmark(lambda: list(serial_filter(alerts)))
    assert 0 < len(kept) < len(alerts)


def test_simultaneous_is_faster_and_removes_more(benchmark, spirit_result):
    alerts = sorted_by_time(spirit_result.raw_alerts)

    def timed_comparison():
        t0 = time.perf_counter()
        simultaneous = list(log_filter(alerts))
        t1 = time.perf_counter()
        serial = list(serial_filter(alerts))
        t2 = time.perf_counter()
        return simultaneous, serial, t1 - t0, t2 - t1

    simultaneous, serial, sim_time, ser_time = benchmark.pedantic(
        timed_comparison, rounds=5, iterations=1,
    )

    # Quality shape: one-pass output subset of two-pass output.
    sim_ids = {id(a) for a in simultaneous}
    ser_ids = {id(a) for a in serial}
    assert sim_ids <= ser_ids
    assert len(simultaneous) <= len(serial)

    # Speed shape: the single pass wins (paper: 16% on Spirit).
    speedup = ser_time / sim_time if sim_time > 0 else float("inf")
    assert speedup > 1.0, f"serial was faster ({speedup:.2f}x)"

    write_artifact(
        "filter_speed.txt",
        "Simultaneous vs serial filtering on the Spirit alert stream\n"
        f"alerts in:            {len(alerts):,}\n"
        f"simultaneous kept:    {len(simultaneous):,} in {sim_time*1e3:.1f} ms\n"
        f"serial kept:          {len(serial):,} in {ser_time*1e3:.1f} ms\n"
        f"speedup:              {speedup:.2f}x (paper: 1.16x on full logs)\n"
        f"extra duplicates removed by simultaneous: "
        f"{len(serial) - len(simultaneous)}\n",
    )
