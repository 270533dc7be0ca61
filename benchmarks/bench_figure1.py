"""Bench F1: regenerate Figure 1 (operational-context state machine).

The paper's Figure 1 is the state diagram behind Red Storm RAS metrics;
the bench synthesizes a concrete operational history from it, renders the
timeline, and checks the disambiguation behavior the paper motivates with
the BGLMASTER example.
"""

import numpy as np

from repro.reporting.figures import figure1
from repro.simulation.opcontext import (
    OperationalState,
    disambiguate,
    synthesize_timeline,
)

from _bench_utils import SEED, write_artifact

DAY = 86400.0


def test_figure1_operational_context(benchmark):
    timeline = benchmark.pedantic(
        lambda: synthesize_timeline(
            np.random.default_rng(SEED), 0.0, 365 * DAY
        ),
        rounds=10,
        iterations=1,
    )
    text = figure1(timeline)
    write_artifact("figure1.txt", text)

    # A production machine spends most of its year in production uptime,
    # with both scheduled and unscheduled interruptions present.
    assert timeline.production_fraction() > 0.8
    states = {state for _, _, state, _ in timeline.intervals()}
    assert OperationalState.PRODUCTION_UPTIME in states
    assert states & {
        OperationalState.SCHEDULED_DOWNTIME,
        OperationalState.UNSCHEDULED_DOWNTIME,
    }

    # The paper's disambiguation payoff: the same ambiguous message flips
    # meaning with the recorded state.
    downtime = next(
        t0 for t0, _, state, _ in timeline.intervals() if state.is_downtime
    )
    assert disambiguate(timeline, downtime + 1.0, ambiguous=True) == "benign"
    production = next(
        t0 for t0, _, state, _ in timeline.intervals()
        if state is OperationalState.PRODUCTION_UPTIME
    )
    assert disambiguate(timeline, production + 1.0, ambiguous=True) == "critical"
    assert disambiguate(None, downtime + 1.0, ambiguous=True) == "unknown"
