"""An option ratchet: the knob counts ROADMAP tracks, tracked by the suite.

Every config field and entry-point parameter is a promise to keep two
behaviours working.  The counts below are literals on purpose: adding an
option fails this file until the number is raised beside it, in the same
commit, by someone who can name the callers that need it.
"""

import dataclasses
import inspect

import pytest

from repro import api
from repro.core.correlated_filter import alias_key
from repro.core.filtering import SpatioTemporalFilter, log_filter
from repro.core.serial_filter import serial_filter
from repro.logio.reader import LogReader, read_log
from repro.parallel.config import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.faults import FaultConfig
from repro.resilience.retry import RetryPolicy
from repro.service.config import ServiceConfig
from repro.simulation.collector import Collector
from repro.streaming import PredictionConfig

ADVICE = (
    "{name} has {have} options, the budget says {budget}.  If a new option "
    "is really needed, raise the number in the same commit and say in "
    "CHANGES.md which two callers need different values; if one was "
    "removed, lower it."
)

CONFIG_FIELDS = [
    (BackpressureConfig, 12),
    (ParallelConfig, 4),
    (ServiceConfig, 28),
    (PredictionConfig, 18),
    (FaultConfig, 11),
    (RetryPolicy, 5),
]

#: Parameter counts include ``self`` and ``**generator_kwargs`` where present.
PARAMETERS = [
    (api.run_stream, 14),
    (api.run_system, 15),
    (LogReader.__init__, 4),
    (read_log, 3),
    (Collector.__init__, 5),
    (SpatioTemporalFilter.__init__, 5),
    (log_filter, 2),
    (serial_filter, 2),
    (alias_key, 1),
]


@pytest.mark.parametrize(
    "config, budget", CONFIG_FIELDS, ids=lambda v: getattr(v, "__name__", None)
)
def test_config_field_budget(config, budget):
    have = len(dataclasses.fields(config))
    assert have == budget, ADVICE.format(
        name=config.__name__, have=have, budget=budget
    )


@pytest.mark.parametrize(
    "function, budget", PARAMETERS,
    ids=lambda v: getattr(v, "__qualname__", None),
)
def test_parameter_budget(function, budget):
    have = len(inspect.signature(function).parameters)
    assert have == budget, ADVICE.format(
        name=function.__qualname__, have=have, budget=budget
    )
