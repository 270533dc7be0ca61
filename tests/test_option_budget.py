"""An option ratchet: the knob counts ROADMAP tracks, tracked by the suite.

Every config field and entry-point parameter is a promise to keep two
behaviours working.  The counts below are literals on purpose: adding an
option fails this file until the number is raised beside it, in the same
commit, by someone who can name the callers that need it.  The record and
alert tuples are pinned the same way: a field is built on every parse path
and carried by every pickle.  So are the two durable state objects, a
pipeline checkpoint and a parked tenant: a field rides every checkpoint
save and every state dir.
"""

import dataclasses
import inspect

import pytest

from repro import api
from repro.core.categories import Alert
from repro.core.correlated_filter import alias_key
from repro.core.filtering import SpatioTemporalFilter, log_filter
from repro.core.serial_filter import serial_filter
from repro.engine.path import AlertPath
from repro.logio.reader import LogReader, read_log
from repro.logio.stats import StatsCollector
from repro.logmodel.record import LogRecord
from repro.logmodel.redstorm import parse_redstorm_line
from repro.logmodel.syslog import parse_syslog_line
from repro.parallel.config import ParallelConfig
from repro.resilience.backpressure import BackpressureConfig
from repro.resilience.checkpoint import PipelineCheckpoint
from repro.resilience.durability import CheckpointStore
from repro.resilience.faults import FaultConfig
from repro.resilience.shedding import BoundedIngest
from repro.resilience.supervisor import supervise
from repro.service.config import ServiceConfig
from repro.service.tenant import ParkedTenant
from repro.simulation.collector import Collector
from repro.store import ColumnarStore, ColumnarStoreWriter
from repro.streaming import PredictionConfig

ADVICE = (
    "{name} has {have} options, the budget says {budget}.  If a new option "
    "is really needed, raise the number in the same commit and say in "
    "CHANGES.md which two callers need different values; if one was "
    "removed, lower it."
)

CONFIG_FIELDS = [
    (BackpressureConfig, 6),
    (ParallelConfig, 3),
    (ServiceConfig, 24),
    (PredictionConfig, 2),
    (FaultConfig, 8),
    # A checkpoint is a watermark: no alert tuples (16 -> 15 with the
    # in-memory lists' reference, which never reaches disk).
    (PipelineCheckpoint, 15),
    # The alert tail moved here from the checkpoint (6 -> 7).
    (ParkedTenant, 7),
]

#: Parameter counts include ``self`` and ``**generator_kwargs`` where present.
PARAMETERS = [
    (api.run_stream, 13),
    (api.run_system, 14),
    (api.run_all, 12),
    (supervise, 6),
    (LogReader.__init__, 4),
    (read_log, 3),
    (Collector.__init__, 5),
    (SpatioTemporalFilter.__init__, 5),
    (log_filter, 2),
    (serial_filter, 2),
    (alias_key, 1),
    (CheckpointStore.__init__, 6),
    (ColumnarStoreWriter.__init__, 6),
    (ColumnarStore.__init__, 3),
    (StatsCollector.__init__, 2),
    (BoundedIngest.__init__, 5),
    (AlertPath.__init__, 8),
    (parse_syslog_line, 3),
    (parse_redstorm_line, 2),
]


@pytest.mark.parametrize(
    "config, budget", CONFIG_FIELDS, ids=lambda v: getattr(v, "__name__", None)
)
def test_config_field_budget(config, budget):
    have = len(dataclasses.fields(config))
    assert have == budget, ADVICE.format(
        name=config.__name__, have=have, budget=budget
    )


#: Fields of the two tuples every record and alert is built as.
RECORD_FIELDS = [
    (LogRecord, 9),
    (Alert, 5),
]


@pytest.mark.parametrize(
    "model, budget", RECORD_FIELDS, ids=lambda v: getattr(v, "__name__", None)
)
def test_record_field_budget(model, budget):
    have = len(model._fields)
    assert have == budget, ADVICE.format(
        name=model.__name__, have=have, budget=budget
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
