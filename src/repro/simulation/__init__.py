"""Calibrated synthetic log substrate for the five supercomputers.

This package stands in for the paper's 111.67 GB of production logs (which
were never released): it models each machine's logging architecture,
workload, documented failure scenarios, message corruption, and
operational context, and emits time-ordered
:class:`~repro.logmodel.record.LogRecord` streams calibrated to the
paper's Table 4 per-category counts.  See DESIGN.md section 2 for the
substitution rationale.
"""

from .background import pool_for
from .calibration import (
    PROFILES,
    SCENARIOS,
    BackgroundSpec,
    CategoryCalibration,
    SystemScenario,
    get_scenario,
)
from .cluster import Cluster, Node, NodeRole
from .collector import Collector, merge_streams
from .corruptor import Corruptor, CorruptorStats
from .failures import Incident, IncidentPlanner, zipf_split
from .generator import GeneratedLog, LogGenerator, generate_log
from .opcontext import (
    ContextTimeline,
    OperationalState,
    StateTransition,
    disambiguate,
    synthesize_timeline,
)
from .transport import UdpSyslogChannel
from .workload import (
    Job,
    WorkloadModel,
    communication_intensive,
    lost_node_seconds,
)

__all__ = [
    "pool_for",
    "PROFILES",
    "SCENARIOS",
    "BackgroundSpec",
    "CategoryCalibration",
    "SystemScenario",
    "get_scenario",
    "Cluster",
    "Node",
    "NodeRole",
    "Collector",
    "merge_streams",
    "Corruptor",
    "CorruptorStats",
    "Incident",
    "IncidentPlanner",
    "zipf_split",
    "GeneratedLog",
    "LogGenerator",
    "generate_log",
    "ContextTimeline",
    "OperationalState",
    "StateTransition",
    "disambiguate",
    "synthesize_timeline",
    "UdpSyslogChannel",
    "Job",
    "WorkloadModel",
    "communication_intensive",
    "lost_node_seconds",
]
