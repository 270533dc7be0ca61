"""Static characteristics of the five supercomputers.

This module encodes the paper's Table 1 (system characteristics at the time
of collection) and Table 2 (log characteristics), which together define the
machines the simulation substrate models and the reference values the
benchmarks compare against.

Table 2 numbers are *reference targets* from the paper, not measurements of
this library: the simulator is calibrated so the relative shape (which
system logs most, which categories dominate, raw-to-filtered reduction
ratios) matches, while absolute counts scale with the ``scale`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class SystemSpec:
    """One row of the paper's Table 1, plus simulation topology hints.

    Attributes mirror Table 1; ``nodes`` and node-naming data drive the
    cluster model (processors per node varies by machine: e.g. Thunderbird
    is 4512 dual-processor nodes, Spirit 514, Liberty 256 dual-processor
    compute+service nodes, BG/L 65536 dual-core compute chips).
    """

    name: str
    external_name: str
    owner: str
    vendor: str
    top500_rank: int
    processors: int
    memory_gb: int
    interconnect: str
    nodes: int
    node_prefix: str
    admin_nodes: Tuple[str, ...]
    log_server: str


@dataclass(frozen=True)
class LogSpec:
    """One row of the paper's Table 2 (reference values from the paper)."""

    name: str
    start_date: str
    days: int
    size_gb: float
    compressed_gb: float
    rate_bytes_per_sec: float
    messages: int
    alerts: int
    categories: int


BGL = SystemSpec(
    name="bgl",
    external_name="Blue Gene/L",
    owner="LLNL",
    vendor="IBM",
    top500_rank=1,
    processors=131072,
    memory_gb=32768,
    interconnect="Custom",
    nodes=65536,
    node_prefix="R",
    admin_nodes=("bglmaster",),
    log_server="mmcs-db2",
)

THUNDERBIRD = SystemSpec(
    name="thunderbird",
    external_name="Thunderbird",
    owner="SNL",
    vendor="Dell",
    top500_rank=6,
    processors=9024,
    memory_gb=27072,
    interconnect="Infiniband",
    nodes=4512,
    node_prefix="tn",
    admin_nodes=("tbird-admin1", "tbird-admin2"),
    log_server="tbird-admin1",
)

RED_STORM = SystemSpec(
    name="redstorm",
    external_name="Red Storm",
    owner="SNL",
    vendor="Cray",
    top500_rank=9,
    processors=10880,
    memory_gb=32640,
    interconnect="Custom",
    nodes=10368,
    node_prefix="c",
    admin_nodes=("smw",),
    log_server="smw",
)

SPIRIT = SystemSpec(
    name="spirit",
    external_name="Spirit (ICC2)",
    owner="SNL",
    vendor="HP",
    top500_rank=202,
    processors=1028,
    memory_gb=1024,
    interconnect="GigEthernet",
    nodes=514,
    node_prefix="sn",
    admin_nodes=("sadmin1", "sadmin2"),
    log_server="sadmin2",
)

LIBERTY = SystemSpec(
    name="liberty",
    external_name="Liberty",
    owner="SNL",
    vendor="HP",
    top500_rank=445,
    processors=512,
    memory_gb=944,
    interconnect="Myrinet",
    nodes=256,
    node_prefix="ln",
    admin_nodes=("ladmin1", "ladmin2"),
    log_server="ladmin2",
)

SYSTEMS: Dict[str, SystemSpec] = {
    spec.name: spec for spec in (BGL, THUNDERBIRD, RED_STORM, SPIRIT, LIBERTY)
}

#: Paper Table 2, keyed by system short name.
LOG_SPECS: Dict[str, LogSpec] = {
    "bgl": LogSpec("bgl", "2005-06-03", 215, 1.207, 0.118, 64.976,
                   4_747_963, 348_460, 41),
    "thunderbird": LogSpec("thunderbird", "2005-11-09", 244, 27.367, 5.721,
                           1298.146, 211_212_192, 3_248_239, 10),
    "redstorm": LogSpec("redstorm", "2006-03-19", 104, 29.990, 1.215,
                        3337.562, 219_096_168, 1_665_744, 12),
    "spirit": LogSpec("spirit", "2005-01-01", 558, 30.289, 1.678, 628.257,
                      272_298_969, 172_816_564, 8),
    "liberty": LogSpec("liberty", "2004-12-12", 315, 22.820, 0.622, 835.824,
                       265_569_231, 2_452, 6),
}

#: Total alerts across all five logs reported by the paper (Section 1).
PAPER_TOTAL_ALERTS = 178_081_459

#: Total alert categories across all five logs (Section 1 / Table 2).
PAPER_TOTAL_CATEGORIES = 77


def get_system(name: str) -> SystemSpec:
    """Look up a system spec by short name; raises ``KeyError`` with the
    list of valid names on a miss."""
    try:
        return SYSTEMS[name]
    except KeyError:
        valid = ", ".join(sorted(SYSTEMS))
        raise KeyError(f"unknown system {name!r}; valid names: {valid}") from None
