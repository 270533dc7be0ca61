"""Per-system, per-category calibration derived from the paper's Table 4.

The generator is *mechanistically* calibrated: each category gets a number
of **incidents** (distinct failures, taken from the paper's filtered
counts) and a raw **multiplicity** (total alerts, from the raw counts)
distributed across those incidents.  Raw counts arise in the stream as
redundant bursts — repeated reports within the filter threshold, spread
over the incident's nodes — so the paper's filtered numbers are recovered
by actually *running the filter*, not by construction.

Scenario knobs encode the case studies the paper narrates:

* ``hot_source`` — Spirit's ``sn373`` (>50 % of all Spirit alerts,
  Section 3.3.1), the Thunderbird VAPI node (643,925 of 3,229,194);
* ``profile`` — temporal placement: the Liberty PBS bug is confined to one
  quarter (Figure 4), the Spirit disk storm to a six-day window;
* ``correlate_with`` — cross-category coupling: ``GM_LANAI`` shadows
  ``GM_PAR`` (Figure 3), ``PBS_BFD`` shadows ``PBS_CHK`` (Figure 4),
  Spirit's two disk categories share incidents;
* ``job_correlated`` — the Thunderbird ``CPU`` clock-bug alerts fire on
  the node sets of communication-intensive jobs (Section 4);
* per-system ``clustering`` — BG/L failures arrive in bursts of related
  incidents, producing the bimodal filtered-interarrival histogram of
  Figure 6(a); Spirit's incidents are dispersed (unimodal, Figure 6b).
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..logmodel.record import Channel

#: Temporal profiles: (window_start_fraction, window_end_fraction) of the
#: observation period within which a category's incidents fall.
PROFILES: Dict[str, Tuple[float, float]] = {
    "uniform": (0.0, 1.0),
    "late_quarter": (0.75, 1.0),     # the Liberty PBS bug quarter
    "six_day_burst": (0.10, 0.11),   # the Spirit disk storm window
    "first_half": (0.0, 0.5),
    "second_half": (0.5, 1.0),
}


@dataclass(frozen=True)
class CategoryCalibration:
    """Incident structure for one alert category.

    ``raw`` and ``filtered`` are the paper's Table 4 counts; ``filtered``
    doubles as the incident count.  ``spread`` is how many sources
    typically participate in one incident's burst.
    """

    category: str
    raw: int
    filtered: int
    spread: int = 1
    profile: str = "uniform"
    hot_source: Optional[str] = None
    hot_raw_fraction: float = 0.0
    hot_incident_fraction: float = 0.0
    correlate_with: Optional[str] = None
    job_correlated: bool = False
    #: Cap on alerts per incident (None = unbounded).  The Liberty PBS bug
    #: generated its message "up to 74 times" per afflicted job
    #: (Section 3.3.1), so its burst sizes must not exceed that.
    max_multiplicity: Optional[int] = None
    #: Probability that an incident is placed inside a downtime window.
    #: The paper's ambiguous BGLMASTER message ("ciodb exited normally",
    #: severity FAILURE) is "a harmless artifact" of maintenance when it
    #: happens during downtime (Section 3.2.1).
    downtime_affinity: float = 0.0

    def __post_init__(self) -> None:
        if self.raw < self.filtered:
            raise ValueError(
                f"{self.category}: raw ({self.raw}) < filtered ({self.filtered})"
            )
        if self.filtered < 1:
            raise ValueError(f"{self.category}: needs at least one incident")
        if self.profile not in PROFILES:
            raise ValueError(f"{self.category}: unknown profile {self.profile!r}")
        if self.max_multiplicity is not None:
            if self.max_multiplicity < 1:
                raise ValueError(f"{self.category}: max_multiplicity must be >= 1")
            if self.raw > self.filtered * self.max_multiplicity:
                raise ValueError(
                    f"{self.category}: raw count cannot fit under the "
                    f"multiplicity cap"
                )

    def incidents(self, incident_scale: float = 1.0) -> int:
        """Incident count at a given scale (never below 1)."""
        return max(1, round(self.filtered * incident_scale))

    def scaled_raw(self, scale: float, incident_scale: float = 1.0) -> int:
        """Total alerts at a given scale (never below the incident count)."""
        return max(self.incidents(incident_scale), round(self.raw * scale))


@dataclass(frozen=True)
class BackgroundSpec:
    """One slice of non-alert traffic: severity label, channel, count."""

    severity: Optional[str]
    channel: Channel
    count: int


@dataclass(frozen=True)
class SystemScenario:
    """Everything the generator needs for one machine."""

    system: str
    start_date: str                       # YYYY-MM-DD (paper Table 2)
    days: int
    categories: Tuple[CategoryCalibration, ...]
    background: Tuple[BackgroundSpec, ...]
    #: Piecewise background-rate multipliers as (start_fraction, multiplier);
    #: normalized by the generator so totals are preserved.  Liberty's
    #: encode the Figure 2(a) evolution shifts (OS upgrade etc.).
    rate_profile: Tuple[Tuple[float, float], ...] = ((0.0, 1.0),)
    #: Fraction of incidents attached to shared burst centers, and the
    #: time scale of intra-burst offsets (drives Figure 6 modality).
    clustering: float = 0.0
    cluster_span: float = 600.0
    corruption_rate: float = 1e-4

    def __post_init__(self) -> None:
        names = [cat.category for cat in self.categories]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate category calibration in {self.system}")
        for cat in self.categories:
            if cat.correlate_with is not None and cat.correlate_with not in names:
                raise ValueError(
                    f"{cat.category} correlates with unknown {cat.correlate_with!r}"
                )

    @property
    def start_epoch(self) -> float:
        year, month, day = (int(part) for part in self.start_date.split("-"))
        return float(calendar.timegm((year, month, day, 0, 0, 0, 0, 0, 0)))

    @property
    def end_epoch(self) -> float:
        return self.start_epoch + self.days * 86400.0

    @property
    def raw_alert_total(self) -> int:
        return sum(cat.raw for cat in self.categories)

    @property
    def background_total(self) -> int:
        return sum(spec.count for spec in self.background)

    def get_category(self, name: str) -> CategoryCalibration:
        for cat in self.categories:
            if cat.category == name:
                return cat
        raise KeyError(f"no calibration for category {name!r} in {self.system}")


def _cc(category, raw, filtered, **kwargs) -> CategoryCalibration:
    return CategoryCalibration(category=category, raw=raw, filtered=filtered, **kwargs)


# ---------------------------------------------------------------------------
# Blue Gene/L — Table 4 top-10 plus the 31 "others" (all Indeterminate).
# Incidents cluster (cascading related failures), giving the bimodal
# filtered-interarrival histogram of Figure 6(a).
# ---------------------------------------------------------------------------

_BGL_CATEGORIES = (
    _cc("KERNDTLB", 152_734, 37, spread=4),
    _cc("KERNSTOR", 63_491, 8, spread=4),
    _cc("APPSEV", 49_651, 138, spread=8),
    _cc("KERNMNTF", 31_531, 105, spread=2),
    _cc("KERNTERM", 23_338, 99, spread=4),
    _cc("KERNREC", 6_145, 9, spread=2),
    _cc("APPREAD", 5_983, 11, spread=4),
    _cc("KERNRTSP", 3_983, 260, spread=2),
    _cc("APPRES", 2_370, 13, spread=4),
    _cc("APPUNAV", 2_048, 3, spread=8),
    # The 31 "others": 7186 raw / 519 filtered in aggregate.
    _cc("KERNMC", 2_131, 51, spread=2),
    _cc("KERNPAN", 1_431, 77),
    _cc("KERNSOCK", 684, 23),
    _cc("KERNPOW", 512, 18),
    _cc("KERNNOETH", 401, 12),
    _cc("KERNMICE", 329, 25),
    _cc("KERNCON", 287, 19),
    _cc("KERNEXT", 201, 14),
    _cc("KERNFSHUT", 170, 22),
    _cc("KERNBIT", 120, 9),
    _cc("KERNTORREC", 98, 11),
    _cc("KERNTORSND", 91, 8),
    _cc("KERNDDR", 88, 17),
    _cc("KERNPARITY", 77, 17),
    _cc("KERNSRAM", 64, 9),
    _cc("LINKDISC", 58, 13),
    _cc("LINKIAP", 51, 9),
    _cc("LINKPAP", 44, 11),
    _cc("MONPOW", 41, 16),
    _cc("MONFAN", 37, 14),
    _cc("MONTEMP", 33, 12),
    _cc("MONNULL", 29, 9),
    _cc("MASNORM", 62, 26, downtime_affinity=0.6),
    _cc("MASABNORM", 27, 13),
    _cc("APPBUSY", 25, 12),
    _cc("APPCHILD", 22, 11),
    _cc("APPOUT", 19, 9),
    _cc("APPTO", 17, 9),
    _cc("KERNSERV", 15, 9),
    _cc("KERNWAIT", 12, 8),
    _cc("KERNRTSA", 10, 6),
)

# Background severity mix = Table 5 messages minus Table 5 alerts.
_BGL_BACKGROUND = (
    BackgroundSpec("FATAL", Channel.JTAG_MAILBOX, 507_103),
    BackgroundSpec("FAILURE", Channel.JTAG_MAILBOX, 1_652),
    BackgroundSpec("SEVERE", Channel.JTAG_MAILBOX, 19_213),
    BackgroundSpec("ERROR", Channel.JTAG_MAILBOX, 112_355),
    BackgroundSpec("WARNING", Channel.JTAG_MAILBOX, 23_357),
    BackgroundSpec("INFO", Channel.JTAG_MAILBOX, 3_735_823),
)

BGL_SCENARIO = SystemScenario(
    system="bgl",
    start_date="2005-06-03",
    days=215,
    categories=_BGL_CATEGORIES,
    background=_BGL_BACKGROUND,
    clustering=0.7,
    cluster_span=900.0,
    corruption_rate=5e-5,
)

# ---------------------------------------------------------------------------
# Thunderbird — VAPI storm with a hot node; ECC independent (Figure 5);
# CPU clock-bug alerts spatially correlated with communication-intensive
# jobs (Section 4).
# ---------------------------------------------------------------------------

_TBIRD_CATEGORIES = (
    _cc("VAPI", 3_229_194, 276, spread=2,
        hot_source="tn345", hot_raw_fraction=0.20, hot_incident_fraction=0.89),
    _cc("PBS_CON", 5_318, 16, spread=2),
    _cc("MPT", 4_583, 157, spread=1),
    _cc("EXT_FS", 4_022, 778, spread=1),
    _cc("CPU", 2_741, 367, spread=8, job_correlated=True),
    _cc("SCSI", 2_186, 317, spread=1),
    _cc("ECC", 146, 143, spread=1),
    _cc("PBS_BFD", 28, 28, spread=1),
    _cc("CHK_DSK", 13, 2, spread=1),
    _cc("NMI", 8, 4, spread=1),
)

THUNDERBIRD_SCENARIO = SystemScenario(
    system="thunderbird",
    start_date="2005-11-09",
    days=244,
    categories=_TBIRD_CATEGORIES,
    background=(BackgroundSpec(None, Channel.SYSLOG_UDP, 207_963_953),),
    clustering=0.2,
    cluster_span=600.0,
    corruption_rate=2e-4,   # the VAPI corruption examples came from here
)

# ---------------------------------------------------------------------------
# Red Storm — the DDN BUS_PAR disk storm dominates CRIT (Table 6); the
# ec_* events ride the severity-less RAS TCP path.
# ---------------------------------------------------------------------------

_REDSTORM_CATEGORIES = (
    _cc("BUS_PAR", 1_550_217, 5, spread=2),
    _cc("HBEAT", 94_784, 266, spread=4),
    _cc("PTL_EXP", 11_047, 421, spread=2),
    _cc("ADDR_ERR", 6_763, 1, spread=1),
    _cc("CMD_ABORT", 1_686, 497, spread=1),
    _cc("PTL_ERR", 631, 54, spread=1),
    _cc("TOAST", 186, 9, spread=2),
    _cc("EW", 163, 58, spread=1),
    _cc("WT", 107, 45, spread=1, correlate_with="EW"),
    _cc("RBB", 105, 19, spread=1),
    _cc("DSK_FAIL", 54, 54, spread=1),
    _cc("OST", 1, 1, spread=1),
)

# Syslog background = Table 6 messages minus Table 6 alerts; the RAS TCP
# path carries the (severity-less) remainder of Table 2's message total.
_REDSTORM_BACKGROUND = (
    BackgroundSpec("EMERG", Channel.SYSLOG_UDP, 3),
    BackgroundSpec("ALERT", Channel.SYSLOG_UDP, 600),
    BackgroundSpec("CRIT", Channel.SYSLOG_UDP, 2_693),
    BackgroundSpec("ERR", Channel.SYSLOG_UDP, 2_015_814),
    BackgroundSpec("WARNING", Channel.SYSLOG_UDP, 2_154_674),
    BackgroundSpec("NOTICE", Channel.SYSLOG_UDP, 3_759_620),
    BackgroundSpec("INFO", Channel.SYSLOG_UDP, 15_714_246),
    BackgroundSpec("DEBUG", Channel.SYSLOG_UDP, 291_764),
    BackgroundSpec(None, Channel.RAS_TCP, 193_491_010),
)

REDSTORM_SCENARIO = SystemScenario(
    system="redstorm",
    start_date="2006-03-19",
    days=104,
    categories=_REDSTORM_CATEGORIES,
    background=_REDSTORM_BACKGROUND,
    clustering=0.3,
    cluster_span=600.0,
    corruption_rate=5e-5,
)

# ---------------------------------------------------------------------------
# Spirit — two disk categories repeated tens of millions of times, heavily
# concentrated on node sn373 (Section 3.3.1); incidents dispersed in time,
# giving the unimodal filtered-interarrival histogram of Figure 6(b).
# ---------------------------------------------------------------------------

_SPIRIT_CATEGORIES = (
    _cc("EXT_CCISS", 103_818_910, 29, spread=2,
        hot_source="sn373", hot_raw_fraction=0.52, hot_incident_fraction=0.35),
    _cc("EXT_FS", 68_986_084, 14, spread=2, correlate_with="EXT_CCISS",
        hot_source="sn373", hot_raw_fraction=0.52, hot_incident_fraction=0.35),
    _cc("PBS_CHK", 8_388, 4_119, spread=1, max_multiplicity=74),
    _cc("GM_LANAI", 1_256, 117, spread=1, correlate_with="GM_PAR"),
    _cc("PBS_CON", 817, 25, spread=2),
    _cc("GM_MAP", 596, 180, spread=1),
    _cc("PBS_BFD", 346, 296, spread=1, correlate_with="PBS_CHK"),
    _cc("GM_PAR", 166, 95, spread=1),
)

SPIRIT_SCENARIO = SystemScenario(
    system="spirit",
    start_date="2005-01-01",
    days=558,
    categories=_SPIRIT_CATEGORIES,
    background=(BackgroundSpec(None, Channel.SYSLOG_UDP, 99_482_406),),
    clustering=0.0,
    corruption_rate=1e-4,
)

# ---------------------------------------------------------------------------
# Liberty — the PBS task_check bug confined to one quarter (Figure 4),
# GM_PAR/GM_LANAI correlation (Figure 3), and the background-rate shifts
# of Figure 2(a) (OS upgrade after the machine entered production).
# ---------------------------------------------------------------------------

_LIBERTY_CATEGORIES = (
    _cc("PBS_CHK", 2_231, 920, spread=1, profile="late_quarter",
        max_multiplicity=74),
    _cc("PBS_BFD", 115, 94, spread=1, profile="late_quarter",
        correlate_with="PBS_CHK"),
    _cc("PBS_CON", 47, 5, spread=2),
    _cc("GM_PAR", 44, 19, spread=1),
    _cc("GM_LANAI", 13, 10, spread=1, correlate_with="GM_PAR"),
    _cc("GM_MAP", 2, 2, spread=1),
)

LIBERTY_SCENARIO = SystemScenario(
    system="liberty",
    start_date="2004-12-12",
    days=315,
    categories=_LIBERTY_CATEGORIES,
    background=(BackgroundSpec(None, Channel.SYSLOG_UDP, 265_566_779),),
    # Figure 2(a): quiet early period, step up at the OS upgrade (~28 % in,
    # "end of first quarter, 2005"), then two later shifts of unknown cause.
    rate_profile=((0.0, 0.45), (0.28, 1.60), (0.55, 0.95), (0.78, 1.30)),
    clustering=0.1,
    corruption_rate=3e-4,   # Figure 2(b)'s corrupted-source cluster
)

SCENARIOS: Dict[str, SystemScenario] = {
    scenario.system: scenario
    for scenario in (
        BGL_SCENARIO,
        THUNDERBIRD_SCENARIO,
        REDSTORM_SCENARIO,
        SPIRIT_SCENARIO,
        LIBERTY_SCENARIO,
    )
}


def get_scenario(system: str) -> SystemScenario:
    """The calibrated scenario for a system short name."""
    try:
        return SCENARIOS[system]
    except KeyError:
        valid = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"no scenario for {system!r}; valid: {valid}") from None
