"""Top-level synthetic log generators, one per supercomputer.

:class:`LogGenerator` assembles the whole substrate for one machine —
cluster, workload, operational-context timeline, incident plan, background
traffic, collection with corruption — and yields the merged, time-ordered
:class:`~repro.logmodel.record.LogRecord` stream an analyst would read off
the machine's logging server.

Scaling: ``scale`` multiplies message *volumes* (background counts and
alert burst multiplicities); ``incident_scale`` multiplies the number of
distinct failures.  The defaults reproduce the paper's Table 4 shape at
whatever volume fits the caller's budget: filtered counts track
``incident_scale`` while raw counts track ``scale``.

Determinism: everything derives from one ``numpy.random.SeedSequence``, so
a (system, scale, seed) triple always yields the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..core.categories import CategoryDef
from ..core.rules import get_ruleset
from ..logmodel.record import Channel, LogRecord
from ..systems.specs import get_system
from .background import pool_for
from .calibration import SystemScenario, get_scenario
from .cluster import Cluster
from .collector import Collector
from .corruptor import Corruptor
from .failures import Incident, IncidentPlanner
from .opcontext import ContextTimeline, synthesize_timeline
from .workload import Job, WorkloadModel

#: Channels whose on-disk format has one-second timestamp granularity.
_SECOND_GRANULARITY = (
    Channel.SYSLOG_UDP,
    Channel.SYSLOG_LOCAL,
    Channel.DDN,
    Channel.RAS_TCP,
)


def _quantize(timestamp: float, channel: Channel) -> float:
    """Apply the channel's timestamp granularity (Section 3.1: microseconds
    on BG/L, one second for typical syslogs)."""
    if channel in _SECOND_GRANULARITY:
        return float(int(timestamp))
    return round(timestamp, 6)


@dataclass
class GeneratedLog:
    """A generated log plus the ground truth behind it."""

    system: str
    scenario: SystemScenario
    cluster: Cluster
    timeline: ContextTimeline
    jobs: List[Job]
    incidents: List[Incident]
    records: Iterator[LogRecord]


class LogGenerator:
    """Builds the substrate for one machine and streams its log.

    Parameters
    ----------
    system:
        Short machine name (``"bgl"``, ``"thunderbird"``, ``"redstorm"``,
        ``"spirit"``, ``"liberty"``).
    scale:
        Volume multiplier applied to the paper's message counts.
    seed:
        Master seed; all randomness derives from it.
    incident_scale:
        Multiplier on distinct-failure counts (default 1.0 keeps the
        paper's filtered counts).
    max_nodes:
        Cap on simulated cluster size (memory guard for BG/L's 65536).
    corruption:
        Override the scenario's corruption rate (``None`` keeps it).
    background_scale:
        Separate volume multiplier for non-alert traffic (defaults to
        ``scale``).  Lets an experiment run alert bursts at full paper
        multiplicities without paying for hundreds of millions of chaff
        messages.
    """

    def __init__(
        self,
        system: str,
        scale: float = 1e-4,
        seed: int = 2007,
        incident_scale: float = 1.0,
        max_nodes: int = 2048,
        corruption: Optional[float] = None,
        background_scale: Optional[float] = None,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if incident_scale <= 0:
            raise ValueError("incident_scale must be positive")
        if background_scale is not None and background_scale < 0:
            raise ValueError("background_scale must be non-negative")
        self.system = system
        self.spec = get_system(system)
        self.scenario = get_scenario(system)
        self.ruleset = get_ruleset(system)
        self.scale = scale
        self.background_scale = scale if background_scale is None else background_scale
        self.incident_scale = incident_scale
        self.corruption = (
            self.scenario.corruption_rate if corruption is None else corruption
        )
        system_tag = sum(system.encode())  # stable across processes, unlike hash()
        self._seed_seq = np.random.SeedSequence(entropy=(seed, system_tag))
        children = self._seed_seq.spawn(6)
        self._rng_plan = np.random.default_rng(children[0])
        self._rng_background = np.random.default_rng(children[1])
        self._rng_bodies = np.random.default_rng(children[2])
        self._rng_corrupt = np.random.default_rng(children[3])
        self._rng_jobs = np.random.default_rng(children[4])
        self._rng_context = np.random.default_rng(children[5])
        self.cluster = Cluster(self.spec, max_nodes=max_nodes)
        self._categories: Dict[str, CategoryDef] = {
            cat.name: cat for cat in self.ruleset
        }

    # -- substrate pieces ---------------------------------------------------

    def build_jobs(self) -> List[Job]:
        """The workload trace (needed by job-correlated categories)."""
        needs_jobs = any(cat.job_correlated for cat in self.scenario.categories)
        if not needs_jobs:
            return []
        model = WorkloadModel(self.cluster)
        return model.generate_list(
            self._rng_jobs, self.scenario.start_epoch, self.scenario.end_epoch
        )

    def build_timeline(self) -> ContextTimeline:
        """Ground-truth operational context for the observation window."""
        return synthesize_timeline(
            self._rng_context, self.scenario.start_epoch, self.scenario.end_epoch
        )

    def build_incidents(
        self,
        jobs: Sequence[Job],
        timeline: Optional[ContextTimeline] = None,
    ) -> List[Incident]:
        planner = IncidentPlanner(
            self.scenario, self.cluster, self._rng_plan, jobs,
            timeline=timeline,
        )
        return planner.plan(scale=self.scale, incident_scale=self.incident_scale)

    # -- record streams -----------------------------------------------------

    def _incident_stream(self, incident: Incident) -> Iterator[LogRecord]:
        """The alert burst for one incident, time-ordered.

        Gaps within a burst are exponential with a mean chosen so the burst
        stays within the filter threshold chain (every gap < 5 s), which is
        what makes redundant reporting collapsible; gap means shrink for
        huge bursts (the Spirit storm logged tens of messages per second).
        """
        cat = self._categories[incident.category]
        rng = self._rng_bodies
        gap_mean = min(1.2, max(0.08, 600.0 / incident.multiplicity))
        t = incident.start
        n_sources = len(incident.sources)
        # One body per incident: redundant reports repeat the SAME message
        # (same job id, same address) — that is what makes them redundant.
        body = cat.make_body(rng)
        for k in range(incident.multiplicity):
            source = incident.sources[k % n_sources]
            yield self._make_alert_record(cat, t, source, body)
            gap = float(rng.exponential(gap_mean))
            t += min(4.0, max(0.05, gap))

    def _make_alert_record(
        self, cat: CategoryDef, t: float, source: str, body: str
    ) -> LogRecord:
        if cat.channel is Channel.RAS_TCP:
            body = f"src:::{source} svc:::{source} {body}"
        return LogRecord(
            timestamp=_quantize(t, cat.channel),
            source=source,
            facility=cat.facility,
            body=body,
            system=self.system,
            severity=cat.severity,
            channel=cat.channel,
        )

    def _background_stream(self) -> Iterator[LogRecord]:
        """All non-alert traffic, merged across severity/channel slices."""
        from .collector import merge_streams

        slices = [
            self._background_slice(spec.severity, spec.channel, spec.count)
            for spec in self.scenario.background
        ]
        return merge_streams(*slices)

    def _background_slice(
        self, severity: Optional[str], channel: Channel, count: int
    ) -> Iterator[LogRecord]:
        n = round(count * self.background_scale)
        if n <= 0:
            return
        rng = self._rng_background
        times = self._background_times(rng, n)
        pool = pool_for(self.system, severity, channel)
        nodes, weights = zip(*self.cluster.chattiness())
        probabilities = np.asarray(weights, dtype=float)
        probabilities /= probabilities.sum()
        node_idx = rng.choice(len(nodes), size=n, p=probabilities)
        template_idx = rng.integers(0, len(pool), size=n)
        for i in range(n):
            facility, body = pool[int(template_idx[i])]
            source = nodes[int(node_idx[i])].name
            record_body = body
            if channel is Channel.RAS_TCP:
                record_body = f"src:::{source} svc:::{source} {body}"
            yield LogRecord(
                timestamp=_quantize(float(times[i]), channel),
                source=source,
                facility=facility,
                body=record_body,
                system=self.system,
                severity=severity,
                channel=channel,
            )

    def _background_times(self, rng, n: int) -> np.ndarray:
        """Sorted arrival times honoring the piecewise rate profile.

        Liberty's profile encodes the Figure 2(a) evolution shifts: the
        per-segment expected share is multiplier x segment length, so a
        step in the multiplier is a step in messages/hour.
        """
        t0, t1 = self.scenario.start_epoch, self.scenario.end_epoch
        profile = list(self.scenario.rate_profile)
        boundaries = [t0 + frac * (t1 - t0) for frac, _ in profile] + [t1]
        segment_weights = np.array(
            [
                profile[i][1] * (boundaries[i + 1] - boundaries[i])
                for i in range(len(profile))
            ]
        )
        segment_weights /= segment_weights.sum()
        counts = rng.multinomial(n, segment_weights)
        chunks = []
        for i, count in enumerate(counts):
            if count == 0:
                continue
            chunk = boundaries[i] + rng.random(count) * (
                boundaries[i + 1] - boundaries[i]
            )
            chunk.sort()
            chunks.append(chunk)
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)

    # -- assembly -----------------------------------------------------------

    def generate(self) -> GeneratedLog:
        """Build everything and return the stream plus ground truth."""
        jobs = self.build_jobs()
        timeline = self.build_timeline()
        incidents = self.build_incidents(jobs, timeline)
        corruptor = (
            Corruptor(self._rng_corrupt, rate=self.corruption)
            if self.corruption > 0
            else None
        )
        collector = Collector(self.spec.log_server, corruptor=corruptor)
        streams = [self._background_stream()]
        streams.extend(self._incident_stream(inc) for inc in incidents)
        records = collector.collect(*streams)
        return GeneratedLog(
            system=self.system,
            scenario=self.scenario,
            cluster=self.cluster,
            timeline=timeline,
            jobs=jobs,
            incidents=incidents,
            records=records,
        )

    def records(self) -> Iterator[LogRecord]:
        """Just the record stream (convenience)."""
        return self.generate().records


def generate_log(
    system: str,
    scale: float = 1e-4,
    seed: int = 2007,
    incident_scale: float = 1.0,
    **kwargs,
) -> GeneratedLog:
    """One-call generation: substrate plus record stream for a machine."""
    return LogGenerator(
        system, scale=scale, seed=seed, incident_scale=incident_scale, **kwargs
    ).generate()
