"""Parallel workload model: jobs, placement, and communication intensity.

Several of the paper's findings are workload-coupled, so the substrate
needs jobs, not just nodes:

* the Thunderbird ``CPU`` alerts came from "a bug in the Linux SMP kernel
  [that] sped up the system clock under heavy network load.  Thus, whenever
  a set of nodes was running a communication-intensive job, they would
  collectively be more prone to encountering this bug" (Section 4) —
  spatial correlation driven by job placement;
* the Liberty PBS bug killed jobs, "not before generating the task_check
  message up to 74 times" per job (Section 3.3.1);
* RAS metrics should be "based on quantities of direct interest, such as
  the amount of useful work lost due to failures" (Section 5), which
  requires knowing what work was running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from .cluster import Cluster, Node


@dataclass(frozen=True)
class Job:
    """One batch job: placement, duration, and communication intensity."""

    job_id: int
    start: float
    duration: float
    nodes: Sequence[Node]
    comm_intensity: float  # 0..1; >0.7 is "communication-intensive"
    user: str = ""         # submitting user

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def width(self) -> int:
        return len(self.nodes)

    def node_seconds(self) -> float:
        """Work content of the job, for lost-work accounting."""
        return self.duration * self.width


class WorkloadModel:
    """Generates a job trace over an observation window.

    Arrivals are Poisson; widths are a truncated geometric over powers of
    two (most jobs small, a few near machine-scale); durations are
    lognormal (minutes to a day); communication intensity is Beta-shaped so
    both embarrassingly-parallel and tightly-coupled jobs occur.  All
    randomness flows from the supplied ``numpy.random.Generator``.
    """

    def __init__(
        self,
        cluster: Cluster,
        mean_interarrival: float = 1800.0,
        mean_duration: float = 4.0 * 3600,
        max_width_fraction: float = 0.5,
        user_count: int = 40,
    ):
        if mean_interarrival <= 0 or mean_duration <= 0:
            raise ValueError("interarrival and duration means must be positive")
        if user_count < 1:
            raise ValueError("user_count must be at least 1")
        self.cluster = cluster
        self.mean_interarrival = mean_interarrival
        self.mean_duration = mean_duration
        self.max_width_fraction = max_width_fraction
        self.user_count = user_count

    def generate(self, rng, t0: float, t1: float) -> Iterator[Job]:
        """Lazily yield jobs with start times in [t0, t1), time-ordered."""
        compute = self.cluster.compute_nodes
        if not compute:
            return
        max_width = max(1, int(len(compute) * self.max_width_fraction))
        t = t0
        job_id = 1
        while True:
            t += float(rng.exponential(self.mean_interarrival))
            if t >= t1:
                return
            width = 1
            while width < max_width and rng.random() < 0.55:
                width *= 2
            width = min(width, max_width)
            picks = rng.choice(len(compute), size=width, replace=False)
            nodes = tuple(compute[int(i)] for i in picks)
            # Lognormal with sigma=1 around the configured mean duration.
            duration = float(rng.lognormal(mean=0.0, sigma=1.0)) * self.mean_duration
            duration = max(60.0, min(duration, 86400.0 * 2))
            comm = float(rng.beta(2.0, 2.0))
            # Zipf-ish user activity: a few users submit most jobs.
            user_rank = min(
                self.user_count - 1,
                int(rng.pareto(1.2)),
            )
            yield Job(
                job_id=job_id,
                start=t,
                duration=duration,
                nodes=nodes,
                comm_intensity=comm,
                user=f"user{user_rank:03d}",
            )
            job_id += 1

    def generate_list(self, rng, t0: float, t1: float) -> List[Job]:
        """Eager variant of :meth:`generate`."""
        return list(self.generate(rng, t0, t1))


def communication_intensive(jobs: Sequence[Job], threshold: float = 0.7) -> List[Job]:
    """The jobs whose network load can trigger the SMP clock bug."""
    return [job for job in jobs if job.comm_intensity >= threshold]


def lost_node_seconds(jobs: Sequence[Job], failure_time: float,
                      affected: Sequence[Node]) -> float:
    """Work lost if ``affected`` nodes fail at ``failure_time``.

    A job loses its *entire* elapsed work when any of its nodes dies (no
    checkpointing assumed) — the "useful work lost due to failures" the
    paper recommends measuring instead of log-derived MTTF (Section 5).
    """
    affected_names = {node.name for node in affected}
    lost = 0.0
    for job in jobs:
        if job.start <= failure_time < job.end and any(
            node.name in affected_names for node in job.nodes
        ):
            lost += (failure_time - job.start) * job.width
    return lost
