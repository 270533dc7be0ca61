"""Unit tests for the workload model."""

from collections import Counter

import numpy as np
import pytest

from repro.simulation.cluster import Cluster
from repro.simulation.workload import (
    WorkloadModel,
    communication_intensive,
    lost_node_seconds,
)
from repro.systems.specs import LIBERTY


@pytest.fixture(scope="module")
def cluster():
    return Cluster(LIBERTY, max_nodes=128)


@pytest.fixture(scope="module")
def jobs(cluster):
    model = WorkloadModel(cluster, mean_interarrival=600.0)
    return model.generate_list(np.random.default_rng(11), 0.0, 7 * 86400.0)


def test_jobs_ordered_and_in_window(jobs):
    assert jobs, "a week at 10-minute arrivals must produce jobs"
    starts = [j.start for j in jobs]
    assert starts == sorted(starts)
    assert all(0.0 <= j.start < 7 * 86400.0 for j in jobs)


def test_job_ids_unique_and_increasing(jobs):
    ids = [j.job_id for j in jobs]
    assert ids == sorted(set(ids))


def test_widths_are_powers_of_two_within_cap(jobs, cluster):
    cap = len(cluster.compute_nodes) * 0.5
    for job in jobs:
        assert job.width <= cap
        assert job.width >= 1


def test_durations_bounded(jobs):
    for job in jobs:
        assert 60.0 <= job.duration <= 2 * 86400.0


def test_nodes_distinct_within_job(jobs):
    for job in jobs:
        names = [n.name for n in job.nodes]
        assert len(names) == len(set(names))


def test_determinism(cluster):
    model = WorkloadModel(cluster)
    a = model.generate_list(np.random.default_rng(3), 0.0, 86400.0)
    b = model.generate_list(np.random.default_rng(3), 0.0, 86400.0)
    assert [(j.start, j.width) for j in a] == [(j.start, j.width) for j in b]


def test_invalid_parameters_rejected(cluster):
    with pytest.raises(ValueError):
        WorkloadModel(cluster, mean_interarrival=0)
    with pytest.raises(ValueError):
        WorkloadModel(cluster, mean_duration=-5)


def test_generated_jobs_have_skewed_users():
    cluster = Cluster(LIBERTY, max_nodes=64)
    model = WorkloadModel(cluster, mean_interarrival=300.0)
    jobs = model.generate_list(np.random.default_rng(3), 0.0, 20 * 86400.0)
    users = Counter(j.user for j in jobs)
    assert len(users) > 3
    top_share = users.most_common(1)[0][1] / len(jobs)
    assert top_share > 0.2  # heavy-hitter users exist


def test_communication_intensive_subset(jobs):
    hot = communication_intensive(jobs, threshold=0.7)
    assert all(j.comm_intensity >= 0.7 for j in hot)
    assert len(hot) < len(jobs)
    assert len(hot) > 0


class TestLostWork:
    def test_elapsed_work_lost(self, jobs):
        job = jobs[0]
        failure_time = job.start + 1000.0
        lost = lost_node_seconds([job], failure_time, [job.nodes[0]])
        assert lost == pytest.approx(1000.0 * job.width)

    def test_unaffected_node_loses_nothing(self, jobs, cluster):
        job = jobs[0]
        outside = [
            n for n in cluster.compute_nodes
            if n.name not in {x.name for x in job.nodes}
        ]
        lost = lost_node_seconds([job], job.start + 10, [outside[0]])
        assert lost == 0.0

    def test_failure_outside_run_window_loses_nothing(self, jobs):
        job = jobs[0]
        assert lost_node_seconds([job], job.end + 1, [job.nodes[0]]) == 0.0

    def test_node_seconds(self, jobs):
        job = jobs[0]
        assert job.node_seconds() == pytest.approx(job.duration * job.width)
