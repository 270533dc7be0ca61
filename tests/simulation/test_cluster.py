"""Unit tests for the cluster topology model."""

import numpy as np
import pytest

from repro.simulation.cluster import Cluster, NodeRole
from repro.systems.specs import SYSTEMS


@pytest.fixture(scope="module")
def clusters():
    return {name: Cluster(spec, max_nodes=512) for name, spec in SYSTEMS.items()}


def test_node_budget_respected(clusters):
    for cluster in clusters.values():
        # Admin and controller nodes ride on top of the budget.
        assert len(cluster) <= 512 + 16


def test_admin_nodes_present(clusters):
    assert any(n.name == "sadmin2" for n in clusters["spirit"].nodes)
    assert any(n.name == "tbird-admin1" for n in clusters["thunderbird"].nodes)


def test_naming_conventions(clusters):
    spirit_compute = clusters["spirit"].compute_nodes
    assert spirit_compute[0].name.startswith("sn")
    bgl_compute = clusters["bgl"].compute_nodes
    assert bgl_compute[0].name.startswith("R0")
    assert "-M" in bgl_compute[0].name
    redstorm_compute = clusters["redstorm"].compute_nodes
    assert redstorm_compute[0].name.startswith("c0-")


def test_redstorm_has_ddn_controllers(clusters):
    controllers = clusters["redstorm"].by_role(NodeRole.CONTROLLER)
    assert len(controllers) == 8
    assert controllers[0].name == "ddn0"


def test_other_systems_have_no_controllers(clusters):
    assert clusters["spirit"].by_role(NodeRole.CONTROLLER) == []


def test_node_names_unique(clusters):
    for cluster in clusters.values():
        names = [n.name for n in cluster.nodes]
        assert len(names) == len(set(names))


def test_chattiness_favors_admin_nodes(clusters):
    """Figure 2(b): 'the most prolific sources were administrative
    nodes'."""
    weights = dict(
        (node.name, weight)
        for node, weight in clusters["liberty"].chattiness()
    )
    admin_weight = weights["ladmin1"]
    compute_weights = [
        weight
        for node, weight in clusters["liberty"].chattiness()
        if node.role is NodeRole.COMPUTE
    ]
    assert admin_weight > 10 * max(compute_weights)


def test_chattiness_has_a_zipf_tail(clusters):
    compute = [
        weight
        for node, weight in clusters["liberty"].chattiness()
        if node.role is NodeRole.COMPUTE
    ]
    assert compute[0] > compute[-1]


def test_sample_nodes(clusters):
    rng = np.random.default_rng(1)
    nodes = clusters["spirit"].sample_nodes(rng, 5)
    assert len(nodes) == 5
    assert len({n.name for n in nodes}) == 5


def test_sample_nodes_by_role(clusters):
    rng = np.random.default_rng(1)
    nodes = clusters["redstorm"].sample_nodes(
        rng, 3, roles=(NodeRole.CONTROLLER,)
    )
    assert all(n.role is NodeRole.CONTROLLER for n in nodes)


def test_sample_nodes_caps_at_pool_size(clusters):
    rng = np.random.default_rng(1)
    nodes = clusters["liberty"].sample_nodes(
        rng, 100, roles=(NodeRole.ADMIN,)
    )
    assert len(nodes) == 2


def test_sample_nodes_empty_pool_raises(clusters):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        clusters["liberty"].sample_nodes(rng, 1, roles=(NodeRole.CONTROLLER,))
