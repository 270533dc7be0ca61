"""Unit tests for the static system/log specifications (Tables 1 and 2)."""

import pytest

from repro.systems.specs import (
    LOG_SPECS,
    PAPER_TOTAL_ALERTS,
    PAPER_TOTAL_CATEGORIES,
    SYSTEMS,
    get_system,
)


def test_five_systems():
    assert set(SYSTEMS) == {
        "bgl", "thunderbird", "redstorm", "spirit", "liberty",
    }


def test_table1_values():
    bgl = SYSTEMS["bgl"]
    assert bgl.top500_rank == 1
    assert bgl.processors == 131072
    assert bgl.memory_gb == 32768
    assert bgl.owner == "LLNL"
    liberty = SYSTEMS["liberty"]
    assert liberty.processors == 512
    assert liberty.interconnect == "Myrinet"
    assert liberty.top500_rank == 445


def test_processor_ordering_spans_two_orders_of_magnitude():
    procs = sorted(spec.processors for spec in SYSTEMS.values())
    assert procs[-1] / procs[0] > 100


def test_table2_values():
    spirit = LOG_SPECS["spirit"]
    assert spirit.days == 558
    assert spirit.messages == 272_298_969
    assert spirit.alerts == 172_816_564
    assert spirit.categories == 8
    liberty = LOG_SPECS["liberty"]
    assert liberty.alerts == 2_452


def test_spirit_logs_largest_despite_second_smallest_machine():
    """Section 3.3.1's paradox, encoded in the reference data."""
    sizes = {name: spec.size_gb for name, spec in LOG_SPECS.items()}
    assert max(sizes, key=sizes.get) == "spirit"
    procs = {name: spec.processors for name, spec in SYSTEMS.items()}
    assert sorted(procs, key=procs.get)[1] == "spirit"


def test_alert_and_category_totals_match_abstract():
    assert sum(spec.alerts for spec in LOG_SPECS.values()) == PAPER_TOTAL_ALERTS
    assert (
        sum(spec.categories for spec in LOG_SPECS.values())
        == PAPER_TOTAL_CATEGORIES
        == 77
    )


def test_lookups():
    assert get_system("bgl").vendor == "IBM"
    assert LOG_SPECS["redstorm"].days == 104
    with pytest.raises(KeyError, match="valid"):
        get_system("earth-simulator")


def test_log_servers_are_cluster_members():
    """The paper names them: tbird-admin1, sadmin2, ladmin2."""
    assert SYSTEMS["thunderbird"].log_server == "tbird-admin1"
    assert SYSTEMS["spirit"].log_server == "sadmin2"
    assert SYSTEMS["liberty"].log_server == "ladmin2"
