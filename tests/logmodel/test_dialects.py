"""The dialect table and the one year-rollover rule, on every parse path.

BSD syslog stamps carry no year, and Liberty, Spirit and Thunderbird
each run across New Year (paper, Section 3.1).  A rendered stream that
crosses New Year must read back with the same stamps through each
dialect's stream parser, ``read_log``, ``api.tag_lines`` and a service
tenant: one rule, wherever a line is parsed.
"""

import asyncio
import calendar
from itertools import islice

import pytest

from repro import api
from repro.core.tagging import RulesetHandle
from repro.logio.reader import read_log
from repro.logio.writer import renderer_for
from repro.logmodel import DIALECTS, parse_lines
from repro.service.config import ServiceConfig
from repro.service.router import TenantRouter, format_envelope, parse_native_line
from repro.simulation.generator import generate_log

from ..conftest import SEED, SMALL_SCALE

YEAR = 2005
#: Half an hour before New Year 2006: the stream crosses it midway.
START = float(calendar.timegm((YEAR, 12, 31, 23, 30, 0)))

def crossing_stream(system, each=20):
    """``each`` alerts and ``each`` quiet records of a generated log,
    interleaved and restamped a minute apart across New Year."""
    tagger = RulesetHandle(system).tagger()
    alerts, quiet = [], []
    for record in generate_log(system, scale=SMALL_SCALE, seed=SEED).records:
        if record.corrupted:
            continue
        pile = alerts if tagger.tag(record) is not None else quiet
        if len(pile) < each:
            pile.append(record)
        if len(alerts) == len(quiet) == each:
            break
    picked = [r for pair in zip(alerts, quiet) for r in pair]
    return [
        r._replace(timestamp=START + 60.0 * i) for i, r in enumerate(picked)
    ]


async def through_tenant(system, lines):
    router = TenantRouter(ServiceConfig(
        year=YEAR, alert_tail=1 << 10, max_buffer=1 << 12,
    ))
    router.ingest_lines([format_envelope("t", system, line) for line in lines])
    await router.drain()
    tenant = router.tenants["t"]
    return [a.timestamp for a in tenant.alert_tail], len(tenant.dead_letters)


@pytest.mark.parametrize("system", sorted(DIALECTS))
def test_new_year_reads_the_same_on_every_path(tmp_path, system):
    records = crossing_stream(system)
    stamps = [r.timestamp for r in records]
    assert stamps[0] < calendar.timegm((YEAR + 1, 1, 1, 0, 0, 0)) < stamps[-1]
    expected_alerts = [a.timestamp for a in api.iter_alerts(records, system)]
    assert any(t > stamps[len(stamps) // 2] for t in expected_alerts)
    render = renderer_for(system)
    lines = [render(r) for r in records]

    assert [r.timestamp for r in parse_lines(lines, system, YEAR)] == stamps

    path = tmp_path / f"{system}.log"
    path.write_text("".join(line + "\n" for line in lines))
    assert [r.timestamp for r in read_log(path, system, year=YEAR)] == stamps

    tagged = api.tag_lines(lines, system, year=YEAR)
    assert [a.timestamp for a in tagged] == expected_alerts

    tail, dead = asyncio.run(through_tenant(system, lines))
    assert tail == expected_alerts
    assert dead == 0


class TestTable:
    def test_unknown_system_is_refused(self):
        with pytest.raises(KeyError, match="vax"):
            parse_lines([], "vax", YEAR)
        with pytest.raises(KeyError, match="vax"):
            renderer_for("vax")

    @pytest.mark.parametrize("system", sorted(DIALECTS))
    def test_every_user_of_a_dialect_reads_the_table(self, system):
        row = DIALECTS[system]
        assert renderer_for(system) is row.render
        line = row.render(crossing_stream(system, each=1)[0])
        assert parse_native_line(line, system, YEAR) == row.parse(line, YEAR)

    def test_blank_lines_are_skipped_and_a_corrupted_stamp_never_rolls(self):
        """A garbled line (stamp 0.0) neither moves the year nor becomes
        the stamp the next line is held against."""
        dec = "Dec 31 23:59:00 ln1 kernel: hello"
        jan = "Jan  1 00:01:00 ln1 kernel: hello"
        records = list(parse_lines(
            [dec, "", "   \n", "garbled line with no stamp", jan],
            "liberty", YEAR,
        ))
        assert [r.corrupted for r in records] == [False, True, False]
        assert records[2].timestamp - records[0].timestamp == 120.0

    def test_the_stream_is_lazy(self):
        lines = iter(["Dec 31 23:59:00 ln1 kernel: a"] * 3)
        assert len(list(islice(parse_lines(lines, "spirit", YEAR), 1))) == 1
        assert len(list(lines)) == 2
