"""The columnar store's core promises, tested in isolation: exact
write/read roundtrips, barrier-aligned resume that never double-writes a
partition, and corruption that degrades instead of crashing."""

import os
import pickle
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.categories import AlertType
from repro.reporting import figures, tables
from repro.resilience import wire
from repro.store import (
    ColumnarStore,
    ColumnarStoreWriter,
    MemoryAlertStore,
    StoreError,
    is_store_dir,
    load_result,
    partition_hour,
)
from repro.store.format import (
    COLUMN_MAGIC,
    PageColumns,
    StoreFormatError,
    decode_page,
    encode_page,
    partition_relpath,
)

from ..conftest import Hostile, make_alert

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def stream(n=300, categories=("DISK", "NET", "ECC"), spacing=60.0):
    """A deterministic multi-hour, multi-category alert stream."""
    alerts, flags = [], []
    for i in range(n):
        category = categories[i % len(categories)]
        alert = make_alert(
            1000.0 + i * spacing,
            source=f"n{i % 7}",
            category=category,
            alert_type=(
                AlertType.HARDWARE if category == "ECC"
                else AlertType.SOFTWARE
            ),
        )
        alerts.append(alert)
        flags.append(i % 3 != 1)
    return alerts, flags


def write_store(root, alerts, flags, page_rows=16, commits=()):
    writer = ColumnarStoreWriter(root, "test", page_rows=page_rows)
    writer.begin(0)
    for i, (alert, kept) in enumerate(zip(alerts, flags)):
        writer.append(alert, kept)
        if i + 1 in commits:
            writer.commit()
    writer.finalize()
    return writer


class TestFormat:
    def test_page_roundtrip(self):
        payload = encode_page(
            7, [0, 1, 2], [1.0, 2.0, 3.5], [True, False, True],
            [0, 1, 0], [0, 1, 0], ["a", "b"], ["warn"],
        )
        page = decode_page(payload)
        assert isinstance(page, PageColumns)
        assert page.first_seq == 7 and page.last_seq == 9
        assert list(page.timestamps) == [1.0, 2.0, 3.5]
        assert page.source_at(1) == "b"
        assert page.severity_at(0) is None
        assert page.severity_at(1) == "warn"

    def test_decode_rejects_garbage(self):
        with pytest.raises(StoreFormatError):
            decode_page(b"not a page")

    def test_partition_relpath_is_filesystem_safe(self):
        path = partition_relpath("R/MON bad:cat", 12)
        assert "/" not in path.split(os.sep, 1)[-1].split("/")[0]
        assert partition_relpath(".hidden", 0).split("/")[1].startswith("%2E")

    def test_partition_hour(self):
        assert partition_hour(0.0) == 0
        assert partition_hour(3599.9) == 0
        assert partition_hour(3600.0) == 1


class TestRoundtrip:
    def test_reader_matches_memory_store(self, tmp_path):
        alerts, flags = stream()
        write_store(str(tmp_path / "s"), alerts, flags, commits=(100,))
        disk = ColumnarStore(str(tmp_path / "s"))
        mem = MemoryAlertStore("test", alerts, flags)
        assert disk.complete
        assert disk.count() == mem.count() == len(alerts)
        assert disk.count(kept=True) == mem.count(kept=True)
        assert disk.count_by_category() == mem.count_by_category()
        assert disk.count_by_type() == mem.count_by_type()
        assert disk.categories() == mem.categories()
        assert disk.time_bounds() == mem.time_bounds()
        assert disk.time_bounds(kept=True) == mem.time_bounds(kept=True)
        assert list(disk.iter_alerts()) == alerts
        assert (list(disk.iter_alerts(kept=True))
                == [a for a, k in zip(alerts, flags) if k])
        assert not disk.degraded

    def test_multiple_partitions_exist(self, tmp_path):
        alerts, flags = stream()
        write_store(str(tmp_path / "s"), alerts, flags)
        disk = ColumnarStore(str(tmp_path / "s"))
        categories = {part.meta.category for part in disk.partitions}
        hours = {part.meta.hour for part in disk.partitions}
        assert len(categories) == 3 and len(hours) > 1

    def test_severity_roundtrips_per_row(self, tmp_path):
        alerts, flags = stream(n=10)
        alerts = [
            alert._replace(record=alert.record._replace(
                severity="FATAL" if i % 2 else None
            ))
            for i, alert in enumerate(alerts)
        ]
        write_store(str(tmp_path / "s"), alerts, flags)
        disk = ColumnarStore(str(tmp_path / "s"))
        severities = [a.record.severity for a in disk.iter_alerts()]
        assert severities == [a.record.severity for a in alerts]

    def test_is_store_dir(self, tmp_path):
        alerts, flags = stream(n=5)
        write_store(str(tmp_path / "s"), alerts, flags)
        assert is_store_dir(str(tmp_path / "s"))
        assert not is_store_dir(str(tmp_path))


class TestResume:
    def test_resume_at_barrier_never_double_writes(self, tmp_path):
        alerts, flags = stream()
        root = str(tmp_path / "s")
        writer = ColumnarStoreWriter(root, "test", page_rows=16)
        writer.begin(0)
        writer.append_batch(list(zip(alerts, flags))[:140])
        watermark = writer.commit()
        assert watermark == 140
        # Crash: rows past the barrier were appended but never committed.
        writer.append_batch(list(zip(alerts, flags))[140:200])

        resumed = ColumnarStoreWriter(root, "test", page_rows=16)
        assert resumed.begin(140) == 140
        resumed.append_batch(list(zip(alerts, flags))[140:])
        resumed.finalize()

        disk = ColumnarStore(root)
        assert list(disk.iter_alerts()) == alerts
        assert disk.count_by_category() == (
            MemoryAlertStore("test", alerts, flags).count_by_category()
        )

    def test_a_resume_that_dies_before_committing_can_resume_again(
        self, tmp_path
    ):
        alerts, flags = stream()
        root = str(tmp_path / "s")
        write_store(root, alerts[:200], flags[:200], commits=(140,))
        # The first resume truncates to the checkpoint, then dies.
        ColumnarStoreWriter(root, "test", page_rows=16).begin(140)
        resumed = ColumnarStoreWriter(root, "test", page_rows=16)
        assert resumed.begin(140) == 140
        resumed.append_batch(list(zip(alerts, flags))[140:])
        resumed.finalize()
        assert list(ColumnarStore(root).iter_alerts()) == alerts

    def test_watermark_ahead_of_manifest_is_refused(self, tmp_path):
        alerts, flags = stream(n=50)
        root = str(tmp_path / "s")
        writer = ColumnarStoreWriter(root, "test")
        writer.begin(0)
        writer.append_batch(list(zip(alerts, flags)))
        writer.commit()
        resumed = ColumnarStoreWriter(root, "test")
        with pytest.raises(StoreError, match="exceeds committed"):
            resumed.begin(51)

    def test_resume_without_manifest_is_refused(self, tmp_path):
        writer = ColumnarStoreWriter(str(tmp_path / "none"), "test")
        with pytest.raises(StoreError, match="no store manifest"):
            writer.begin(10)

    def test_begin_none_adopts_manifest_seq(self, tmp_path):
        alerts, flags = stream(n=60)
        root = str(tmp_path / "s")
        writer = ColumnarStoreWriter(root, "test")
        writer.begin(0)
        writer.append_batch(list(zip(alerts, flags))[:40])
        writer.commit()
        resumed = ColumnarStoreWriter(root, "test")
        assert resumed.begin(None) == 40
        resumed.append_batch(list(zip(alerts, flags))[40:])
        resumed.finalize()
        assert list(ColumnarStore(root).iter_alerts()) == alerts

    def test_begin_zero_wipes_previous_content(self, tmp_path):
        alerts, flags = stream(n=60)
        root = str(tmp_path / "s")
        write_store(root, alerts, flags)
        writer = ColumnarStoreWriter(root, "test")
        writer.begin(0)
        writer.append(alerts[0], True)
        writer.finalize()
        assert ColumnarStore(root).count() == 1

    def test_wrong_system_is_refused(self, tmp_path):
        alerts, flags = stream(n=5)
        root = str(tmp_path / "s")
        write_store(root, alerts, flags)
        with pytest.raises(StoreError, match="holds system"):
            ColumnarStoreWriter(root, "other").begin(None)


class TestCorruption:
    def _store(self, tmp_path):
        alerts, flags = stream()
        root = str(tmp_path / "s")
        write_store(root, alerts, flags, commits=(150,))
        return root, alerts, flags

    def test_torn_tail_beyond_manifest_is_ignored(self, tmp_path):
        root, alerts, _flags = self._store(tmp_path)
        disk = ColumnarStore(root)
        target = os.path.join(root, disk.partitions[0].meta.path)
        with open(target, "ab") as handle:
            handle.write(b"\x99" * 37)  # torn, uncommitted garbage
        fresh = ColumnarStore(root)
        assert list(fresh.iter_alerts()) == alerts
        assert not fresh.degraded

    def test_bit_rot_degrades_only_that_partition(self, tmp_path):
        root, alerts, _flags = self._store(tmp_path)
        disk = ColumnarStore(root)
        victim = disk.partitions[0].meta
        target = os.path.join(root, victim.path)
        with open(target, "r+b") as handle:
            handle.seek(wire.HEADER_SIZE + wire.FRAME_HEADER_SIZE + 3)
            handle.write(b"\xff\x00\xff")
        fresh = ColumnarStore(root)
        survivors = list(fresh.iter_alerts())
        expected = [
            a for a in alerts
            if not (a.category == victim.category
                    and partition_hour(a.timestamp) == victim.hour)
        ]
        assert survivors == expected
        assert fresh.degraded and victim.path in fresh.degraded[0]

    def test_missing_partition_file_degrades(self, tmp_path):
        root, alerts, _flags = self._store(tmp_path)
        disk = ColumnarStore(root)
        os.remove(os.path.join(root, disk.partitions[0].meta.path))
        fresh = ColumnarStore(root)
        assert len(list(fresh.iter_alerts())) < len(alerts)
        assert "missing partition file" in fresh.degraded[0]

    def test_corrupt_manifest_raises_store_error(self, tmp_path):
        root, _alerts, _flags = self._store(tmp_path)
        with open(os.path.join(root, "MANIFEST"), "r+b") as handle:
            handle.seek(wire.HEADER_SIZE + 2)
            handle.write(b"\x00\x01\x02\x03")
        with pytest.raises(StoreError, match="manifest"):
            ColumnarStore(root)

    def test_summary_requires_finalize(self, tmp_path):
        alerts, flags = stream(n=20)
        root = str(tmp_path / "s")
        writer = ColumnarStoreWriter(root, "test")
        writer.begin(0)
        writer.append_batch(list(zip(alerts, flags)))
        writer.commit()
        disk = ColumnarStore(root)
        assert not disk.complete
        with pytest.raises(StoreError):
            disk.load_summary()


class TestUntrustedStore:
    @pytest.mark.parametrize("name, complaint", [
        ("SUMMARY", "corrupt run summary"),
        ("MANIFEST", "corrupt store manifest"),
    ])
    def test_crafted_file_is_refused_without_running(
        self, tmp_path, capsys, name, complaint
    ):
        """A SUMMARY or MANIFEST whose pickle names a global outside
        ``wire.STATE_TYPES`` is corrupt: the store and ``repro report``
        refuse it, and the pickle never runs."""
        root = str(tmp_path / "s")
        alerts, flags = stream(n=20)
        write_store(root, alerts, flags)
        sentinel = tmp_path / "ran"
        with open(os.path.join(root, name), "wb") as handle:
            handle.write(wire.file_header(COLUMN_MAGIC) + wire.encode_frame(
                pickle.dumps({"system": "test", "stats": Hostile(sentinel)})
            ))

        with pytest.raises(StoreError, match=complaint):
            ColumnarStore(root).load_summary()
        assert main(["report", root]) != 0
        assert complaint in capsys.readouterr().err
        assert not sentinel.exists()


class TestStoreFromOlderCode:
    """``fixtures/store/spirit`` was written by commit 0e83a8d, the last
    commit whose store files were pickled by their own codec::

        api.run_stream(
            read_log("tests/fixtures/golden/spirit.log", "spirit",
                     year=2005),
            "spirit", store_dir="tests/fixtures/store/spirit",
        )

    and ``fixtures/store/spirit.report.txt`` is what
    ``repro report tests/fixtures/store/spirit`` printed over it at that
    commit.  A finalized store written then must replay to the same
    tables and figures now."""

    FIXTURE = FIXTURES / "store" / "spirit"

    def test_load_result_renders_the_recorded_report(self):
        result = load_result(str(self.FIXTURE))
        assert (result.message_count, result.raw_alert_count) == (400, 308)
        results = {"spirit": result}
        text = tables.all_tables(results) + "\n"
        figure_text = figures.all_figures(results)
        if figure_text:
            text += "\n" + figure_text + "\n"
        recorded = (FIXTURES / "store" / "spirit.report.txt").read_text()
        assert text == recorded

    def test_repro_report_prints_the_recorded_report(self, capsys):
        assert main(["report", str(self.FIXTURE)]) == 0
        recorded = (FIXTURES / "store" / "spirit.report.txt").read_text()
        assert capsys.readouterr().out == recorded
