"""The tentpole's correctness contract: every analysis result and every
report rendered from a spilled columnar store is byte-identical to the
in-memory path, including across a crash/resume that lands mid-partition."""

import pytest

from repro import api as pipeline
from repro.analysis.correlation import correlation_matrix, spatial_correlation
from repro.analysis.interarrival import (
    interarrival_series,
    interarrival_times,
    interarrivals_by_category,
)
from repro.reporting import figures, tables
from repro.reporting.report import system_report
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.deadletter import DeadLetterQueue
from repro.resilience.faults import CollectorCrash, FaultConfig, FaultPlan
from repro.simulation.generator import generate_log
from repro.store import ColumnarStore, load_result

from ..conftest import SEED, SMALL_SCALE


@pytest.fixture(scope="module")
def liberty_stored(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("store") / "liberty")
    result = pipeline.run_system(
        "liberty", scale=SMALL_SCALE, seed=SEED, store_dir=root
    )
    return result, root


class TestResultEquivalence:
    def test_alert_views_equal_memory_run(self, liberty_result,
                                          liberty_stored):
        stored, _root = liberty_stored
        assert stored.raw_alerts == liberty_result.raw_alerts
        assert stored.filtered_alerts == liberty_result.filtered_alerts
        assert len(stored.raw_alerts) == len(liberty_result.raw_alerts)

    def test_result_aggregates_equal(self, liberty_result, liberty_stored):
        stored, _root = liberty_stored
        assert stored.category_counts() == liberty_result.category_counts()
        assert stored.alert_type_counts() == (
            liberty_result.alert_type_counts()
        )
        assert stored.observed_categories == (
            liberty_result.observed_categories
        )
        assert stored.summary() == liberty_result.summary()

    def test_store_is_multi_partition(self, liberty_stored):
        _result, root = liberty_stored
        store = ColumnarStore(root)
        categories = {p.meta.category for p in store.partitions}
        hours = {p.meta.hour for p in store.partitions}
        assert len(categories) > 1
        assert len(hours) > 1

    def test_analyses_equal(self, liberty_result, liberty_stored):
        stored, _root = liberty_stored
        mem_alerts = list(liberty_result.filtered_alerts)
        query = stored.alerts.filtered()

        mem_series = interarrival_series(mem_alerts)
        store_series = interarrival_series(query)
        assert (mem_series.gaps == store_series.gaps).all()
        assert list(mem_series.by_category) == list(store_series.by_category)
        for category, gaps in mem_series.by_category.items():
            assert (gaps == store_series.by_category[category]).all()
        assert (interarrival_times(query) == interarrival_times(
            mem_alerts)).all()
        assert list(interarrivals_by_category(query)) == list(
            interarrivals_by_category(mem_alerts)
        )

        categories = sorted({a.category for a in mem_alerts})[:4]
        assert correlation_matrix(query, categories) == correlation_matrix(
            mem_alerts, categories
        )
        assert spatial_correlation(query) == spatial_correlation(mem_alerts)

    def test_reports_byte_identical(self, liberty_result, liberty_stored):
        stored, _root = liberty_stored
        mem = {"liberty": liberty_result}
        spill = {"liberty": stored}
        assert tables.all_tables(spill) == tables.all_tables(mem)
        assert figures.all_figures(spill) == figures.all_figures(mem)
        assert system_report(stored) == system_report(liberty_result)

    def test_replay_from_disk_alone(self, liberty_result, liberty_stored):
        _stored, root = liberty_stored
        replayed = load_result(root)
        assert replayed.raw_alerts == liberty_result.raw_alerts
        assert replayed.summary() == liberty_result.summary()
        assert system_report(replayed) == system_report(liberty_result)
        assert tables.all_tables({"liberty": replayed}) == tables.all_tables(
            {"liberty": liberty_result}
        )


class TestAllSystems:
    @pytest.mark.parametrize("system", ["bgl", "redstorm"])
    def test_tables_byte_identical(self, system, all_results, tmp_path):
        scale = 1e-3 if system == "bgl" else SMALL_SCALE
        stored = pipeline.run_system(
            system, scale=scale, seed=SEED,
            store_dir=str(tmp_path / system),
        )
        mem = all_results[system]
        assert stored.raw_alerts == mem.raw_alerts
        assert stored.severity_tab.rows(
            list(stored.severity_tab.messages)
        ) == mem.severity_tab.rows(list(mem.severity_tab.messages))
        assert system_report(stored) == system_report(mem)


class TestResumeMidPartition:
    """Crash between commit barriers, resume from ``state_dir``: the
    store truncates back to the watermark and the rerun fills the exact
    suffix — never a duplicated or lost row."""

    TOKEN = "liberty|store-resume"

    def _run(self, state_dir, store_dir, wrap=None, every=300):
        records = generate_log("liberty", scale=SMALL_SCALE,
                               seed=SEED).records
        return pipeline.run_stream(
            wrap(records) if wrap else records,
            "liberty",
            dead_letters=DeadLetterQueue(),
            checkpointer=CheckpointManager(every=every),
            state_dir=state_dir,
            state_token=self.TOKEN,
            store_dir=store_dir,
        )

    def test_crash_resume_is_byte_identical(self, tmp_path):
        baseline = self._run(None, None)
        plan = FaultPlan(FaultConfig.crash_only(at=2000, seed=SEED))
        state_dir = str(tmp_path / "state")
        store_dir = str(tmp_path / "store")
        with pytest.raises(CollectorCrash):
            self._run(state_dir, store_dir, wrap=plan.wrap)
        resumed = self._run(state_dir, store_dir, wrap=plan.wrap)

        assert resumed.raw_alerts == baseline.raw_alerts
        assert resumed.filtered_alerts == baseline.filtered_alerts
        assert resumed.summary() == baseline.summary()
        assert system_report(resumed) == system_report(baseline)
        # And the store on disk agrees with the spliced run.
        replayed = load_result(store_dir)
        assert replayed.raw_alerts == baseline.raw_alerts
        assert not ColumnarStore(store_dir).degraded

    def test_checkpoint_without_store_cannot_resume_with_one(
        self, tmp_path
    ):
        plan = FaultPlan(FaultConfig.crash_only(at=2000, seed=SEED))
        state_dir = str(tmp_path / "state")
        with pytest.raises(CollectorCrash):
            self._run(state_dir, None, wrap=plan.wrap)
        with pytest.raises(ValueError, match="without a columnar store"):
            self._run(state_dir, str(tmp_path / "late-store"),
                      wrap=plan.wrap)


class TestSupervisedStore:
    """Supervision resumes through ``run_stream(resume_from=...)``, whose
    store writer truncates back to the checkpoint's watermark, so a
    crashed-and-restarted run lands the same store as one that never
    crashed."""

    RUN = dict(scale=1e-4, seed=11, checkpoint_every=2000)

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return pipeline.run_system("spirit", **self.RUN)

    def test_crash_mid_stream_lands_uninterrupted_store(
        self, tmp_path, uninterrupted
    ):
        root = str(tmp_path / "spirit")
        result = pipeline.run_system(
            "spirit", faults=FaultConfig.crash_only(at=15_000, seed=11),
            store_dir=root, **self.RUN,
        )
        assert result.restarts == 1
        assert not result.degraded

        replayed = load_result(root)
        assert replayed.raw_alert_count == 22_112
        assert replayed.raw_alerts == uninterrupted.raw_alerts
        assert replayed.filtered_alerts == uninterrupted.filtered_alerts
        assert replayed.stats == uninterrupted.stats
        assert tables.all_tables({"spirit": replayed}) == tables.all_tables(
            {"spirit": uninterrupted}
        )
        assert not ColumnarStore(root).degraded

    def test_exhausted_budget_finalizes_the_partial(
        self, tmp_path, uninterrupted
    ):
        """Out of restarts, the degraded partial still lands a finalized
        store: exactly the alerts up to the last checkpoint."""
        root = str(tmp_path / "spirit")
        result = pipeline.run_system(
            "spirit", faults=FaultConfig.crash_only(at=15_000, seed=11),
            restart_budget=0, store_dir=root, **self.RUN,
        )
        assert result.degraded
        assert result.stats.messages == 14_000

        replayed = load_result(root)
        assert replayed.stats == result.stats
        assert replayed.raw_alerts == result.raw_alerts
        raw = list(replayed.raw_alerts)
        assert 0 < len(raw) < uninterrupted.raw_alert_count
        assert raw == uninterrupted.raw_alerts[:len(raw)]
        assert not ColumnarStore(root).degraded


class TestApiGuards:
    def test_run_all_writes_one_store_per_system(self, tmp_path):
        results = pipeline.run_all(
            scale=2e-5, seed=SEED, store_dir=str(tmp_path)
        )
        for name, result in results.items():
            assert (tmp_path / name / "MANIFEST").exists()
            assert result.store is not None
