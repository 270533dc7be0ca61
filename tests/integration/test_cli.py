"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.logio.reader import count_lines


@pytest.fixture(scope="module")
def generated_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "liberty.log"
    code = main([
        "generate", "liberty", "--scale", "2e-5", "--seed", "3",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_lines(self, generated_log):
        assert count_lines(generated_log) > 1000

    def test_gzip(self, tmp_path):
        path = tmp_path / "lib.log.gz"
        code = main([
            "generate", "liberty", "--scale", "1e-5", "--seed", "3",
            "--out", str(path), "--gzip",
        ])
        assert code == 0
        assert path.stat().st_size > 0


class TestAnalyze:
    def test_summary_and_categories(self, generated_log, capsys):
        code = main([
            "analyze", str(generated_log), "--system", "liberty",
            "--year", "2004",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alerts (filtered)" in out
        assert "PBS_CHK" in out

    def test_full_report_flag(self, generated_log, capsys):
        code = main([
            "analyze", str(generated_log), "--system", "liberty",
            "--year", "2004", "--full",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Failure attribution" in out
        assert "Interarrival characterization" in out

    def test_threshold_flag(self, generated_log, capsys):
        code = main([
            "analyze", str(generated_log), "--system", "liberty",
            "--year", "2004", "--threshold", "600",
        ])
        assert code == 0
        assert "T=600" in capsys.readouterr().out


class TestAnonymize:
    def test_round_trip(self, generated_log, tmp_path, capsys):
        out_path = tmp_path / "anon.log"
        code = main([
            "anonymize", str(generated_log), "--system", "liberty",
            "--out", str(out_path), "--key", "s3cret", "--year", "2004",
        ])
        assert code == 0
        assert count_lines(out_path) == count_lines(generated_log)
        original = generated_log.read_text()
        anonymized = out_path.read_text()
        assert "ladmin1" in original
        assert "ladmin1" not in anonymized


class TestMine:
    def test_templates_reported(self, generated_log, capsys):
        code = main([
            "mine", str(generated_log), "--system", "liberty",
            "--year", "2004", "--min-support", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "templates cover" in out
        assert "task_check," in out


class TestStudy:
    def test_all_tables_printed(self, capsys):
        code = main(["study", "--scale", "1e-5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1." in out
        assert "Table 6." in out

    def test_faulted_study_completes_and_reports(self, capsys):
        code = main([
            "study", "--scale", "1e-5", "--seed", "3", "--faults",
            "--fault-seed", "11", "--checkpoint-every", "1000",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 6." in captured.out
        assert "restarts:" in captured.err
        assert "dead letters:" in captured.err

    def test_faulted_study_store_replays(self, tmp_path, capsys):
        """Supervision composes with ``--store-dir``: every system's
        restarted run lands a store, and ``report`` renders the same
        tables from disk alone."""
        root = str(tmp_path / "stores")
        code = main([
            "study", "--scale", "1e-5", "--seed", "3", "--faults",
            "--store-dir", root,
        ])
        assert code == 0
        study = capsys.readouterr()
        assert "restarts: 1" in study.err
        assert main(["report", root]) == 0
        report = capsys.readouterr()
        assert report.out.startswith(study.out)
        assert "Figure" in report.out[len(study.out):]


class TestAnalyzeQuarantine:
    def test_quarantine_flag_accepted_on_clean_log(self, generated_log,
                                                   capsys):
        code = main([
            "analyze", str(generated_log), "--system", "liberty",
            "--year", "2004", "--quarantine",
        ])
        assert code == 0
        assert "alerts (filtered)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analyze", "study"])
def test_batch_size_without_workers_refused(command, generated_log, capsys):
    """A serial run batches nothing, so --batch-size alone would be
    silently ignored; the CLI refuses it instead."""
    argv = {
        "analyze": ["analyze", str(generated_log), "--system", "liberty",
                    "--year", "2004"],
        "study": ["study", "--scale", "1e-5"],
    }[command]
    assert main([*argv, "--batch-size", "64"]) == 2
    captured = capsys.readouterr()
    assert "--workers" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["study", "--scale", "1e-5"], ["serve"]])
def test_checkpoint_every_zero_refused(command, capsys):
    """A cadence below one record is refused at the flag: exit 2 with
    one ``error:`` line naming it, before any system runs or any
    listener opens."""
    with pytest.raises(SystemExit) as exited:
        main(command + ["--checkpoint-every", "0"])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert "error: argument --checkpoint-every: must be at least 1" \
        in captured.err
    assert captured.out == ""


def test_unknown_system_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "asci-red", "--out", "/tmp/x.log"])


class TestStudyBounded:
    def test_bounded_study_reports_shedding(self, capsys):
        code = main([
            "study", "--scale", "1e-5", "--seed", "3", "--max-buffer", "128",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 6." in captured.out
        assert "shed:" in captured.err

    def test_unknown_shed_policy_rejected(self):
        """``--shed-policy`` lives on ``serve``, whose tenants cannot
        pause their sources; its choices are the decision table's keys."""
        with pytest.raises(SystemExit):
            main(["serve", "--shed-policy", "yolo"])
