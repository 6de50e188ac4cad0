import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sclab import cli, experiments
from sclab.experiments import (
    EXPERIMENT_IDS,
    Check,
    ExperimentConfig,
    ExperimentReport,
    emit,
    list_experiments,
    run,
)
from sclab.scale_core import AnalyticTailFunction

FAST_IDS = ("seq-discontinuity", "seq-tail-bounds", "seq-tangent-check")


class TestCatalogue:
    def test_thirteen_experiments(self):
        assert len(EXPERIMENT_IDS) == 13
        assert len(set(EXPERIMENT_IDS)) == 13

    def test_list_matches_ids(self):
        listed = list_experiments()
        assert [eid for eid, _ in listed] == list(EXPERIMENT_IDS)
        assert all(desc for _, desc in listed)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run("not-an-experiment")


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.seed == 0
        assert cfg.schedule().delta(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spacing=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(levels=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"blowup_t_grid": [0.0]},
            {"smoothness_t_grid": []},
            {"seed": -1},
            {"spacing": "x"},
            {"germ_level": 9},
        ],
    )
    def test_rejects_input_that_used_to_crash_an_experiment(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_accepts_large_seeds_and_small_dichotomy_parameters(self):
        # t < 1/ln(1e6) stays a valid input; the experiment reports it
        assert ExperimentConfig(seed=2**31).seed == 2**31
        assert ExperimentConfig(dichotomy_t_grid=[0.05]).dichotomy_t_grid == [0.05]

    def test_from_file_with_override(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 7, "truncation_n": 16}))
        cfg = ExperimentConfig.from_file(str(p), seed=9)
        assert cfg.seed == 9
        assert cfg.truncation_n == 16

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sead": 7}))
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_file(str(p))

    def test_from_file_rejects_non_object(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError):
            ExperimentConfig.from_file(str(p))


class TestReports:
    # a numpy RuntimeWarning raised as an error inside an experiment becomes its
    # failing `error` check, so these runs also show the default configs are silent
    def test_fast_experiments_pass(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eid in FAST_IDS:
                report = run(eid)
                assert report.passed, emit(report, "text")
                assert report.experiment == eid
                assert report.checks

    @pytest.mark.parametrize("eid", [e for e in EXPERIMENT_IDS if e not in FAST_IDS])
    def test_default_config_passes_without_runtime_warnings(self, eid):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run(eid, ExperimentConfig(seed=0))
        assert report.passed, emit(report, "text")

    @pytest.mark.parametrize("seed", [2, 8, 12, 17, 35])
    def test_germ_continuity_passes_where_random_draws_missed_the_witness(self, seed):
        report = run("germ-continuity", ExperimentConfig(seed=seed))
        assert report.passed, emit(report, "text")

    def test_reproducible_modulo_stamp(self):
        a, b = run("seq-discontinuity"), run("seq-discontinuity")
        da, db = a.to_dict(), b.to_dict()
        da.pop("stamp"), db.pop("stamp")
        assert da == db

    def test_report_echoes_config(self):
        cfg = ExperimentConfig(seed=42)
        report = run("seq-tail-bounds", cfg)
        assert report.config["seed"] == 42

    def test_json_emission_is_valid_and_stable(self):
        report = run("seq-tangent-check")
        one, two = emit(report, "json"), emit(report, "json")
        assert one == two
        assert json.loads(one)["experiment"] == "seq-tangent-check"

    def test_csv_schema(self):
        report = run("seq-discontinuity")
        rows = list(csv.reader(io.StringIO(emit(report, "csv"))))
        assert rows[0] == ["experiment", "check", "claimed", "measured", "pass"]
        for row in rows[1:]:
            assert row[0] == "seq-discontinuity"
            assert row[4] in ("true", "false")

    def test_text_shows_pass_lines(self):
        report = run("seq-tail-bounds")
        text = emit(report, "text")
        assert "[PASS]" in text
        assert text.rstrip().endswith("overall: PASS")

    def test_unknown_format(self):
        report = run("seq-discontinuity")
        with pytest.raises(ValueError):
            emit(report, "yaml")


def _failing_report(eid: str) -> ExperimentReport:
    return ExperimentReport(
        experiment=eid,
        description="forced failure",
        passed=False,
        checks=[Check("forced", "always fails", "0", "1", False)],
        config=ExperimentConfig().to_dict(),
        stamp={},
    )


class TestExperimentErrors:
    @pytest.mark.parametrize(
        "eid, override, exc_type",
        [
            ("inverse-blowup", {"blowup_t_grid": [0.03]}, "ValueError"),
            ("transversality-witness", {"branching_t_grid": [0.02]}, "OverflowError"),
            ("opnorm-dichotomy", {"dichotomy_t_grid": [0.05]}, "RepresentabilityError"),
        ],
    )
    def test_exception_becomes_one_failing_error_check(self, eid, override, exc_type):
        report = run(eid, ExperimentConfig(**override))
        assert not report.passed
        assert [c.name for c in report.checks] == ["error"]
        assert report.checks[0].measured.startswith(exc_type + ": ")
        assert not report.checks[0].passed

    def test_unsettled_quadrature_becomes_failing_error_check(self, monkeypatch):
        def never_settles(xs):
            return np.ones(xs.size), np.full(xs.size, float(xs.size))

        monkeypatch.setattr(
            AnalyticTailFunction,
            "inverse_square_tail",
            staticmethod(lambda delta: AnalyticTailFunction(never_settles, delta)),
        )
        report = run("inverse-blowup", ExperimentConfig(blowup_t_grid=[0.5]))
        assert not report.passed
        assert [c.name for c in report.checks] == ["error"]
        assert report.checks[0].measured.startswith("ConvergenceError: ")

    @pytest.mark.parametrize(
        "eid, override",
        [
            ("inverse-blowup", {"blowup_t_grid": [0.03]}),
            ("transversality-witness", {"branching_t_grid": [0.02]}),
        ],
    )
    def test_cli_exits_one_without_traceback(self, tmp_path, capsys, eid, override):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(override))
        assert cli.main(["run", eid, "--config", str(p), "--format", "text"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] error:" in captured.out
        assert "Traceback" not in captured.out + captured.err


def test_runs_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sclab import cli\n"
        "for eid in ('inverse-blowup', 'seq-discontinuity', 'germ-openness'):\n"
        "    assert cli.main(['run', eid]) == 0, eid\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENT_IDS:
            assert eid in out

    def test_run_passing_exits_zero(self, capsys):
        assert cli.main(["run", "seq-discontinuity", "--format", "text"]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_run_failing_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda eid, cfg: _failing_report(eid))
        assert cli.main(["run", "seq-discontinuity", "--format", "text"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_unknown_experiment_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "bogus"])
        assert exc.value.code == 2

    def test_config_error_exits_two_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"germ_level": 9}))
        assert cli.main(["run", "germ-openness", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "germ_level" in captured.err

    def test_seed_flag_is_validated(self, capsys):
        assert cli.main(["run", "seq-discontinuity", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert cli.main(["run", "seq-discontinuity", "--config", str(missing)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_out_dir_flag_writes_file(self, tmp_path, capsys):
        code = cli.main(
            ["run", "seq-tail-bounds", "--out", str(tmp_path), "--format", "csv"]
        )
        assert code == 0
        written = tmp_path / "seq-tail-bounds.csv"
        assert written.exists()
        first_line = written.read_text().splitlines()[0]
        assert first_line == "experiment,check,claimed,measured,pass"

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCLAB_OUT_DIR", str(tmp_path))
        assert cli.main(["run", "seq-tangent-check"]) == 0
        assert (tmp_path / "seq-tangent-check.json").exists()

    def test_config_file_and_seed(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"truncation_n": 16}))
        code = cli.main(
            ["run", "seq-tail-bounds", "--config", str(p), "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["truncation_n"] == 16
        assert payload["config"]["seed"] == 3
