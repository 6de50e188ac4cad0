import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sclab import cli, experiments
from sclab.bump_profiles import bump_self_pairing
from sclab.experiments import (
    EXPERIMENT_IDS,
    Check,
    ExperimentConfig,
    ExperimentReport,
    emit,
    list_experiments,
    run,
)
from sclab.gallery import rho_k_eval
from sclab.scale_core import (
    AnalyticTailFunction,
    SeqVector,
    _seq_weights,
    tail_projection,
)

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
            {"dichotomy_delta": -0.1},
            {"dichotomy_delta": 0.0},
            {"tail_delta": -0.1},
            # windows past the grid-node cap: the atoms' 4 / spacing, the
            # bump's 2 (1 + margin) / spacing, and an inf node count
            {"spacing": 1e-7},
            {"margin": 1e5},
            {"spacing": 5e-324},
            # seq-discontinuity's N x N matrices: 80 GB at N = 10^5
            {"truncation_n": 1025},
            {"truncation_n": 10**5},
        ],
    )
    def test_rejects_input_that_used_to_crash_an_experiment(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_accepts_large_seeds_and_small_dichotomy_parameters(self):
        # t < 1/ln(1e6) stays a valid input; the experiment reports it
        assert ExperimentConfig(seed=2**31).seed == 2**31
        assert ExperimentConfig(dichotomy_t_grid=[0.05]).dichotomy_t_grid == [0.05]
        assert ExperimentConfig(tail_delta=0.0).tail_delta == 0.0

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

    @pytest.mark.parametrize("eid", ["germ-continuity", "germ-openness"])
    def test_germ_experiments_read_the_configured_margin(self, eid, monkeypatch):
        made = []
        factory = experiments.make_moving_bump_pseudo_germ

        def recorded(*args, **kwargs):
            made.append(factory(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(experiments, "make_moving_bump_pseudo_germ", recorded)
        report = run(eid, ExperimentConfig(margin=2.0, seed=1))
        assert report.passed, emit(report, "text")
        # the pseudo-germ's self-pairing q (another float than at the default
        # margin) and its bound c < 1/ln(3 + margin)
        (germ,) = made
        assert germ.context.q == bump_self_pairing(margin=2.0) != bump_self_pairing()
        with pytest.raises(ValueError, match=r"c < 1/ln\(5\)"):
            germ.B(np.array([0.65]), np.ones((1, germ.context.dim)))

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

    def test_numpy_floats_format_as_floats(self):
        assert experiments._fmt(np.float64(0.1)) == "0.1"
        assert experiments._fmt(np.float64(1e-300)) == repr(1e-300)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_no_report_names_numpy(self, spacing):
        # a numpy scalar's repr (np.float64(...)) must not leak into a report
        for eid in EXPERIMENT_IDS:
            for seed in (0, 1, 2):
                report = run(eid, ExperimentConfig(seed=seed, spacing=spacing))
                for fmt in ("json", "csv"):
                    assert "np." not in emit(report, fmt), (eid, seed, fmt)


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
        ],
    )
    def test_exception_becomes_one_failing_error_check(self, eid, override, exc_type):
        report = run(eid, ExperimentConfig(**override))
        assert not report.passed
        assert [c.name for c in report.checks] == ["error"]
        assert report.checks[0].measured.startswith(exc_type + ": ")
        assert not report.checks[0].passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "grid", [[0.12], [0.05], [0.01, 0.002], [0.12, 0.1, 0.05, 0.01, 0.002]]
    )
    def test_dichotomy_passes_below_the_grid_range(self, grid, seed):
        # the shifted grids of t <= 0.12 overflowed or were not representable
        report = run("opnorm-dichotomy", ExperimentConfig(seed=seed, dichotomy_t_grid=grid))
        assert report.passed, [(c.name, c.measured) for c in report.checks]
        sandwich = next(c for c in report.checks if c.name == "cross-level sandwich")
        assert -math.inf < float(sandwich.measured) < 0.0

    def test_dichotomy_bound_past_float_range_fails_its_check(self):
        # exp(1/t) overflows below t ~ 0.00141: the log bound is -inf twice,
        # which is not a strict decrease, and no exception is raised
        report = run("opnorm-dichotomy", ExperimentConfig(dichotomy_t_grid=[0.0013, 0.001]))
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["upper bound decreasing"]

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


def _old_seq_norm(x: SeqVector, i: int) -> float:
    """seq_norm as it was before the row-stack form, on the 1-D coefficients."""
    c = x.coeffs
    if not c.any():
        return 0.0
    w = _seq_weights(c.size, i)
    with np.errstate(over="ignore"):
        s = float((w * c * c).sum())
        if sys.float_info.min <= s < math.inf:
            return math.sqrt(s)
        m = float(np.abs(c).max())
        return m * math.sqrt(float((w * (c / m) * (c / m)).sum()))


# the three loops of seq-tail-bounds one SeqVector per trial, on the draws
# of the stacked loops


def _old_single_mode_gap(rng, n_modes):
    worst = 0.0
    for n in range(1, n_modes + 1):
        x = SeqVector.basis(n, scale=float(rng.uniform(0.5, 2.0)))
        for i in range(3):
            for k in range(3):
                lhs = _old_seq_norm(x, i)
                rhs = n ** (-3 * k) * _old_seq_norm(x, i + k)
                worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
    return worst


def _old_tail_bound_gap(rng, dim, N):
    worst_gap = -math.inf
    for _ in range(200):
        x = SeqVector(rng.normal(size=dim))
        for i in range(2):
            for k in range(1, 3):
                tail = tail_projection(x, N)
                lhs = _old_seq_norm(tail, i)
                rhs = N ** (-3 * k) * _old_seq_norm(tail, i + k)
                worst_gap = max(worst_gap, lhs - rhs)
    return worst_gap


def _old_diagonal_map_ratio(rng, dim):
    worst_ratio = 0.0
    for _, size in experiments._blocks(1000):
        # per block: every trial's x, then every t, then every level
        xs = rng.normal(size=(size, dim))
        ts = rng.uniform(-0.5, 1.0, size)
        levels = rng.integers(0, 3, size)
        for row, t, i in zip(xs, ts.tolist(), levels.tolist()):
            x = SeqVector(row)
            ratio = _old_seq_norm(rho_k_eval(0, t, x), i) / _old_seq_norm(x, i)
            worst_ratio = max(worst_ratio, ratio)
    return worst_ratio


class _CountingGenerator:
    """A numpy Generator that records the name of every method looked up,
    once per call."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._rng, name)


class TestStackedSeqLoops:
    @pytest.mark.parametrize(
        "seed, dim",
        [(seed, dim) for dim in (16, 32, 64) for seed in range(5)]
        # an empty tail, and two blocks of single modes
        + [(0, 7), (0, 150)],
    )
    def test_tail_bound_loops_equal_the_per_trial_loops(self, seed, dim):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        loops = [
            (experiments._single_mode_gap, _old_single_mode_gap, (dim,)),
            (experiments._tail_bound_gap, _old_tail_bound_gap, (dim, 16)),
            (experiments._diagonal_map_ratio, _old_diagonal_map_ratio, (dim,)),
        ]
        for stacked, per_trial, args in loops:
            assert repr(stacked(new, *args)) == repr(per_trial(old, *args))
            # the same draws, in the same order
            assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("dim", [16, 150])
    def test_diagonal_map_ratio_draws_three_arrays_per_block(self, dim):
        calls = []
        experiments._diagonal_map_ratio(_CountingGenerator(np.random.default_rng(0), calls), dim)
        blocks = len(experiments._blocks(1000))
        assert calls == ["normal", "uniform", "integers"] * blocks

    def test_running_max_keeps_the_first_of_equal_maxima(self):
        assert repr(experiments._running_max(-math.inf, np.array([-0.0, 0.0]))) == "-0.0"
        assert repr(experiments._running_max(0.0, np.array([-0.0, -1.0]))) == "0.0"
        assert experiments._running_max(1.5, np.zeros(0)) == 1.5


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

    @pytest.mark.parametrize(
        "eid, bad",
        [
            ("germ-openness", {"germ_level": 9}),
            ("opnorm-dichotomy", {"dichotomy_delta": -0.1}),
            ("opnorm-dichotomy", {"dichotomy_delta": 0}),
            ("inverse-blowup", {"tail_delta": -0.1}),
            ("germ-continuity", {"spacing": 1e-7}),
            ("retract-image-gap", {"margin": 1e5}),
            ("seq-discontinuity", {"truncation_n": 10**5}),
        ],
    )
    def test_config_error_exits_two_with_one_line(self, tmp_path, capsys, eid, bad):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(bad))
        assert cli.main(["run", eid, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert next(iter(bad)) in captured.err

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

    @pytest.mark.parametrize(
        "layout",
        ["out-is-a-file", "out-under-a-file", "report-path-is-a-directory"],
    )
    def test_unwritable_out_exits_two_with_one_line(self, tmp_path, capsys, layout):
        blocker = tmp_path / "blocker"
        if layout == "report-path-is-a-directory":
            (blocker / "seq-discontinuity.json").mkdir(parents=True)
            out = blocker
        else:
            blocker.write_text("")
            out = blocker if layout == "out-is-a-file" else blocker / "reports"
        assert cli.main(["run", "seq-discontinuity", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("sclab: error: cannot write the report")

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
