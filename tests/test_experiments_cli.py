import csv
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from sclab import bump_profiles, cli, experiments, gallery, operator_probe, scale_core
from sclab.bump_profiles import (
    BumpProfile,
    bump_reaches,
    bump_self_pairing,
    bump_window,
    bump_window_gram,
    make_bump,
    shifted_bump,
    step_n,
)
from sclab.experiments import (
    EXPERIMENT_IDS,
    Check,
    ExperimentConfig,
    ExperimentReport,
    emit,
    list_experiments,
    run,
)
from sclab.gallery import (
    h_family_handle,
    s_proj,
    s_proj_handle,
    seq_diffeo,
    seq_diffeo_inv,
    seq_rho_k_handle,
)
from sclab.operator_probe import (
    DEFAULT_FD_STEPS,
    OperatorHandle,
    finite_diff_differential,
    truncation_opnorm,
)
from sclab.scale_core import (
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    SeqVector,
    _seq_weights,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_norm,
    seq_norm,
    tail_projection,
)
from test_golden_reports import BOUND_CHECKS

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
            # schedule() holds levels + 2 weights: about 48 GB at 10^9
            {"levels": 1025},
            {"levels": 10**9},
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
        assert len(ExperimentConfig(levels=1024).schedule().deltas) == 1026

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

    def test_rejects_a_null_byte_in_out_dir(self):
        with pytest.raises(ValueError, match="null byte"):
            ExperimentConfig(out_dir="reports\0x")

    def test_from_file_names_a_file_nested_past_the_recursion_limit(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="deep.json nests too deeply"):
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
        factory = experiments.make_germ

        def recorded(*args, **kwargs):
            made.append(factory(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(experiments, "make_germ", recorded)
        report = run(eid, ExperimentConfig(margin=2.0, seed=1))
        assert report.passed, emit(report, "text")
        # the pseudo-germ's self-pairing q at this margin (1.0, as at the
        # default margin) and its bound c < 1/ln(3 + margin), which pins the margin
        (germ,) = [g for g in made if g.name == "moving-bump"]
        assert germ.context.gram(0)[-1, -1] == bump_self_pairing(margin=2.0)
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

    def test_reports_render_as_the_deep_copied_fields(self):
        configs = [
            ExperimentConfig(),
            ExperimentConfig(seed=3, spacing=5e-4, germ_level=2, truncation_n=16),
            ExperimentConfig(seed=1, margin=2.0, smoothness_t_grid=(0.5, 0.3), out_dir="out"),
        ]
        for cfg in configs:
            assert cfg.to_dict() == dataclasses.asdict(cfg)
            for eid in EXPERIMENT_IDS:
                report = run(eid, cfg)
                want = json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2) + "\n"
                assert emit(report, "json") == want, eid
        # no list or dict reachable from an echoed field is one the config
        # holds (every field, checked with `is`), and every check field is
        # immutable, so no report shares state
        for cfg in configs:
            echoed = cfg.to_dict()
            names = [f.name for f in dataclasses.fields(cfg)]
            assert list(echoed) == names
            owned = [obj for name in names for obj in _containers(getattr(cfg, name))]
            for name in names:
                for obj in _containers(echoed[name]):
                    assert not any(obj is mine for mine in owned), name
        for f in dataclasses.fields(Check):
            assert f.type in ("str", "bool", str, bool), f.name
        cfg = ExperimentConfig()
        echoed = cfg.to_dict()
        cfg.blowup_t_grid.append(0.2)
        assert echoed["blowup_t_grid"] == [0.5, 0.45, 0.4, 0.35, 0.3]

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_no_report_names_numpy(self, spacing):
        # a numpy scalar's repr (np.float64(...)) must not leak into a report
        for eid in EXPERIMENT_IDS:
            for seed in (0, 1, 2):
                report = run(eid, ExperimentConfig(seed=seed, spacing=spacing))
                for fmt in ("json", "csv"):
                    assert "np." not in emit(report, fmt), (eid, seed, fmt)


def _containers(value):
    """Every list and dict object reachable from value."""
    found, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, dict)):
            found.append(v)
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
    return found


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

    def test_dichotomy_bound_of_minus_inf_fails_and_names_its_t(self):
        # a finite bound, then -inf: read as a strict decrease, it passed
        # on a bound that bounds nothing
        report = run("opnorm-dichotomy", ExperimentConfig(dichotomy_t_grid=[0.3, 0.001]))
        checks = {c.name: c for c in report.checks}
        assert [name for name, c in checks.items() if not c.passed] == ["upper bound decreasing"]
        assert checks["upper bound decreasing"].measured == "0.001"

    def test_smoothness_envelope_at_the_log_floor_fails_and_names_its_t(self):
        # exp(1/t^2) overflows at t = 0.01, where the envelope's log is
        # clamped to the most negative float: both checks passed on the clamp
        report = run("g0-smoothness", ExperimentConfig(smoothness_t_grid=[0.05, 0.01]))
        assert [(c.passed, c.measured) for c in report.checks] == [(False, "0.01")] * 2
        # the clamp first, then a value: only the decrease reads the clamp
        report = run("g0-smoothness", ExperimentConfig(smoothness_t_grid=[0.01, 0.3, 0.15]))
        assert [(c.passed, c.measured) for c in report.checks][0] == (False, "0.01")
        assert report.checks[1].measured != "0.01"

    def test_unsettled_quadrature_becomes_failing_error_check(self, monkeypatch):
        def never_settles(xs):
            return np.ones(xs.size), np.full(xs.size, float(xs.size))

        monkeypatch.setattr(
            AnalyticTailFunction,
            "inverse_square_tail",
            staticmethod(lambda delta: AnalyticTailFunction(never_settles)),
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


def _run_fresh(code: str) -> None:
    """Run code in a fresh interpreter that imports sclab from src/."""
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


def test_runs_without_scipy():
    _run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from sclab import cli\n"
        "for eid in ('inverse-blowup', 'seq-discontinuity', 'germ-openness'):\n"
        "    assert cli.main(['run', eid]) == 0, eid\n"
    )


def test_importing_the_cli_fills_no_cache():
    # the cold start imports sclab.cli: no functools cache of sclab may be
    # filled at import time, where every start would pay for it
    _run_fresh(
        "import sys\n"
        "import sclab.cli\n"
        "caches = [\n"
        "    (name, attr, value.cache_info().currsize)\n"
        "    for name, module in list(sys.modules.items())\n"
        "    if name == 'sclab' or name.startswith('sclab.')\n"
        "    for attr, value in vars(module).items()\n"
        "    if callable(getattr(value, 'cache_info', None))\n"
        "]\n"
        "assert caches, 'no cache found'\n"
        "assert all(size == 0 for _, _, size in caches), caches\n"
    )


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
            ratio = _old_seq_norm(seq_diffeo(t, x), i) / _old_seq_norm(x, i)
            worst_ratio = max(worst_ratio, ratio)
    return worst_ratio


def _old_seq_discontinuity(cfg: ExperimentConfig):
    """seq-discontinuity's unit-vector gap and round trip, one SeqVector per
    vector through the gallery's diagonal map."""
    worst = 0.0
    for n in range(2, 11):
        for i in range(3):
            e_n = SeqVector.basis(n)
            moved = SeqVector(seq_diffeo(1.0 / n, e_n).coeffs - seq_diffeo(0.0, e_n).coeffs)
            worst = max(worst, abs(seq_norm(moved, i) / seq_norm(e_n, i) - 0.5))
    rng = np.random.default_rng(cfg.seed)
    worst_rt = 0.0
    for _ in range(20):
        x = SeqVector(rng.normal(size=cfg.truncation_n))
        t = float(rng.uniform(-0.2, 0.6))
        back = seq_diffeo_inv(t, seq_diffeo(t, x))
        worst_rt = max(worst_rt, seq_norm(SeqVector(back.coeffs - x.coeffs), 0) / seq_norm(x, 0))
    return worst, worst_rt


def _old_seq_tangent_worst(cfg: ExperimentConfig) -> float:
    """seq-tangent-check's interior mismatch, one base point per call."""
    rng = np.random.default_rng(cfg.seed)
    fracs = (0.35, 0.6)
    base_ts = [1 / (n + 1) + f * (1 / n - 1 / (n + 1)) for n in range(2, 7) for f in fracs] * 2
    worst = 0.0
    for k in (0, 1):
        for t in base_ts:
            point = (np.array([t]), rng.normal(size=(1, 10)))
            tan = (np.array([rng.uniform(0.5, 1.5)]), rng.normal(size=(1, 10)))
            steps = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
            (rep,) = finite_diff_differential(seq_rho_k_handle(k), point, tan, 0, steps)
            worst = max(worst, rep.mismatch)
    return worst


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

    @pytest.mark.parametrize("dim", [16, 150])
    def test_diagonal_map_ratio_makes_two_norm_calls_per_block(self, monkeypatch, dim):
        # the image's and x's norms at each trial's own level, one call each
        calls = []
        for name in ("rho_k_eval", "seq_norms"):
            real = getattr(experiments, name)

            def counted(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(experiments, name, counted)
        experiments._diagonal_map_ratio(np.random.default_rng(0), dim)
        assert calls == ["rho_k_eval", "seq_norms", "seq_norms"] * 10

    @pytest.mark.parametrize("dim", [16, 32, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_seq_discontinuity_rows_equal_the_per_vector_loops(self, seed, dim):
        cfg = ExperimentConfig(seed=seed, truncation_n=dim)
        checks = {c.name: c.measured for c in run("seq-discontinuity", cfg).checks}
        gap, round_trip = _old_seq_discontinuity(cfg)
        assert (checks["unit-vector gap"], checks["round trip"]) == (repr(gap), repr(round_trip))

    @pytest.mark.parametrize("dim", [2, 5, 16, 64])
    def test_difference_operator_norm_is_the_metric_opnorm(self, dim):
        # the independent route: the metric operator norm of each diagonal
        # difference under the level Gram matrices diag(m^(6i)), i < 3
        norms = []
        for n in (2, 4, 7):
            diag = step_n(np.arange(1, dim + 1), 1.0 / n, 0) - 1.0
            for i in range(3):
                gram = np.diag(np.arange(1, dim + 1, dtype=float) ** (6 * i))
                norms.append(truncation_opnorm(OperatorHandle(np.diag(diag), gram, gram)))
                assert norms[-1] == float(np.abs(diag).max())
        report = run("seq-discontinuity", ExperimentConfig(truncation_n=dim))
        got = {c.name: c for c in report.checks}
        lower = got["difference operator norm at least 1/2"]
        upper = got["difference operator norm at most 1"]
        assert (lower.measured, upper.measured) == (repr(min(norms)), repr(max(norms)))
        assert lower.passed == all(0.5 - 1e-12 <= x for x in norms)
        assert upper.passed == all(x <= 1.0 + 1e-12 for x in norms)

    @pytest.mark.parametrize("seed", range(4))
    def test_seq_tangent_batches_equal_the_one_point_calls(self, seed):
        cfg = ExperimentConfig(seed=seed)
        (check, _) = run("seq-tangent-check", cfg).checks
        assert check.measured == repr(_old_seq_tangent_worst(cfg))

    def test_running_max_keeps_the_first_of_equal_maxima(self):
        assert repr(experiments._running_max(-math.inf, np.array([-0.0, 0.0]))) == "-0.0"
        assert repr(experiments._running_max(0.0, np.array([-0.0, -1.0]))) == "0.0"
        assert experiments._running_max(1.5, np.zeros(0)) == 1.5

    @pytest.mark.parametrize(
        "current, values",
        [
            (0.0, np.array([1e-17, math.nan, 3e-17])),
            (0.0, np.array([math.nan, 1.0])),
            (2.0, np.array([[1.0, 3.0], [math.nan, 0.5]])),
            (math.nan, np.array([1.0, 2.0])),
            (math.nan, np.zeros(0)),
            (-math.inf, math.nan),
            (1.0, [0.5, math.nan]),
        ],
    )
    def test_running_max_keeps_a_nan(self, current, values):
        assert math.isnan(experiments._running_max(current, values))

    def test_running_max_takes_scalars_and_lists(self):
        assert experiments._running_max(0.0, 2.5) == 2.5
        assert experiments._running_max(3.0, [1.0, 2.0]) == 3.0
        assert repr(experiments._running_max(0.0, -0.0)) == "0.0"
        assert experiments._running_max(-math.inf, [1.0, math.inf, 2.0]) == math.inf


def _scale_diagonal_map(monkeypatch):
    # the plateau values f_n(t) of the diagonal map, which the gallery's row
    # kernels read, scaled by 2.1
    step = gallery.step_n
    monkeypatch.setattr(gallery, "step_n", lambda *args: 2.1 * step(*args))


def _scale_tangent_rows(monkeypatch):
    # the rows of the analytic tangent rho_k(t, X) + T rho_{k+1}(t, x), which
    # the sweeps read, scaled by 1 + 1e-5
    rows = gallery.rho_k_tangent
    monkeypatch.setattr(gallery, "rho_k_tangent", lambda *args: (1.0 + 1e-5) * rows(*args))


def _scale_level_two_weights(monkeypatch):
    # the level-2 weights n^12 scaled by 1 + 1e-9, on the one-level and the
    # per-row path; the seq_weight_table fixture clears the table after it
    weights = scale_core._seq_weights
    monkeypatch.setattr(
        scale_core, "_seq_weights", lambda n, i: weights(n, i) * (1.0 + 1e-9 if i == 2 else 1.0)
    )
    scale_core._seq_weight_table.cache_clear()


@pytest.fixture
def seq_weight_table():
    """Clears the per-row weight table after the test, so none built from
    faulted weights outlives it."""
    yield
    scale_core._seq_weight_table.cache_clear()


#: check -> (experiment, fault, its reading at seeds 0-2)
_SEQ_FAULTS = {
    "diagonal map bounded by two": ("seq-tail-bounds", _scale_diagonal_map, 2.1),
    "interior tangent formula": ("seq-tangent-check", _scale_tangent_rows, 1e-5),
    "single-mode level scaling": ("seq-tail-bounds", _scale_level_two_weights, 5e-10),
}


class TestSeqChecksFailUnderFaults:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("check", sorted(_SEQ_FAULTS))
    def test_each_check_fails_under_its_fault(self, monkeypatch, seq_weight_table, check, seed):
        eid, fault, reading = _SEQ_FAULTS[check]
        fault(monkeypatch)
        report = run(eid, ExperimentConfig(seed=seed))
        got = {c.name: c for c in report.checks}[check]
        assert not got.passed and not report.passed
        assert float(got.measured) > float(got.claimed)
        assert float(got.measured) == pytest.approx(reading, rel=1e-4)

    def test_the_weight_fault_reaches_the_per_row_levels(self, monkeypatch, seq_weight_table):
        rows = np.random.default_rng(0).normal(size=(6, 32))
        levels = np.array([0, 1, 2, 2, 1, 0])
        norms = scale_core.seq_norms
        clean = norms(rows, levels)
        _scale_level_two_weights(monkeypatch)
        faulted = norms(rows, levels)
        assert np.array_equal(faulted[levels != 2], clean[levels != 2])
        assert np.array_equal(faulted[levels == 2], norms(rows[levels == 2], 2))
        assert np.all(faulted[levels == 2] > clean[levels == 2])


def _old_projection_orthogonality(cfg: ExperimentConfig) -> float:
    """retract-image-gap's "projection orthogonality" as it was measured, one
    GridFunction per draw and the one-point projection map."""
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for t in (0.3, 0.4, 0.5):
        bumps = [shifted_bump(t, k, cfg.spacing, cfg.margin) for k in range(4)]
        for _ in range(34):
            f = grid_combine(list(zip(rng.normal(size=4), bumps)))
            _, g = s_proj(t, f, cfg.spacing, cfg.margin)
            resid = abs(grid_l2_inner(g, bumps[0]))
            worst = max(worst, resid / max(grid_sobolev_norm(f, 0, 0.0), 1e-300))
    return worst


def _orthogonality(cfg: ExperimentConfig) -> float:
    checks = {c.name: c for c in run("retract-image-gap", cfg).checks}
    return float(checks["projection orthogonality"].measured)


def _scale_projection_coefficient(monkeypatch):
    # (c, dc/da, dc/dt) of the projection map's c = -<f, b_t> scaled by 1 + 1e-9
    partials = gallery._s_proj_partials
    monkeypatch.setattr(
        gallery, "_s_proj_partials", lambda t, a: tuple((1.0 + 1e-9) * p for p in partials(t, a))
    )


def _scale_bump_normalization(monkeypatch):
    # the bump's normalisation scaled by 1 + 1e-5, sampled afresh: the caches
    # that hold its samples are cleared here and by the bump_caches fixture
    bump = make_bump()
    scaled = BumpProfile(bump.normalization * (1.0 + 1e-5))
    monkeypatch.setattr(bump_profiles, "make_bump", lambda: scaled)
    _clear_bump_caches()


def _clear_bump_caches():
    for cache in (bump_window, shifted_bump, bump_window_gram, bump_self_pairing):
        cache.cache_clear()


@pytest.fixture
def bump_caches():
    """Clears the caches of bump samples after the test, so none that a
    fault filled outlives it."""
    yield
    _clear_bump_caches()


#: each retract-image-gap check with one injected fault that fails it: under
#: the coefficient fault the kernel witness reads 1.0e-9 and orthogonality
#: 2.7e-10 to 4.6e-10 (seeds 0-9, both spacings); the normalisation fault
#: fails every check
_RETRACT_FAULTS = {
    "projection orthogonality": _scale_projection_coefficient,
    "missed target pairing": _scale_bump_normalization,
    "missed target distance": _scale_bump_normalization,
    "kernel witness": _scale_projection_coefficient,
}


class TestGridRowLoops:
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_orthogonality_reads_rounding_on_both_routes(self, spacing):
        # the projected windows and the per-draw loop round apart; over seeds
        # 0-39 and both spacings they read at most 2.9e-17 and 1.1e-16
        for seed in range(40):
            cfg = ExperimentConfig(seed=seed, spacing=spacing)
            assert _orthogonality(cfg) <= 1e-15
            assert _old_projection_orthogonality(cfg) <= 1e-15

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("fault", [_scale_projection_coefficient, _scale_bump_normalization])
    def test_orthogonality_agrees_with_the_per_draw_loop_under_a_fault(
        self, monkeypatch, bump_caches, fault, spacing
    ):
        fault(monkeypatch)
        for seed in range(10):
            cfg = ExperimentConfig(seed=seed, spacing=spacing)
            got, want = _orthogonality(cfg), _old_projection_orthogonality(cfg)
            assert got == pytest.approx(want, rel=1e-6)
            assert got > 1e-10 and want > 1e-10

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_gram_norms_equal_the_norms_of_the_combinations(self, spacing):
        cfg = ExperimentConfig(spacing=spacing)
        gram = bump_window_gram(4, 0, 0.0, spacing, cfg.margin)
        draws = np.random.default_rng(0).normal(size=(3, 34, 4))
        for t, coeffs in zip((0.3, 0.4, 0.5), draws):
            bumps = [shifted_bump(t, k, spacing, cfg.margin) for k in range(4)]
            for c in coeffs:
                want = grid_sobolev_norm(grid_combine(list(zip(c, bumps))), 0, 0.0)
                assert math.sqrt(c @ gram @ c) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_run_projects_each_window_once_per_t(self, monkeypatch):
        calls = []
        project = experiments.s_proj_row

        def counted(*args, **kwargs):
            calls.append(args[0])
            return project(*args, **kwargs)

        monkeypatch.setattr(experiments, "s_proj_row", counted)
        bump_window_gram.cache_clear()
        for spacing in (1e-3, 5e-4):
            calls.clear()
            assert run("retract-image-gap", ExperimentConfig(spacing=spacing)).passed
            assert calls == [0.3] * 4 + [0.4] * 4 + [0.5] * 4
        info = bump_window_gram.cache_info()
        assert info.currsize == info.misses == 2  # one Gram per spacing
        assert run("retract-image-gap", ExperimentConfig()).passed
        assert bump_window_gram.cache_info().currsize == 2

    @pytest.mark.parametrize("check", sorted(_RETRACT_FAULTS))
    def test_each_check_fails_under_its_fault(self, monkeypatch, bump_caches, check):
        _RETRACT_FAULTS[check](monkeypatch)
        report = run("retract-image-gap", ExperimentConfig())
        got = {c.name: c for c in report.checks}
        assert not got[check].passed and not report.passed
        assert float(got[check].measured) > float(got[check].claimed)

    def test_the_fault_table_covers_every_check(self):
        names = [c.name for c in run("retract-image-gap", ExperimentConfig()).checks]
        assert sorted(names) == sorted(_RETRACT_FAULTS)

    def test_retract_image_gap_samples_one_shifted_bump_per_t(self):
        shifted_bump.cache_clear()
        assert run("retract-image-gap", ExperimentConfig()).passed
        info = shifted_bump.cache_info()
        assert info.currsize == info.misses == 3  # t = 0.3, 0.4, 0.5
        assert info.hits > 0

    def test_identity_differential_norms_with_the_config_schedule(self, monkeypatch):
        seen = []
        for name in ("s_proj_handle", "h_family_handle"):
            factory = getattr(experiments, name)

            def recorded(*args, _factory=factory, **kwargs):
                bound = inspect.signature(_factory).bind(*args, **kwargs)
                seen.append(bound.arguments.get("schedule"))
                return _factory(*args, **kwargs)

            monkeypatch.setattr(experiments, name, recorded)
        cfg = ExperimentConfig(levels=2, weight_step=0.3)
        assert run("identity-differential", cfg).passed
        assert seen == [cfg.schedule()] * 2

    def test_retraction_rank_reads_the_retraction(self, monkeypatch):
        check = "retraction differential rank"
        got = {c.name: c for c in run("identity-differential", ExperimentConfig()).checks}
        assert got[check].passed and got[check].measured == "2 then 1"
        # a retraction that drops its bump term has rank one at t > 0 too
        monkeypatch.setattr(experiments, "rho_eval", lambda t, f, *a: (t, f.zeros_like()))
        got = {c.name: c for c in run("identity-differential", ExperimentConfig()).checks}
        assert not got[check].passed and got[check].measured == "1 then 1"


def _origin_tangent(cfg: ExperimentConfig):
    """The zero base point and identity-differential's tangent (T, F): the
    first draws of default_rng(cfg.seed), F a combination of three bumps on
    the window [-2, 2]."""
    rng = np.random.default_rng(cfg.seed)
    T = float(rng.uniform(0.5, 1.5))
    c = rng.normal(size=3)
    xs = -2.0 + cfg.spacing * np.arange(round(4.0 / cfg.spacing) + 1)
    bump = make_bump()
    values = c[0] * bump(xs) + c[1] * bump(xs - 0.5) + c[2] * bump(xs + 0.5)
    zero = GridFunction(-2.0, cfg.spacing, np.zeros(xs.size))
    return (0.0, zero), (T, GridFunction(-2.0, cfg.spacing, values))


class TestIdentityDifferential:
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("seed", range(3))
    def test_origin_checks_read_one_sweep_of_the_first_draw(self, seed, spacing):
        cfg = ExperimentConfig(seed=seed, spacing=spacing)
        checks = {c.name: c for c in run("identity-differential", cfg).checks}
        point, tangent = _origin_tangent(cfg)
        for name, make in (
            ("projection-map", s_proj_handle),
            ("branching-family", h_family_handle),
        ):
            handle = make(cfg.spacing, cfg.margin, cfg.schedule())
            (want,) = finite_diff_differential(handle, [point], [tangent], level=0)
            got = checks[f"{name} differential at the origin"]
            assert got.passed and got.measured == repr(want.mismatch)

    def test_off_bump_check_reads_the_largest_step(self):
        cfg = ExperimentConfig(seed=0)
        checks = {c.name: c for c in run("identity-differential", cfg).checks}
        T = _origin_tangent(cfg)[1][0]
        got = checks["origin sweeps stay off the bump"]
        # the claimed parameter is the first at which b_t reaches x = -2
        reach = 1.0 / math.log(3.0 + cfg.margin)
        assert got.claimed == repr(reach) and got.measured == repr(max(DEFAULT_FD_STEPS) * T)
        assert got.passed
        assert bump_reaches(-2.0, reach, cfg.margin)
        assert not bump_reaches(-2.0, math.nextafter(reach, 0.0), cfg.margin)

    def test_one_run_makes_two_pinned_sweeps(self, monkeypatch):
        calls = []
        sweep = experiments.finite_diff_differential

        def recording(handle, points, tangents, *args, **kwargs):
            calls.append((handle.name, len(points), kwargs.get("steps")))
            return sweep(handle, points, tangents, *args, **kwargs)

        monkeypatch.setattr(experiments, "finite_diff_differential", recording)
        assert run("identity-differential", ExperimentConfig()).passed
        assert calls == [("s-proj", 1, DEFAULT_FD_STEPS), ("h-family", 1, DEFAULT_FD_STEPS)]

    @pytest.mark.parametrize(
        "check",
        [
            "projection-map differential at the origin",
            "branching-family differential at the origin",
        ],
    )
    def test_origin_check_fails_under_a_scaled_differential(self, monkeypatch, check):
        # the t <= 0 tangent branch of the moving-bump differential scaled by
        # 1 + 1e-5, where finite differences still read the identity
        moving_bump = gallery._moving_bump

        def scaled(partials, t, f, spacing, margin, tangent=None):
            out = moving_bump(partials, t, f, spacing, margin, tangent)
            return grid_combine([(1.0 + 1e-5, out)]) if t <= 0 and tangent is not None else out

        monkeypatch.setattr(gallery, "_moving_bump", scaled)
        report = run("identity-differential", ExperimentConfig())
        got = {c.name: c for c in report.checks}
        assert not got[check].passed and not report.passed
        assert float(got[check].measured) > 1e-6

    def test_a_step_onto_the_bump_fails_the_off_bump_check(self, monkeypatch):
        check = "origin sweeps stay off the bump"
        # a leading step of 1.5: 1.5 T >= 0.75 exceeds 1/ln(4), where b_t's
        # window reaches x = -2 at the default margin
        monkeypatch.setattr(experiments, "DEFAULT_FD_STEPS", (1.5, *DEFAULT_FD_STEPS))
        report = run("identity-differential", ExperimentConfig())
        got = {c.name: c for c in report.checks}
        assert not got[check].passed and not report.passed
        assert float(got[check].measured) >= float(got[check].claimed)
        # no origin sweep runs past the bump; the rank check still does
        assert list(got) == [check, "retraction differential rank"]


def _dichotomy_checks(cfg: ExperimentConfig) -> dict:
    """opnorm-dichotomy at cfg with every warning raised as an error, so a
    numpy floating-point warning fails the test instead of passing silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return {c.name: c for c in run("opnorm-dichotomy", cfg).checks}


class TestDichotomySandwich:
    @pytest.mark.parametrize("delta", [50.0, 100.0, 110.0])
    def test_large_delta_still_reports_and_passes(self, delta):
        checks = _dichotomy_checks(ExperimentConfig(dichotomy_delta=delta))
        assert all(c.passed for c in checks.values()), checks
        assert math.isfinite(float(checks["cross-level sandwich"].measured))

    @pytest.mark.parametrize("delta", [118.0, 120.0, 177.0, 200.0])
    def test_delta_past_the_float_range_ends_in_one_error_line(self, delta):
        # below 118 the weighted Gram is finite; past it an entry overflows,
        # and past 177.4 exp(delta |x|) itself overflows on the window
        checks = _dichotomy_checks(ExperimentConfig(dichotomy_delta=delta))
        assert list(checks) == ["error"] and not checks["error"].passed
        measured = checks["error"].measured
        assert measured.startswith("OverflowError: ") and "\n" not in measured
        assert f"delta={delta!r} is not finite on [-4.0, " in measured

    def test_a_non_finite_sample_norm_raises(self, monkeypatch):
        # a Gram finite entry by entry whose quadratic forms overflow
        gram = operator_probe.bump_window_gram

        def huge(r, level, delta, spacing, margin):
            g = gram(r, level, delta, spacing, margin)
            return g if level == 0 else 1e308 * np.eye(r)

        monkeypatch.setattr(operator_probe, "bump_window_gram", huge)
        checks = _dichotomy_checks(ExperimentConfig())
        assert list(checks) == ["error"]
        assert checks["error"].measured.startswith(
            "OverflowError: weighted Sobolev norm with delta=0.1 is not finite on [-4.0, 0]"
        )

    def test_a_minus_inf_sandwich_fails(self, monkeypatch):
        # every pairing 0: each log ratio is -inf, which bounds nothing
        gram = operator_probe.bump_window_gram

        def unpaired(r, level, delta, spacing, margin):
            g = gram(r, level, delta, spacing, margin)
            return g if level else np.zeros_like(g)

        monkeypatch.setattr(operator_probe, "bump_window_gram", unpaired)
        checks = _dichotomy_checks(ExperimentConfig())
        assert [n for n, c in checks.items() if not c.passed] == ["cross-level sandwich"]
        assert checks["cross-level sandwich"].measured == "-inf"

    def test_the_unweighted_gram_fails_the_sandwich_at_some_seed(self, monkeypatch):
        # the fault: plain L2 norms of the samples in place of the weighted
        # first-order ones; it fails at 6 of seeds 0-39 (3, 5, 6, 19, 35, 38)
        gram = operator_probe.bump_window_gram
        monkeypatch.setattr(
            operator_probe,
            "bump_window_gram",
            lambda r, level, delta, spacing, margin: gram(r, 0, 0.0, spacing, margin),
        )
        failing = []
        for seed in range(40):
            checks = _dichotomy_checks(ExperimentConfig(seed=seed))
            failed = [n for n, c in checks.items() if not c.passed]
            assert failed in ([], ["cross-level sandwich"])
            failing += [seed] if failed else []
        assert failing


def _patch_result(name, call, change):
    """A fault that passes the result of experiments.<name> through change on
    its call-th call (counting from 0), or on every call where call is None."""

    def inject(monkeypatch):
        real, calls = getattr(experiments, name), []

        def patched(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(name)
            return change(out) if call in (None, len(calls) - 1) else out

        monkeypatch.setattr(experiments, name, patched)

    return inject


def _nan(out):
    """NaN for a float; for an array, a copy with NaN in its last flat
    position, so not in the first one."""
    if not isinstance(out, np.ndarray):
        return math.nan
    out = out.astype(float)
    out.flat[-1] = math.nan
    return out


def _nan_on_call(name, call=None):
    return _patch_result(name, call, _nan)


def _last_mismatch_nan(reports):
    return [*reports[:-1], dataclasses.replace(reports[-1], mismatch=math.nan)]


_NAN_LOGMAG = types.SimpleNamespace(logmag=math.nan)


def _second_probe_nan(ops):
    return [ops[0], math.nan, *ops[2:]]


def _second_lower_bound_nan(rows):
    return [rows[0], dataclasses.replace(rows[1], l2_lower_bound=math.nan), *rows[2:]]


def _witness_logmags(a, b):
    def change(data):
        return dataclasses.replace(
            data,
            witness_value=LogScalar(data.witness_value.sign, a),
            witness_value_partial_route=LogScalar(data.witness_value.sign, b),
        )

    return change


#: (experiment, check, fault): each fault puts a NaN into what the check
#: reduces to its measured value, past the first position where the
#: reduction has one, and the check must then fail.  Call indices are at the
#: default config (truncation_n = 32: seq-tail-bounds' seq_norms calls 0-3
#: are the sharp mode's levels, 4-8 the single modes', 9-16 the tails')
_NAN_FAULTS = [
    ("seq-discontinuity", "unit-vector gap", _nan_on_call("seq_norms", 0)),
    ("seq-discontinuity", "difference operator norm at least 1/2", _nan_on_call("rho_k_eval", 1)),
    ("seq-discontinuity", "difference operator norm at most 1", _nan_on_call("rho_k_eval", 1)),
    ("seq-discontinuity", "round trip", _nan_on_call("seq_norms", 6)),
    ("seq-tail-bounds", "single-mode level scaling", _nan_on_call("seq_norms", 5)),
    ("seq-tail-bounds", "tail bound with sharp mode", _nan_on_call("seq_norms", 0)),
    ("seq-tail-bounds", "tail bound with sharp mode", _nan_on_call("seq_norms", 3)),
    ("seq-tail-bounds", "tail bound with sharp mode", _nan_on_call("seq_norms", 10)),
    ("seq-tail-bounds", "diagonal map bounded by two", _nan_on_call("rho_k_eval", 0)),
    (
        "seq-tangent-check",
        "interior tangent formula",
        _patch_result("finite_diff_differential", 0, _last_mismatch_nan),
    ),
    ("seq-tangent-check", "tangent at the limit parameter", _nan_on_call("seq_norms", 0)),
    ("seq-tangent-check", "tangent at the limit parameter", _nan_on_call("seq_norms", 1)),
    ("retract-image-gap", "projection orthogonality", _nan_on_call("uniform_trapezoid", 1)),
    ("retract-image-gap", "missed target pairing", _nan_on_call("grid_l2_inner", 1)),
    # grid_sobolev_norm alternates: the distance, then the kernel witness, per t
    ("retract-image-gap", "missed target distance", _nan_on_call("grid_sobolev_norm", 2)),
    ("retract-image-gap", "kernel witness", _nan_on_call("grid_sobolev_norm", 3)),
    (
        "identity-differential",
        "projection-map differential at the origin",
        _patch_result("finite_diff_differential", 0, _last_mismatch_nan),
    ),
    (
        "identity-differential",
        "branching-family differential at the origin",
        _patch_result("finite_diff_differential", 1, _last_mismatch_nan),
    ),
    (
        "inverse-blowup",
        "blow-up growth per step",
        # the third scalar output's log magnitude, which LogScalar cannot hold
        _patch_result("s_tilde_inv", 2, lambda _: types.SimpleNamespace(y=_NAN_LOGMAG)),
    ),
    ("noncompact-zeroset", "mutual distance sqrt(2)", _nan_on_call("grid_l2_inner", 1)),
    (
        "transversality-witness",
        "two-route witness agreement",
        _patch_result("h_transversality_data", 1, _witness_logmags(math.inf, math.inf)),
    ),
    (
        "transversality-witness",
        "two-route witness agreement",
        _patch_result("h_transversality_data", 1, _witness_logmags(math.inf, 0.0)),
    ),
    (
        "opnorm-dichotomy",
        "same-level lower bound",
        _patch_result("opnorm_dichotomy", 0, _second_lower_bound_nan),
    ),
    # one dW_opnorm_probe call per instance germ, its first probes at the
    # certified radii in epsilon order
    (
        "germ-continuity",
        "rank-one: factor-two law",
        _patch_result("dW_opnorm_probe", 0, _second_probe_nan),
    ),
    (
        "germ-continuity",
        "quadratic: factor-two law",
        _patch_result("dW_opnorm_probe", 1, _second_probe_nan),
    ),
]


class TestBoundChecksFailOnNaN:
    @pytest.mark.parametrize(
        "eid, check, fault", _NAN_FAULTS, ids=[f"{e}:{c}" for e, c, _ in _NAN_FAULTS]
    )
    def test_a_nan_fails_the_check(self, monkeypatch, eid, check, fault):
        fault(monkeypatch)
        report = run(eid, ExperimentConfig())
        got = {c.name: c for c in report.checks}
        assert got[check].measured == "nan"
        assert not got[check].passed and not report.passed

    def test_every_bound_check_has_a_nan_fault(self):
        assert {check for _, check, _ in _NAN_FAULTS} == set(BOUND_CHECKS)

    def test_opposite_witness_signs_read_inf(self, monkeypatch):
        def flip(data):
            b = data.witness_value_partial_route
            return dataclasses.replace(data, witness_value_partial_route=b.neg())

        _patch_result("h_transversality_data", 2, flip)(monkeypatch)
        (check,) = run("transversality-witness", ExperimentConfig()).checks
        assert (check.measured, check.passed) == ("inf", False)

    def test_the_sharp_mode_fails_where_one_pair_is_off(self, monkeypatch):
        # the sharp mode's level-3 norm (seq_norms call 3) scaled by 1 + 1e-9
        # moves only (i, k) = (1, 2) off equality, by 16^3 1e-9
        _patch_result("seq_norms", 3, lambda out: out * (1.0 + 1e-9))(monkeypatch)
        got = {c.name: c for c in run("seq-tail-bounds", ExperimentConfig()).checks}
        check = got["tail bound with sharp mode"]
        assert not check.passed
        assert float(check.measured) == pytest.approx(16**3 * 1e-9, rel=1e-3)

    def test_the_sharp_mode_builds_the_basis_vector_once(self, monkeypatch):
        # one (1, 16) row e_16, normed once per level 0-3; every other stack
        # of the default config is 32 wide
        calls = []
        norms = experiments.seq_norms

        def recorded(rows, i):
            if rows.shape[1] == 16:
                calls.append((rows, i))
            return norms(rows, i)

        monkeypatch.setattr(experiments, "seq_norms", recorded)
        assert run("seq-tail-bounds", ExperimentConfig()).passed
        assert [i for _, i in calls] == [0, 1, 2, 3]
        assert all(rows is calls[0][0] for rows, _ in calls)
        assert np.array_equal(calls[0][0], np.eye(16)[-1:])


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
            ("identity-differential", {"levels": 10**9}),
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

    @pytest.mark.parametrize(
        "text, named",
        [('{"out_dir": "a\\u0000b"}', "null byte"), ("[" * 100_000, "nests too deeply")],
    )
    def test_unusable_config_file_exits_two_with_one_line(self, tmp_path, capsys, text, named):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        assert cli.main(["run", "seq-discontinuity", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sclab: error:")
        assert len(captured.err.splitlines()) == 1
        assert named in captured.err

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
