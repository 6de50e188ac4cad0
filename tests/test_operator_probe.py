import math

import numpy as np
import pytest

from sclab.bump_profiles import K_MAX, shifted_bump
from sclab.gallery import (
    h_eval,
    h_family_handle,
    rho_k_eval,
    s_proj,
    s_proj_handle,
    seq_diffeo,
    seq_diffeo_handle,
    seq_rho_k_handle,
)
from sclab.operator_probe import (
    DEFAULT_FD_STEPS,
    DiffReport,
    OperatorHandle,
    finite_diff_differential,
    numerical_rank,
    opnorm_dichotomy,
    truncation_opnorm,
    witness_lower_bound,
)
from sclab.scale_core import SeqVector, grid_combine


def _random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class TestOperatorNorm:
    def test_identity_under_euclidean_grams(self):
        op = OperatorHandle(np.eye(5), np.eye(5), np.eye(5))
        assert truncation_opnorm(op) == pytest.approx(1.0, rel=1e-14)
        assert numerical_rank(op) == 5

    def test_diagonal_matrix_euclidean(self):
        d = np.diag([3.0, 1.0, 0.5])
        op = OperatorHandle(d, np.eye(3), np.eye(3))
        assert truncation_opnorm(op) == pytest.approx(3.0, rel=1e-14)

    def test_identity_between_scale_levels(self):
        # embedding level i+1 -> level i for the sequence model on n = 1..4:
        # norm attained at n = 1, equal to 1
        n = 4
        gram_hi = np.diag([float(m) ** 6 for m in range(1, n + 1)])
        gram_lo = np.eye(n)
        op = OperatorHandle(np.eye(n), gram_hi, gram_lo)
        assert truncation_opnorm(op) == pytest.approx(1.0, rel=1e-12)
        e1 = np.eye(n)[0]
        assert witness_lower_bound(op, e1) == pytest.approx(1.0, rel=1e-12)

    def test_witness_never_exceeds_opnorm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(2, 7)
            op = OperatorHandle(
                rng.normal(size=(n, n)), _random_spd(rng, n), _random_spd(rng, n)
            )
            top = truncation_opnorm(op)
            for _ in range(20):
                w = witness_lower_bound(op, rng.normal(size=n))
                assert w <= top * (1 + 1e-12)

    def test_opnorm_matches_bruteforce_sampling(self):
        rng = np.random.default_rng(12)
        n = 5
        op = OperatorHandle(
            rng.normal(size=(n, n)), _random_spd(rng, n), _random_spd(rng, n)
        )
        top = truncation_opnorm(op)
        best = max(
            witness_lower_bound(op, rng.normal(size=n)) for _ in range(20000)
        )
        assert best <= top * (1 + 1e-12)
        assert best >= 0.95 * top

    def test_opnorm_monotone_in_truncation(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        gd, gc = _random_spd(rng, 6), _random_spd(rng, 6)
        norms = []
        for n in range(2, 7):
            norms.append(
                truncation_opnorm(OperatorHandle(a[:n, :n], gd[:n, :n], gc[:n, :n]))
            )
        # principal truncations of the whitened problem need not nest, but
        # the full matrix dominates its leading-block witnesses
        full = norms[-1]
        op_full = OperatorHandle(a, gd, gc)
        for n in range(2, 6):
            v = np.zeros(6)
            v[:n] = rng.normal(size=n)
            assert witness_lower_bound(op_full, v) <= full * (1 + 1e-12)

    def test_numerical_rank_of_rank_one(self):
        v = np.array([1.0, 2.0, -1.0])
        op = OperatorHandle(np.outer(v, v), np.eye(3), np.eye(3))
        assert numerical_rank(op) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorHandle(np.eye(3), np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            OperatorHandle(np.eye(3), np.eye(3), np.eye(4))

    def test_zero_witness_rejected(self):
        op = OperatorHandle(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            witness_lower_bound(op, np.zeros(2))


class TestFiniteDiffDifferential:
    def test_linear_map_is_matched_near_exactly(self):
        # the diagonal diffeomorphism is linear in x at fixed t, so the
        # f-direction finite difference is exact to roundoff
        handle = seq_diffeo_handle()
        x = SeqVector(np.ones(8))
        point = (0.29, x)
        tangent = (0.0, SeqVector(np.arange(1.0, 9.0)))
        rep = finite_diff_differential(handle, point, tangent, level=0)
        assert rep.mismatch < 1e-10

    def test_t_direction_with_curvature(self):
        handle = seq_rho_k_handle(0)
        n = 3
        t = 0.5 * (1.0 / (n + 1) + 1.0 / n)
        point = (t, SeqVector.basis(n))
        tangent = (1.0, SeqVector(np.zeros(0)))
        rep = finite_diff_differential(handle, point, tangent, level=0)
        assert rep.mismatch < 1e-7
        # central differences of a smooth map converge at second order
        # (the estimate from two coarse steps lands a bit under the limit)
        assert rep.order_estimate > 1.7

    @pytest.mark.parametrize("k", [2, 3])
    def test_tangent_formula_at_high_orders(self, k):
        # rho_3's tangent reads the 4th step derivative, beyond the family's K_MAX
        rng = np.random.default_rng(20 + k)
        steps = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
        handle = seq_rho_k_handle(k)
        worst = 0.0
        for n in range(2, 7):
            lo, hi = 1.0 / (n + 1), 1.0 / n
            for frac in (0.35, 0.6):
                x = SeqVector(rng.normal(size=10))
                tan = (float(rng.uniform(0.5, 1.5)), SeqVector(rng.normal(size=10)))
                rep = finite_diff_differential(
                    handle, (lo + frac * (hi - lo), x), tan, level=0, steps=steps
                )
                worst = max(worst, rep.mismatch)
        # the seq-tangent-check threshold
        assert worst <= 1e-6

    def test_rho_k_handle_rejects_orders_outside_the_family(self):
        for k in (-1, K_MAX + 1):
            with pytest.raises(ValueError):
                seq_rho_k_handle(k)

    def test_report_fields(self):
        handle = seq_rho_k_handle(0)
        rep = finite_diff_differential(
            handle, (0.29, SeqVector.basis(3)), (1.0, SeqVector.basis(2)), level=1
        )
        assert rep.map_name == "rho-0"
        assert rep.level == 1
        assert rep.best_step in dict(rep.per_step)
        assert rep.ok


def _seq_move(p, h, tan):
    return (p[0] + h * tan[0], p[1].add(tan[1].scaled(h)))


def _grid_move(p, h, tan):
    return (p[0] + h * tan[0], grid_combine([(1.0, p[1]), (h, tan[1])]))


def _one_point_sweep(handle, one_point, move, point, tangent, level, steps):
    """finite_diff_differential as it was with one map evaluation per signed
    step, kept to pin the one-call sweep bit for bit."""
    analytic = handle.diff(point, tangent)
    scale = max(handle.cod_norm(analytic, level), 1.0)

    def central(h):
        plus = one_point(move(point, h, tangent))
        minus = one_point(move(point, -h, tangent))
        return handle.cod_combine([(0.5 / h, plus), (-0.5 / h, minus)])

    def error(fd):
        return handle.cod_norm(handle.cod_combine([(1.0, fd), (-1.0, analytic)]), level)

    per_step = []
    centrals = {}
    for h in steps:
        fd = centrals.setdefault(h, central(h))
        fd_half = centrals.setdefault(h / 2.0, central(h / 2.0))
        rich = handle.cod_combine([(4.0 / 3.0, fd_half), (-1.0 / 3.0, fd)])
        per_step.append((h, min([error(fd), error(rich)]) / scale))
    best_step, mismatch = min(per_step, key=lambda p: p[1])
    order = float("nan")
    raw = [error(centrals[h]) / scale for h in steps[:2]]
    if len(raw) == 2 and raw[0] > 0 and raw[1] > 0 and steps[0] != steps[1]:
        order = math.log(raw[1] / raw[0]) / math.log(steps[1] / steps[0])
    return DiffReport(handle.name, level, mismatch, best_step, order, tuple(per_step))


# the default sweep; the seq-tangent-check sweep at level 1; and a sweep whose
# half step 5e-4 is also a step
SWEEPS = [
    (0, DEFAULT_FD_STEPS),
    (1, (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)),
    (0, (1e-3, 5e-4, 1e-4)),
]


class TestOneCallSweep:
    @pytest.mark.parametrize("k", [0, 1, 2, "diffeo"])
    def test_seq_reports_equal_the_one_point_sweep(self, k):
        if k == "diffeo":
            handle = seq_diffeo_handle()
            one_point = lambda p: (p[0], seq_diffeo(p[0], p[1]))
        else:
            handle = seq_rho_k_handle(k)
            one_point = lambda p: rho_k_eval(k, p[0], p[1])
        rng = np.random.default_rng(40)
        # t = 1e-4 and -0.2 put some or all of the sweep at t <= 0
        for t in (-0.2, 1e-4, 0.29, 0.41, 0.7, *rng.uniform(0.05, 0.6, size=5)):
            x = SeqVector(rng.normal(size=int(rng.integers(1, 12))))
            tan = (float(rng.uniform(0.5, 1.5)), SeqVector(rng.normal(size=int(rng.integers(0, 12)))))
            for point in ((float(t), x), (float(t), SeqVector.basis(3))):
                for level, steps in SWEEPS:
                    got = finite_diff_differential(handle, point, tan, level, steps)
                    want = _one_point_sweep(
                        handle, one_point, _seq_move, point, tan, level, steps
                    )
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_reports_equal_the_one_point_sweep(self, name):
        # the acceptance point: the origin, along a bump and its derivative
        F = grid_combine([(1.0, shifted_bump(0.4, 0)), (0.5, shifted_bump(0.4, 1))])
        point, tan = (0.0, F.zeros_like()), (1.0, F)
        if name == "s-proj":
            handle, one_point = s_proj_handle(), lambda p: s_proj(p[0], p[1])
        else:
            handle, one_point = h_family_handle(), lambda p: h_eval(p[0], p[1])
        got = finite_diff_differential(handle, point, tan, 0)
        want = _one_point_sweep(handle, one_point, _grid_move, point, tan, 0, DEFAULT_FD_STEPS)
        assert repr(got) == repr(want)

    def test_eval_returns_one_output_per_step_in_order(self):
        point = (0.29, SeqVector(np.arange(1.0, 6.0)))
        tan = (1.0, SeqVector(np.ones(7)))
        hs = [1e-2, -1e-2, 0.0, 0.5, -0.4]
        outs = list(seq_diffeo_handle().eval(point, tan, hs))
        assert len(outs) == len(hs)
        for h, (t, y) in zip(hs, outs):
            t_want, y_want = _seq_move(point, h, tan)
            assert t == t_want
            assert np.array_equal(y.coeffs, seq_diffeo(t_want, y_want).coeffs)


class TestDichotomy:
    def test_known_bound_at_t_04(self):
        rows = opnorm_dichotomy([0.4], delta=0.1)
        row = rows[0]
        shift = math.exp(1.0 / 0.4)
        assert row.weighted_upper_bound == pytest.approx(
            math.exp(-0.1 * (shift - 1.0)), rel=1e-6
        )
        assert row.l2_lower_bound > 0.999

    def test_same_level_stays_unit_while_cross_level_decays(self):
        rows = opnorm_dichotomy([0.4, 0.35, 0.3, 0.25], delta=0.1)
        uppers = [r.weighted_upper_bound for r in rows]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        for r in rows:
            assert r.l2_lower_bound > 0.999
            assert r.weighted_sampled <= r.weighted_upper_bound * (1 + 1e-9)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            opnorm_dichotomy([0.4, 0.0], delta=0.1)
