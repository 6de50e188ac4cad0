import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sclab import bump_profiles, experiments, gallery, operator_probe, scale_core
from sclab.bump_profiles import K_MAX, make_bump, phi_gate, shifted_bump
from sclab.gallery import (
    ScMapHandle,
    h_diff,
    h_eval,
    h_family_handle,
    rho_k_eval,
    rho_k_tangent,
    s_proj,
    s_proj_diff,
    s_proj_handle,
    seq_diffeo,
    seq_rho_k_handle,
)
from sclab.operator_probe import (
    DEFAULT_FD_STEPS,
    DiffReport,
    OperatorHandle,
    finite_diff_differential,
    metric_singular_values,
    numerical_rank,
    opnorm_dichotomy,
    truncation_opnorm,
)
from sclab.scale_core import (
    GridFunction,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_combine,
    grid_l2_inner,
    grid_row,
    grid_sobolev_norm,
    grid_window,
    seq_norm,
)

from independent_routes import witness_ratio


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
        assert witness_ratio(op, e1) == pytest.approx(1.0, rel=1e-12)

    def test_witness_never_exceeds_opnorm(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = rng.integers(2, 7)
            op = OperatorHandle(
                rng.normal(size=(n, n)), _random_spd(rng, n), _random_spd(rng, n)
            )
            top = truncation_opnorm(op)
            for _ in range(20):
                w = witness_ratio(op, rng.normal(size=n))
                assert w <= top * (1 + 1e-12)

    def test_opnorm_matches_bruteforce_sampling(self):
        rng = np.random.default_rng(12)
        n = 5
        op = OperatorHandle(
            rng.normal(size=(n, n)), _random_spd(rng, n), _random_spd(rng, n)
        )
        top = truncation_opnorm(op)
        best = max(
            witness_ratio(op, rng.normal(size=n)) for _ in range(20000)
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
            assert witness_ratio(op_full, v) <= full * (1 + 1e-12)

    def test_numerical_rank_of_rank_one(self):
        v = np.array([1.0, 2.0, -1.0])
        op = OperatorHandle(np.outer(v, v), np.eye(3), np.eye(3))
        assert numerical_rank(op) == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OperatorHandle(np.eye(3), np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            OperatorHandle(np.eye(3), np.eye(3), np.eye(4))
        # a stack (k, r, c) is checked on its last two axes
        with pytest.raises(ValueError):
            OperatorHandle(np.zeros((4, 2, 3)), np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            OperatorHandle(np.zeros((4, 2, 3)), np.eye(3), np.eye(3))
        assert OperatorHandle(np.zeros((4, 2, 3)), np.eye(3), np.eye(2)).matrix.shape == (4, 2, 3)

    @pytest.mark.parametrize("shape", [(7, 5, 5), (3, 4, 6), (2, 3, 6, 3)])
    def test_singular_values_of_a_stack_are_the_per_matrix_ones(self, shape):
        rng = np.random.default_rng(14)
        r, c = shape[-2:]
        a, gd, gc = rng.normal(size=shape), _random_spd(rng, c), _random_spd(rng, r)
        stacked = metric_singular_values(OperatorHandle(a, gd, gc))
        flat = a.reshape(-1, r, c)
        per_matrix = [metric_singular_values(OperatorHandle(m, gd, gc)) for m in flat]
        assert stacked.shape == shape[:-2] + (min(r, c),)
        assert np.array_equal(stacked.reshape(len(flat), -1), np.stack(per_matrix))

    def test_one_gram_for_both_sides_is_factored_once(self, monkeypatch):
        rng = np.random.default_rng(15)
        a, g = rng.normal(size=(6, 5, 5)), _random_spd(rng, 5)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(m):
            calls.append(m.shape)
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        shared = metric_singular_values(OperatorHandle(a, g, g))
        assert calls == [(5, 5)]
        # the same bits as two equal Gram matrices, each factored
        assert np.array_equal(shared, metric_singular_values(OperatorHandle(a, g, g.copy())))
        assert len(calls) == 3



class TestFiniteDiffDifferential:
    def test_linear_map_is_matched_near_exactly(self):
        # the diagonal diffeomorphism rho_0 is linear in x at fixed t, so
        # the f-direction finite difference is exact to roundoff
        handle = seq_rho_k_handle(0)
        x = SeqVector(np.ones(8))
        point = (0.29, x)
        tangent = (0.0, SeqVector(np.arange(1.0, 9.0)))
        (rep,) = finite_diff_differential(handle, *_seq_stacks([point], [tangent]), level=0)
        assert rep.mismatch < 1e-10

    def test_t_direction_with_curvature(self):
        handle = seq_rho_k_handle(0)
        n = 3
        t = 0.5 * (1.0 / (n + 1) + 1.0 / n)
        point = (t, SeqVector.basis(n))
        tangent = (1.0, SeqVector(np.zeros(0)))
        (rep,) = finite_diff_differential(handle, *_seq_stacks([point], [tangent]), level=0)
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
                point = (np.array([lo + frac * (hi - lo)]), rng.normal(size=(1, 10)))
                tan = (np.array([rng.uniform(0.5, 1.5)]), rng.normal(size=(1, 10)))
                (rep,) = finite_diff_differential(handle, point, tan, level=0, steps=steps)
                worst = max(worst, rep.mismatch)
        # the seq-tangent-check threshold
        assert worst <= 1e-6

    def test_rho_k_handle_rejects_orders_outside_the_family(self):
        for k in (-1, K_MAX + 1):
            with pytest.raises(ValueError):
                seq_rho_k_handle(k)

    def test_report_fields(self):
        handle = seq_rho_k_handle(0)
        batch = _seq_stacks([(0.29, SeqVector.basis(3))], [(1.0, SeqVector.basis(2))])
        (rep,) = finite_diff_differential(handle, *batch, level=1)
        assert rep.map_name == "rho-0"
        assert rep.level == 1
        assert rep.best_step in dict(rep.per_step)
        assert math.isfinite(rep.mismatch)

    def test_each_step_reads_four_rows_from_one_eval(self):
        # +h, -h, +h/2 and -h/2 per step, in one call, even where a half
        # step is also a step of the sweep (5e-4 below)
        inner = seq_rho_k_handle(0)
        calls = []

        def recorded(points, tangents, hs):
            calls.append(list(hs))
            return inner.eval(points, tangents, hs)

        handle = ScMapHandle(inner.name, recorded)
        for level, steps in SWEEPS:
            calls.clear()
            points, tans = _seq_stacks([(0.29, SeqVector.basis(3))], [(1.0, SeqVector.basis(2))])
            got = finite_diff_differential(handle, points, tans, level, steps)
            assert calls == [[s for h in steps for s in (h, -h, h / 2.0, -h / 2.0)]]
            assert len(calls[0]) == 4 * len(steps)
            assert repr(got) == repr(finite_diff_differential(inner, points, tans, level, steps))

    def test_reports_one_per_point_and_checks_the_batch(self):
        handle = seq_rho_k_handle(0)
        point, tan = (0.29, SeqVector.basis(3)), (1.0, SeqVector.basis(2))
        assert len(finite_diff_differential(handle, *_seq_stacks([point] * 3, [tan] * 3))) == 3
        (ts, xs), (Ts, Xs) = _seq_stacks([point] * 2, [tan] * 2)
        with pytest.raises(ValueError, match=r"not \(2,\) and \(2, 3\) at the points, \(1,\)"):
            finite_diff_differential(handle, (ts, xs), (Ts[:1], Xs[:1]))


def _seq_stacks(points, tangents):
    """(t, SeqVector) points and tangents as a sequence handle takes them:
    each a (P,) parameter array and a (P, n) row stack, every vector added
    into zeros on the n modes of the longest, as SeqVector.add adds them."""
    n = max(v.dim for _, v in (*points, *tangents))

    def stack(pairs):
        rows = np.zeros((len(pairs), n))
        for row, (_, v) in zip(rows, pairs):
            row[: v.dim] += v.coeffs
        return np.array([t for t, _ in pairs], dtype=float), rows

    return stack(points), stack(tangents)


def _seq_move(p, h, tan):
    return (p[0] + h * tan[0], p[1].add(tan[1].scaled(h)))


def _grid_move(p, h, tan):
    return (p[0] + h * tan[0], grid_combine([(1.0, p[1]), (h, tan[1])]))


def _combine(terms):
    """sum(c * v) over codomain values, as the one-value-at-a-time loop
    formed it: parameters summed from 0, grids on their union window,
    sequences added in order into zeros."""
    first = terms[0][1]
    if isinstance(first, tuple):
        return (sum(c * v[0] for c, v in terms), _combine([(c, v[1]) for c, v in terms]))
    if isinstance(first, GridFunction):
        return grid_combine(terms)
    out = SeqVector(np.zeros(0))
    for c, v in terms:
        out = out.add(v.scaled(c))
    return out


def _norm(v, level, schedule=WeightSchedule.default()):
    if isinstance(v, tuple):
        return math.hypot(v[0], _norm(v[1], level, schedule))
    if isinstance(v, GridFunction):
        return grid_sobolev_norm(v, level, schedule.delta(level))
    return seq_norm(v, level)


def _one_point_sweep(
    handle, one_point, diff, move, point, tangent, level, steps, schedule=WeightSchedule.default()
):
    """finite_diff_differential as it was with one base point, one map
    evaluation per signed step and one codomain value per combination, kept
    to pin the row kernel bit for bit; diff is the analytic differential,
    and grid values are normed with schedule's weights."""
    analytic = diff(point, tangent)
    scale = max(_norm(analytic, level, schedule), 1.0)

    def central(h):
        plus = one_point(move(point, h, tangent))
        minus = one_point(move(point, -h, tangent))
        return _combine([(0.5 / h, plus), (-0.5 / h, minus)])

    def error(fd):
        return _norm(_combine([(1.0, fd), (-1.0, analytic)]), level, schedule)

    per_step = []
    centrals = {}
    for h in steps:
        fd = centrals.setdefault(h, central(h))
        fd_half = centrals.setdefault(h / 2.0, central(h / 2.0))
        rich = _combine([(4.0 / 3.0, fd_half), (-1.0 / 3.0, fd)])
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


def _seq_map(k):
    """The handle, the one-point map and its differential of rho_k."""
    return (
        seq_rho_k_handle(k),
        lambda p: rho_k_eval(k, p[0], p[1]),
        lambda p, tan: rho_k_tangent(k, p[0], p[1], tan[0], tan[1]),
    )


def _grid_map(name, spacing=1e-3):
    """The handle, the one-point map and its differential of a grid map."""
    if name == "s-proj":
        return (
            s_proj_handle(spacing),
            lambda p: s_proj(p[0], p[1], spacing),
            lambda p, tan: s_proj_diff(p[0], p[1], tan[0], tan[1], spacing),
        )
    return (
        h_family_handle(spacing),
        lambda p: h_eval(p[0], p[1], spacing),
        lambda p, tan: h_diff(p[0], p[1], tan[0], tan[1], spacing),
    )


def _assert_grid_sweep_equal(maps, point, tan, level, steps=DEFAULT_FD_STEPS):
    """A one-point batch's report equals the one-point sweep's; returns it."""
    handle, one_point, diff = maps
    (got,) = finite_diff_differential(handle, [point], [tan], level, steps)
    want = _one_point_sweep(handle, one_point, diff, _grid_move, point, tan, level, steps)
    assert repr(got) == repr(want)
    return got


def _assert_seq_sweeps_equal(k, point, tan):
    handle, one_point, diff = _seq_map(k)
    for level, steps in SWEEPS:
        (got,) = finite_diff_differential(handle, *_seq_stacks([point], [tan]), level, steps)
        want = _one_point_sweep(handle, one_point, diff, _seq_move, point, tan, level, steps)
        assert repr(got) == repr(want)


def _origin_direction(rng, spacing=1e-3):
    """An identity-differential direction: bumps at 0 and +-0.5 on [-2, 2]."""
    xs = -2.0 + spacing * np.arange(round(4.0 / spacing) + 1)
    b = make_bump()
    c = rng.normal(size=3)
    return GridFunction(-2.0, spacing, c[0] * b(xs) + c[1] * b(xs - 0.5) + c[2] * b(xs + 0.5))


class TestOneCallSweep:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_seq_reports_equal_the_one_point_sweep(self, k):
        rng = np.random.default_rng(40)
        # t = 1e-4 and -0.2 put some or all of the sweep at t <= 0
        for t in (-0.2, 1e-4, 0.29, 0.41, 0.7, *rng.uniform(0.05, 0.6, size=5)):
            x = SeqVector(rng.normal(size=int(rng.integers(1, 12))))
            tan = (float(rng.uniform(0.5, 1.5)), SeqVector(rng.normal(size=int(rng.integers(0, 12)))))
            for point in ((float(t), x), (float(t), SeqVector.basis(3))):
                _assert_seq_sweeps_equal(k, point, tan)

    @pytest.mark.parametrize("k", [1, 2, 0])
    def test_seq_rows_that_end_in_zeros_equal_the_one_point_sweep(self, k):
        # the rows span the modes up to the larger of x and X, as every
        # vector the one-point loop forms does
        rng = np.random.default_rng(41)
        interior = [1 / (n + 1) + f * (1 / (n * (n + 1))) for n in range(2, 7) for f in (0.35, 0.6)]
        cases = []
        for t in interior[:4]:  # k >= 1: one mode survives in every row
            cases.append((t, 10, 10, 1.0))
        for t in (0.29, 0.125, 0.52):  # x shorter than X, and longer
            cases += [(t, 3, 9, 1.0), (t, 9, 3, 1.0), (t, 9, 3, 0.0)]
        for t in (0.29, 0.09, 0.41):  # X of dim 0, moving t and not
            cases += [(t, 8, 0, 1.0), (t, 8, 0, 0.0)]
        for t in (-0.05, -0.3, 0.0):  # t <= 0 across the sweep, or half of it
            cases += [(t, 6, 6, 1.3), (t, 9, 2, 0.7)]
        for t, nx, nX, T in cases:
            x, X = SeqVector(rng.normal(size=nx)), SeqVector(rng.normal(size=nX))
            _assert_seq_sweeps_equal(k, (t, x), (T, X))
        # a direction with zeros inside and at the end
        X = SeqVector(np.where(np.arange(12) % 3 == 1, 0.0, rng.normal(size=12)))
        _assert_seq_sweeps_equal(k, (0.2, SeqVector(rng.normal(size=12))), (1.0, X))

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_sweeps_norm_with_the_given_schedule(self, name):
        # level 1 at weight step 0.3, where delta_1 is 0.3, not the default 0.1
        schedule = WeightSchedule.default(4, 0.3)
        handle = (s_proj_handle if name == "s-proj" else h_family_handle)(schedule=schedule)
        default, one_point, diff = _grid_map(name)
        F = _origin_direction(np.random.default_rng(46))
        point, tan = (0.0, F.zeros_like()), (0.8, F)
        (got,) = finite_diff_differential(handle, [point], [tan], 1)
        want = _one_point_sweep(
            handle, one_point, diff, _grid_move, point, tan, 1, DEFAULT_FD_STEPS, schedule
        )
        assert repr(got) == repr(want)
        assert repr(got) != repr(finite_diff_differential(default, [point], [tan], 1)[0])

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_reports_equal_the_one_point_sweep(self, name):
        maps = _grid_map(name)
        # the acceptance point: the origin, along a bump and its derivative
        F = grid_combine([(1.0, shifted_bump(0.4, 0)), (0.5, shifted_bump(0.4, 1))])
        _assert_grid_sweep_equal(maps, (0.0, F.zeros_like()), (1.0, F), 0)
        # identity-differential's sweeps, at both spacings and three levels
        rng = np.random.default_rng(42)
        for spacing in (1e-3, 5e-4):
            F = _origin_direction(rng, spacing)
            point, tan = (0.0, F.zeros_like()), (float(rng.uniform(0.5, 1.5)), F)
            for level in (0, 2):
                _assert_grid_sweep_equal(_grid_map(name, spacing), point, tan, level)
        # f spans [-2, 2] and F only [-1, 1], where F is non-zero at both
        # ends: the scale is F's norm on its own window, where its end nodes
        # take half trapezoid weights and one-sided gradients
        f = _origin_direction(rng)
        xs = -1.0 + 1e-3 * np.arange(2001)
        F = GridFunction(-1.0, 1e-3, 1.0 + 0.3 * xs + 0.2 * np.sin(3.0 * xs))
        for point, tan in (((0.0, f), (0.7, F)), ((-0.3, f), (0.0, F))):
            for level in (0, 1):
                _assert_grid_sweep_equal(maps, point, tan, level)

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_zero_base_point_with_a_bump_term_equals_the_reference_kernel(self, name):
        # the sweep adds no row for a zero f, the reference adds it with
        # grid_combine; here f is wider than F and lies on b_t's window, so
        # every row has a bump term (identity-differential's zero base
        # points are in test_grid_reports_equal_the_one_point_sweep)
        t, b = 0.4, shifted_bump(0.4, 0)
        F = grid_combine([(1.0, b), (0.5, shifted_bump(t, 1))])
        zero = GridFunction(b.x0 - 0.5, b.spacing, np.zeros(b.n_nodes + 1000))
        for level in (0, 1):
            got = _assert_grid_sweep_equal(_grid_map(name), (t, zero), (0.0, F), level)
            assert got.mismatch < 1e-9

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_sweep_where_the_bump_overlaps_f(self, name):
        # at t = 0.4 with f on b_t's window, every output carries a bump
        # term.  T = 0 keeps the bumps on f's nodes; a moving t puts them
        # off those nodes, where pairing raises GridMismatchError.  F lies 1
        # to the right on the same nodes, so the common window is wider than
        # f's, F's and b_t's.
        maps = _grid_map(name)
        t, b = 0.4, shifted_bump(0.4, 0)
        f = grid_combine([(1.0, b), (0.5, shifted_bump(t, 1))])
        F = GridFunction(f.x0 + 1.0, f.spacing, -0.3 * f.values[::-1])
        # g vanishes at h = 2^-7, where the output has no bump term and is
        # narrower than the rows' window
        g = GridFunction(f.x0 + 1.5, f.spacing, f.values)
        cases = [
            ((t, f), (0.0, F), DEFAULT_FD_STEPS),
            ((t, g), (0.0, g.scaled(-128.0)), (2.0**-7, 2.0**-9)),
        ]
        for point, tan, steps in cases:
            plus, minus = maps[0].eval([point], [tan], [steps[0], -steps[0]]).rows
            nodes = plus.shape[1] - (name == "s-proj")
            assert nodes > max(point[1].n_nodes, tan[1].n_nodes, b.n_nodes)
            for level in (0, 1):
                assert _assert_grid_sweep_equal(maps, point, tan, level, steps).mismatch < 1e-9

    def test_eval_returns_one_stack_per_step_in_order(self):
        points = [(0.29, SeqVector(np.arange(1.0, 6.0))), (0.13, SeqVector(np.ones(7)))]
        tans = [(1.0, SeqVector(np.ones(7))), (-0.4, SeqVector(np.arange(2.0, 5.0)))]
        hs = [1e-2, -1e-2, 0.0, 0.5, -0.4]
        stacks = list(seq_rho_k_handle(0).eval(*_seq_stacks(points, tans), hs).rows)
        assert len(stacks) == len(hs)
        for h, stack in zip(hs, stacks):
            assert stack.shape == (2, 7)
            for row, point, tan in zip(stack, points, tans):
                want = seq_diffeo(*_seq_move(point, h, tan))
                assert np.array_equal(row[: want.dim], want.coeffs)
                assert not row[want.dim :].any()

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_rows_are_the_one_point_outputs_on_one_window(self, name):
        handle, one_point, _ = _grid_map(name)
        t = 0.4
        b = shifted_bump(t, 0)
        f = grid_combine([(1.0, b), (0.5, shifted_bump(t, 1))])
        F = GridFunction(f.x0 + 1.0, f.spacing, -0.3 * f.values[::-1])
        x0, n = grid_window([f, F, b])
        hs = [1e-2, -1e-2, 3e-4]
        for h, (row,) in zip(hs, handle.eval([(t, f)], [(0.0, F)], hs).rows):
            out = one_point(_grid_move((t, f), h, (0.0, F)))
            if name == "s-proj":
                assert row[0] == out[0]
                row, out = row[1:], out[1]
            assert np.array_equal(row, grid_row(out, x0, f.spacing, n))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_seq_batch_reports_equal_the_one_point_route(self, k):
        # t on both sides of the knots 1/n and at them, t <= 0, and T, x and
        # X differing from point to point; x and X may differ in length,
        # but every point spans 9 modes
        handle, one_point, diff = _seq_map(k)
        rng = np.random.default_rng(47)
        ts = [-0.1, 0.0, 1e-4, 0.5, 1 / 3, 0.25 - 1e-6, 0.25 + 1e-6, 0.2 - 1e-3, 0.2 + 1e-3]
        ts += rng.uniform(0.05, 0.6, size=5).tolist()
        points, tans = [], []
        for j, t in enumerate(ts):
            nx, nX = (9, int(rng.integers(0, 10))) if j % 2 else (int(rng.integers(1, 10)), 9)
            points.append((t, SeqVector(rng.normal(size=nx))))
            tans.append((float(rng.uniform(-1.5, 1.5)), SeqVector(rng.normal(size=nX))))
        for level in (0, 1, 2):
            for steps in (DEFAULT_FD_STEPS, (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)):
                batch = finite_diff_differential(
                    handle, *_seq_stacks(points, tans), level, steps
                )
                assert len(batch) == len(points)
                for got, point, tan in zip(batch, points, tans):
                    alone = finite_diff_differential(
                        handle, *_seq_stacks([point], [tan]), level, steps
                    )
                    want = _one_point_sweep(
                        handle, one_point, diff, _seq_move, point, tan, level, steps
                    )
                    assert repr(got) == repr(alone[0]) == repr(want)

    def test_a_sequence_batch_takes_stacks_of_one_shape(self):
        handle = seq_rho_k_handle(0)
        ts, xs = np.array([0.3, 0.3]), np.ones((2, 5))
        Ts, Xs = np.ones(2), np.ones((2, 5))
        assert len(finite_diff_differential(handle, (ts, xs), (Ts, Xs))) == 2
        bad = [
            ((ts, xs), (Ts, Xs[:, :4])),  # X on fewer modes than x
            ((ts, xs), (Ts[:1], Xs)),  # one tangent parameter for two points
            ((ts, xs[:1]), (Ts, Xs[:1])),  # one row for two parameters
            ((ts, xs[0]), (Ts, Xs[0])),  # rows not stacked
            ((ts[:, np.newaxis], xs), (Ts[:, np.newaxis], Xs)),  # parameters not flat
        ]
        for points, tangents in bad:
            with pytest.raises(ValueError, match="^a sequence batch takes .*[^\\n]$"):
                finite_diff_differential(handle, points, tangents)

    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_a_grid_sweep_takes_one_point(self, name):
        F = _origin_direction(np.random.default_rng(49), 1e-2)
        handle = _grid_map(name, 1e-2)[0]
        point, tan = (0.0, F.zeros_like()), (1.0, F)
        with pytest.raises(ValueError, match="one base point and one tangent, not 2 and 2"):
            finite_diff_differential(handle, [point, point], [tan, tan])
        with pytest.raises(ValueError, match="one base point and one tangent, not 1 and 2"):
            finite_diff_differential(handle, [point], [tan, tan])
        with pytest.raises(ValueError, match="one base point and one tangent, not 0 and 0"):
            handle.eval([], [], [1e-3])
        assert len(finite_diff_differential(handle, [point], [tan])) == 1


class TestSweepStructure:
    """A finite-difference sweep at the origin works on rows: it combines no
    grids, and the codomain objects it builds do not grow with the sweep."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for cls, key in ((GridFunction, "GridFunction"), (SeqVector, "SeqVector")):
            def counted(self, _post_init=cls.__post_init__, _key=key):
                counts[_key] += 1
                _post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        combine = scale_core.grid_combine

        def counted_combine(*args, **kwargs):
            counts["grid_combine"] += 1
            return combine(*args, **kwargs)

        # operator_probe binds no grid builder (TestDichotomy checks it)
        for module in (scale_core, gallery):
            monkeypatch.setattr(module, "grid_combine", counted_combine)
        return counts

    @pytest.mark.parametrize("name", ["s-proj", "h-family", "rho-1"])
    def test_origin_sweep_makes_no_combinations(self, name, counts):
        rng = np.random.default_rng(43)
        if name == "rho-1":
            handle = seq_rho_k_handle(1)
            batch = (np.zeros(1), rng.normal(size=(1, 10))), (np.ones(1), rng.normal(size=(1, 10)))
        else:
            handle = _grid_map(name)[0]
            F = _origin_direction(rng)
            batch = [(0.0, F.zeros_like())], [(1.0, F)]
        made = []
        for steps in (DEFAULT_FD_STEPS, DEFAULT_FD_STEPS + tuple(h / 64 for h in DEFAULT_FD_STEPS)):
            counts.clear()
            finite_diff_differential(handle, *batch, 0, steps)
            made.append(dict(counts))
        assert made[0].get("grid_combine", 0) == 0
        assert made[0] == made[1]
        assert sum(made[0].values()) <= 4

    def test_seq_batch_takes_the_same_step_n_calls_at_any_size(self, monkeypatch):
        calls = []
        step_n = gallery.step_n

        def counted(*args, **kwargs):
            calls.append(args[1])
            return step_n(*args, **kwargs)

        monkeypatch.setattr(gallery, "step_n", counted)
        rng = np.random.default_rng(50)
        made = []
        for size in (1, 20):
            ts = rng.uniform(0.1, 0.5, size).tolist()
            points = [(t, SeqVector(rng.normal(size=10))) for t in ts]
            tans = [(1.0, SeqVector(rng.normal(size=10))) for _ in range(size)]
            calls.clear()
            finite_diff_differential(seq_rho_k_handle(1), *_seq_stacks(points, tans), 0)
            made.append(len(calls))
        assert made[0] == made[1] <= 3

    def test_seq_tangent_check_makes_two_kernel_calls(self, monkeypatch):
        calls = []

        def counted(handle, points, tangents, *args, **kwargs):
            calls.append(points[1].shape)
            return finite_diff_differential(handle, points, tangents, *args, **kwargs)

        monkeypatch.setattr(experiments, "finite_diff_differential", counted)
        assert experiments.run("seq-tangent-check").passed
        assert calls == [(20, 10), (20, 10)]

    @pytest.mark.parametrize("t", [0.0, 0.4])
    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    def test_grid_sweep_holds_a_few_rows(self, name, t):
        # the default sweep reads 28 rows; a sweep that kept every central,
        # or every output, would pass 14 rows' worth.  At t = 0.4 with f on
        # b_t's window every output carries a bump term.
        spacing = 5e-4
        handle = s_proj_handle(spacing) if name == "s-proj" else h_family_handle(spacing)
        if t == 0.0:
            F = _origin_direction(np.random.default_rng(44), spacing)
            f, T = F.zeros_like(), 1.0
        else:
            b = (shifted_bump(t, k, spacing) for k in (0, 1))
            f = grid_combine([(1.0, next(b)), (0.5, next(b))])
            F, T = GridFunction(f.x0 + 1.0, spacing, -0.3 * f.values[::-1]), 0.0
        nodes = round((max(f.x_end, F.x_end) - min(f.x0, F.x0)) / spacing) + 1
        tracemalloc.start()
        try:
            finite_diff_differential(handle, [(t, f)], [(T, F)], 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 8 * nodes


def _grid_route(ts, delta, spacing, seed, margin=1.0):
    """The cross-level sandwich on grids at -exp(1/t), from the same draws as
    opnorm_dichotomy: per t, the logs of the bound and of the worst sampled
    ratio over it, and each sample's log norm on the shifted grid next to
    the translation identity's value from the same samples at the unshifted
    window ending at 0."""
    rng = np.random.default_rng(seed)
    out = []
    for t in ts:
        slope = LogScalar.one().add(phi_gate(t).neg()).to_real()
        b = shifted_bump(t, 0, spacing, margin)
        upper = abs(slope) * math.exp(-delta * (math.exp(1.0 / t) - 1.0))
        worst, norms = 0.0, []
        for _ in range(8):
            coeffs = rng.normal(size=3)
            f = grid_combine([(coeffs[k], shifted_bump(t, k, spacing, margin)) for k in range(3)])
            nf = grid_sobolev_norm(f, 1, delta)
            img = b.scaled(slope * grid_l2_inner(f, b))
            worst = max(worst, grid_sobolev_norm(img, 0, 0.0) / nf)
            unshifted = GridFunction(-2.0 * (1.0 + margin), spacing, f.values)
            closed = delta * (math.exp(1.0 / t) - 1.0 - margin)
            norms.append((math.log(nf), closed + math.log(grid_sobolev_norm(unshifted, 1, delta))))
        out.append((math.log(upper), math.log(worst / upper), norms))
    return out


class TestDichotomy:
    def test_known_bound_at_t_04(self):
        rows = opnorm_dichotomy([0.4], delta=0.1)
        row = rows[0]
        shift = math.exp(1.0 / 0.4)
        assert math.exp(row.log_upper_bound) == pytest.approx(
            math.exp(-0.1 * (shift - 1.0)), rel=1e-6
        )
        assert row.l2_lower_bound > 0.999

    def test_same_level_stays_unit_while_cross_level_decays(self):
        rows = opnorm_dichotomy([0.4, 0.35, 0.3, 0.25], delta=0.1)
        uppers = [r.log_upper_bound for r in rows]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        for r in rows:
            assert r.l2_lower_bound > 0.999
            assert r.log_sampled_over_bound <= math.log1p(1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_closed_route_matches_the_shifted_grids(self, spacing, seed):
        # at t = 5 and 2 the shifted window reaches past 0, where f vanishes
        ts = [5.0, 2.0, 1.0, 0.4, 0.3, 0.2, 0.13]
        rows = opnorm_dichotomy(ts, 0.1, spacing, seed=seed)
        for row, (log_upper, log_ratio, norms) in zip(rows, _grid_route(ts, 0.1, spacing, seed)):
            assert row.log_upper_bound == pytest.approx(log_upper, rel=1e-12, abs=0.0)
            assert row.log_sampled_over_bound == pytest.approx(log_ratio, rel=1e-12, abs=0.0)
            for on_grid, closed in norms:
                assert closed == pytest.approx(on_grid, rel=1e-12, abs=0.0)

    def test_keeps_the_l2_witness_bits(self):
        # the same-level field is |c_t| <b_t, b_t> on the shifted grid
        for t in (0.4, 0.13):
            slope = LogScalar.one().add(phi_gate(t).neg()).to_real()
            b = shifted_bump(t)
            (row,) = opnorm_dichotomy([t], 0.1)
            assert row.l2_lower_bound == abs(slope) * grid_l2_inner(b, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_t_rows_are_finite_and_ordered(self, seed):
        rows = opnorm_dichotomy([0.12, 0.1, 0.05, 0.01, 0.002], 0.1, seed=seed)
        uppers = [r.log_upper_bound for r in rows]
        assert all(math.isfinite(u) for u in uppers)
        assert all(b < a for a, b in zip(uppers, uppers[1:]))
        for r in rows:
            assert math.isfinite(r.log_sampled_over_bound)
            assert r.log_sampled_over_bound < 0.0
            assert r.l2_lower_bound > 0.999

    def test_bound_is_minus_inf_past_the_float_range_of_the_shift(self):
        # exp(1/t) overflows below t ~ 0.00141; the sampled ratio needs no shift
        rows = opnorm_dichotomy([0.002, 0.001], 0.1)
        assert math.isfinite(rows[0].log_upper_bound)
        assert rows[1].log_upper_bound == -math.inf
        assert math.isfinite(rows[1].log_sampled_over_bound)

    def test_builds_no_shifted_grid(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the dichotomy built a grid")

        for name in ("shifted_bump", "grid_combine", "grid_l2_inner", "grid_sobolev_norm"):
            assert not hasattr(operator_probe, name)
        monkeypatch.setattr(bump_profiles, "shifted_bump", no_grid)
        monkeypatch.setattr(scale_core, "grid_combine", no_grid)
        rows = opnorm_dichotomy([0.4, 0.002], 0.1)
        assert [r.t for r in rows] == [0.4, 0.002]

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            opnorm_dichotomy([0.4, 0.0], delta=0.1)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_rejects_nonpositive_delta(self, delta):
        with pytest.raises(ValueError, match="delta > 0"):
            opnorm_dichotomy([0.4], delta=delta)
