import math
import warnings

import numpy as np
import pytest

from sclab.bump_profiles import (
    DEFAULT_MARGIN,
    DEFAULT_SPACING,
    K_MAX,
    ConvergenceError,
    RepresentabilityError,
    _logsumexp,
    _pair_tail_log,
    _tail_nodes,
    bump_onset,
    bump_reaches,
    bump_self_pairing,
    bump_window,
    bump_window_gram,
    log_limit_probe,
    make_bump,
    make_smooth_step,
    pair_with_bump,
    phi_gate,
    phi_gate_logmag,
    shift_amount,
    shifted_bump,
    step_n,
)
from sclab import bump_profiles
from sclab.experiments import ExperimentConfig
from sclab.scale_core import (
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_inner,
    grid_sobolev_norm,
    uniform_trapezoid,
)

from independent_routes import step_derivative_sup


def _oracle_integral(fn, lo, hi, n=200001):
    """Independent quadrature oracle: trapezoid with one refinement step."""
    xs = np.linspace(lo, hi, n)
    coarse = np.trapezoid(fn(xs), dx=(hi - lo) / (n - 1))
    xs2 = np.linspace(lo, hi, 2 * n - 1)
    fine = np.trapezoid(fn(xs2), dx=(hi - lo) / (2 * n - 2))
    assert abs(fine - coarse) < 1e-9
    return fine


class TestBump:
    def test_unit_square_integral(self):
        b = make_bump()
        assert _oracle_integral(lambda x: b(x) ** 2, -1.1, 1.1) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_normalization_against_oracle(self):
        b = make_bump()
        raw = _oracle_integral(
            lambda x: np.where(
                np.abs(x) < 1, np.exp(-1.0 / np.clip(1 - x**2, 1e-300, None)), 0.0
            )
            ** 2,
            -1.0,
            1.0,
        )
        assert b.normalization == pytest.approx(raw ** -0.5, rel=1e-9)

    def test_compact_support(self):
        b = make_bump()
        assert b(1.0) == 0.0 and b(-1.0) == 0.0
        assert b(1.5) == 0.0 and b(-2.0) == 0.0
        assert b(0.0) > 0.0

    def test_derivatives_vanish_outside(self):
        b = make_bump()
        for order in range(1, 9):
            assert b.derivative(1.2, order) == 0.0
            assert np.all(b.derivative(np.array([-7.0, -1.0, 1.0, 1.2]), order) == 0.0)
            assert abs(b.derivative(0.3, order)) > 0.0

    def test_mass_exceeds_one(self):
        # the plain integral of the unit-square-normalized bump
        b = make_bump()
        mass = _oracle_integral(lambda x: b(x), -1.1, 1.1)
        assert mass == pytest.approx(1.21705593385, abs=1e-6)
        assert mass > 1.0


class TestSmoothStep:
    def test_plateaus(self):
        f = make_smooth_step()
        for x in (-3.0, 0.0, 0.5):
            assert f(x) == 1.0
        for x in (1.0, 2.0, 50.0):
            assert f(x) == 0.5

    def test_monotone_between_plateaus(self):
        f = make_smooth_step()
        xs = np.linspace(0.5, 1.0, 500)
        vals = [f(x) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_derivatives_vanish_on_the_plateaus(self):
        f = make_smooth_step()
        for order in range(1, 9):
            assert np.all(f.derivative(np.array([-3.0, 0.0, 0.5, 1.0, 1.7, 40.0]), order) == 0.0)

    def test_derivative_sup_constants(self):
        f = make_smooth_step()
        assert step_derivative_sup(f, 1) == pytest.approx(4.0, rel=0.01)
        assert step_derivative_sup(f, 2) == pytest.approx(47.7, rel=0.01)
        assert step_derivative_sup(f, 3) == pytest.approx(1664.0, rel=0.01)


class TestStepN:
    def test_plateau_values(self):
        for n in range(2, 11):
            assert step_n(n, 1.0 / (n + 1), 0) == 1.0
            assert step_n(n, 1.0 / n, 0) == 0.5
            assert step_n(n, -0.7, 0) == 1.0
            assert step_n(n, 5.0, 0) == 0.5

    def test_derivative_support_window(self):
        for n in (2, 3, 5):
            lo, hi = 1.0 / (n + 1), 1.0 / n
            for k in (1, 2, 3):
                assert step_n(n, lo - 1e-6, k) == 0.0
                assert step_n(n, hi + 1e-6, k) == 0.0
            mid = 0.5 * (lo + hi)
            assert abs(step_n(n, mid, 1)) > 0.0

    def test_chain_rule_scaling(self):
        f = make_smooth_step()
        for n in (2, 4):
            for k in (1, 2):
                ts = np.linspace(1.0 / (n + 1), 1.0 / n, 2000)
                got = max(abs(step_n(n, t, k)) for t in ts)
                expected = (n * (n + 1) / 2.0) ** k * step_derivative_sup(f, k)
                assert got == pytest.approx(expected, rel=0.01)

    def test_array_call_is_bit_identical_to_scalar_loop(self):
        ns = np.arange(1, 65)
        ts = np.concatenate(
            [
                np.linspace(-0.3, 1.3, 161),  # t <= 0, plateaus, transitions, t > 1
                1.0 / ns,  # the knots
                1.0 / ns + 1e-7,
                0.5 * (1.0 / ns + 1.0 / (ns + 1)),  # mid-transition
            ]
        )
        for k in range(K_MAX + 1):
            for t in ts:
                got = step_n(ns, float(t), k)
                loop = np.array([step_n(int(n), float(t), k) for n in ns])
                assert got.shape == ns.shape
                assert np.array_equal(got.view(np.int64), loop.view(np.int64)), (k, t)

    def test_scalar_n_returns_float(self):
        for k in range(K_MAX + 2):
            assert type(step_n(3, 0.3, k)) is float
            assert type(step_n(np.int64(3), 0.3, k)) is float

    def test_rejects_any_n_below_one(self):
        with pytest.raises(ValueError):
            step_n(0, 0.3)
        with pytest.raises(ValueError):
            step_n(np.array([3, 2, 0, 5]), 0.3)
        with pytest.raises(ValueError):
            step_n(np.arange(-1, 4), 0.3, 1)


# Order-0 expressions as they stood before the closed-form kernel; kept as the
# bit-identity reference for the values every experiment reads.
def _ref_two_sided(y):
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = y > 0
    with np.errstate(over="ignore", under="ignore"):
        out[m] = np.exp(-1.0 / y[m])
    return out


def _ref_step_closed(x):
    x = np.asarray(x, dtype=float)
    g_hi = _ref_two_sided(1.0 - x)
    g_lo = _ref_two_sided(x - 0.5)
    den = g_hi + g_lo
    with np.errstate(invalid="ignore"):
        frac = np.divide(g_hi, den, out=np.ones_like(g_hi), where=den > 0)
    return 0.5 + 0.5 * frac


def _ref_bump(x):
    x = np.asarray(x, dtype=float)
    z = 1.0 - x * x
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(over="ignore", under="ignore"):
        out[m] = np.exp(-1.0 / z[m])
    return make_bump().normalization * out


def _profile(name):
    """(derivative function, transition interval) of the bump or the step."""
    if name == "bump":
        return make_bump().derivative, (-1.0, 1.0)
    return make_smooth_step().derivative, (0.5, 1.0)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestClosedFormDerivatives:
    @pytest.mark.parametrize("name", ["bump", "step"])
    def test_matches_mpmath_to_rounding(self, name):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        half = mp.mpf(1) / 2

        def g(y):
            return mp.exp(-1 / y) if y > 0 else mp.mpf(0)

        if name == "bump":
            norm = mp.mpf(make_bump().normalization)
            ref = lambda x: norm * g(1 - x * x)  # noqa: E731
            xs = np.linspace(-0.99, 0.99, 81)
        else:
            ref = lambda x: half + half * g(1 - x) / (g(1 - x) + g(x - half))  # noqa: E731
            xs = np.linspace(0.505, 0.995, 81)
        fn, _ = _profile(name)
        for k in range(5):
            exact = np.array([float(mp.diff(ref, mp.mpf(float(x)), k)) for x in xs])
            err = np.max(np.abs(fn(xs, k) - exact))
            assert err <= 1e-12 * np.max(np.abs(exact)), (k, err)

    @pytest.mark.parametrize("name", ["bump", "step"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_trapezoid_of_next_order_reproduces_increments(self, name, k):
        fn, (a, b) = _profile(name)
        n = 20001
        xs = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        nxt = fn(xs, k + 1)
        integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (nxt[1:] + nxt[:-1]))])
        increments = fn(xs, k) - fn(xs[0], k)
        eps = np.finfo(float).eps
        # composite trapezoid on [a, x]: |error| <= (x - a) h^2 / 12 sup|f^(k+3)|;
        # the running sum adds at most n eps (b - a) sup|f^(k+1)|, and each
        # evaluation of f^(k) is allowed 1e-12 of its sup (the mpmath gate)
        tol = (
            (b - a) * h**2 / 12.0 * np.max(np.abs(fn(xs, k + 3)))
            + n * eps * (b - a) * np.max(np.abs(nxt))
            + 2e-12 * np.max(np.abs(fn(xs, k)))
        )
        assert np.max(np.abs(integral - increments)) <= tol

    def test_order_zero_is_bit_identical_to_the_closed_forms(self):
        ns = np.arange(1, 65)
        xs = np.concatenate(
            [
                np.linspace(-1.5, 2.0, 7001),  # both plateaus and the transition
                [0.5, 1.0, -1.0, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)],
                0.5 + np.geomspace(1e-17, 0.4, 200),
                1.0 - np.geomspace(1e-17, 0.4, 200),
                [-np.inf, np.inf],
            ]
        )
        f = make_smooth_step()
        assert _same_bits(f(xs), _ref_step_closed(xs))
        assert _same_bits(f.derivative(xs, 0), _ref_step_closed(xs))
        for x in xs[::50]:
            assert _same_bits(f(float(x)), _ref_step_closed(float(x)))
        b = make_bump()
        bx = xs[np.isfinite(xs)] - 0.5
        assert _same_bits(b.derivative(bx, 0), _ref_bump(bx))
        # the step family at the knots 1/n, just past them and mid-window
        ts = np.concatenate([np.linspace(-0.3, 1.3, 161), 1.0 / ns, 1.0 / ns + 1e-9])
        for t in ts:
            arg = 0.5 * (ns * (ns + 1) * t + 1 - ns)
            assert _same_bits(step_n(ns, float(t), 0), _ref_step_closed(arg)), t

    def test_any_order_is_finite_and_silent_at_the_edges(self):
        xs = np.array(
            [np.nextafter(0.5, 1.0), 0.5 + 1e-4, 0.75, 1.0 - 1e-4, np.nextafter(1.0, 0.0)]
        )
        bx = np.array([np.nextafter(-1.0, 0.0), -1.0 + 7e-4, 0.0, 1.0 - 7e-4, np.nextafter(1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k in range(13):
                assert np.all(np.isfinite(make_smooth_step().derivative(xs, k)))
                assert np.all(np.isfinite(make_bump().derivative(bx, k)))
                assert np.all(np.isfinite(step_n(np.arange(1, 9), 0.3, k)))

    def test_rejects_negative_order(self):
        for fn in (make_bump().derivative, make_smooth_step().derivative):
            with pytest.raises(ValueError):
                fn(0.3, -1)
        with pytest.raises(ValueError):
            step_n(3, 0.3, -1)

    def test_scalar_in_gives_zero_d_out(self):
        for k in range(5):
            for fn in (make_bump().derivative, make_smooth_step().derivative):
                assert np.ndim(fn(0.7, k)) == 0


class TestShiftedBump:
    def test_window_location_and_mass(self):
        for t in (0.3, 0.4, 0.5):
            b = shifted_bump(t, 0)
            center = -shift_amount(t)
            assert b.x0 < center - 1.0 < center + 1.0 < b.x_end
            assert grid_l2_inner(b, b) == pytest.approx(1.0, abs=1e-10)

    def test_representability_policy(self):
        # exp(1/t) <= 1e6 down to t = 1/ln(1e6) = 0.07238...
        assert shifted_bump(0.3, 0).x0 == -shift_amount(0.3) - 2.0
        assert shifted_bump(0.0725, 1).n_nodes == 4001
        for t in (0.07, 0.05):
            with pytest.raises(RepresentabilityError):
                shifted_bump(t, 0)

    def test_pairing_disjoint_is_exact_zero(self, monkeypatch):
        f = GridFunction(-2.0, 1e-3, np.ones(4001))
        overlapping = shifted_bump(0.4, 0)
        built = []
        sample = bump_profiles.shifted_bump
        monkeypatch.setattr(
            bump_profiles, "shifted_bump", lambda *a: built.append(a) or sample(*a)
        )
        # from representable shifts to exp(1/t) = inf: exact zero, no grid
        for t in (0.4, 0.05, 1e-3):
            for order in (0, 1):
                got = pair_with_bump(f, t, order=order)
                assert got == 0.0 and math.copysign(1.0, got) == 1.0
        assert built == []
        # a window reaching the bump's is paired on the grid
        assert pair_with_bump(overlapping, 0.4) == pytest.approx(1.0, abs=1e-10)
        assert len(built) == 1

    def test_bump_reaches_exactly_where_its_window_ends_at_or_after_x0(self):
        for t in (0.2, 0.4, 0.9, 3.0):
            b = shifted_bump(t, 0)
            for x0 in (b.x_end - 1e-3, b.x_end + 1e-3, -2.0, 5.0):
                assert bump_reaches(x0, t) == (b.x_end >= x0)
        # exp(1/t) overflows: the window lies left of every float x0
        assert not bump_reaches(-1e300, 1e-4)

    def test_bump_onset_is_where_bump_reaches_turns_true(self):
        # 1/log(1 + margin - x0) bit for bit, which bump_reaches brackets up
        # to the rounding of 1/t
        for margin in (0.5, 1.0, 2.0):
            for x0 in (-2.0, -0.5, 0.3, margin - 1e-3):
                t = bump_onset(x0, margin)
                assert t == 1.0 / math.log(1.0 + margin - x0)
                assert bump_reaches(x0, t * (1.0 + 1e-12), margin)
                assert not bump_reaches(x0, t * (1.0 - 1e-12), margin)
        assert bump_onset(-2.0) == 1.0 / math.log(4.0)

    def test_pairing_unrepresentable_overlap_errors(self):
        # a window far enough left that it may reach the escaped bump
        f = GridFunction(-2e6, 1e-3, np.ones(10))
        with pytest.raises(RepresentabilityError):
            pair_with_bump(f, 0.07)

    def test_pairing_matches_direct_quadrature(self):
        t = 0.4
        b = shifted_bump(t, 0)
        f = shifted_bump(t, 1)
        assert pair_with_bump(f, t) == pytest.approx(grid_l2_inner(f, b), rel=1e-12)

    def test_order_pairs_with_the_bump_derivative(self):
        t = 0.4
        f = grid_combine([(0.7, shifted_bump(t, 0)), (0.3, shifted_bump(t, 2))])
        for order in (0, 1, 2):
            want = grid_l2_inner(f, shifted_bump(t, order))
            assert pair_with_bump(f, t, order=order) == want

    def test_tail_pairing_in_log_domain(self):
        tail = AnalyticTailFunction.inverse_square_tail(0.1)
        for t in (0.5, 0.4, 0.3):
            got = pair_with_bump(tail, t)
            shift = shift_amount(t)
            # dominated by the tail value at the bump location
            upper = -0.1 * (shift - 1.0) - 2.0 * math.log(shift - 1.0) + 1.0
            lower = -0.1 * (shift + 1.0) - 2.0 * math.log(shift + 1.0) - 1.0
            assert got.sign == 1
            assert lower <= got.logmag <= upper

    def test_window_matches_direct_sampling(self):
        b = make_bump()
        for spacing in (1e-3, 5e-4):
            n = round(4.0 / spacing) + 1
            u = -2.0 + spacing * np.arange(n)
            for k in range(K_MAX + 1):
                direct = b.derivative(u, k) if k else b(u)
                got = shifted_bump(0.4, k, spacing, 1.0).values
                assert np.array_equal(got.view(np.int64), direct.view(np.int64)), (k, spacing)

    def test_windows_share_the_read_only_cached_window(self):
        a = shifted_bump(0.5, 1)
        b = shifted_bump(0.3, 1)
        assert a.x0 != b.x0
        window = bump_window(1, DEFAULT_SPACING, DEFAULT_MARGIN)
        assert a.values is window and b.values is window
        assert not a.values.flags.writeable
        with pytest.raises(ValueError):
            a.values[0] = 1.0

    def test_memoised_per_argument_tuple(self):
        a = shifted_bump(0.45, 2, 5e-4, 0.5)
        assert shifted_bump(0.45, 2, 5e-4, 0.5) is a
        assert shifted_bump(0.45, 1, 5e-4, 0.5) is not a
        assert a.values is bump_window(2, 5e-4, 0.5)

    def test_cached_window_is_read_only(self):
        w = bump_window(2, DEFAULT_SPACING, DEFAULT_MARGIN)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


def _scalar_tail_logmag(delta: float, x: float) -> float:
    """The inverse-square tail's log magnitude, one point at a time."""
    ax = abs(x)
    return -delta * ax - (2.0 * math.log(ax) if ax > 1.0 else 0.0)


def _loop_pair_tail_log(delta: float, t: float, spacing: float) -> LogScalar:
    """Reference tail pairing with one scalar evaluation per quadrature node."""
    shift = shift_amount(t)
    bump = make_bump()

    def quad(h):
        u = np.linspace(-1.0, 1.0, round(2.0 / h) + 1)
        bv = bump(u)
        keep = bv > 0
        log_terms = np.log(bv[keep]) + math.log(h)
        for j, uu in enumerate(u[keep]):
            log_terms[j] += _scalar_tail_logmag(delta, uu - shift)
        return LogScalar.from_log(1, _logsumexp(log_terms))

    h = spacing
    cur = quad(h)
    for _ in range(4):
        h /= 4.0
        prev, cur = cur, quad(h)
        if abs(prev.logmag - cur.logmag) <= 1e-9 * max(1.0, abs(cur.logmag)):
            return cur
    raise AssertionError("reference pairing did not settle")


def _never_settles(xs):
    return np.ones(xs.size), np.full(xs.size, float(xs.size))


class TestBumpSelfPairing:
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_l2_self_pairing_is_the_grid_pairing_bit_for_bit(self, spacing):
        # one value for every t, including t = 2, where the window reaches
        # x = 0; it needs no shift, so it also serves t where no grid can be
        # built
        for t in (2.0, 0.7, 0.5, 0.3, 0.1, 0.0725):
            b = shifted_bump(t, 0, spacing)
            want = grid_l2_inner(b, b)
            assert bump_self_pairing(spacing) == want
            assert grid_sobolev_inner(b, b, 0, 0.0) == want

    def test_overflowing_weight_names_delta(self):
        b = shifted_bump(0.1, 0)
        with pytest.raises(OverflowError, match=r"delta=0\.1 "):
            grid_sobolev_inner(b, b, 1, 0.1)


class TestTailPairing:
    def test_array_evaluator_is_bit_identical_to_scalar_formula(self):
        xs = np.concatenate(
            [
                [0.0, -0.0, 1.0, -1.0, 1.0 + 2**-52, np.nextafter(1.0, 0.0)],
                np.linspace(-1.0, 1.0, 101),  # capped region
                np.linspace(-3.0, 3.0, 97),
                -np.exp(np.linspace(0.0, 14.0, 301)),  # bump locations -e^{1/t}
                np.exp(np.linspace(-5.0, 30.0, 101)),
            ]
        )
        for delta in (0.0, 0.1, 0.3):
            tail = AnalyticTailFunction.inverse_square_tail(delta)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # log(0) at x = 0 would warn
                signs, logmags = tail.log_evaluate(xs)
            loop = np.array([_scalar_tail_logmag(delta, float(x)) for x in xs])
            assert signs.shape == logmags.shape == xs.shape
            assert np.all(signs == 1.0)
            assert np.array_equal(logmags.view(np.int64), loop.view(np.int64)), delta

    def test_pairing_is_bit_identical_to_per_node_loop(self):
        # every default blowup t at the benchmark's spacings 1e-3 and 5e-4,
        # whose cached nodes serve every t and tail
        for delta in (0.0, 0.1, 0.3):
            f = AnalyticTailFunction.inverse_square_tail(delta)
            for t in ExperimentConfig().blowup_t_grid:
                for h in (2e-3, 5e-3, 1e-3, 5e-4):
                    got = _pair_tail_log(f, t, h)
                    ref = _loop_pair_tail_log(delta, t, h)
                    assert (got.sign, got.logmag.hex()) == (ref.sign, ref.logmag.hex())
        u, log_w = _tail_nodes(5e-4, 1)
        assert _tail_nodes(5e-4, 1)[0] is u
        assert not (u.flags.writeable or log_w.flags.writeable)

    def test_unsettled_tail_pairing_raises(self):
        f = AnalyticTailFunction(_never_settles)
        with pytest.raises(ConvergenceError, match="last two iterates") as info:
            _pair_tail_log(f, 0.4, 1e-2)
        assert isinstance(info.value, ArithmeticError)
        assert str(info.value).count("LogScalar(sign=1") == 2

    def test_unsettled_bump_normalization_raises_after_five_refinements(self, monkeypatch):
        sizes = []

        def unnormalized(xs):
            sizes.append(xs.size)
            return np.full(xs.size, float(xs.size))

        # make_bump's own trapezoids, uncached: 2001 nodes, refined 4x finer
        monkeypatch.setattr(bump_profiles, "_bump_unnormalized", unnormalized)
        unsettled = r"trapezoid on \[-1, 1\] did not settle after 5 refinements"
        with pytest.raises(ConvergenceError, match=unsettled) as info:
            make_bump.__wrapped__()
        assert sizes == [2001, 8001, 32001, 128001, 512001, 2048001]
        # the iterates are 2 * 512001^2 and 2 * 2048001^2, up to rounding
        prev, cur = (float(x) for x in str(info.value).split("iterates ")[1].split(" and "))
        assert prev == pytest.approx(2.0 * 512001**2) and cur == pytest.approx(2.0 * 2048001**2)


def _fsum_logsumexp(a) -> float:
    return math.log(math.fsum(map(math.exp, a)))


class TestLogSumExp:
    def test_matches_exact_sum_on_moderate_inputs(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 100, 1000):
            a = rng.normal(scale=5.0, size=n)
            assert _logsumexp(a) == pytest.approx(_fsum_logsumexp(a), rel=1e-14)

    def test_tie_of_several_maxima(self):
        a = np.array([3.0, -1.0, 3.0, 2.5, 3.0, 3.0])
        assert _logsumexp(a) == pytest.approx(_fsum_logsumexp(a), rel=1e-14)
        assert _logsumexp(np.full(5, 3.0)) == pytest.approx(3.0 + math.log(5.0), rel=1e-15)

    def test_shift_invariance_far_outside_exp_range(self):
        a = np.random.default_rng(1).normal(scale=5.0, size=50)
        base = _logsumexp(a)
        for shift in (800.0, -800.0):
            assert _logsumexp(a + shift) == pytest.approx(base + shift, rel=1e-14)
        # near 1e300 every offset below the spacing of floats is absorbed
        for shift in (1e300, -1e300):
            assert _logsumexp(a + shift) == base + shift == shift
        spread = np.array([1e300, 0.5e300, -1e300, 1e300])
        assert _logsumexp(spread) == 1e300

    def test_bit_identical_to_scipy(self):
        logsumexp = pytest.importorskip("scipy.special").logsumexp
        rng = np.random.default_rng(2)
        for k in range(400):
            a = rng.normal(scale=10.0 ** (k % 5), size=1 + k % 60)
            if k % 3 == 0:
                a[rng.integers(a.size, size=3)] = a.max()
            assert _logsumexp(a) == float(logsumexp(a))


class TestPhiGate:
    def test_vanishes_for_nonpositive(self):
        for t in (0.0, -0.5, -2.0):
            assert phi_gate(t).is_zero

    def test_known_value(self):
        assert phi_gate(0.5).logmag == pytest.approx(-math.exp(4.0), rel=1e-15)
        assert phi_gate(0.5).sign == 1

    def test_deep_underflow_stays_finite(self):
        g = phi_gate(0.01)
        assert g.sign == 1
        assert math.isfinite(g.logmag)

    def test_smooth_vanishing_of_derivatives(self):
        # log-domain bound on the k-th finite difference: it collapses as t -> 0
        for k in (1, 2, 3):
            prev = math.inf
            for t in (0.4, 0.3, 0.2, 0.1):
                h = t / 4.0
                stencil = [phi_gate(t + j * h) for j in range(-k, k + 1)]
                top = max(s.logmag for s in stencil if not s.is_zero)
                bound = top + k * math.log(2.0 / h)
                assert bound < prev
                prev = bound
            assert prev < -1e4


def _per_triple_log_limit(l, m, n, delta, t_grid):
    """The probe one exponent triple at a time, every term recomputed per
    triple and wrapped in a LogScalar, as one call per triple took it."""
    out = []
    for t in t_grid:
        gate = phi_gate_logmag(t)
        envelope = 0.5 * delta * math.exp(1.0 / t)
        lm = math.fsum([-l * math.log(t), envelope, m / (t * t), n / t, gate])
        out.append(LogScalar.from_log(1, max(lm, bump_profiles._LOG_MIN)).logmag)
    return out


_EXPONENTS = [(ell, m, n) for ell in range(4) for m in range(4) for n in range(4)]


class TestLogLimitProbe:
    def test_strict_decrease_and_collapse(self):
        grid = [0.5, 0.4, 0.3, 0.25, 0.2, 0.15]
        (lms,) = log_limit_probe([(3, 3, 3)], 0.2, grid)
        assert all(b < a for a, b in zip(lms, lms[1:]))
        assert lms[-1] < -1e3

    def test_drop_between_half_and_point_three(self):
        (vals,) = log_limit_probe([(1, 1, 1)], 0.2, [0.5, 0.3])
        assert vals[0] - vals[1] >= math.exp(1.0 / 0.09) / 2.0

    @pytest.mark.parametrize(
        "grid", [[0.5, 0.4, 0.3, 0.25, 0.2, 0.15], [0.5, 0.3, 0.1, 0.05, 0.035, 0.03]]
    )
    def test_equals_the_per_triple_formula_bit_for_bit(self, grid):
        # the second grid reaches the clamp: exp(1/t^2) overflows below 0.0375
        clamped = 0
        for delta in (0.0, 0.2):
            got = log_limit_probe(_EXPONENTS, delta, grid)
            assert len(got) == len(_EXPONENTS)
            for (ell, m, n), lms in zip(_EXPONENTS, got):
                want = _per_triple_log_limit(ell, m, n, delta, grid)
                assert all(type(lm) is float for lm in lms)
                assert [lm.hex() for lm in lms] == [w.hex() for w in want], (ell, m, n, delta)
                clamped += lms.count(bump_profiles._LOG_MIN)
        assert clamped == (2 * 2 * len(_EXPONENTS) if grid[-1] < 0.0375 else 0)

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.5])
    def test_rejects_t_outside_the_unit_interval(self, t):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            log_limit_probe(_EXPONENTS, 0.2, [0.5, t])

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_overflowing_envelope_is_not_representable(self, delta):
        # exp(1/t) overflows below t ~ 0.00141, and 0 * inf is no envelope
        with pytest.raises(RepresentabilityError, match="envelope"):
            log_limit_probe(_EXPONENTS, delta, [0.5, 0.001])


class TestBumpWindowGram:
    """bump_window_gram against grid_sobolev_norm and grid_l2_inner of
    explicit combinations of the unshifted windows ending at 0."""

    @staticmethod
    def _windows(spacing, margin=DEFAULT_MARGIN):
        return [
            GridFunction(-2.0 * (1.0 + margin), spacing, bump_window(k, spacing, margin))
            for k in range(3)
        ]

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_quadratic_forms_are_the_norms_of_the_combinations(self, spacing, delta):
        gram = bump_window_gram(3, 1, delta, spacing, DEFAULT_MARGIN)
        pair = bump_window_gram(3, 0, 0.0, spacing, DEFAULT_MARGIN)
        windows = self._windows(spacing)
        for a in np.random.default_rng(5).normal(size=(8, 3)):
            f = grid_combine(list(zip(a, windows)))
            want = grid_sobolev_norm(f, 1, delta)
            assert math.sqrt(a @ gram @ a) == pytest.approx(want, rel=1e-12, abs=0.0)
            want = grid_l2_inner(f, windows[0])
            assert a @ pair[:, 0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_l2_gram_keeps_the_self_pairing_bits(self, spacing):
        pair = bump_window_gram(3, 0, 0.0, spacing, DEFAULT_MARGIN)
        assert pair[0, 0] == bump_self_pairing(spacing)
        assert np.array_equal(pair, pair.T)

    def test_cached_and_read_only(self):
        gram = bump_window_gram(3, 1, 0.1, DEFAULT_SPACING, DEFAULT_MARGIN)
        assert bump_window_gram(3, 1, 0.1, DEFAULT_SPACING, DEFAULT_MARGIN) is gram
        assert gram.shape == (3, 3) and not gram.flags.writeable
        with pytest.raises(ValueError):
            gram[0, 0] = 1.0

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_a_level_l_build_takes_l_gradients(self, monkeypatch, level):
        calls = []
        gradient = np.gradient
        monkeypatch.setattr(np, "gradient", lambda *a, **k: calls.append(1) or gradient(*a, **k))
        bump_window(0, DEFAULT_SPACING, DEFAULT_MARGIN)  # the rows are sampled, not differenced
        bump_window_gram.cache_clear()
        bump_window_gram(4, level, 0.1, DEFAULT_SPACING, DEFAULT_MARGIN)
        assert len(calls) == level

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_keeps_the_bits_of_the_gradient_per_level_build(self, spacing, delta, level):
        # the build that took one more gradient, after the last level
        rows = np.array([bump_window(k, spacing, DEFAULT_MARGIN) for k in range(4)])
        x = -2.0 * (1.0 + DEFAULT_MARGIN) + spacing * np.arange(rows.shape[1])
        w, want = np.exp(delta * np.abs(x)), np.zeros((4, 4))
        for _ in range(level + 1):
            want += [[uniform_trapezoid((w * u) * (w * v), spacing) for v in rows] for u in rows]
            rows = np.gradient(rows, spacing, axis=1, edge_order=2)
        got = bump_window_gram(4, level, delta, spacing, DEFAULT_MARGIN)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("delta", [118.0, 200.0])
    def test_non_finite_entry_raises_naming_delta_and_window(self, delta):
        with pytest.raises(OverflowError, match=rf"delta={delta!r} is not finite on \[-4\.0, "):
            bump_window_gram(3, 1, delta, DEFAULT_SPACING, DEFAULT_MARGIN)
