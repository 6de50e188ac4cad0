import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclab import scale_core
from sclab.scale_core import (
    GridFunction,
    GridMismatchError,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_combine,
    grid_l2_inner,
    grid_row,
    grid_sobolev_gram,
    grid_sobolev_inner,
    grid_sobolev_norm,
    grid_sobolev_norms,
    grid_sobolev_pairings,
    grid_window,
    seq_inner,
    seq_norm,
    seq_norms,
    tail_projection,
    uniform_trapezoid,
)

from independent_routes import log_cmp

REL_TOL = 1e-12

finite_reals = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
signed_reals = st.one_of(finite_reals, finite_reals.map(lambda x: -x))
normal_coeffs = st.floats(min_value=1e-100, max_value=10.0)
# log magnitudes far outside what from_real reaches, with sums still finite
logmags = st.floats(min_value=-1e300, max_value=1e300)
log_scalars = st.builds(LogScalar, st.sampled_from([-1, 1]), logmags)


def _exact_sq_norm(x: SeqVector, i: int) -> Fraction:
    """sum of n^(6i) x_n^2 in exact rational arithmetic on the float coefficients."""
    return sum(
        (Fraction(n) ** (6 * i) * Fraction(float(c)) ** 2 for n, c in enumerate(x.coeffs, 1)),
        Fraction(0),
    )


class TestLogScalar:
    @given(signed_reals)
    def test_round_trip(self, x):
        back = LogScalar.from_real(x).to_real()
        # exp(log(x)) has relative error up to ~|log x| ulps
        rel = (abs(math.log(abs(x))) + 4.0) * 3e-16
        assert back == pytest.approx(x, rel=rel)

    def test_zero_and_one(self):
        assert LogScalar.zero().is_zero
        assert LogScalar.zero().to_real() == 0.0
        assert LogScalar.one().to_real() == 1.0

    def test_to_real_reaches_the_top_of_the_float_range(self):
        # exp(709.781) is 1.7946e308, a float; the range ends at log(max float)
        assert LogScalar(1, 709.781).to_real() == math.exp(709.781)
        assert LogScalar(-1, 709.7827).to_real() == -math.exp(709.7827)
        with pytest.raises(OverflowError, match="log magnitude 709.783"):
            LogScalar(1, 709.783).to_real()

    # from_real keeps only log|x|, and adjacent floats (near 1e-300, say) can
    # share it; so their order is monotone in the reals and exact where the
    # logs differ
    @given(signed_reals, signed_reals)
    def test_cmp_is_monotone_in_the_reals(self, x, y):
        c = log_cmp(LogScalar.from_real(x), LogScalar.from_real(y))
        if x < y:
            assert c <= 0
        if x > y:
            assert c >= 0

    @given(signed_reals, signed_reals)
    def test_cmp_is_exact_where_the_logs_differ(self, x, y):
        c = log_cmp(LogScalar.from_real(x), LogScalar.from_real(y))
        if (x > 0) != (y > 0) or math.log(abs(x)) != math.log(abs(y)):
            assert c == (x > y) - (x < y)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
        st.booleans(),
        st.booleans(),
    )
    def test_add_matches_float_sum(self, x, y, sx, sy):
        x, y = (-x if sx else x), (-y if sy else y)
        total = x + y
        got = LogScalar.from_real(x).add(LogScalar.from_real(y)).to_real()
        assert got == pytest.approx(total, rel=1e-12, abs=1e-12 * max(abs(x), abs(y)))

    @given(signed_reals)
    def test_exact_self_cancellation(self, x):
        a = LogScalar.from_real(x)
        assert a.sub(a).is_zero

    @given(signed_reals, signed_reals)
    def test_mul_in_log_domain(self, x, y):
        got = LogScalar.from_real(x).mul(LogScalar.from_real(y))
        assert got.sign == int(np.sign(x)) * int(np.sign(y))
        assert got.logmag == pytest.approx(
            math.log(abs(x)) + math.log(abs(y)), rel=1e-12, abs=1e-9
        )

    # mul then div (or div then mul) rounds the log magnitude twice, each
    # time by at most half an ulp of the value it produces
    @given(log_scalars, log_scalars)
    @example(LogScalar(1, -655.3777018225568), LogScalar(-1, -192.7003241754631))
    def test_mul_and_div_are_inverse_within_two_roundings(self, x, y):
        for there, back in ((x.mul(y), x.mul(y).div(y)), (x.div(y), x.div(y).mul(y))):
            assert back.sign == x.sign
            bound = math.ulp(max(abs(there.logmag), abs(back.logmag)))
            assert abs(back.logmag - x.logmag) <= bound

    def test_div_undoes_mul_at_zero_and_rejects_a_zero_divisor(self):
        y = LogScalar(-1, 3.0)
        assert LogScalar.zero().mul(y).div(y).is_zero
        with pytest.raises(ZeroDivisionError):
            y.mul(LogScalar.zero()).div(LogScalar.zero())

    # hi and lo are picked by magnitude alone, and equal magnitudes give
    # equal results, so the operand order never reaches the arithmetic
    @given(st.one_of(log_scalars, st.just(LogScalar.zero())), log_scalars)
    def test_add_is_exactly_commutative(self, x, y):
        assert repr(x.add(y)) == repr(y.add(x))

    # each add is exact to u(|result| + 2.1) in the log (u = 2^-53: one
    # rounding of hi + log1p, and about 2.1u from exp and log1p); the error of
    # the inner sum reaches the outer one damped by its share of the total,
    # which keeps the gap between the two groupings below 8 eps max(1, |log|)
    @given(finite_reals, finite_reals, finite_reals, st.booleans())
    @example(1.1829839336282655, 0.999999999, 1.0081468321299858, False)
    def test_add_of_one_sign_is_associative_within_log_rounding(self, x, y, z, neg):
        x, y, z = (LogScalar.from_real(-v if neg else v) for v in (x, y, z))
        left, right = x.add(y).add(z), x.add(y.add(z))
        assert left.sign == right.sign == x.sign
        scale = max(1.0, abs(left.logmag), abs(right.logmag))
        assert abs(left.logmag - right.logmag) <= 8 * sys.float_info.epsilon * scale

    def test_add_is_not_associative_under_cancellation(self):
        # x + y cancels exactly, while y + z rounds back to y's log and then
        # cancels against x: the groupings give z and zero
        x, y, z = (LogScalar.from_real(v) for v in (1.0000001, -1.0000001, 4.1299175674766966e-74))
        assert x.add(y).add(z) == z
        assert x.add(y.add(z)).is_zero

    def test_add_survives_extreme_magnitude_gap(self):
        big = LogScalar(1, 100.0)
        tiny = LogScalar(-1, -1e308)
        assert big.add(tiny) == big
        assert tiny.add(big) == big

    def test_near_cancellation_goes_to_zero(self):
        a = LogScalar(1, 5.0)
        b = LogScalar(-1, np.nextafter(5.0, 4.0))
        out = a.add(b)
        assert out.is_zero or out.logmag < 5.0 - 30.0


class TestWeightSchedule:
    def test_default_strictly_increasing(self):
        s = WeightSchedule.default(5, 0.1)
        deltas = [s.delta(i) for i in range(5)]
        assert deltas[0] == 0.0
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            WeightSchedule((0.0, 0.2, 0.1))


class TestSeqModel:
    def test_basis_norm_scaling(self):
        for n in (1, 2, 5, 9):
            for i in range(4):
                assert seq_norm(SeqVector.basis(n), i) == pytest.approx(
                    float(n) ** (3 * i), rel=REL_TOL
                )

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_single_mode_level_shift(self, n, i, k, scale):
        x = SeqVector.basis(n, scale=scale)
        assert seq_norm(x, i) == pytest.approx(
            n ** (-3 * k) * seq_norm(x, i + k), rel=REL_TOL
        )

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10), min_size=1, max_size=32
        ),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
    )
    @example(coeffs=[0.0] * 5 + [3.1646717019894073], N=6, i=2, k=1)
    def test_tail_bound(self, coeffs, N, i, k):
        # ||tail||_i^2 <= N^(-6k) ||tail||_{i+k}^2, exactly: it holds with
        # equality for one mode at N, where float norms may differ by an ulp
        tail = tail_projection(SeqVector(np.array(coeffs)), N)
        assert N ** (6 * k) * _exact_sq_norm(tail, i) <= _exact_sq_norm(tail, i + k)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.one_of(st.just(0.0), normal_coeffs, normal_coeffs.map(lambda c: -c)),
            min_size=1,
            max_size=32,
        ),
        st.integers(min_value=0, max_value=3),
    )
    def test_seq_norm_within_rounding_bound(self, coeffs, i):
        # a sum of m non-negative terms w_n x_n^2, each with three roundings
        # (the weight n^(6i) and two products), is within gamma_(m+2) of the
        # exact sum, gamma_j = j u / (1 - j u); the square root adds one more.
        # The model holds while no product underflows, hence |x_n| >= 1e-100.
        x = SeqVector(np.array(coeffs))
        exact = _exact_sq_norm(x, i)
        u = Fraction(1, 2**53)
        j = x.dim + 2
        gamma = j * u / (1 - j * u)
        got = Fraction(seq_norm(x, i)) ** 2
        assert abs(got - exact) <= ((1 + gamma) * (1 + u) ** 2 - 1) * exact

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "coeffs",
        [[2.9e-223], [2.9e-223, 1e-160], [1e200]],
        ids=["underflow", "partial-underflow", "overflow"],
    )
    def test_seq_norm_outside_the_normal_range(self, coeffs):
        # the plain sum of squares is 0.0, a subnormal and inf here; the
        # rescaled sum takes m + 5 roundings (m terms), far below 2^-48
        x = SeqVector(np.array(coeffs))
        exact = _exact_sq_norm(x, 0)
        got = Fraction(seq_norm(x, 0)) ** 2
        assert abs(got - exact) <= Fraction(1, 2**48) * exact

    def test_seq_norm_is_plain_in_the_normal_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = SeqVector(rng.normal(size=int(rng.integers(1, 65))))
            i = int(rng.integers(0, 4))
            assert seq_norm(x, i) == math.sqrt(seq_inner(x, x, i))

    def test_row_stack_norm_is_per_row_seq_norm(self):
        rng = np.random.default_rng(11)
        for n_cols in (1, 2, 7, 8, 9, 64, 129):
            scales = 10.0 ** rng.integers(-20, 21, size=(6, 1))
            extreme = np.zeros((5, n_cols))
            extreme[0, 0] = 2.9e-223  # the plain sum underflows to 0.0
            extreme[1, 0] = 1e200  # and overflows to inf
            extreme[2, -1] = -1e200
            extreme[3, :2] = [2.9e-223, 1e-160][:n_cols]  # a subnormal sum
            stack = np.vstack([rng.normal(size=(6, n_cols)) * scales, extreme])
            for i in range(4):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = seq_norms(stack, i).tolist()
                want = [seq_norm(SeqVector(row), i) for row in stack]
                assert [repr(v) for v in got] == [repr(v) for v in want]
        assert seq_norms(np.zeros((2, 0)), 1).tolist() == [0.0, 0.0]
        with pytest.raises(ValueError):
            seq_norms(np.ones(3), 0)

    @pytest.mark.parametrize("n_cols", [1, 16, 64, 1024])
    def test_per_row_levels_equal_the_one_level_calls(self, n_cols):
        rng = np.random.default_rng(14)
        rows = rng.normal(size=(40, n_cols)) * 10.0 ** rng.integers(-20, 21, size=(40, 1))
        levels = rng.integers(0, 4, size=40)
        rows[0], rows[1] = 0.0, 0.0  # zero rows
        rows[2:6] *= 1e-200 / np.abs(rows[2:6]).max(axis=1, keepdims=True)  # underflow
        rows[6:10] *= 1e200 / np.abs(rows[6:10]).max(axis=1, keepdims=True)  # overflow
        levels[2:10] = [0, 1, 2, 3, 0, 1, 2, 3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = seq_norms(rows, levels)
            for i in range(4):
                assert np.array_equal(got[levels == i], seq_norms(rows[levels == i], i))
        # the rescale branch keeps the tiny and huge rows' norms finite and positive
        assert got[:2].tolist() == [0.0, 0.0]
        assert np.all((got[2:10] > 0.0) & (got[2:10] < math.inf))
        assert seq_norms(rows[:0], levels[:0]).shape == (0,)
        assert seq_norms(np.zeros((0, 0)), np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_per_row_levels_must_be_one_non_negative_integer_per_row(self):
        rows = np.ones((3, 4))
        assert seq_norms(rows, np.array([0, 1, 2], dtype=np.uint8)).shape == (3,)
        for levels in (
            np.array([0, -1, 2]),
            np.array([0.0, 1.0, 2.0]),
            np.array([True, False, True]),
            np.array([0, 1]),
            np.zeros((3, 1), dtype=int),
        ):
            with pytest.raises(ValueError, match="^per-row levels must be") as err:
                seq_norms(rows, levels)
            assert "\n" not in str(err.value)

    def test_the_per_row_weight_table_is_read_only(self):
        table = scale_core._seq_weight_table(5, 3)
        assert not table.flags.writeable and table.shape == (3, 5)
        for i in range(3):
            assert np.array_equal(table[i], scale_core._seq_weights(5, i))

    def test_seq_vectors_keep_trailing_zeros(self):
        # numpy groups a pairwise sum by the row's length, so seq_norm must
        # sum a vector on the length it was given, as seq_norms sums its row
        rng = np.random.default_rng(12)
        extremes = ([2.9e-223], [2.9e-223, 1e-160], [1e200], [-1e200, 3.0])
        heads = [np.array(e) for e in extremes] + [
            rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
            for n in rng.integers(1, 16, size=200).tolist()
        ]
        for head in heads:
            row = np.concatenate([head, np.zeros(int(rng.integers(1, 20)))])
            x = SeqVector(row)
            assert x.dim == row.size and np.array_equal(x.coeffs, row)
            for i in range(3):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    want = float(seq_norms(row[np.newaxis], i)[0])
                assert 0.0 < want < math.inf
                assert repr(seq_norm(x, i)) == repr(want)
        assert SeqVector(np.zeros(3)).dim == 3 and seq_norm(SeqVector(np.zeros(3)), 2) == 0.0
        assert tail_projection(SeqVector.basis(3), 5).coeffs.tolist() == [0.0, 0.0, 0.0]

    def test_tail_bound_equality_at_single_mode(self):
        for N in (4, 16, 32):
            e = SeqVector.basis(N)
            for i in range(2):
                for k in (1, 2):
                    assert seq_norm(e, i) == pytest.approx(
                        N ** (-3 * k) * seq_norm(e, i + k), rel=REL_TOL
                    )

    def test_monotone_level_embedding(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = SeqVector(rng.normal(size=12))
            norms = [seq_norm(x, i) for i in range(4)]
            assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_inner_symmetry_and_norm_consistency(self):
        rng = np.random.default_rng(4)
        x, y = SeqVector(rng.normal(size=8)), SeqVector(rng.normal(size=11))
        for i in range(3):
            assert seq_inner(x, y, i) == pytest.approx(seq_inner(y, x, i), rel=1e-14)
            assert seq_norm(x, i) == pytest.approx(
                math.sqrt(seq_inner(x, x, i)), rel=1e-14
            )


def _hat(x0: float, n: int, h: float, peak_at: int) -> GridFunction:
    vals = np.zeros(n)
    vals[peak_at] = 1.0
    return GridFunction(x0, h, vals)


class TestGridModel:
    def test_inner_of_known_functions(self):
        h = 1e-3
        xs = np.arange(0.0, 1.0 + h / 2, h)
        f = GridFunction(0.0, h, np.sin(math.pi * xs))
        # integral of sin^2 over [0, 1] is 1/2
        assert grid_l2_inner(f, f) == pytest.approx(0.5, abs=1e-8)

    def test_disjoint_windows_pair_to_zero(self):
        f = GridFunction(0.0, 1e-3, np.ones(100))
        g = GridFunction(10.0, 1e-3, np.ones(100))
        assert grid_l2_inner(f, g) == 0.0
        assert grid_sobolev_inner(f, g, 1, 0.1) == 0.0

    def test_misaligned_overlap_rejected(self):
        f = GridFunction(0.0, 1e-3, np.ones(100))
        g = GridFunction(0.01005, 1e-3, np.ones(100))
        with pytest.raises(GridMismatchError):
            grid_l2_inner(f, g)

    def test_combine_is_linear(self):
        h = 1e-3
        rng = np.random.default_rng(5)
        # taper to zero at the window edges so zero-extension is exact
        f_vals = rng.normal(size=200) * np.sin(np.linspace(0, math.pi, 200))
        g_vals = rng.normal(size=150) * np.sin(np.linspace(0, math.pi, 150))
        f = GridFunction(0.0, h, f_vals)
        g = GridFunction(0.05, h, g_vals)
        out = grid_combine([(2.0, f), (-3.0, g)])
        assert grid_l2_inner(out, out) == pytest.approx(
            4.0 * grid_l2_inner(f, f)
            - 12.0 * grid_l2_inner(f, g)
            + 9.0 * grid_l2_inner(g, g),
            rel=1e-10,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 10_000),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 200.0),
        st.floats(1e-4, 10.0),
    )
    @example(2, 0, 0.0, 1e-3)
    @example(10_000, 1, 200.0, 1e-4)
    def test_uniform_trapezoid_is_numpys_rule(self, n, seed, spread, h):
        # non-negative rows over up to 200 decades, with about a tenth zeros
        rng = np.random.default_rng(seed)
        y = 10.0 ** rng.uniform(-spread / 2, spread / 2, n) * (rng.random(n) > 0.1)
        want = float(np.trapezoid(y, dx=h))
        assert uniform_trapezoid(y, h) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_sobolev_norm_is_the_hilbert_norm(self):
        # one quadrature: the norm is the root of the self-pairing, bit for bit
        h = 1e-3
        xs = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(-1.0, h, np.exp(-4 * xs**2))
        for k in range(3):
            for delta in (0.0, 0.1):
                quad = math.sqrt(grid_sobolev_inner(f, f, k, delta))
                assert grid_sobolev_norm(f, k, delta) == quad

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.floats(0.0, 2.0),
        st.floats(-50.0, 50.0),
        st.integers(7, 400),
        st.floats(1e-4, 1e-1),
    )
    @example(0, 0, 0.0, -1.0, 7, 1e-3)
    def test_sobolev_norm_is_the_root_of_the_self_pairing(self, seed, k, delta, x0, n, h):
        vals = np.random.default_rng(seed).normal(size=n)
        f = GridFunction(x0, h, vals)
        assert grid_sobolev_norm(f, k, delta) == math.sqrt(grid_sobolev_inner(f, f, k, delta))

    def test_the_gram_is_symmetric_with_the_norms_on_its_diagonal(self):
        rng = np.random.default_rng(17)
        h = 1e-3
        stack = rng.normal(size=(5, 301)) * np.sin(np.linspace(0, math.pi, 301))
        for x0 in (-2.0, 0.5):
            for k in range(3):
                for delta in (0.0, 0.1, 0.3):
                    gram = grid_sobolev_gram(stack, k, delta, x0, h)
                    assert np.array_equal(gram, gram.T)
                    norms = grid_sobolev_norms(stack, k, delta, x0, h)
                    assert np.array_equal(np.sqrt(np.diag(gram)), norms)
                    pairs = [(0, 3), (3, 0), (2, 2)]
                    got = grid_sobolev_pairings(stack, pairs, k, delta, x0, h)
                    assert np.array_equal(got, [gram[0, 3], gram[3, 0], gram[2, 2]])
                    f, g = (GridFunction(x0, h, stack[r]) for r in (1, 4))
                    assert grid_sobolev_inner(f, g, k, delta) == gram[1, 4]

    def test_sobolev_norms_are_the_one_row_arithmetic_per_row(self):
        def one_row(vals, x0, h, k, delta):
            w = np.exp(delta * np.abs(x0 + h * np.arange(vals.size))) if delta != 0.0 else 1.0
            square = 0.0
            for j in range(k + 1):
                y = (w * vals) ** 2  # the trapezoid rule as uniform_trapezoid sums it
                square += h * (float(y.sum()) - (float(y[0]) + float(y[-1])) / 2)
                if j < k:
                    vals = np.gradient(vals, h, edge_order=2)
            return math.sqrt(square)

        rng = np.random.default_rng(13)
        h = 1e-3
        stack = rng.normal(size=(4, 301)) * np.sin(np.linspace(0, math.pi, 301))
        for x0 in (-2.0, 0.5):
            for k in range(3):
                for delta in (0.0, 0.1, 0.3):
                    got = grid_sobolev_norms(stack, k, delta, x0, h).tolist()
                    want = [one_row(r, x0, h, k, delta) for r in stack]
                    assert [repr(v) for v in got] == [repr(v) for v in want]
                    f = GridFunction(x0, h, stack[1])
                    assert repr(grid_sobolev_norm(f, k, delta)) == repr(want[1])

    def test_sobolev_norms_validate_and_raise_on_overflow(self):
        with pytest.raises(OverflowError, match=r"delta=0\.1 is not finite on \[-8000\.0, "):
            grid_sobolev_norms(np.ones((2, 101)), 0, 0.1, -8000.0, 1e-3)
        with pytest.raises(ValueError):
            grid_sobolev_norms(np.ones(5), 0, 0.0, 0.0, 1e-3)
        with pytest.raises(ValueError, match="too few"):
            grid_sobolev_norms(np.ones((1, 4)), 2, 0.0, 0.0, 1e-3)

    def test_window_and_row_placement(self):
        h = 1e-3
        f = GridFunction(0.0, h, np.arange(1.0, 101.0))
        g = GridFunction(0.05, h, np.ones(100))  # 50 nodes right of f
        x0, n = grid_window([f, g])
        assert (x0, n) == (0.0, 150)
        row = grid_row(g, x0, h, n)
        assert not row[:50].any() and np.array_equal(row[50:], g.values)
        both = grid_combine([(1.0, f), (1.0, g)]).values
        assert np.array_equal(both, grid_row(f, x0, h, n) + row)
        with pytest.raises(ValueError, match="not inside"):
            grid_row(g, x0, h, 120)
        with pytest.raises(GridMismatchError):
            grid_window([f, GridFunction(0.01005, h, np.ones(10))])
        with pytest.raises(GridMismatchError):
            grid_row(f, 0.0005, h, 1000)

    def test_sobolev_inner_raises_where_the_weight_overflows(self):
        # 2 delta |x| passes log(max float) = 709.78 on this window at
        # delta = 0.1, but the weight exp(delta |x|) itself is finite: zero
        # samples pair to 0.0, as their norm reads 0.0
        f = GridFunction(-3600.0, 1e-3, np.zeros(1001))
        assert grid_sobolev_inner(f, f, 0, 0.1) == 0.0 == grid_sobolev_norm(f, 1, 0.1)
        assert grid_sobolev_inner(f, f, 1, 0.1) == 0.0
        # where exp(delta |x|) overflows, inf times zero samples is NaN
        z = GridFunction(-8000.0, 1e-3, np.zeros(1001))
        with pytest.raises(OverflowError, match=r"delta=0\.1 .*\[-8000\.0, "):
            grid_sobolev_inner(z, z, 0, 0.1)
        # inside the float range of the weight the pairing is computed
        g = GridFunction(-3500.0, 1e-3, np.ones(1001))
        assert math.isfinite(grid_sobolev_inner(g, g, 1, 0.1))

    def test_sobolev_inner_raises_on_a_non_finite_sum(self):
        # the weight is finite, but weight times samples overflows
        f = GridFunction(-3500.0, 1e-3, np.full(1001, 1e150))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="not finite"):
                grid_sobolev_inner(f, f, 0, 0.1)

    def test_copies_writable_arrays_and_read_only_views(self):
        src = np.linspace(0.0, 1.0, 5)
        f = GridFunction(0.0, 0.1, src)
        src[0] = 9.0
        assert f.values[0] == 0.0
        base = np.linspace(0.0, 1.0, 6)
        view = base[1:]
        view.flags.writeable = False
        g = GridFunction(0.0, 0.1, view)
        base[1] = 9.0
        assert g.values[0] == 0.2
        assert not (np.shares_memory(g.values, base) or g.values.flags.writeable)

    def test_keeps_a_read_only_array_that_owns_its_data(self):
        a = 0.25 * np.arange(5.0)
        a.flags.writeable = False
        assert GridFunction(0.0, 0.1, a).values is a
        # other dtypes are converted, and the finiteness scan still runs
        b = np.arange(5, dtype=np.float32)
        b.flags.writeable = False
        assert GridFunction(0.0, 0.1, b).values.dtype == np.float64
        a = np.array([0.0, np.inf])
        a.flags.writeable = False
        with pytest.raises(ValueError, match="finite"):
            GridFunction(0.0, 0.1, a)

    def test_fresh_results_are_kept_read_only(self):
        f = GridFunction(0.0, 0.1, np.linspace(0.0, 1.0, 5))
        g = GridFunction(0.2, 0.1, np.ones(5))
        for h in (f.scaled(2.0), f.zeros_like(), grid_combine([(1.0, f), (0.5, g)])):
            assert h.values.flags.owndata and not h.values.flags.writeable
            assert not np.shares_memory(h.values, f.values)
