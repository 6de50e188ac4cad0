import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclab.scale_core import (
    GridFunction,
    GridMismatchError,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_inner,
    grid_sobolev_norm,
    seq_inner,
    seq_norm,
    tail_projection,
)

REL_TOL = 1e-12

finite_reals = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
signed_reals = st.one_of(finite_reals, finite_reals.map(lambda x: -x))
normal_coeffs = st.floats(min_value=1e-100, max_value=10.0)


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

    # from_real keeps only log|x|, and adjacent floats (near 1e-300, say) can
    # share it; so cmp is monotone in the reals and exact where the logs differ
    @given(signed_reals, signed_reals)
    def test_cmp_is_monotone_in_the_reals(self, x, y):
        c = LogScalar.from_real(x).cmp(LogScalar.from_real(y))
        if x < y:
            assert c <= 0
        if x > y:
            assert c >= 0

    @given(signed_reals, signed_reals)
    def test_cmp_is_exact_where_the_logs_differ(self, x, y):
        c = LogScalar.from_real(x).cmp(LogScalar.from_real(y))
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

    def test_sobolev_variants_are_equivalent_norms(self):
        h = 1e-3
        xs = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(-1.0, h, np.exp(-4 * xs**2))
        for k in range(3):
            for delta in (0.0, 0.1):
                quad = grid_sobolev_norm(f, k, delta, variant="quadratic")
                summed = grid_sobolev_norm(f, k, delta, variant="sum")
                assert quad <= summed * (1 + 1e-12)
                assert summed <= math.sqrt(k + 1) * quad * (1 + 1e-12)

    def test_quadratic_norm_matches_inner(self):
        h = 1e-3
        xs = np.arange(-1.0, 1.0 + h / 2, h)
        f = GridFunction(-1.0, h, np.exp(-4 * xs**2))
        for k in (0, 1, 2):
            n = grid_sobolev_norm(f, k, 0.1, variant="quadratic")
            assert n * n == pytest.approx(grid_sobolev_inner(f, f, k, 0.1), rel=1e-10)

    def test_sobolev_inner_raises_where_the_weight_overflows(self):
        # 2 delta |x| passes log(max float) = 709.78 on this window at
        # delta = 0.1, where exp(2 delta |x|) times zero samples gave NaN
        f = GridFunction(-3600.0, 1e-3, np.zeros(1001))
        with pytest.raises(OverflowError, match=r"delta=0\.1 .*\[-3600\.0, "):
            grid_sobolev_inner(f, f, 0, 0.1)
        # inside the float range of the weight the pairing is computed
        g = GridFunction(-3500.0, 1e-3, np.ones(1001))
        assert math.isfinite(grid_sobolev_inner(g, g, 1, 0.1))

    def test_sobolev_inner_raises_on_a_non_finite_sum(self):
        # the weight is finite, but weight times samples overflows
        f = GridFunction(-3500.0, 1e-3, np.full(1001, 1e150))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="not finite"):
                grid_sobolev_inner(f, f, 0, 0.1)
