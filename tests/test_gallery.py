import math
import warnings

import numpy as np
import pytest

from sclab.bump_profiles import (
    K_MAX,
    pair_with_bump,
    phi_gate,
    shift_amount,
    shifted_bump,
    step_n,
)
from sclab.gallery import (
    h_diff,
    h_eval,
    h_transversality_data,
    h_zero_branch,
    phi_dt,
    phi_dx,
    phi_value,
    rho_eval,
    rho_k_eval,
    rho_k_tangent,
    s_proj,
    s_proj_diff,
    s_tilde_eval,
    s_tilde_inv,
    seq_diffeo,
    seq_diffeo_inv,
)
from sclab.scale_core import (
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    SeqVector,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_norm,
    seq_norm,
)


def _test_input(t: float) -> GridFunction:
    """A smooth function overlapping the shifted bump window."""
    return grid_combine(
        [(0.7, shifted_bump(t, 0)), (0.3, shifted_bump(t, 1))]
    )


class TestRetraction:
    def test_fixed_on_bump_multiples(self):
        t = 0.4
        b = shifted_bump(t, 0)
        _, out = rho_eval(t, b.scaled(2.5))
        diff = grid_combine([(1.0, out), (-2.5, b)])
        assert grid_sobolev_norm(diff, 0, 0.0) < 1e-9

    def test_idempotent(self):
        t = 0.35
        f = _test_input(t)
        _, once = rho_eval(t, f)
        _, twice = rho_eval(t, once)
        diff = grid_combine([(1.0, once), (-1.0, twice)])
        assert grid_sobolev_norm(diff, 0, 0.0) < 1e-9 * grid_sobolev_norm(once, 0, 0.0)

    def test_zero_branch_for_nonpositive_t(self):
        f = _test_input(0.4)
        for t in (0.0, -0.3):
            _, out = rho_eval(t, f)
            assert grid_sobolev_norm(out, 0, 0.0) == 0.0

    def test_annihilates_disjoint_input(self):
        f = GridFunction(5.0, 1e-3, np.sin(np.linspace(0, math.pi, 300)))
        _, out = rho_eval(0.4, f)
        assert grid_sobolev_norm(out, 0, 0.0) == 0.0


class TestProjection:
    def test_image_orthogonal_to_bump(self):
        t = 0.4
        f = _test_input(t)
        _, out = s_proj(t, f)
        assert abs(pair_with_bump(out, t)) < 1e-10

    def test_identity_on_orthogonal_complement(self):
        t = 0.4
        f = _test_input(t)
        _, out = s_proj(t, f)
        _, again = s_proj(t, out)
        diff = grid_combine([(1.0, out), (-1.0, again)])
        assert grid_sobolev_norm(diff, 0, 0.0) < 1e-10

    def test_identity_for_nonpositive_t(self):
        f = _test_input(0.4)
        _, out = s_proj(-0.1, f)
        assert out is f

    def test_complements_retraction(self):
        t = 0.45
        f = _test_input(t)
        _, p = s_proj(t, f)
        _, r = rho_eval(t, f)
        back = grid_combine([(1.0, p), (1.0, r), (-1.0, f)])
        assert grid_sobolev_norm(back, 0, 0.0) < 1e-10


class TestEscapedBump:
    @pytest.mark.parametrize("t", [0.05, 1e-3])
    def test_differentials_leave_F_unchanged(self, t):
        # b_t and b_t' lie left of [-2, 2], so every pairing is exact 0 and
        # no t-derivative term is added, even where exp(1/t) is inf
        xs = np.linspace(-2.0, 2.0, 4001)
        f = GridFunction(-2.0, 1e-3, np.cos(xs))
        F = GridFunction(-2.0, 1e-3, np.exp(-(xs**2)))
        assert math.isfinite(shift_amount(t)) == (t == 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T, out = s_proj_diff(t, f, 1.0, F)
            assert T == 1.0 and out is F
            assert h_diff(t, f, 1.0, F) is F


class TestTimeDerivative:
    @pytest.mark.parametrize("name", ["s-proj", "h-family"])
    @pytest.mark.parametrize("t", [0.4, 0.3])
    def test_t_terms_match_a_node_aligned_difference(self, name, t):
        # a step in t moves b_t off f's nodes, so step the shift S = exp(1/t)
        # by whole nodes instead (d/dt = dS/dt d/dS), with one Richardson step
        f = grid_combine([(0.6, shifted_bump(t, 0)), (0.2, shifted_bump(t, 2))])
        if name == "s-proj":
            got = s_proj_diff(t, f, 1.0, f.zeros_like())[1]
            at = lambda s: s_proj(s, f)[1]
        else:
            got = h_diff(t, f, 1.0, f.zeros_like())
            at = lambda s: h_eval(s, f)
        S = shift_amount(t)
        terms = [(1.0, got)]
        for nodes, weight in ((1, 4.0 / 3.0), (2, -1.0 / 3.0)):
            D = nodes * 1e-3
            c = weight * (-S / t**2) / (2.0 * D)
            terms += [(-c, at(1.0 / math.log(S + D))), (c, at(1.0 / math.log(S - D)))]
        err = grid_sobolev_norm(grid_combine(terms), 0, 0.0)
        assert err <= 1e-6 * grid_sobolev_norm(got, 0, 0.0)


class TestGatedShear:
    def test_round_trip_from_plain_inputs(self):
        t, y0 = 0.4, 0.8
        f = _test_input(t)
        img = s_tilde_eval(t, y0, f)
        pre = s_tilde_inv(img.t, img.y, img.f)
        assert pre.y.to_real() == pytest.approx(y0, rel=1e-9)
        f_back = pre.f.materialize()
        diff = grid_combine([(1.0, f_back), (-1.0, f)])
        rel = grid_sobolev_norm(diff, 0, 0.0) / grid_sobolev_norm(f, 0, 0.0)
        assert rel < 1e-9

    def test_bump_coefficient_of_image_is_gate_value(self):
        t = 0.4
        b = shifted_bump(t, 0)
        img = s_tilde_eval(t, 1.0, b)
        # the function output's coefficient along the bump is exactly phi(t)
        assert img.f.along.sign == 1
        assert img.f.along.logmag == phi_gate(t).logmag

    def test_inverse_blows_up_on_tail_data(self):
        delta = 0.1
        tail = AnalyticTailFunction.inverse_square_tail(delta)
        prev = -math.inf
        for t in (0.5, 0.4, 0.3):
            pre = s_tilde_inv(t, 0.0, tail)
            # y = <tail, b_t> / phi(t): the gate denominator dominates
            floor = (
                math.exp(1.0 / (t * t))
                - 2.0 * delta * shift_amount(t)
                - 2.0 / t
                - math.log(4.0)
            )
            assert pre.y.logmag >= floor
            assert pre.y.logmag > prev
            prev = pre.y.logmag

    def test_bump_terms_are_one_combination(self):
        # f - <f, b_t> b_t and orth + c b_t, each one grid_combine of f and b_t
        t = 0.4
        f, b = _test_input(t), shifted_bump(t, 0)
        orth = grid_combine([(1.0, f), (-pair_with_bump(f, t), b)])
        for got in (s_tilde_eval(t, 0.8, f).f, s_tilde_inv(t, 0.8, f).f):
            assert (got.orth.x0, got.orth.values.tolist()) == (orth.x0, orth.values.tolist())
        split = s_tilde_eval(t, 0.8, f).f
        want = grid_combine([(1.0, orth), (split.along.to_real(), b)])
        got = split.materialize()
        assert (got.x0, got.values.tolist()) == (want.x0, want.values.tolist())
        far = GridFunction(5.0, 1e-3, np.ones(11))
        assert s_tilde_eval(t, 0.8, far).f.orth is far
        assert s_tilde_inv(t, 0.8, far).f.orth is far

    def test_identity_below_zero(self):
        f = _test_input(0.4)
        img = s_tilde_eval(-0.2, 0.7, f)
        assert img.y.to_real() == 0.7
        assert img.f.orth is f
        assert img.f.along.is_zero


class TestBranchingFamily:
    def test_trivial_zero_branch(self):
        t = 0.4
        z = _test_input(t).zeros_like()
        out = h_eval(t, z)
        assert grid_sobolev_norm(out, 0, 0.0) == 0.0

    def test_second_zero_branch(self):
        t = 0.45
        _, coeff = h_zero_branch(t)
        f = shifted_bump(t, 0).scaled(coeff.to_real())
        out = h_eval(t, f)
        assert grid_sobolev_norm(out, 0, 0.0) < 1e-12 * coeff.to_real()

    def test_branch_coefficient_is_gate(self):
        for t in (0.5, 0.3):
            _, coeff = h_zero_branch(t)
            assert coeff.logmag == phi_gate(t).logmag
        _, coeff = h_zero_branch(-1.0)
        assert coeff.is_zero

    def test_differential_at_origin_is_near_projection(self):
        # at the trivial branch the f-differential is F - (1 - g(t))<F,b>b,
        # within a gate-sized correction of the orthogonal projection
        t = 0.4
        F = _test_input(t)
        z = F.zeros_like()
        out = h_diff(t, z, 0.0, F)
        _, proj = s_proj(t, F)
        diff = grid_combine([(1.0, out), (-1.0, proj)])
        assert grid_sobolev_norm(diff, 0, 0.0) < 1e-12

    def test_phi_family_partials(self):
        t = 0.5
        g = phi_gate(t).to_real()
        for x in (0.25, -0.5, 1.0):
            xl = LogScalar.from_real(x)
            assert phi_value(t, xl).to_real() == pytest.approx(
                x * (1 - g + x), rel=1e-12
            )
            assert phi_dx(t, xl).to_real() == pytest.approx(1 - g + 2 * x, rel=1e-12)
            # dt check against a closed form in log space
            dt = phi_dt(t, xl)
            expected = math.log(2.0) - 3 * math.log(t) + 1 / t**2 + phi_gate(t).logmag
            assert dt.sign == -int(math.copysign(1, x))
            assert dt.logmag == pytest.approx(expected + math.log(abs(x)), rel=1e-12)

    def test_fixed_point_residuals(self):
        for t in (0.5, 0.4, 0.3):
            g = phi_gate(t)
            val = phi_value(t, g)  # phi_t(g(t)) should equal g(t)^2... check root
            # x = g(t) solves x(1 - g + x) = x, i.e. value - x = x(x - g) = 0
            residual = val.add(g.neg())
            assert residual.is_zero or residual.logmag < g.logmag - 30.0


class TestTransversality:
    def test_midpoint_identity_and_route_agreement(self):
        # t = 0.06 and 0.045 lie below the grid bound: q is still <b_t, b_t>
        for t in (0.5, 0.4, 0.3, 0.06, 0.045):
            data = h_transversality_data(t)
            assert data.midpoint_identity
            a, b = data.witness_value, data.witness_value_partial_route
            assert a.sign == b.sign == 1
            tol = 1e-12 * max(1.0, abs(a.logmag))
            assert abs(a.logmag - b.logmag) <= tol

    def test_failure_coeff_is_half_gate(self):
        t = 0.4
        data = h_transversality_data(t)
        assert data.failure_coeff.logmag == pytest.approx(
            phi_gate(t).logmag + math.log(0.5), rel=1e-15
        )

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            h_transversality_data(0.0)


class TestSeqDiffeo:
    def test_known_values_at_one_third(self):
        # at t = 1/3: n = 2 sits on its left plateau (factor 1), n = 3 on its
        # right plateau (factor 1/2)
        x = SeqVector(np.array([0.0, 1.0, 1.0]))
        out = seq_diffeo(1.0 / 3.0, x)
        assert out.coeffs[1] == 1.0
        assert out.coeffs[2] == 0.5

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(7)
        x = SeqVector(rng.normal(size=16))
        for t in (0.05, 0.21, 1.0 / 3.0, 0.7, -0.2):
            y = seq_diffeo(t, x)
            back = seq_diffeo_inv(t, y)
            assert np.allclose(back.coeffs, x.coeffs, rtol=1e-14)

    def test_identity_for_small_and_halving_for_large_t(self):
        x = SeqVector(np.ones(8))
        out_small = seq_diffeo(-1.0, x)
        assert np.all(out_small.coeffs == 1.0)
        out_large = seq_diffeo(2.0, x)
        assert np.all(out_large.coeffs == 0.5)

    def test_rho_k_single_surviving_mode(self):
        # t in (1/(n+1), 1/n) activates only mode n for k >= 1
        for n in (2, 4, 7):
            t = 0.5 * (1.0 / (n + 1) + 1.0 / n)
            x = SeqVector(np.ones(10))
            out = rho_k_eval(1, t, x)
            nz = np.nonzero(out.coeffs)[0]
            assert list(nz) == [n - 1]

    def test_rho_k_vanishes_at_zero_and_on_plateaus(self):
        x = SeqVector(np.ones(10))
        for k in (1, 2, 3):
            assert seq_norm(rho_k_eval(k, 0.0, x), 0) == 0.0
            assert seq_norm(rho_k_eval(k, -0.5, x), 0) == 0.0
            assert seq_norm(rho_k_eval(k, 2.0, x), 0) == 0.0

    def test_tangent_is_sum_of_parts(self):
        t = 0.29
        x = SeqVector(np.ones(6))
        X = SeqVector(np.arange(1.0, 7.0))
        T = 0.7
        got = rho_k_tangent(0, t, x, T, X)
        expect = rho_k_eval(0, t, X).add(rho_k_eval(1, t, x).scaled(T))
        assert np.allclose(got.coeffs, expect.coeffs, rtol=1e-14)

    def test_tangent_serves_the_whole_family(self):
        t = 0.29
        x = SeqVector(np.ones(6))
        X = SeqVector(np.arange(1.0, 7.0))
        got = rho_k_tangent(K_MAX, t, x, 0.7, X)
        top = SeqVector(step_n(np.arange(1, 7), t, K_MAX + 1) * x.coeffs)
        expect = rho_k_eval(K_MAX, t, X).add(top.scaled(0.7))
        assert np.array_equal(got.coeffs, expect.coeffs)
        with pytest.raises(ValueError):
            rho_k_tangent(K_MAX + 1, t, x, 0.7, X)
        with pytest.raises(ValueError):
            rho_k_eval(K_MAX + 1, t, x)

    def test_derivative_family_unbounded_in_n(self):
        # sup over t of the k-th derivative factor grows like n^(2k)
        sups = []
        for n in (2, 4, 8):
            ts = np.linspace(1.0 / (n + 1), 1.0 / n, 400)
            x = SeqVector.basis(n)
            sups.append(max(seq_norm(rho_k_eval(1, t, x), 0) for t in ts))
        assert sups[1] > 3.0 * sups[0]
        assert sups[2] > 3.0 * sups[1]

    def test_maps_match_per_coefficient_factors_bitwise(self):
        # reference: the per-coefficient form, one scalar step_n call per n
        def factors(k, t, dim):
            return np.array([step_n(n, t, k) for n in range(1, dim + 1)])

        def same_bits(a, b):
            return np.array_equal(a.coeffs.view(np.int64), b.coeffs.view(np.int64))

        rng = np.random.default_rng(11)
        x = SeqVector(rng.normal(size=40))
        for t in (-0.2, 0.0, 0.05, 0.21, 1.0 / 3.0, 0.29, 0.5, 0.7, 1.4):
            ref = SeqVector(factors(0, t, x.dim) * x.coeffs)
            assert same_bits(seq_diffeo(t, x), ref)
            ref = SeqVector(x.coeffs / factors(0, t, x.dim))
            assert same_bits(seq_diffeo_inv(t, x), ref)
            if t > 0:
                for k in range(1, K_MAX + 1):
                    ref = SeqVector(factors(k, t, x.dim) * x.coeffs)
                    assert same_bits(rho_k_eval(k, t, x), ref)
