import math

import numpy as np
import pytest

from sclab import germs
from sclab.germs import (
    DegenerateSampleError,
    GermContext,
    certificate_from_json,
    certificate_to_json,
    certify,
    contraction_modulus,
    dW_opnorm_probe,
    germ_continuity_report,
    germ_eval,
    make_germ,
    make_moving_bump_pseudo_germ,
    make_quadratic_germ,
    make_rank_one_germ,
    modulus_with_count,
    openness_probe,
    radius_shrink_probes,
    replay_certificate,
)
from sclab.scale_core import WeightSchedule


class TestGermEval:
    def test_rank_one_at_origin(self):
        germ = make_rank_one_germ()
        ctx = germ.context_for(0.0)
        v = np.zeros(ctx.dim)
        a, w = germ_eval(germ, 0.3, v)
        assert a == 0.3
        assert np.all(w == 0.0)

    def test_rank_one_linear_in_w(self):
        germ = make_rank_one_germ()
        ctx = germ.context_for(0.2)
        rng = np.random.default_rng(0)
        v1, v2 = rng.normal(size=ctx.dim), rng.normal(size=ctx.dim)
        _, w1 = germ_eval(germ, 0.2, v1, ctx)
        _, w2 = germ_eval(germ, 0.2, v2, ctx)
        _, wsum = germ_eval(germ, 0.2, v1 + v2, ctx)
        assert np.allclose(wsum, w1 + w2, rtol=1e-13)

    def test_quadratic_kills_unit_bump(self):
        # B(c, w) = <w, b> w, so at w = b (unit L2 mass) the output w-part
        # collapses: b - <b, b> b ~ 0 up to quadrature error
        germ = make_quadratic_germ()
        ctx = germ.context_for(0.0)
        e_bump = np.eye(ctx.dim)[0]
        _, w = germ_eval(germ, 0.0, e_bump, ctx)
        assert ctx.norm(w, 0) < 1e-8

    def test_moving_bump_vanishes_for_nonpositive_c(self):
        germ = make_moving_bump_pseudo_germ()
        ctx = germ.context_for(-0.5)
        v = np.ones(ctx.dim)
        _, w = germ_eval(germ, -0.5, v, ctx)
        assert np.allclose(w, v)


class TestContractionModulus:
    def test_rank_one_bounded_by_radius(self):
        germ = make_rank_one_germ()
        for delta in (0.5, 0.25, 0.1):
            mod = contraction_modulus(germ, 1, delta, seed=0)
            # |c| < delta and the projection has norm <= 1 at level 0; at
            # level 1 the metric distortion is bounded by a fixed constant
            assert mod <= 3.0 * delta

    def test_modulus_shrinks_with_radius(self):
        for germ in (make_rank_one_germ(), make_quadratic_germ()):
            m_big = contraction_modulus(germ, 1, 0.5, seed=0)
            m_small = contraction_modulus(germ, 1, 0.01, seed=0)
            assert m_small < m_big
            assert m_small < 0.1

    def test_moving_bump_stays_near_one(self):
        germ = make_moving_bump_pseudo_germ()
        mod = contraction_modulus(germ, 0, 0.3, seed=0)
        assert mod >= 0.9

    def test_deterministic_given_seed(self):
        germ = make_quadratic_germ()
        r1 = modulus_with_count(germ, 1, 0.2, seed=5)
        r2 = modulus_with_count(germ, 1, 0.2, seed=5)
        assert r1 == r2

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            contraction_modulus(make_rank_one_germ(), 0, 0.0)

    def test_degenerate_sampling_raises(self):
        germ = make_moving_bump_pseudo_germ()
        # below the representability floor no parameter can be drawn
        with pytest.raises(DegenerateSampleError):
            modulus_with_count(germ, 0, 0.05)


class TestCertificates:
    def test_certify_contracting_germs(self):
        for gid in ("rank-one", "quadratic"):
            cert = certify(make_germ(gid), 1, epsilons=(0.5, 0.25, 0.1))
            assert cert.all_certified
            deltas = [p.delta for p in cert.pairs]
            assert all(b <= a for a, b in zip(deltas, deltas[1:]))
            for p in cert.pairs:
                assert p.worst_ratio <= p.epsilon

    def test_moving_bump_fails_certification(self):
        cert = certify(
            make_germ("moving-bump"), 0, epsilons=(0.5,), max_halvings=4
        )
        assert not cert.all_certified

    def test_json_round_trip(self):
        cert = certify(make_germ("rank-one"), 1, epsilons=(0.25,))
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text

    def test_replay_is_bit_exact(self):
        germ = make_germ("quadratic")
        cert = certify(germ, 1, epsilons=(0.5, 0.1))
        assert replay_certificate(germ, cert)

    def test_replay_detects_tampering(self):
        germ = make_germ("rank-one")
        cert = certify(germ, 1, epsilons=(0.25,))
        text = certificate_to_json(cert)
        tampered = certificate_from_json(
            text.replace(repr(cert.pairs[0].worst_ratio), "0.123")
        )
        assert not replay_certificate(germ, tampered)


class TestDifferentialLaw:
    def test_two_epsilon_law_for_contracting_germs(self):
        for gid in ("rank-one", "quadratic"):
            rep = germ_continuity_report(make_germ(gid), 1)
            assert rep.contracting
            assert rep.two_epsilon_law_ok
            for row in rep.rows:
                assert row.dw_opnorm <= 2.0 * row.epsilon + 1e-8

    def test_moving_bump_flagged_not_raised(self):
        rep = germ_continuity_report(make_germ("moving-bump"), 0, epsilons=(0.5,))
        assert not rep.contracting
        assert not rep.two_epsilon_law_ok

    def test_parameter_part_stays_continuous(self):
        rep = germ_continuity_report(make_germ("rank-one"), 1)
        assert rep.da_variation < 1e-4

    def test_radius_shrink_probes_decay(self):
        germ = make_germ("rank-one")
        probes = radius_shrink_probes(germ, 1, 0.2)
        vals = [v for _, v in probes]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    def test_dw_probe_zero_map(self):
        germ = make_germ("moving-bump")
        # below the sampler floor the probe cannot draw any parameter
        with pytest.raises(DegenerateSampleError):
            dW_opnorm_probe(germ, 0, 0.05)


class TestOpenness:
    def test_contracting_germs_keep_invertible_differential(self):
        for gid in ("rank-one", "quadratic"):
            rep = openness_probe(make_germ(gid), 1, 0.1)
            assert rep.passed
            assert bool(rep)
            assert rep.worst_cond <= 2.0 * rep.cond_at_zero
            assert rep.cond_at_zero < 1.5

    def test_report_rows_cover_origin(self):
        rep = openness_probe(make_germ("rank-one"), 1, 0.1)
        assert rep.rows[0] == (0.0, 0.0, rep.cond_at_zero)
        assert len(rep.rows) >= 3


class TestFactory:
    def test_known_ids(self):
        for gid in ("rank-one", "quadratic", "moving-bump"):
            assert make_germ(gid).name == gid

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            make_germ("nope")


class TestContexts:
    @pytest.mark.parametrize("c", [0.1, 0.3, 0.5, 0.7])
    def test_moving_bump_gram_matches_a_fresh_context(self, c):
        ctx = make_moving_bump_pseudo_germ().context_for(c)
        fresh = GermContext(ctx.atoms, ctx.schedule)
        assert ctx.base is not None and ctx.dim == 5
        # at c = 0.1 the level-1 and level-2 weights exp(2 delta |x|) overflow
        # on the bump's window, so both contexts hold the same NaN there
        with np.errstate(over="ignore", invalid="ignore"):
            for level in range(3):
                assert np.array_equal(ctx.gram(level), fresh.gram(level), equal_nan=True)

    def test_extension_integrates_only_the_new_row(self, monkeypatch):
        germ = make_moving_bump_pseudo_germ()
        germ.context_for(0.0).gram(1)
        calls = []
        inner = germs.grid_sobolev_inner

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(germs, "grid_sobolev_inner", counting)
        ctx = germ.context_for(0.3)
        ctx.gram(1)
        assert ctx.dim == 5
        assert len(calls) == 5

    def test_factories_share_the_base_context(self):
        base = make_rank_one_germ(WeightSchedule.default()).context_for(0.2)
        assert make_quadratic_germ(WeightSchedule.default()).context_for(0.0) is base
        moving = make_moving_bump_pseudo_germ(WeightSchedule.default())
        assert moving.context_for(-0.1) is base
        assert moving.context_for(0.3).base is base

    def test_cached_arrays_are_read_only(self):
        ctx = make_moving_bump_pseudo_germ().context_for(0.3)
        for arr in (ctx.gram(0), ctx.base.gram(0), ctx.l2_pair_vector(4), ctx.base.l2_pair_vector(0)):
            assert not arr.flags.writeable
