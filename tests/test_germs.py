import dataclasses
import math

import numpy as np
import pytest

from sclab import germs
from sclab.germs import (
    GERM_IDS,
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
from sclab.scale_core import WeightSchedule, grid_l2_inner


def _pairings(ctx, j):
    """L2 pairings of every atom with atom j, one quadrature each."""
    return np.array([grid_l2_inner(a, ctx.atoms[j]) for a in ctx.atoms])


def _one_vector_B(germ, ctx):
    """B(c, w) on one coefficient vector over the atoms of ctx, as the germs
    computed it before they acted on row stacks."""
    m = ctx.dim
    if germ.name == "rank-one":
        pairs = _pairings(ctx, 0)
        return lambda c, v: c * float(pairs @ v) * np.eye(m)[0]
    if germ.name == "quadratic":
        pairs = _pairings(ctx, 0)
        return lambda c, v: float(pairs @ v) * v
    pairs = _pairings(ctx, m - 1)

    def moving(c, v):
        out = np.zeros(m)
        if c > 0.0 and m > 4:
            out[-1] = float(pairs @ v)
        return out

    return moving


def _per_sample_modulus(germ, level, delta, n_samples=40, seed=0):
    """The per-sample modulus loop that modulus_with_count replaced."""
    rng = np.random.default_rng(seed)
    worst, used = 0.0, 0
    for trial in range(n_samples):
        c = germ.sample_c(rng, delta)
        if c is None:
            continue
        ctx = germ.context_for(c)
        g, m, B = ctx.gram(level), ctx.dim, _one_vector_B(germ, ctx)

        def scaled(v, radius):
            return v * (radius / math.sqrt(max(float(v @ g @ v), 1e-300)))

        def draw(radius):
            return scaled(rng.normal(size=m), radius)

        r1 = 0.999 * delta if trial % 2 == 0 else delta * rng.uniform(0.05, 0.95)
        w1 = draw(r1)
        pairs = [
            (w1, np.zeros(m)),
            (w1, draw(delta * rng.uniform(0.05, 0.95))),
            (w1, w1 + draw(1e-3 * delta)),
        ]
        if germ.c_dependent_atoms:
            pairs.append((scaled(np.eye(m)[-1], r1), np.zeros(m)))
        for wa, wb in pairs:
            d = wa - wb
            denom = math.sqrt(max(0.0, float(d @ g @ d)))
            if denom == 0.0:
                continue
            d = B(c, wa) - B(c, wb)
            worst = max(worst, math.sqrt(max(0.0, float(d @ g @ d))) / denom)
            used += 1
    return worst, used


def _per_sample_dW(germ, level, radius, n_samples=12, seed=1, h=1e-6):
    """The per-sample differential probe that dW_opnorm_probe replaced."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_samples):
        c = germ.sample_c(rng, radius)
        if c is None:
            continue
        ctx = germ.context_for(c)
        g, m, B = ctx.gram(level), ctx.dim, _one_vector_B(germ, ctx)

        def unit(v):
            return v / math.sqrt(max(float(v @ g @ v), 1e-300))

        w = unit(rng.normal(size=m)) * (
            0.999 * radius if trial % 2 == 0 else radius * rng.uniform(0.05, 0.95)
        )
        directions = [unit(np.eye(m)[j]) for j in range(m)] + [unit(rng.normal(size=m))]
        for d in directions:
            row = (B(c, w + h * d) - B(c, w - h * d)) / (2.0 * h)
            worst = max(worst, math.sqrt(max(0.0, float(row @ g @ row))))
    return worst


# the moving bump's weight at levels 1-2 stays finite for c above 0.15
_RADII = {
    "rank-one": (0.5, 0.2, 0.05, 0.01),
    "quadratic": (0.5, 0.2, 0.05, 0.01),
    "moving-bump": (0.5, 0.4, 0.35, 0.3),
}


class TestStackedSampling:
    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_modulus_equals_the_per_sample_loop(self, gid, level):
        germ = make_germ(gid)
        for delta in _RADII[gid]:
            for seed in range(5):
                res = modulus_with_count(germ, level, delta, seed=seed)
                assert (res.worst_ratio, res.samples) == _per_sample_modulus(
                    germ, level, delta, seed=seed
                )

    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_dW_probe_equals_the_per_sample_loop(self, gid, level):
        germ = make_germ(gid)
        for radius in _RADII[gid]:
            for seed in range(5):
                assert dW_opnorm_probe(germ, level, radius, seed=seed) == _per_sample_dW(
                    germ, level, radius, seed=seed
                )

    def test_trials_of_two_context_dimensions(self):
        # c <= 0 or too small for a representable bump gives the 4-atom base
        # context, larger c a 5-atom one: the trials stack in two groups
        germ = dataclasses.replace(make_germ("moving-bump"), sample_c=germs._symmetric_sampler)
        for delta in (0.5, 0.3):
            for seed in range(5):
                res = modulus_with_count(germ, 0, delta, seed=seed)
                assert (res.worst_ratio, res.samples) == _per_sample_modulus(
                    germ, 0, delta, seed=seed
                )
                assert dW_opnorm_probe(germ, 0, delta, seed=seed) == _per_sample_dW(
                    germ, 0, delta, seed=seed
                )

    @pytest.mark.parametrize("gid", GERM_IDS)
    def test_stacked_B_equals_per_row_B(self, gid):
        germ = make_germ(gid)
        rng = np.random.default_rng(3)
        c = rng.uniform(0.1, 0.45, size=30)
        c[:3] = (-0.2, 0.0, -0.0)
        # rows at c <= 0 over a moving-bump context still map to zero
        ctxs = [germ.context_for(max(ci, 0.3)) for ci in c]
        v = rng.normal(size=(30, ctxs[0].dim)) * rng.uniform(1e-3, 10.0, size=(30, 1))
        stacked = germ.B(c, v, ctxs)
        per_row = np.stack(
            [germ.B(c[i : i + 1], v[i : i + 1], ctxs[i : i + 1])[0] for i in range(30)]
        )
        one_vector = np.stack([_one_vector_B(germ, ctxs[i])(c[i], v[i]) for i in range(30)])
        assert stacked.shape == v.shape
        assert np.array_equal(stacked, per_row)
        assert np.array_equal(stacked, one_vector)
        if gid == "moving-bump":
            assert not stacked[:3].any() and stacked[3:, -1].all()

    @pytest.mark.parametrize(
        "schedule", [WeightSchedule.default(), WeightSchedule((0.05, 0.1, 0.2))]
    )
    def test_pairings_are_rows_of_the_l2_gram(self, schedule):
        germ = make_moving_bump_pseudo_germ(schedule)
        for ctx in (germ.context_for(0.0), germ.context_for(0.2), germ.context_for(0.4)):
            for j in range(ctx.dim):
                pairs = ctx.l2_pair_vector(j)
                assert np.array_equal(pairs, _pairings(ctx, j))
                assert pairs.flags.c_contiguous and not pairs.flags.writeable
        # only a schedule with delta_0 = 0 shares the level-0 Gram matrix
        ctx = germ.context_for(0.2)
        assert (ctx.l2_gram() is ctx.gram(0)) == (schedule.delta(0) == 0.0)

    def test_replay_recomputes_every_certified_pair(self, monkeypatch):
        germ = make_germ("quadratic")
        cert = certify(germ, 1, epsilons=(0.5, 0.25, 0.1))
        calls = []
        modulus = germs.modulus_with_count

        def counting(*args, **kwargs):
            calls.append(args)
            return modulus(*args, **kwargs)

        monkeypatch.setattr(germs, "modulus_with_count", counting)
        assert replay_certificate(germ, cert)
        assert [args[2] for args in calls] == [p.delta for p in cert.pairs]
        assert replay_certificate(germ, cert)
        assert len(calls) == 2 * len(cert.pairs)


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
        for level in range(3):
            if c == 0.1 and level > 0:
                # the weight exp(2 delta |x|) overflows on the bump's window
                for context in (ctx, fresh):
                    with pytest.raises(OverflowError, match="delta="):
                        context.gram(level)
                continue
            assert np.array_equal(ctx.gram(level), fresh.gram(level))

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
