import dataclasses
import functools
import json
import math
from collections import Counter

import numpy as np
import pytest

from sclab import bump_profiles, experiments, germs, scale_core
from sclab.bump_profiles import DEFAULT_SPACING, bump_self_pairing, shifted_bump
from sclab.experiments import ExperimentConfig, run
from sclab.germs import (
    GERM_IDS,
    CertifiedPair,
    ContractionCertificate,
    GermContext,
    certificate_from_json,
    certificate_to_json,
    certify,
    dW_opnorm_probe,
    make_germ,
    modulus_with_count,
    openness_probe,
    replay_certificate,
)
from sclab.operator_probe import OperatorHandle, metric_singular_values, truncation_opnorm
from sclab.scale_core import (
    WeightSchedule,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_gram,
    grid_sobolev_inner,
    grid_sobolev_norms,
)

from independent_routes import (
    closed_form_atom_gram,
    germ_point,
    level_norm,
    moving_bump_ratio,
    own_window_gram,
)


_U = 2.0**-53  # the unit roundoff of float64


def _grid_atoms(ctx, c, spacing=DEFAULT_SPACING):
    """The coordinates of ctx at parameter c > 0 as grid functions: the
    atoms, and for a moving-bump context the escaping bump b_c, unscaled
    (its L2 coordinate), sampled with shifted_bump."""
    atoms = germs._atoms(spacing)
    if ctx.dim == len(atoms):
        return atoms
    return atoms + (shifted_bump(c, 0, spacing),)


def _pairings(ctx, c, j, spacing=DEFAULT_SPACING):
    """L2 pairings of every coordinate with coordinate j, one quadrature each."""
    atoms = _grid_atoms(ctx, c, spacing)
    return np.array([grid_l2_inner(a, atoms[j]) for a in atoms])


def _one_vector_B(germ, c):
    """B(c, w) on one coefficient vector, as the germs computed it before
    they acted on row stacks.  The moving bump's B = <w, b_c> b_c is taken in
    the L2 coordinate of b_c; it maps the bump coordinate v_m to q v_m in any
    scaling of that coordinate."""
    ctx = germ.context_for(c)
    m = ctx.dim
    if germ.name == "rank-one":
        pairs = _pairings(ctx, c, 0)
        return lambda c, v: c * float(pairs @ v) * np.eye(m)[0]
    if germ.name == "quadratic":
        pairs = _pairings(ctx, c, 0)
        return lambda c, v: float(pairs @ v) * v
    pairs = _pairings(ctx, c, m - 1)

    def moving(c, v):
        out = np.zeros(m)
        if c > 0.0:
            out[-1] = float(pairs @ v)
        return out

    return moving


def _sample_c(germ, rng, delta, n):
    """The n parameters at radius delta as the probes drew them when they
    took one radius: Generator.uniform(lo, hi, n) over c_range(delta)."""
    return rng.uniform(*germ.c_range(delta), n)


def _rescaler(g):
    """v rescaled to a given level norm, floored like the probes, in Python
    floats for one vector."""
    return lambda v, radius: v * (radius / math.sqrt(max(float(v @ g @ v), 1e-300)))


def _per_sample_modulus(germ, level, delta, n_samples=40, seed=0):
    """modulus_with_count one trial and one vector at a time, on the draws
    it reads (c, r1 uniforms, (3, n, m) normals, r2 uniforms); every trial
    has a pair with w1 != w2, its (w1, 0) pair."""
    rng = np.random.default_rng(seed)
    cs = _sample_c(germ, rng, delta, n_samples)
    u1 = rng.uniform(0.05, 0.95, n_samples)
    normals = rng.normal(size=(3, n_samples, germ.context.dim))
    u2 = rng.uniform(0.05, 0.95, n_samples)
    g, m = germ.context.gram(level), germ.context.dim
    scaled = _rescaler(g)
    worst = 0.0
    for trial, c in enumerate(cs.tolist()):
        B = _one_vector_B(germ, c)
        n1, n2, n3 = normals[:, trial]
        r1 = 0.999 * delta if trial % 2 == 0 else delta * float(u1[trial])
        w1 = scaled(n1, r1)
        pairs = [
            (w1, np.zeros(m)),
            (w1, scaled(n2, delta * float(u2[trial]))),
            (w1, w1 + scaled(n3, 1e-3 * delta)),
        ]
        for wa, wb in pairs:
            d = wa - wb
            denom = math.sqrt(max(0.0, float(d @ g @ d)))
            if denom == 0.0:
                continue
            d = B(c, wa) - B(c, wb)
            worst = max(worst, math.sqrt(max(0.0, float(d @ g @ d))) / denom)
    return worst


def _per_sample_dW(germ, level, radius, n_samples=12, seed=1, h=1e-6):
    """A finite-difference lower bound for dW_opnorm_probe, one trial and one
    direction at a time: the largest central difference of B along each atom
    and one random direction, at the probe's base points (its c and r draws,
    and w from the first of (2, n, m) normals, whose first n m values are
    the probe's (n, m) draw)."""
    rng = np.random.default_rng(seed)
    cs = _sample_c(germ, rng, radius, n_samples)
    u = rng.uniform(0.05, 0.95, n_samples)
    n0, nd = rng.normal(size=(2, n_samples, germ.context.dim))
    g, m = germ.context.gram(level), germ.context.dim
    scaled = _rescaler(g)
    worst = 0.0
    for trial, c in enumerate(cs.tolist()):
        B = _one_vector_B(germ, c)
        r = 0.999 * radius if trial % 2 == 0 else radius * float(u[trial])
        w = scaled(n0[trial], r)
        directions = [scaled(np.eye(m)[j], 1.0) for j in range(m)] + [scaled(nd[trial], 1.0)]
        for d in directions:
            row = (B(c, w + h * d) - B(c, w - h * d)) / (2.0 * h)
            worst = max(worst, math.sqrt(max(0.0, float(row @ g @ row))))
    return worst


def _per_trial_dW(germ, level, radius, n_samples=12, seed=1):
    """dW_opnorm_probe one trial at a time: the operator norm of D_wB from
    dB at each base point, one truncation_opnorm call per trial."""
    rng = np.random.default_rng(seed)
    cs = _sample_c(germ, rng, radius, n_samples)
    u = rng.uniform(0.05, 0.95, n_samples)
    normals = rng.normal(size=(n_samples, germ.context.dim))
    g = germ.context.gram(level)
    scaled = _rescaler(g)
    worst = 0.0
    for trial, c in enumerate(cs.tolist()):
        r = 0.999 * radius if trial % 2 == 0 else radius * float(u[trial])
        dw = germ.dB(np.array([c]), scaled(normals[trial], r)[None, :])[0, :, 1:]
        worst = max(worst, truncation_opnorm(OperatorHandle(dw, g, g)))
    return worst


def _per_point_openness(germ, level, radius, seed=2, h=1e-6):
    """openness_probe's rows one point at a time, with the differential
    taken by central differences of (c, w) -> (c, w - B): one
    normal(size=m) draw per c and one metric_singular_values call per
    point."""
    rng = np.random.default_rng(seed)
    g, m = germ.context.gram(level), germ.context.dim
    gram = np.block([[np.ones((1, 1)), np.zeros((1, m))], [np.zeros((m, 1)), g]])
    eye = np.eye(1 + m)

    def full(x):
        a, w = germ_point(germ, x[0], x[1:])
        return np.concatenate(([a], w))

    def cond(c, v):
        x = np.concatenate(([c], v))
        cols = np.array([(full(x + h * e) - full(x - h * e)) / (2.0 * h) for e in eye])
        sv = metric_singular_values(OperatorHandle(cols.T, gram, gram))
        return math.inf if sv[-1] <= 1e-300 else float(sv[0] / sv[-1])

    rows = [(0.0, 0.0, cond(0.0, np.zeros(m)))]
    for c in (0.9 * radius, -0.9 * radius, 0.5 * radius):
        rows.append((c, 0.0, cond(c, np.zeros(m))))
        v = _rescaler(g)(rng.normal(size=m), 0.5 * radius)
        rows.append((c, 0.5 * radius, cond(c, v)))
    return rows


class _CountingGenerator:
    """A numpy Generator that records the name of every method called."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


# the one-vector reference samples the moving bump's b_c on the grid, which
# needs c > 1/ln(MAX_SHIFT) ~ 0.0724: its radii keep 0.5 delta above that
_RADII = {
    "rank-one": (0.5, 0.2, 0.05, 0.01),
    "quadratic": (0.5, 0.2, 0.05, 0.01),
    "moving-bump": (0.5, 0.3, 0.2, 0.15),
}


class TestStackedSampling:
    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_modulus_equals_the_per_sample_loop(self, gid, level):
        germ = make_germ(gid)
        for seed in range(5):
            results = modulus_with_count(germ, level, _RADII[gid], seed=seed)
            for delta, worst in zip(_RADII[gid], results):
                assert worst == _per_sample_modulus(germ, level, delta, seed=seed)

    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_dW_probe_equals_the_per_trial_loop(self, gid, level):
        germ = make_germ(gid)
        for seed in range(5):
            probes = dW_opnorm_probe(germ, level, _RADII[gid], seed=seed)
            for radius, probe in zip(_RADII[gid], probes):
                assert probe == _per_trial_dW(germ, level, radius, seed=seed)
                # the exact norm bounds every directional difference
                fd = _per_sample_dW(germ, level, radius, seed=seed)
                assert probe >= fd * (1.0 - 1e-8)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_rank_one_dW_probe_is_the_closed_form(self, level):
        # D_wB = c e (x) p has level-i norm |c| ||e||_i ||p||_{i,*}, with the
        # dual norm ||p||_{i,*} = sqrt(p G_i^-1 p)
        germ = make_germ("rank-one")
        g = germ.context.gram(level)
        p = _pairings(germ.context, 0.0, 0)
        e_norm = math.sqrt(g[0, 0])
        p_dual = math.sqrt(float(p @ np.linalg.solve(g, p)))
        for radius in _RADII["rank-one"]:
            for seed in range(5):
                c = _sample_c(germ, np.random.default_rng(seed), radius, 12)
                want = float(np.abs(c).max()) * e_norm * p_dual
                (got,) = dW_opnorm_probe(germ, level, [radius], seed=seed)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_openness_matches_the_finite_difference_loop(self, gid, level):
        germ = make_germ(gid)
        radii = (0.3, 0.2, 0.15) if gid == "moving-bump" else (0.1, 0.05, 0.01)
        for seed in range(3):
            reports = openness_probe(germ, level, radii, seed=seed)
            assert len(reports) == len(radii)
            for radius, rep in zip(radii, reports):
                rows = _per_point_openness(germ, level, radius, seed=seed)
                assert [row[:2] for row in rep.rows] == [row[:2] for row in rows]
                assert rep.rows[0][2] == pytest.approx(rows[0][2], rel=1e-8, abs=0.0)
                for (c, _, got), (_, _, want) in zip(rep.rows, rows):
                    if gid == "moving-bump" and c > 0.0:
                        # I - q e_m (x) e_m with q = <b_c, b_c> ~ 1 (exactly 1
                        # at some spacings) is singular to working precision
                        assert got >= 1e12 and want >= 1e12
                        continue
                    assert got == pytest.approx(want, rel=1e-8, abs=0.0)
                assert rep.cond_at_zero == rep.rows[0][2]
                assert rep.worst_cond == max(cond for _, _, cond in rep.rows)

    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_dB_matches_central_differences_of_B(self, gid, level):
        # the independent route: central differences of B along the c
        # direction and every coordinate, at sampled (c, w) in the level ball
        germ = make_germ(gid)
        g, m = germ.context.gram(level), germ.context.dim
        rng = np.random.default_rng(level)
        c = _sample_c(germ, rng, 0.3, 8)
        if gid == "moving-bump":
            c = np.concatenate((c, [-0.2, -0.05]))
        radii = rng.uniform(0.05, 0.3, len(c))
        v = np.array([_rescaler(g)(n, r) for n, r in zip(rng.normal(size=(len(c), m)), radii)])
        exact = germ.dB(c, v)
        assert exact.shape == (len(c), m, 1 + m)
        h = 1e-6
        cols = [
            (germ.B(c + h * d[0], v + h * d[1:]) - germ.B(c - h * d[0], v - h * d[1:])) / (2 * h)
            for d in np.eye(1 + m)
        ]
        fd = np.stack(cols, axis=2)
        for got, want in zip(fd, exact):
            # relative to the differential's largest entry; a zero one
            # (the moving bump at c <= 0) must difference to zero
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()
        if gid == "moving-bump":
            assert not exact[:, :, 0].any() and not exact[-2:].any()

    @pytest.mark.parametrize("gid", GERM_IDS)
    def test_generator_calls_do_not_grow_with_the_trials(self, gid, monkeypatch):
        germ = make_germ(gid)
        calls = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: _CountingGenerator(default_rng(seed), calls)
        )
        counts = {}
        for n in (40, 400):
            calls.clear()
            modulus_with_count(germ, 1, [0.3, 0.2], n_samples=n)
            dW_opnorm_probe(germ, 1, [0.3, 0.2], n_samples=n)
            counts[n] = list(calls)
        # once for all radii, the modulus: c (as uniform(size=n)), r1, the
        # normals, r2; the probe: c, r, the normals
        modulus = ["uniform", "uniform", "normal", "uniform"]
        probe = ["uniform", "uniform", "normal"]
        assert counts[40] == counts[400] == modulus + probe

    def test_openness_takes_one_singular_value_call(self, monkeypatch):
        calls = []
        svd = germs.metric_singular_values

        def counting(op):
            calls.append(op.matrix.shape)
            return svd(op)

        monkeypatch.setattr(germs, "metric_singular_values", counting)
        openness_probe(make_germ("rank-one"), 1, [0.1])
        openness_probe(make_germ("moving-bump"), 1, [0.3])
        openness_probe(make_germ("moving-bump"), 1, [0.3, 0.2, 0.15])
        # every germ draws the same seven points per radius
        assert calls == [(7, 5, 5), (7, 6, 6), (21, 6, 6)]

    @pytest.mark.parametrize("gid", GERM_IDS)
    def test_stacked_B_equals_per_row_B(self, gid):
        germ = make_germ(gid)
        rng = np.random.default_rng(3)
        c = rng.uniform(0.1, 0.45, size=30)
        c[:3] = (-0.2, 0.0, -0.0)
        # rows at c <= 0 map to zero; the reference samples b_c at c >= 0.3
        v = rng.normal(size=(30, germ.context.dim)) * rng.uniform(1e-3, 10.0, size=(30, 1))
        stacked = germ.B(c, v)
        per_row = np.stack([germ.B(c[i : i + 1], v[i : i + 1])[0] for i in range(30)])
        one_vector = np.stack(
            [_one_vector_B(germ, max(c[i], 0.3))(c[i], v[i]) for i in range(30)]
        )
        assert stacked.shape == v.shape
        assert np.array_equal(stacked, per_row)
        assert np.array_equal(stacked, one_vector)
        if gid == "moving-bump":
            assert not stacked[:3].any() and stacked[3:, -1].all()

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_bump_pairings_are_the_l2_row_for_every_schedule(self, spacing):
        # one read-only vector <a_j, b> serves every schedule; where
        # delta_0 = 0 it is row 0 of gram(0), bit for bit
        pairs = germs._bump_pairings(spacing)
        assert pairs.flags.c_contiguous and not pairs.flags.writeable
        for schedule in (WeightSchedule.default(), WeightSchedule((0.05, 0.1, 0.2))):
            ctx = make_germ("rank-one", schedule, spacing).context
            want = _pairings(ctx, 0.0, 0, spacing)
            assert np.array_equal(pairs.view(np.int64), want.view(np.int64))
            if schedule.delta(0) == 0.0:
                assert np.array_equal(pairs.view(np.int64), ctx.gram(0)[0].view(np.int64))
            assert germs._bump_pairings(spacing) is pairs
        # the unweighted level-0 Gram of the atom rows, row 0, bit for bit
        rows = [a.values for a in germs._atoms(spacing)]
        row_0 = grid_sobolev_gram(rows, 0, 0.0, -2.0, spacing)[0]
        assert np.array_equal(pairs.view(np.int64), row_0.view(np.int64))

    def test_replay_recomputes_every_certified_pair(self, monkeypatch):
        germ = make_germ("quadratic")
        cert = certify(germ, 1, epsilons=(0.5, 0.25, 0.1))
        calls = []
        modulus = germs.modulus_with_count

        def counting(*args, **kwargs):
            calls.append(list(args[2]))
            return modulus(*args, **kwargs)

        # one fresh call with exactly the certified radii, again on a replay
        monkeypatch.setattr(germs, "modulus_with_count", counting)
        assert replay_certificate(germ, cert)
        assert calls == [[p.delta for p in cert.pairs]]
        assert replay_certificate(germ, cert)
        assert calls == 2 * [[p.delta for p in cert.pairs]]


def _one_radius_modulus(germ, level, delta, n_samples=40, seed=0):
    """modulus_with_count as it was when it took one radius: a fresh
    generator and c drawn by Generator.uniform(lo, hi, n)."""
    rng = np.random.default_rng(seed)
    c = _sample_c(germ, rng, delta, n_samples)
    g = germ.context.gram(level)

    def scaled(v, radius):
        return v * (radius / np.sqrt(np.maximum(germs._quad(v, g), 1e-300)))[:, None]

    r1 = delta * rng.uniform(0.05, 0.95, n_samples)
    r1[::2] = 0.999 * delta
    n1, n2, n3 = rng.normal(size=(3, n_samples, len(g)))
    r2 = delta * rng.uniform(0.05, 0.95, n_samples)
    w1 = scaled(n1, r1)
    zero = np.zeros_like(w1)
    wa, wb = [w1, w1, w1], [zero, scaled(n2, r2), w1 + scaled(n3, 1e-3 * delta)]
    k = len(wa)
    wa, wb = np.concatenate(wa), np.concatenate(wb)
    denom = germs._norms(wa - wb, g)
    b = germ.B(np.tile(c, 2 * k), np.concatenate((wa, wb)))
    num = germs._norms(b[: len(wa)] - b[len(wa) :], g)
    return germs._worst(num[denom != 0.0] / denom[denom != 0.0])


# the certify ladders' radii, one twice
_LADDER = (0.5, 0.25, 0.125, 0.1, 0.25, 0.0625, 0.05, 0.025)


class TestRadiusLists:
    @pytest.mark.parametrize("gid", GERM_IDS)
    def test_c_range_draws_equal_generator_uniform(self, gid):
        germ = make_germ(gid)
        for seed in range(40):
            u = np.random.default_rng(seed).uniform(size=40)
            radii, c = germs._parameters(germ, _LADDER, u)
            assert radii[:, 0].tolist() == list(_LADDER)
            for delta, row in zip(_LADDER, c):
                want = _sample_c(germ, np.random.default_rng(seed), delta, 40)
                lo, hi = germ.c_range(delta)
                assert np.array_equal(lo + (hi - lo) * u, want)
                assert np.array_equal(row, want)

    @pytest.mark.parametrize("gid", GERM_IDS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_ladder_entries_equal_the_one_radius_calls(self, gid, level):
        germ = make_germ(gid)
        for seed in range(40):
            moduli = modulus_with_count(germ, level, _LADDER, seed=seed)
            probes = dW_opnorm_probe(germ, level, _LADDER, seed=seed)
            reports = openness_probe(germ, level, _LADDER, seed=seed)
            for delta, res, probe, rep in zip(_LADDER, moduli, probes, reports):
                assert res == modulus_with_count(germ, level, [delta], seed=seed)[0]
                assert res == _one_radius_modulus(germ, level, delta, seed=seed)
                assert probe == dW_opnorm_probe(germ, level, [delta], seed=seed)[0]
                assert rep == openness_probe(germ, level, [delta], seed=seed)[0]

    @pytest.mark.parametrize("gid", GERM_IDS)
    def test_certify_takes_the_first_ladder_radius_within_epsilon(self, gid):
        # each pair's radius is the first of min(eps, 0.5) / 2^k, k below
        # max_halvings, whose exact modulus is <= eps; a failed pair reads
        # the last modulus above eps (NaN if there was none), and the seed
        # only labels the witness
        germ = make_germ(gid)
        for level in range(3):
            for epsilons, halvings in (((0.5, 0.25, 0.1), 40), ((0.1, 0.3, 0.05), 3)):
                cert = certify(germ, level, epsilons, max_halvings=halvings)
                for seed in (1, 17):
                    again = certify(germ, level, epsilons, seed=seed, max_halvings=halvings)
                    assert again.pairs == cert.pairs and again.seed == seed
                for eps, pair in zip(epsilons, cert.pairs):
                    above, found = [], None
                    for k in range(halvings):
                        delta = min(eps, 0.5) / 2**k
                        modulus = germ.modulus(level, delta)
                        if modulus <= eps:
                            found = (delta, modulus)
                            break
                        above.append(modulus)
                    if found:
                        assert (pair.epsilon, pair.delta, pair.modulus) == (eps, *found)
                    else:
                        assert pair.delta is None
                        assert math.isnan(pair.modulus) if not above else pair.modulus == above[-1]

    def test_certify_samples_nothing(self, monkeypatch):
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("modulus_with_count", "metric_singular_values"):
            monkeypatch.setattr(germs, name, recording(name, getattr(germs, name)))
        monkeypatch.setattr(np.random, "default_rng", recording("default_rng", np.random.default_rng))
        for gid in GERM_IDS:
            germ = make_germ(gid)
            germ = dataclasses.replace(
                germ, B=recording("B", germ.B), dB=recording("dB", germ.dB)
            )
            for level in range(3):
                certify(germ, level, seed=level)
        assert calls == []

    def test_germ_experiments_make_pinned_probe_calls(self, monkeypatch):
        moduli, svds = [], []
        modulus, svd = germs.modulus_with_count, germs.metric_singular_values

        def recording(germ, level, deltas, *args, **kwargs):
            moduli.append((germ.name, list(deltas)))
            return modulus(germ, level, deltas, *args, **kwargs)

        def counting(op):
            svds.append(op.matrix.shape)
            return svd(op)

        monkeypatch.setattr(germs, "modulus_with_count", recording)
        monkeypatch.setattr(germs, "metric_singular_values", counting)
        cfg = ExperimentConfig(seed=0, germ_level=1)
        assert run("germ-continuity", cfg).passed and run("germ-openness", cfg).passed
        # certify samples nothing and the flag reads the closed form:
        # germ-continuity's two replay witnesses over the certified radii,
        # and germ-openness none
        assert moduli == [
            ("rank-one", [0.25, 0.125, 0.05]),
            ("quadratic", [0.25, 0.125, 0.05]),
        ]
        # one dW call per contracting germ (its three certified radii and
        # three fractions of the epsilon = 0.1 one), and three openness calls
        assert svds == [(72, 4, 4)] * 2 + [(7, 5, 5), (7, 5, 5), (21, 6, 6)]

    def test_germ_experiments_solve_each_dual_norm_once(self, monkeypatch):
        solves, made = [], []
        dual, make = germs._dual_norm, experiments.make_germ

        def counting(g, p):
            solves.append(g)
            return dual(g, p)

        def recording(germ_id, *args, **kwargs):
            made.append(germ_id)
            return make(germ_id, *args, **kwargs)

        monkeypatch.setattr(germs, "_dual_norm", counting)
        monkeypatch.setattr(experiments, "make_germ", recording)
        for level in range(3):
            solves.clear()
            made.clear()
            cfg = ExperimentConfig(seed=0, germ_level=level)
            assert run("germ-continuity", cfg).passed and run("germ-openness", cfg).passed
            # each experiment builds its own rank-one and quadratic germ, and
            # each of those solves for ||p||_{i,*} once, at the run's level
            assert made == ["rank-one", "quadratic", "moving-bump"] * 2
            assert len(solves) == 4
            gram = make_germ("rank-one", cfg.schedule()).context.gram(level)
            assert all(g is gram for g in solves)
        # a germ read at two levels solves once per level
        solves.clear()
        germ = make_germ("quadratic")
        for level in (0, 1, 0, 1, 1):
            germ.modulus(level, 0.25)
        assert len(solves) == 2


class TestGermEval:
    def test_rank_one_at_origin(self):
        germ = make_germ("rank-one")
        ctx = germ.context_for(0.0)
        v = np.zeros(ctx.dim)
        a, w = germ_point(germ, 0.3, v)
        assert a == 0.3
        assert np.all(w == 0.0)

    def test_rank_one_linear_in_w(self):
        germ = make_germ("rank-one")
        ctx = germ.context_for(0.2)
        rng = np.random.default_rng(0)
        v1, v2 = rng.normal(size=ctx.dim), rng.normal(size=ctx.dim)
        _, w1 = germ_point(germ, 0.2, v1)
        _, w2 = germ_point(germ, 0.2, v2)
        _, wsum = germ_point(germ, 0.2, v1 + v2)
        assert np.allclose(wsum, w1 + w2, rtol=1e-13)

    def test_quadratic_kills_unit_bump(self):
        # B(c, w) = <w, b> w, so at w = b (unit L2 mass) the output w-part
        # collapses: b - <b, b> b ~ 0 up to quadrature error
        germ = make_germ("quadratic")
        ctx = germ.context_for(0.0)
        e_bump = np.eye(ctx.dim)[0]
        _, w = germ_point(germ, 0.0, e_bump)
        assert level_norm(w, ctx.gram(0)) < 1e-8

    def test_moving_bump_vanishes_for_nonpositive_c(self):
        germ = make_germ("moving-bump")
        v = np.ones(germ.context.dim)
        _, w = germ_point(germ, -0.5, v)
        assert np.allclose(w, v)


def _modulus(germ, level, delta, seed=0):
    """The worst sampled ratio at one radius."""
    return modulus_with_count(germ, level, [delta], seed=seed)[0]


class TestContractionModulus:
    def test_rank_one_bounded_by_radius(self):
        germ = make_germ("rank-one")
        for delta in (0.5, 0.25, 0.1):
            mod = _modulus(germ, 1, delta, seed=0)
            # |c| < delta and the projection has norm <= 1 at level 0; at
            # level 1 the metric distortion is bounded by a fixed constant
            assert mod <= 3.0 * delta

    def test_modulus_shrinks_with_radius(self):
        for germ in (make_germ("rank-one"), make_germ("quadratic")):
            m_big = _modulus(germ, 1, 0.5, seed=0)
            m_small = _modulus(germ, 1, 0.01, seed=0)
            assert m_small < m_big
            assert m_small < 0.1

    def test_deterministic_given_seed(self):
        germ = make_germ("quadratic")
        r1 = modulus_with_count(germ, 1, [0.2], seed=5)
        r2 = modulus_with_count(germ, 1, [0.2], seed=5)
        assert r1 == r2

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            modulus_with_count(make_germ("rank-one"), 0, [0.3, 0.0])

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_moving_bump_witness_reads_q(self, level, spacing):
        # c at the top of c_range and w along the bump coordinate at level
        # norm 0.999 delta attain q, down to the last rung of a 40-halving
        # ladder; the sampled ratios stay at or below q on every ladder
        # (test_certified_pairs_are_sound_and_the_samples_stay_below)
        germ = make_germ("moving-bump", spacing=spacing)
        e_m = np.eye(germ.context.dim)[-1]
        w = e_m / math.sqrt(germ.context.gram(level)[-1, -1])
        for delta in (0.3, 0.05, 1e-3, 0.5 / 2**39):
            q = germ.modulus(level, delta)
            got = _ratio(germ, level, germ.c_range(delta)[1], 0.999 * delta * w, 0.0 * w)
            assert abs(got - q) <= 4 * math.ulp(q)


class TestCertificates:
    def test_certify_contracting_germs(self):
        for gid in ("rank-one", "quadratic"):
            cert = certify(make_germ(gid), 1, epsilons=(0.5, 0.25, 0.1))
            assert cert.all_certified
            deltas = [p.delta for p in cert.pairs]
            assert all(b <= a for a, b in zip(deltas, deltas[1:]))
            for p in cert.pairs:
                assert p.modulus <= p.epsilon

    def test_moving_bump_fails_certification(self):
        cert = certify(
            make_germ("moving-bump"), 0, epsilons=(0.5,), max_halvings=4
        )
        assert not cert.all_certified

    def test_json_keys_are_the_dataclass_fields(self):
        cert = certify(make_germ("rank-one"), 1, epsilons=(0.5, 0.25))
        text = certificate_to_json(cert)
        # a missing or an unknown key raises, at the top and in a pair
        for edit in (
            lambda raw: raw.pop("seed"),
            lambda raw: raw.update(stamp="x"),
            lambda raw: raw["pairs"][1].pop("modulus"),
            lambda raw: raw["pairs"][0].update(note="x"),
        ):
            raw = json.loads(text)
            edit(raw)
            with pytest.raises(TypeError):
                certificate_from_json(json.dumps(raw))
        assert sorted(json.loads(text)) == sorted(
            f.name for f in dataclasses.fields(ContractionCertificate)
        )
        assert sorted(json.loads(text)["pairs"][0]) == sorted(
            f.name for f in dataclasses.fields(CertifiedPair)
        )

    def test_json_round_trip(self):
        for n in (40, 20):
            cert = certify(make_germ("rank-one"), 1, epsilons=(0.25,), n_samples=n)
            text = certificate_to_json(cert)
            assert json.loads(text)["n_samples"] == n
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
            text.replace(repr(cert.pairs[0].modulus), "0.123")
        )
        assert not replay_certificate(germ, tampered)

    @pytest.mark.parametrize("gid", ["rank-one", "quadratic"])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_replay_uses_the_recorded_sample_count(self, gid, level):
        germ = make_germ(gid)
        for n in (20, 40, 64):
            cert = certify(germ, level, n_samples=n)
            assert cert.n_samples == n
            assert replay_certificate(germ, cert)
            assert replay_certificate(germ, certificate_from_json(certificate_to_json(cert)))

    def test_replay_runs_the_witness_at_the_recorded_count_and_seed(self, monkeypatch):
        # the closed forms do not depend on n_samples or the seed, so an
        # edited count still replays; the witness runs at the edited values
        germ = make_germ("quadratic")
        text = certificate_to_json(certify(germ, 1, seed=7))
        assert '"n_samples": 40' in text
        calls = []
        modulus = germs.modulus_with_count

        def recording(germ, level, deltas, n_samples, seed):
            calls.append((n_samples, seed))
            return modulus(germ, level, deltas, n_samples, seed)

        monkeypatch.setattr(germs, "modulus_with_count", recording)
        for n in (20, 39, 41, 64):
            edited = certificate_from_json(text.replace('"n_samples": 40', f'"n_samples": {n}'))
            assert replay_certificate(germ, edited)
            assert calls[-1] == (n, 7)

    def test_replay_fails_on_an_edited_radius_or_a_witness_above_the_modulus(self, monkeypatch):
        germ = make_germ("rank-one")
        cert = certify(germ, 1)
        assert replay_certificate(germ, cert)
        first = cert.pairs[0]
        # a radius the modulus was not derived at, and one whose modulus
        # (re-derived in the certificate) exceeds epsilon
        for edited in (
            dataclasses.replace(first, delta=first.delta / 2.0),
            dataclasses.replace(first, delta=2.0 * first.delta, modulus=germ.modulus(1, 2.0 * first.delta)),
        ):
            assert not replay_certificate(germ, dataclasses.replace(cert, pairs=(edited,) + cert.pairs[1:]))

        def above(germ, level, deltas, n_samples, seed):
            return [1.0001 * germ.modulus(level, d) for d in deltas]

        monkeypatch.setattr(germs, "modulus_with_count", above)
        assert not replay_certificate(germ, cert)


def _dual_norm_by_eigh(g, p):
    """||p||_{i,*} = sqrt(p G^-1 p) through the eigenvectors of G, not by
    solving G x = p."""
    lam, vec = np.linalg.eigh(g)
    return math.sqrt(float(np.sum((vec.T @ p) ** 2 / lam)))


def _closed_form(germ, level, delta, spacing):
    """The modulus of each germ from the grid's pairings and Gram matrix:
    0.999 delta ||e||_i ||p||_{i,*}, 2 delta ||p||_{i,*}, and q = <b_c, b_c>."""
    ctx = germ.context
    if germ.name == "moving-bump":
        b = shifted_bump(0.3, 0, spacing)
        return grid_l2_inner(b, b)
    g = ctx.gram(level)
    dual = _dual_norm_by_eigh(g, _pairings(ctx, 0.0, 0, spacing))
    if germ.name == "rank-one":
        return 0.999 * delta * math.sqrt(g[0, 0]) * dual
    return 2.0 * delta * dual


def _ratio(germ, level, c, w1, w2):
    """||B(c, w1) - B(c, w2)||_i / ||w1 - w2||_i at one parameter."""
    g = germ.context.gram(level)
    b1, b2 = germ.B(np.array([c, c]), np.stack((w1, w2)))
    return level_norm(b1 - b2, g) / level_norm(w1 - w2, g)


def _ladder(germ, level, eps, max_halvings=40):
    """The radii certify's search for eps visits: min(eps, 0.5), halved
    until the modulus is <= eps, at most max_halvings radii (certify's
    default), the bound that ends the moving bump's search."""
    radii = [min(eps, 0.5)]
    while len(radii) < max_halvings and germ.modulus(level, radii[-1]) > eps:
        radii.append(radii[-1] / 2.0)
    return radii


_SPACINGS = (1e-3, 5e-4)


class TestClosedFormModuli:
    @pytest.mark.parametrize("spacing", _SPACINGS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_certified_pairs_are_sound_and_the_samples_stay_below(self, level, spacing):
        # no certified pair's exact modulus exceeds its epsilon, and the
        # sampled modulus at every radius of every ladder stays at or below
        # the closed form
        worst = {}
        for gid in GERM_IDS:
            germ = make_germ(gid, spacing=spacing)
            ladder = sorted({d for eps in (0.5, 0.25, 0.1) for d in _ladder(germ, level, eps)})
            exact = {d: germ.modulus(level, d) for d in ladder}
            for d, modulus in exact.items():
                assert modulus == pytest.approx(
                    _closed_form(germ, level, d, spacing), rel=1e-12, abs=0.0
                )
            for seed in range(40):
                for p in certify(germ, level, seed=seed).pairs:
                    assert p.delta is None or p.modulus == exact[p.delta] <= p.epsilon
                for d, got in zip(ladder, modulus_with_count(germ, level, ladder, seed=seed)):
                    assert got <= exact[d]
                    worst[gid] = max(worst.get(gid, 0.0), got / exact[d])
        assert max(worst["rank-one"], worst["quadratic"]) < 0.99
        # random pairs need not find the moving bump's direction (at level 2
        # they stay near a third of q); the flag's witness rows attain q
        cfg = ExperimentConfig(spacing=spacing, germ_level=level)
        flag = _by_name(run("germ-continuity", cfg))["moving-bump: non-contraction flag"]
        q = make_germ("moving-bump", spacing=spacing).modulus(level, 0.5)
        assert flag.passed and abs(float(flag.measured) - q) <= 4 * math.ulp(q)

    @pytest.mark.parametrize("spacing", _SPACINGS)
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_witnesses_read_the_closed_forms(self, level, spacing):
        # along d = G^-1 p / ||G^-1 p||_i the functional <., b> reads
        # ||p||_{i,*}: rank-one at c = 0.999 delta attains its modulus, the
        # quadratic pair (a d, b d) reads (a + b) ||p||_{i,*}, below its
        # modulus and tending to it, and the bump coordinate reads q
        rank_one, quadratic, moving = (make_germ(gid, spacing=spacing) for gid in GERM_IDS)
        g = rank_one.context.gram(level)
        p = _pairings(rank_one.context, 0.0, 0, spacing)
        d = np.linalg.solve(g, p)
        d /= level_norm(d, g)
        dual = _dual_norm_by_eigh(g, p)
        for delta in (0.5, 0.25, 0.125, 0.1, 0.05):
            got = _ratio(rank_one, level, 0.999 * delta, 0.9 * delta * d, np.zeros_like(d))
            assert got == pytest.approx(rank_one.modulus(level, delta), rel=1e-12, abs=0.0)
            for a, b in ((0.9, 0.6), (0.999, -0.3), (0.999, 0.998)):
                got = _ratio(quadratic, level, 0.0, a * delta * d, b * delta * d)
                assert got == pytest.approx((a + b) * delta * dual, rel=1e-12, abs=0.0)
                assert got < quadratic.modulus(level, delta)
            # the ball is open: pairs near its boundary come within 2e-6
            got = _ratio(quadratic, level, 0.0, (1.0 - 1e-6) * delta * d, (1.0 - 2e-6) * delta * d)
            assert quadratic.modulus(level, delta) * (1.0 - 2e-6) < got < quadratic.modulus(level, delta)
            e_m = np.eye(moving.context.dim)[-1]
            c = moving.c_range(delta)[1]
            got = _ratio(moving, level, c, 0.5 * delta * e_m, np.zeros_like(e_m))
            assert got == pytest.approx(moving.modulus(level, delta), rel=1e-12, abs=0.0)
            assert moving.modulus(level, delta) == moving.context.gram(level)[-1, -1]

    @pytest.mark.parametrize("spacing", _SPACINGS)
    def test_moving_bump_modulus_by_the_grid_route(self, spacing):
        # q from the escaping bump's own grid, through no germ coordinate
        germ = make_germ("moving-bump", spacing=spacing)
        schedule = WeightSchedule.default()
        for level in range(3):
            for c in (0.1, 0.2, 0.3):
                got = moving_bump_ratio(c, level, schedule.delta(level), spacing)
                assert got == pytest.approx(germ.modulus(level, 0.5), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spacing", _SPACINGS)
    def test_level_zero_quadratic_radii_sit_on_epsilon(self, spacing):
        # a tripwire that runs under every stamp, unlike the golden digests
        germ = make_germ("quadratic", spacing=spacing)
        why = (
            "the quadratic germ's level-0 radii sit exactly on epsilon because "
            "<b, b> reads 1.0, so ||p||_{0,*} = 1 and 2 delta ||p||_{0,*} = epsilon; "
            "one ulp more halves all three radii and moves the certificates"
        )
        for delta in (0.5, 0.25, 0.125, 0.1, 0.05):
            assert germ.modulus(0, delta) == 2.0 * delta, why
        assert tuple(p.delta for p in certify(germ, 0).pairs) == (0.25, 0.125, 0.05), why

    @pytest.mark.parametrize("spacing", _SPACINGS)
    def test_dual_norms_and_bump_norms_per_level(self, spacing):
        # ||p||_{i,*} and ||e||_i at levels 0, 1 and 2 under the default
        # schedule; at level 0, p is row 0 of the L2 Gram matrix and both are 1
        germ = make_germ("rank-one", spacing=spacing)
        for level, dual, e_norm in ((0, 1.0, 1.0), (1, 0.5725, 2.138), (2, 0.1377, 10.86)):
            g = germ.context.gram(level)
            p = germs._bump_pairings(spacing)
            assert germs._dual_norm(g, p) == pytest.approx(dual, rel=2e-3)
            assert math.sqrt(g[0, 0]) == pytest.approx(e_norm, rel=2e-3)
        assert make_germ("moving-bump", spacing=spacing).modulus(1, 0.5) == bump_self_pairing(spacing)


def _by_name(report):
    return {c.name: c for c in report.checks}


class TestDifferentialLaw:
    def test_two_epsilon_law_for_contracting_germs(self):
        for gid in ("rank-one", "quadratic"):
            germ = make_germ(gid)
            cert = certify(germ, 1)
            assert cert.all_certified
            ops = dW_opnorm_probe(germ, 1, [p.delta for p in cert.pairs])
            for p, op in zip(cert.pairs, ops):
                assert op <= 2.0 * p.epsilon + 1e-8

    def test_moving_bump_flagged_not_raised(self):
        germ = make_germ("moving-bump")
        cert = certify(germ, 0, epsilons=(0.5,))
        assert not cert.all_certified
        # the failed pair reads the last modulus its search found, and no
        # certified radius is left to probe
        assert cert.pairs[0].modulus >= 0.9
        assert dW_opnorm_probe(germ, 0, [p.delta for p in cert.pairs if p.delta is not None]) == []
        checks = _by_name(run("germ-continuity", ExperimentConfig(germ_level=0)))
        assert checks["moving-bump: non-contraction flag"].passed

    def test_probes_decay_with_the_radius(self):
        germ = make_germ("rank-one")
        vals = dW_opnorm_probe(germ, 1, [0.2 * f for f in (1.0, 0.5, 0.25, 0.125)])
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_report_reads_certify_and_one_radius_probes(self, level):
        # the law's worst excess and the decay's last probe, from certify
        # and one dW_opnorm_probe call per radius
        for seed in range(3):
            cfg = ExperimentConfig(seed=seed, germ_level=level)
            checks = _by_name(run("germ-continuity", cfg))
            for gid in ("rank-one", "quadratic"):
                germ = make_germ(gid, cfg.schedule(), cfg.spacing)
                cert = certify(germ, level, seed=seed)

                def probe(radius):
                    return dW_opnorm_probe(germ, level, [radius], seed=seed + 1)[0]

                excess = max(probe(p.delta) - 2.0 * p.epsilon for p in cert.pairs)
                assert checks[f"{gid}: factor-two law"].measured == repr(excess)
                assert cert.pairs[2].epsilon == 0.1
                tail = probe(0.125 * cert.pairs[2].delta)
                assert checks[f"{gid}: probe decay"].measured == repr(tail)

    def test_a_failed_pair_reads_its_last_modulus(self, monkeypatch):
        def failing_half(germ, level, **kwargs):
            # the epsilon = 0.5 search ends without a radius, its last
            # modulus above epsilon 1.25
            cert = certify(germ, level, **kwargs)
            failed = CertifiedPair(0.5, None, 1.25)
            return dataclasses.replace(cert, pairs=(failed,) + cert.pairs[1:])

        monkeypatch.setattr(experiments, "certify", failing_half)
        checks = _by_name(run("germ-continuity", ExperimentConfig()))
        for gid in ("rank-one", "quadratic"):
            assert not checks[f"{gid}: certificate replay"].passed
            law = checks[f"{gid}: factor-two law"]
            # 1.25 - 2 (0.5) exceeds every certified pair's (negative) excess
            assert law.measured == repr(1.25 - 1.0) and not law.passed
            assert checks[f"{gid}: probe decay"].passed

    def test_an_uncertified_tenth_fails_only_that_germs_decay(self, monkeypatch):
        # one rung certifies no epsilon = 0.1 radius for the quadratic germ
        # at level 0, so its decay has no radius to shrink; its replay and
        # probe checks still run and fail, its law reads the failed pair's
        # last modulus, and the rank-one germ, which one rung certifies,
        # passes
        monkeypatch.setattr(experiments, "certify", functools.partial(certify, max_halvings=1))
        cfg = ExperimentConfig(germ_level=0)
        germ = make_germ("quadratic", cfg.schedule(), cfg.spacing)
        cert = certify(germ, 0, max_halvings=1)
        assert cert.pairs[2].epsilon == 0.1 and cert.pairs[2].delta is None
        checks = _by_name(run("germ-continuity", cfg))
        assert "error" not in checks and len(checks) == 9
        decay = checks["quadratic: probe decay"]
        assert not decay.passed
        assert decay.measured == "quadratic has no certified radius for epsilon 0.1"
        assert not checks["quadratic: certificate replay"].passed
        # the failed pair reads its last modulus above epsilon, 2 (0.1) ||p||_*,
        # which meets the law's bound; the probe check names the missing radius
        law = checks["quadratic: factor-two law"]
        assert cert.pairs[2].modulus == germ.modulus(0, 0.1) > 0.1
        assert float(law.measured) >= cert.pairs[2].modulus - 0.2
        probes = checks["quadratic: probes below the closed form"]
        assert not probes.passed and probes.measured == "uncertified, below"
        names = ("certificate replay", "factor-two law", "probes below the closed form", "probe decay")
        for name in names:
            assert checks[f"rank-one: {name}"].passed
        assert checks["moving-bump: non-contraction flag"].passed

    def test_an_uncertified_replay_reads_uncertified_not_drift(self, monkeypatch):
        # with one halving the quadratic germ certifies no epsilon = 0.1
        # radius at level 0, so nothing is replayed: the replay check fails
        # and names that, while the fully certified rank-one germ reads ok
        monkeypatch.setattr(experiments, "certify", functools.partial(certify, max_halvings=1))
        checks = _by_name(run("germ-continuity", ExperimentConfig(germ_level=0)))
        replay = checks["quadratic: certificate replay"]
        assert not replay.passed and replay.measured == "uncertified"
        assert checks["rank-one: certificate replay"].measured == "ok"

    def test_the_flag_fails_when_B_falls_short_of_its_modulus(self, monkeypatch):
        # the flag reads the closed form q, and the applied map must back it:
        # halve the pseudo-germ's B while its modulus still reads q >= 0.9
        make = experiments.make_germ

        def halved(germ_id, *args, **kwargs):
            germ = make(germ_id, *args, **kwargs)
            if germ_id != "moving-bump":
                return germ
            return dataclasses.replace(germ, B=lambda c, v: 0.5 * germ.B(c, v))

        monkeypatch.setattr(experiments, "make_germ", halved)
        q = make_germ("moving-bump").modulus(1, 0.5)
        assert q >= 0.9
        checks = _by_name(run("germ-continuity", ExperimentConfig(germ_level=1)))
        flag = checks["moving-bump: non-contraction flag"]
        assert not flag.passed
        assert float(flag.measured) == pytest.approx(0.5 * q, rel=1e-12)
        assert all(c.passed for name, c in checks.items() if not name.startswith("moving-bump"))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_dW_probes_stay_below_the_closed_form_modulus(self, level):
        # sup ||D_wB|| over the ball is the modulus for both germs, so the
        # sampled probe never exceeds it
        for gid in ("rank-one", "quadratic"):
            germ = make_germ(gid)
            radii = [0.5, 0.25, 0.125, 0.1, 0.05, 0.025, 0.00625]
            for seed in range(40):
                for radius, op in zip(radii, dW_opnorm_probe(germ, level, radii, seed=seed)):
                    assert op <= germ.modulus(level, radius)

    def test_a_probe_above_the_closed_form_fails_the_probe_check(self, monkeypatch):
        # probes 1 % above the modulus stay below 2 epsilon: the law holds,
        # the probe check and the verdict fail
        def above(germ, level, radii, seed):
            return [1.01 * germ.modulus(level, r) for r in radii]

        monkeypatch.setattr(experiments, "dW_opnorm_probe", above)
        report = run("germ-continuity", ExperimentConfig())
        checks = _by_name(report)
        for gid in ("rank-one", "quadratic"):
            law = checks[f"{gid}: factor-two law"]
            assert float(law.measured) <= 0.0 and law.passed
            probes = checks[f"{gid}: probes below the closed form"]
            assert not probes.passed and probes.measured == "certified, above"
            assert checks[f"{gid}: certificate replay"].passed
        assert not report.passed

    def test_moving_bump_dw_probe_reads_q_at_every_radius(self):
        # D_wB = q e_m (x) e_m at every sampled c > 0, and the bump
        # coordinate is a block of its own, so its level-i norm is q at
        # every radius
        germ = make_germ("moving-bump")
        for level in range(3):
            q = germ.modulus(level, 0.3)
            for got in dW_opnorm_probe(germ, level, [0.3, 0.05, 1e-3, 0.5 / 2**39]):
                assert got == pytest.approx(q, rel=1e-12, abs=0.0)


class TestOpenness:
    def test_contracting_germs_keep_invertible_differential(self):
        for gid in ("rank-one", "quadratic"):
            (rep,) = openness_probe(make_germ(gid), 1, [0.1])
            assert rep.passed
            assert rep.worst_cond <= 2.0 * rep.cond_at_zero
            assert rep.cond_at_zero < 1.5

    def test_report_rows_cover_origin(self):
        (rep,) = openness_probe(make_germ("rank-one"), 1, [0.1])
        assert rep.rows[0] == (0.0, 0.0, rep.cond_at_zero)
        assert len(rep.rows) >= 3


class TestFactory:
    def test_known_ids(self):
        for gid in ("rank-one", "quadratic", "moving-bump"):
            assert make_germ(gid).name == gid

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            make_germ("nope")

    def test_make_germ_is_the_one_factory(self):
        assert GERM_IDS == ("rank-one", "quadratic", "moving-bump")
        assert [name for name in germs.__all__ if name.startswith("make_")] == ["make_germ"]
        # no schedule means the default one, over the same cached base context
        base = germs._base_context(WeightSchedule.default(), DEFAULT_SPACING)
        for gid in ("rank-one", "quadratic"):
            assert make_germ(gid).context is base
            assert make_germ(gid, WeightSchedule.default(), DEFAULT_SPACING).context is base

    def test_margin_reaches_the_moving_bump(self):
        schedule, spacing = WeightSchedule.default(), 5e-4
        germ = make_germ("moving-bump", schedule, spacing, 0.5)
        assert germ.context.gram(0)[-1, -1] == bump_self_pairing(spacing, 0.5)
        # the c bound 1/ln(3 + margin) moves with it: c = 0.75 lies below 1/ln(3.5)
        v = np.ones((1, germ.context.dim))
        assert germ.B(np.array([0.75]), v)[0, -1] != 0.0
        with pytest.raises(ValueError, match=r"c < 1/ln\(4\)"):
            make_germ("moving-bump", schedule, spacing).B(np.array([0.75]), v)


class TestContexts:
    def test_a_context_is_a_cached_gram_provider(self):
        # one class, no subclass; gram(level) builds once and caches a
        # read-only array in _grams
        assert GermContext.__subclasses__() == []
        assert "gram" in GermContext.__dict__
        built = []

        def build(level):
            built.append(level)
            return np.eye(2) * (level + 1)

        ctx = GermContext(2, build)
        g = ctx.gram(1)
        assert ctx.gram(1) is g and ctx._grams == {1: g} and built == [1]
        assert not g.flags.writeable and np.array_equal(g, 2.0 * np.eye(2))
        ctx.gram(0)
        assert built == [1, 0]

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("margin", [0.5, 1.0, 2.0])
    def test_moving_bump_gram_is_the_base_block_and_q(self, spacing, margin):
        # blockdiag(base Gram matrix, q) bit for bit, at every level
        schedule = WeightSchedule.default()
        base = germs._base_context(schedule, spacing)
        ctx = make_germ("moving-bump", schedule, spacing, margin).context
        q = bump_self_pairing(spacing, margin)
        for level in range(3):
            want = np.zeros((5, 5))
            want[:4, :4] = base.gram(level)
            want[4, 4] = q
            assert np.array_equal(ctx.gram(level).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("c", [0.1, 0.2, 0.3, 0.5, 0.7])
    def test_moving_bump_gram_matches_the_grid_reference(self, c, spacing):
        # one context serves every c: its L2 Gram matrix is that of the atoms
        # and b_c sampled on the grid, and at every level its base block is
        # the grid's, b_c pairs with no atom and its entry stays q
        ctx = make_germ("moving-bump", spacing=spacing).context_for(c)
        atoms = _grid_atoms(ctx, c, spacing)
        schedule = WeightSchedule.default()
        assert ctx.dim == len(atoms) == 5
        assert schedule.delta(0) == 0.0  # so gram(0) is the L2 Gram matrix

        def ref(level):
            return own_window_gram(atoms, level, schedule.delta(level))

        q = ref(0)[4, 4]
        for level in range(3):
            got = ctx.gram(level)
            assert not got[4, :4].any() and not got[:4, 4].any()
            assert got[4, 4] == q
            if c == 0.1 and level > 0:
                # the unscaled b_c's weight exp(2 delta |x|) overflows on its
                # window; the scaled coordinate never meets it
                with pytest.raises(OverflowError, match="delta="):
                    ref(level)
                continue
            want = ref(level)
            if level == 0:
                assert np.array_equal(got, want)
            else:
                # (w a)(w b) against w^2 a b: rounding, normwise
                block = want[:4, :4]
                assert np.abs(got[:4, :4] - block).max() <= 4 * _U * np.abs(block).max()
                assert not want[4, :4].any() and not want[:4, 4].any()

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_the_atom_gram_is_the_own_window_arithmetic(self, spacing):
        # e^{2 delta |x|} a b on each atom's own derivatives, at six levels:
        # the same bits at delta = 0, rounding normwise elsewhere
        schedule = WeightSchedule.default(levels=6)
        base = germs._base_context(schedule, spacing)
        for level in range(6):
            got = base.gram(level)
            want = own_window_gram(germs._atoms(spacing), level, schedule.delta(level))
            if level == 0:
                assert np.array_equal(got, want)
            assert np.abs(got - want).max() <= 4 * _U * np.abs(want).max()

    def test_the_atom_gram_converges_to_the_closed_form(self):
        # closed-form derivatives against np.gradient's second-order ones:
        # O(h^2) normwise, so a quarter of the gap at half the spacing
        schedule = WeightSchedule.default()
        bounds = {1: (1.0e-4, 2.5e-5), 2: (1.05e-3, 2.6e-4), 3: (4.8e-3, 1.2e-3)}
        for level, bound in bounds.items():
            gaps = []
            for spacing, at_most in zip((1e-3, 5e-4), bound):
                got = germs._base_context(schedule, spacing).gram(level)
                want = closed_form_atom_gram(level, schedule.delta(level), spacing)
                gaps.append(np.abs(got - want).max() / np.abs(want).max())
                assert gaps[-1] <= at_most, (level, spacing, gaps[-1])
            assert 3.8 <= gaps[0] / gaps[1] <= 4.2, (level, gaps)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    def test_the_atom_gram_is_symmetric_with_the_atom_norms_on_its_diagonal(self, spacing):
        schedule = WeightSchedule.default()
        rows = np.array([a.values for a in germs._atoms(spacing)])
        for level in range(4):
            g = germs._base_context(schedule, spacing).gram(level)
            assert np.array_equal(g, g.T)
            norms = grid_sobolev_norms(rows, level, schedule.delta(level), -2.0, spacing)
            assert np.array_equal(np.sqrt(np.diag(g)), norms)

    @pytest.mark.parametrize("spacing", [1e-3, 5e-4])
    @pytest.mark.parametrize("c", [0.3, 0.5])
    def test_scaled_bump_coordinate_matches_the_grid(self, c, spacing):
        # w = sum_j v_j a_j + v_m s_i b_c sampled on the grid, in two pieces:
        # b_c's nodes do not line up with the atoms'.  Its level-i norm is
        # the root of the Sobolev inner products of the pieces.
        germ = make_germ("moving-bump", spacing=spacing)
        ctx = germ.context_for(c)
        b = shifted_bump(c, 0, spacing)
        q = grid_l2_inner(b, b)
        rng = np.random.default_rng(11)
        atoms = germs._atoms(spacing)
        for level in range(3):
            delta = WeightSchedule.default().delta(level)
            s_i = math.sqrt(q) / math.sqrt(grid_sobolev_inner(b, b, level, delta))
            if level == 0:
                assert s_i == 1.0
            assert ctx.gram(level)[4, 4] == q
            for _ in range(5):
                v = rng.normal(size=ctx.dim)
                pieces = (
                    grid_combine(list(zip(v[:4], atoms))),
                    b.scaled(v[4] * s_i),
                )
                want = math.sqrt(
                    sum(grid_sobolev_inner(f, g, level, delta) for f in pieces for g in pieces)
                )
                assert level_norm(v, ctx.gram(level)) == pytest.approx(want, rel=1e-12, abs=0.0)
                # B(c, w) = <w, b_c> b_c: its bump coordinate times s_i b_c
                out = germ.B(np.array([c]), v[None, :])[0]
                pair = sum(grid_l2_inner(f, b) for f in pieces)
                assert not out[:4].any()
                assert out[4] * s_i == pytest.approx(pair, rel=1e-12, abs=0.0)

    def test_bump_coordinate_samples_no_grid(self, monkeypatch):
        assert not hasattr(germs, "shifted_bump")
        base = make_germ("rank-one").context
        for level in range(3):
            base.gram(level)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for module in (bump_profiles, germs, scale_core):
            for name in ("shifted_bump", "grid_sobolev_inner"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        ctx = make_germ("moving-bump").context_for(0.3)
        for level in range(3):
            ctx.gram(level)
        assert ctx.dim == 5
        assert calls == []

    def test_small_c_needs_no_grid(self):
        germ = make_germ("moving-bump")
        # exp(1/c) overflows at c = 1e-3; B maps the bump coordinate to q
        # times itself there as at c = 0.3
        e_m = np.eye(germ.context.dim)[-1]
        _, w_small = germ_point(germ, 1e-3, e_m)
        _, w = germ_point(germ, 0.3, e_m)
        assert np.array_equal(w_small, w)
        assert w[-1] == 1.0 - germ.context.gram(0)[4, 4]
        # openness probes c = 0.05, below the old grid bound 0.0724, and
        # c = -0.09, where B is zero, as it does for every germ
        (rep,) = openness_probe(germ, 0, [0.1])
        cs = [0.0] + [0.9 * 0.1] * 2 + [-0.9 * 0.1] * 2 + [0.5 * 0.1] * 2
        assert [row[0] for row in rep.rows] == cs
        assert [row[2] for row in rep.rows[3:5]] == pytest.approx([1.0, 1.0], rel=1e-12)

    @pytest.mark.parametrize("c", [1.0 / math.log(4.0), 0.75, 2.0])
    def test_bump_window_must_lie_left_of_the_atoms(self, c):
        germ = make_germ("moving-bump")
        v = np.ones((2, germ.context.dim))
        with pytest.raises(ValueError, match=r"c < 1/ln\(4\), got c="):
            germ.B(np.array([0.3, c]), v)
        with pytest.raises(ValueError, match=r"c < 1/ln\(4\), got c="):
            germ_point(germ, c, v[0])
        assert germ.B(np.array([0.3, 0.72]), v)[:, -1].all()

    def test_factories_share_the_base_context(self):
        base = make_germ("rank-one", WeightSchedule.default()).context_for(0.2)
        assert make_germ("quadratic", WeightSchedule.default()).context_for(0.0) is base
        assert base is germs._base_context(WeightSchedule.default(), DEFAULT_SPACING)
        moving = make_germ("moving-bump", WeightSchedule.default())
        assert moving.context_for(-0.1) is moving.context_for(0.3)

    def test_cached_arrays_are_read_only(self):
        ctx = make_germ("moving-bump").context_for(0.3)
        base = germs._base_context(WeightSchedule.default(), DEFAULT_SPACING)
        for arr in (ctx.gram(0), base.gram(0), germs._bump_pairings(1e-3)):
            assert not arr.flags.writeable


class TestMovingBumpLevels:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_moving_bump_is_flagged_at_every_level(self, level):
        germ = make_germ("moving-bump")
        for seed in range(40):
            cert = certify(germ, level, seed=seed)
            assert not cert.all_certified
            assert all(p.delta is None for p in cert.pairs)
            assert all(p.modulus >= 0.9 for p in cert.pairs)

    def test_certify_builds_no_context(self, monkeypatch):
        # a fresh schedule, so that no cached Gram matrix serves the run
        schedule = WeightSchedule((0.0, 0.07, 0.14))
        germ = make_germ("moving-bump", schedule)
        made, built = [], Counter()
        init = GermContext.__init__

        def counted_init(self, *args, **kwargs):
            made.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(GermContext, "__init__", counted_init)
        gram = GermContext.gram

        def counted_gram(self, level):
            if level not in self._grams:
                built[id(self), level] += 1
            return gram(self, level)

        monkeypatch.setattr(GermContext, "gram", counted_gram)
        certify(germ, 2, seed=3)
        # its modulus is q at every radius: no Gram matrix either
        assert made == [] and built == Counter()

    @pytest.mark.parametrize("halvings", [40, 4, 1])
    def test_certify_fails_at_the_last_rung(self, halvings):
        # the modulus is q at every radius, so each search reads it once per
        # rung, max_halvings times, and records (epsilon, None, q)
        germ = make_germ("moving-bump")
        calls = []

        def counted(level, delta):
            calls.append(delta)
            return germ.modulus(level, delta)

        counting = dataclasses.replace(germ, modulus=counted)
        epsilons = (0.5, 0.25, 0.1)
        for level in range(3):
            calls.clear()
            cert = certify(counting, level, epsilons, max_halvings=halvings)
            q = germ.modulus(level, 0.5)
            assert cert.pairs == tuple(CertifiedPair(eps, None, q) for eps in epsilons)
            assert calls == [min(eps, 0.5) / 2**k for eps in epsilons for k in range(halvings)]

    @pytest.mark.parametrize("margin", [0.5, 1.0, 2.0])
    def test_every_radius_admits_parameters(self, margin):
        # c_range(delta) = (0.5 delta, 0.999 delta) down to the last rung of
        # a 40-halving ladder, and B maps the bump coordinate to q times itself
        # at the bottom of it; only c >= 1/ln(3 + margin) raises
        germ = make_germ("moving-bump", margin=margin)
        q = bump_self_pairing(DEFAULT_SPACING, margin)
        v = np.random.default_rng(5).normal(size=(1, germ.context.dim))
        for delta in (0.5, 0.3, 0.074, 0.05, 1e-3, 0.5 / 2**39):
            assert germ.c_range(delta) == (0.5 * delta, 0.999 * delta)
            assert [germ.modulus(level, delta) for level in range(3)] == [q] * 3
            out = germ.B(np.array([0.5 * delta]), v)[0]
            assert not out[:-1].any() and out[-1] == q * v[0, -1]
        c_max = np.array([1.0 / math.log(3.0 + margin)])
        for fn in (germ.B, germ.dB):
            with pytest.raises(ValueError, match=rf"c < 1/ln\({3.0 + margin:g}\)"):
                fn(c_max, v)
