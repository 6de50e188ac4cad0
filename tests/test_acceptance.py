"""End-to-end acceptance checks: eleven criteria, each printing a single
[PASS]/[FAIL] line with its headline measurement."""

import math
import time

import numpy as np

from sclab import experiments
from sclab.bump_profiles import log_limit_probe, phi_gate, shifted_bump
from sclab.gallery import (
    h_transversality_data,
    h_zero_branch,
    phi_value,
    rho_k_eval,
    rho_k_tangent,
    s_proj,
    s_proj_diff,
    s_proj_handle,
    s_tilde_inv,
    seq_diffeo,
    seq_diffeo_inv,
    seq_rho_k_handle,
)
from sclab.experiments import ExperimentConfig
from sclab.operator_probe import (
    OperatorHandle,
    finite_diff_differential,
    opnorm_dichotomy,
    truncation_opnorm,
)
from sclab.scale_core import (
    AnalyticTailFunction,
    LogScalar,
    SeqVector,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_norm,
    seq_norm,
    tail_projection,
)

from independent_routes import log_cmp

GERM_LEVEL = 1


def _verdict(num: int, title: str, failures, detail: str = ""):
    ok = not failures
    tail = detail if ok else "; ".join(failures[:3])
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({title}): {tail}")
    assert ok, failures


def test_criterion_01_sequence_discontinuity():
    start = time.perf_counter()
    failures = []
    worst_gap = 0.0
    for n in range(2, 11):
        t = 1.0 / n
        e_n = SeqVector.basis(n)
        for i in range(3):
            moved = seq_diffeo(t, e_n).add(seq_diffeo(0.0, e_n).scaled(-1.0))
            ratio = seq_norm(moved, i) / seq_norm(e_n, i)
            worst_gap = max(worst_gap, abs(ratio - 0.5))
            if abs(ratio - 0.5) > 1e-12:
                failures.append(f"gap ratio off at n={n}, i={i}: {ratio}")
        # truncated operator norm of the jump on 32 modes, level 0
        diag = np.array(
            [
                (lambda m: abs(
                    (seq_diffeo(t, SeqVector.basis(m)).coeffs[-1])
                    - 1.0
                ))(m)
                for m in range(1, 33)
            ]
        )
        op = OperatorHandle(np.diag(diag), np.eye(32), np.eye(32))
        nrm = truncation_opnorm(op)
        if not (0.5 - 1e-12 <= nrm <= 1.0 + 1e-12):
            failures.append(f"jump opnorm out of [0.5, 1] at n={n}: {nrm}")
    rng = np.random.default_rng(0)
    worst_rt = 0.0
    for _ in range(50):
        x = SeqVector(rng.normal(size=16))
        t = float(rng.uniform(-0.5, 1.5))
        back = seq_diffeo_inv(t, seq_diffeo(t, x))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.coeffs - x.coeffs))))
    if worst_rt > 1e-14:
        failures.append(f"round trip error {worst_rt} > 1e-14")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(
        1,
        "sequence-model jump",
        failures,
        f"worst ratio gap {worst_gap:.2e}, round trip {worst_rt:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_tail_and_retraction_bounds():
    start = time.perf_counter()
    failures = []
    worst_eq = 0.0
    for n in range(1, 33):
        for i in range(3):
            for k in range(1, 3):
                e = SeqVector.basis(n)
                lhs = seq_norm(e, i)
                rhs = n ** (-3 * k) * seq_norm(e, i + k)
                rel = abs(lhs - rhs) / max(lhs, 1e-300)
                worst_eq = max(worst_eq, rel)
                if rel > 1e-12:
                    failures.append(f"mode norm relation off at n={n},i={i},k={k}")
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = SeqVector(rng.normal(size=40))
        N = int(rng.integers(2, 33))
        tail = tail_projection(x, N)
        for i in range(2):
            for k in (1, 2):
                if seq_norm(tail, i) > N ** (-3 * k) * seq_norm(tail, i + k) + 1e-10:
                    failures.append(f"tail bound violated at N={N},i={i},k={k}")
    # equality at the single surviving mode
    for N in (4, 16, 32):
        e = SeqVector.basis(N)
        lhs, rhs = seq_norm(e, 0), N ** -3 * seq_norm(e, 1)
        if abs(lhs - rhs) > 1e-12 * lhs:
            failures.append(f"tail equality missed at e_{N}")
    worst_rho = 0.0
    for _ in range(1000):
        x = SeqVector(rng.normal(size=int(rng.integers(1, 17))))
        t = float(rng.uniform(-0.5, 1.5))
        i = int(rng.integers(0, 3))
        nx = seq_norm(x, i)
        if nx == 0.0:
            continue
        ratio = seq_norm(rho_k_eval(0, t, x), i) / nx
        worst_rho = max(worst_rho, ratio)
        if ratio > 2.0:
            failures.append(f"retraction norm ratio {ratio} > 2")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(
        2,
        "tail and retraction bounds",
        failures,
        f"worst equality gap {worst_eq:.2e}, worst map ratio {worst_rho:.3f}, {elapsed:.2f}s",
    )


def test_criterion_03_tangent_formula():
    failures = []
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in (0, 1):
        handle = seq_rho_k_handle(k)
        for j in range(20):
            n = 2 + j % 6
            # interior of the active window for mode n
            frac = 0.2 + 0.6 * (j / 19.0)
            t = 1.0 / (n + 1) + frac * (1.0 / n - 1.0 / (n + 1))
            point = (np.array([t]), rng.normal(size=(1, 8)))
            tangent = (np.array([1.0]), rng.normal(size=(1, 8)))
            (rep,) = finite_diff_differential(handle, point, tangent, level=0)
            worst = max(worst, rep.mismatch)
            if rep.mismatch > 1e-6:
                failures.append(f"k={k} mismatch {rep.mismatch} at t={t:.4f}")
    # analytic values at t = 0
    x = SeqVector(np.arange(1.0, 9.0))
    X = SeqVector(rng.normal(size=8))
    tan0 = rho_k_tangent(0, 0.0, x, 1.0, X)
    if not np.allclose(tan0.coeffs, X.coeffs, rtol=0, atol=1e-14):
        failures.append("k=0 tangent at t=0 is not X")
    tan1 = rho_k_tangent(1, 0.0, x, 1.0, X)
    if seq_norm(tan1, 0) != 0.0:
        failures.append("k=1 tangent at t=0 is not 0")
    _verdict(3, "derivative-family tangent formula", failures, f"worst FD mismatch {worst:.2e}")


def test_criterion_04_retract_image_gap():
    failures = []
    rng = np.random.default_rng(3)
    worst_orth = 0.0
    for t in (0.3, 0.4, 0.5):
        b = shifted_bump(t, 0)
        for _ in range(100):
            coeffs = rng.normal(size=3)
            f = grid_combine(
                [(coeffs[k], shifted_bump(t, k)) for k in range(3)]
            )
            nf = grid_sobolev_norm(f, 0, 0.0)
            _, proj = s_proj(t, f)
            resid = abs(grid_l2_inner(proj, b)) / max(nf, 1e-300)
            worst_orth = max(worst_orth, resid)
            if resid > 1e-10:
                failures.append(f"orthogonality {resid} at t={t}")
        pair = grid_l2_inner(b.scaled(t), b)
        if abs(pair - t) > 1e-6:
            failures.append(f"witness pairing {pair} != {t}")
    # differential at the origin is the identity, by finite differences
    handle = s_proj_handle()
    F = grid_combine([(1.0, shifted_bump(0.4, 0)), (0.5, shifted_bump(0.4, 1))])
    zero = F.zeros_like()
    (rep,) = finite_diff_differential(handle, [(0.0, zero)], [(1.0, F)], level=0)
    if rep.mismatch > 1e-6:
        failures.append(f"origin differential mismatch {rep.mismatch}")
    # kernel witness: the t-frozen differential annihilates the bump direction
    for t in (0.3, 0.4, 0.5):
        b = shifted_bump(t, 0)
        zero_w = b.zeros_like()
        _, out = s_proj_diff(t, zero_w, 0.0, b)
        kn = grid_sobolev_norm(out, 0, 0.0)
        if kn > 1e-10:
            failures.append(f"kernel witness norm {kn} at t={t}")
    _verdict(
        4,
        "retract image gap",
        failures,
        f"worst orthogonality {worst_orth:.2e}, origin FD mismatch {rep.mismatch:.2e}",
    )


def test_criterion_05_inverse_blowup():
    failures = []
    delta = 0.1
    tail = AnalyticTailFunction.inverse_square_tail(delta)
    grid = (0.5, 0.45, 0.4, 0.35, 0.3)
    logs = []
    min_margin = math.inf
    for t in grid:
        pre = s_tilde_inv(t, 0.0, tail)
        got = pre.y.logmag
        if not math.isfinite(got):
            failures.append(f"non-finite log magnitude at t={t}")
            continue
        floor = (
            math.exp(1.0 / (t * t))
            - 2.0 * delta * math.exp(1.0 / t)
            - 2.0 / t
            - math.log(4.0)
        )
        min_margin = min(min_margin, got - floor)
        if got < floor:
            failures.append(f"blow-up below closed-form floor at t={t}")
        logs.append(got)
    steps = [b - a for a, b in zip(logs, logs[1:])]
    if steps and min(steps) < math.log(10.0):
        failures.append(f"growth step {min(steps):.2f} < log 10")
    _verdict(
        5,
        "inverse blow-up",
        failures,
        f"min floor margin {min_margin:.2f}, min step {min(steps):.1f}",
    )


def test_criterion_06_gated_path_smoothness():
    failures = []
    grid = [0.5, 0.4, 0.3, 0.25, 0.2, 0.15]
    final_worst = -math.inf
    exponents = [(ell, m, n) for ell in range(4) for m in range(4) for n in range(4)]
    for delta in (0.0, 0.2):
        for (ell, m, n), lms in zip(exponents, log_limit_probe(exponents, delta, grid)):
            if not all(b < a for a, b in zip(lms, lms[1:])):
                failures.append(f"not decreasing at ({ell},{m},{n},{delta})")
            final_worst = max(final_worst, lms[-1])
            if lms[-1] >= -1e3:
                failures.append(f"envelope {lms[-1]:.1f} >= -1e3 at ({ell},{m},{n},{delta})")
    _verdict(6, "gated-path smoothness limits", failures, f"worst final envelope {final_worst:.3g}")


def test_criterion_07_noncompact_zeroset():
    failures = []
    worst = 0.0
    for n, m in ((2, 5), (3, 7)):
        bn = shifted_bump(1.0 / n, 0)
        bm = shifted_bump(1.0 / m, 0)
        # windows are far apart, so the cross pairing is exactly zero
        cross = grid_l2_inner(bn, bm)
        dist = math.sqrt(
            grid_l2_inner(bn, bn) - 2.0 * cross + grid_l2_inner(bm, bm)
        )
        worst = max(worst, abs(dist - math.sqrt(2.0)))
        if abs(dist - math.sqrt(2.0)) > 1e-8:
            failures.append(f"distance {dist} != sqrt(2) for (n,m)=({n},{m})")
    _verdict(
        7,
        "noncompact zero set",
        failures,
        f"worst |dist - sqrt(2)| = {worst:.2e} (squared-norm reading: 2)",
    )


def test_criterion_08_branching_zeroset():
    failures = []
    worst_route = 0.0
    for t in (0.3, 0.4, 0.5, 0.6):
        for x in (LogScalar.zero(), phi_gate(t)):
            resid = phi_value(t, x).add(x.neg())
            scale = x.logmag if not x.is_zero else 0.0
            ok = resid.is_zero or resid.logmag - scale < -27.0  # log(1e-12)
            if not ok:
                failures.append(f"fixed-point residual at t={t}")
        data = h_transversality_data(t)
        _, branch = h_zero_branch(t)
        half = branch.mul(LogScalar.from_real(0.5))
        if log_cmp(data.failure_coeff, half) != 0:
            failures.append(f"failure locus is not half the branch at t={t}")
        a, b = data.witness_value, data.witness_value_partial_route
        gap = abs(a.logmag - b.logmag)
        tol = 1e-12 * max(1.0, abs(a.logmag))
        worst_route = max(worst_route, gap)
        if a.sign != b.sign or gap > tol:
            failures.append(f"witness routes disagree at t={t}: gap {gap}")
    for t in (0.0, -0.25):
        _, coeff = h_zero_branch(t)
        if not coeff.is_zero:
            failures.append(f"nontrivial branch at t={t} <= 0")
    _verdict(8, "branching zero set", failures, f"worst route gap {worst_route:.2e}")


def test_criterion_09_opnorm_dichotomy():
    failures = []
    rows = opnorm_dichotomy([0.4, 0.35, 0.3, 0.25], delta=0.1)
    by_t = {row.t: row for row in rows}
    for t in (0.3, 0.35, 0.4):
        if by_t[t].l2_lower_bound < 0.999:
            failures.append(f"same-level witness below 0.999 at t={t}")
        row = by_t[t]
        if row.log_sampled_over_bound > math.log1p(1e-9):
            failures.append(f"sampled cross-level value above the bound at t={t}")
    uppers = [r.log_upper_bound for r in rows]
    if not all(b < a for a, b in zip(uppers, uppers[1:])):
        failures.append("cross-level upper bound is not strictly decreasing")
    _verdict(
        9,
        "operator-norm dichotomy",
        failures,
        f"lower {min(by_t[t].l2_lower_bound for t in (0.3, 0.35, 0.4)):.6f}, "
        f"log uppers {['%.2f' % u for u in uppers]}",
    )


def _germ_experiment(experiment_id: str, required):
    """Run a germ experiment at GERM_LEVEL; return its checks by name and the
    failures, counting a missing required check as one."""
    report = experiments.run(experiment_id, ExperimentConfig(germ_level=GERM_LEVEL))
    checks = {c.name: c for c in report.checks}
    failures = [f"{c.name}: {c.measured}" for c in report.checks if not c.passed]
    failures += [f"{name}: missing" for name in required if name not in checks]
    return checks, failures


def _measured(checks, names) -> str:
    return "; ".join(f"{n} {checks[n].measured}" for n in names if n in checks)


def test_criterion_10_germ_continuity():
    # germ-continuity checks a superset of this criterion with its thresholds:
    # certification at epsilon 0.5, 0.25, 0.1 with bit-exact replay, the
    # factor-two law with slack 1e-8, every probe below the closed form, probes
    # decreasing (slack 1e-12) to below 0.05 at 1/8 of the certified radius,
    # and pseudo-germ moduli >= 0.9
    names = [
        f"{gid}: {check}"
        for gid in ("rank-one", "quadratic")
        for check in (
            "certificate replay",
            "factor-two law",
            "probes below the closed form",
            "probe decay",
        )
    ] + ["moving-bump: non-contraction flag"]
    checks, failures = _germ_experiment("germ-continuity", names)
    _verdict(
        10,
        "germ contraction continuity",
        failures,
        _measured(checks, [n for n in names if n.endswith(("decay", "flag"))]),
    )


def test_criterion_11_openness():
    # germ-openness certifies epsilon 0.1, requires the condition number on
    # the certified ball within factor 2 of the origin's, and requires the
    # pseudo-germ to fail at radii 0.3, 0.2 and 0.15
    names = [
        "rank-one: openness at certified radius",
        "quadratic: openness at certified radius",
        "moving-bump: openness failure",
    ]
    checks, failures = _germ_experiment("germ-openness", names)
    _verdict(11, "openness of invertibility", failures, _measured(checks, names))
