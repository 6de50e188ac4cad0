"""The benchmark's three workloads: how each builds its cases from the
benchmark seed, and the checks each makes on the program's outputs apart
from the reports' own checks.

A case is one pass over a workload's experiment list at one generated
``ExperimentConfig``.  Cases come in rounds; a run always attempts whole
rounds, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

import mpmath
import numpy as np

from sclab import bump_profiles, experiments, gallery, germs, scale_core
from sclab.experiments import ExperimentConfig

SEQ_SIZES = (16, 32, 64)
GRID_SPACINGS = (1e-3, 5e-4)
GERM_LEVELS = (0, 1, 2)
# Consecutive program seeds of one germ-cert round.  The moving-bump
# non-contraction flag fails at seeds 2, 8, 12, 17 and 35 of them, at every
# level, so every round fails the same 5 of its 80 operations.
GERM_SEEDS = tuple(range(40))


class CheckFailure(AssertionError):
    """An output of the program disagrees with an independent computation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailure(what)


@dataclass(frozen=True)
class Case:
    config: ExperimentConfig
    # the input size the case was generated at; case_ref.p50 takes the
    # median per size, so a round's mix of sizes never splits the median
    size: str

    @property
    def label(self) -> str:
        c = self.config
        return (
            f"seed={c.seed} truncation_n={c.truncation_n} "
            f"spacing={c.spacing:g} germ_level={c.germ_level}"
        )


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    make_round: Callable[[random.Random], List[Case]]
    # independent checks of one case; returns how many it made
    verify: Callable[[Case], int]
    # whole rounds in the traced pass, fixed so that counts repeat exactly
    trace_rounds: int


def check_report(report: experiments.ExperimentReport, rendered: str) -> int:
    """The emitted JSON must carry the report unchanged, and its verdict
    must be the conjunction of its checks."""
    _require(bool(report.checks), f"{report.experiment}: report without checks")
    _require(
        report.passed == all(c.passed for c in report.checks),
        f"{report.experiment}: verdict disagrees with its checks",
    )
    _require(
        json.loads(rendered) == report.to_dict(),
        f"{report.experiment}: emitted JSON differs from the report",
    )
    return 2


# ---------------------------------------------------------------------------
# seq-model


def _seq_round(rng: random.Random) -> List[Case]:
    return [
        Case(ExperimentConfig(seed=rng.randrange(2**31), truncation_n=n), f"truncation_n={n}")
        for n in SEQ_SIZES
    ]


def _seq_verify(case: Case) -> int:
    n_max = case.config.truncation_n
    rng = np.random.default_rng(case.config.seed)
    x = rng.normal(size=n_max)
    for n in range(1, n_max + 1):
        v = scale_core.SeqVector.basis(n, float(x[n - 1]))
        for i in range(3):
            direct = n ** (3 * i) * abs(float(x[n - 1]))
            got = scale_core.seq_norm(v, i)
            _require(
                abs(got - direct) <= 1e-13 * direct,
                f"level-{i} norm of mode {n}: {got!r} != n^(3i)|x_n| = {direct!r}",
            )
    vec = scale_core.SeqVector(x)
    for t in (float(rng.uniform(-0.2, 1.0)), 1.0 / float(rng.integers(2, 12))):
        image = gallery.seq_diffeo(t, vec).coeffs
        factors = image / x
        _require(
            bool(np.all((factors >= 0.5) & (factors <= 1.0))),
            f"plateau factors at t={t!r} leave [1/2, 1]",
        )
        back = gallery.seq_diffeo_inv(t, gallery.seq_diffeo(t, vec)).coeffs
        _require(
            back.shape == x.shape
            and bool(np.all(np.abs(back - x) <= 4.5e-16 * np.abs(x))),
            f"seq_diffeo_inv o seq_diffeo is not the identity at t={t!r}",
        )
    return 3 * n_max + 4


# ---------------------------------------------------------------------------
# grid-maps


def _grid_round(rng: random.Random) -> List[Case]:
    return [
        Case(ExperimentConfig(seed=rng.randrange(2**31), spacing=h), f"spacing={h:g}")
        for h in GRID_SPACINGS
    ]


@functools.lru_cache(maxsize=None)
def _mp_bump_normalization() -> mpmath.mpf:
    """1/sqrt of the integral of exp(-2/(1-x^2)) over (-1, 1), by mpmath."""
    with mpmath.workdps(30):
        integral = mpmath.quad(lambda x: mpmath.exp(-2 / (1 - x * x)), [-1, 0, 1])
        return 1 / mpmath.sqrt(integral)


@functools.lru_cache(maxsize=None)
def _mp_blowup_logmag(t: float, delta: float) -> float:
    """log |y| of the inverse shear at (t, 0, f) for the inverse-square tail
    f(x) = exp(-delta|x|)/x^2, by mpmath: log <f, b_t> + exp(1/t^2), since
    the scalar output is <f, b_t> divided by the gate exp(-exp(1/t^2))."""
    with mpmath.workdps(30):
        c = _mp_bump_normalization()
        s = mpmath.exp(1 / mpmath.mpf(t))

        def integrand(u):
            x = u - s  # below -1 for t < 1/ln 2, so the tail is uncapped
            return c * mpmath.exp(-1 / (1 - u * u) + delta * x) / (x * x)

        pairing = mpmath.quad(integrand, [-1, 0, 1])
        return float(mpmath.log(pairing) + mpmath.exp(1 / mpmath.mpf(t) ** 2))


def _mp_blowup_bound(t: float, delta: float) -> float:
    """exp(1/t^2) - 2 delta exp(1/t) - 2/t - log 4, the closed-form bound
    that inverse-blowup claims its log magnitude dominates."""
    with mpmath.workdps(30):
        mt = mpmath.mpf(t)
        return float(
            mpmath.exp(1 / mt**2) - 2 * delta * mpmath.exp(1 / mt) - 2 / mt - mpmath.log(4)
        )


def _grid_verify(case: Case) -> int:
    cfg = case.config
    rng = random.Random(cfg.seed)
    expected = float(_mp_bump_normalization())
    got = bump_profiles.make_bump().normalization
    _require(
        abs(got - expected) <= 1e-12 * expected,
        f"bump normalisation {got!r} != mpmath {expected!r}",
    )

    n, m = rng.sample(range(2, 7), 2)
    bn = bump_profiles.shifted_bump(1.0 / n, 0, cfg.spacing, cfg.margin)
    bm = bump_profiles.shifted_bump(1.0 / m, 0, cfg.spacing, cfg.margin)
    cross = scale_core.grid_l2_inner(bn, bm)
    _require(cross == 0.0, f"disjoint bumps at 1/{n}, 1/{m} pair to {cross!r}")
    # with an exactly zero cross term the distance is sqrt(|b_n|^2 + |b_m|^2);
    # each squared norm is summed here by the trapezoid rule, not by sclab
    sq = [cfg.spacing * (float(np.sum(b.values**2)) - 0.5 * (b.values[0] ** 2 + b.values[-1] ** 2)) for b in (bn, bm)]
    dist = math.sqrt(sum(sq))
    _require(
        abs(dist - math.sqrt(2.0)) <= 1e-12,
        f"disjoint bumps at 1/{n}, 1/{m} are {dist!r} apart, not sqrt(2)",
    )

    t = rng.choice(cfg.blowup_t_grid)
    delta = cfg.tail_delta
    tail = scale_core.AnalyticTailFunction.inverse_square_tail(delta)
    lm = gallery.s_tilde_inv(t, 0.0, tail, cfg.spacing, cfg.margin).y.logmag
    bound = _mp_blowup_bound(t, delta)
    _require(lm >= bound, f"inverse-blowup log magnitude {lm!r} below {bound!r} at t={t}")
    expected = _mp_blowup_logmag(t, delta)
    _require(
        abs(lm - expected) <= 1e-9 * max(1.0, abs(expected)),
        f"inverse-blowup log magnitude {lm!r} != mpmath {expected!r} at t={t}",
    )
    return 5


# ---------------------------------------------------------------------------
# germ-cert


def _germ_round(rng: random.Random) -> List[Case]:
    seeds = list(GERM_SEEDS)
    rng.shuffle(seeds)
    levels = [rng.choice(GERM_LEVELS) for _ in seeds]
    return [
        Case(ExperimentConfig(seed=s, germ_level=lv), f"germ_level={lv}")
        for s, lv in zip(seeds, levels)
    ]


def _require_spd(gram: np.ndarray, what: str) -> None:
    _require(np.array_equal(gram, gram.T), f"{what} Gram matrix is not symmetric")
    _require(
        float(np.linalg.eigvalsh(gram)[0]) > 0.0,
        f"{what} Gram matrix is not positive definite",
    )


def _germ_verify(case: Case) -> int:
    cfg = case.config
    schedule = cfg.schedule()
    germ_id = "rank-one" if cfg.seed % 2 == 0 else "quadratic"
    germ = germs.make_germ(germ_id, schedule)
    cert = germs.certify(germ, cfg.germ_level, epsilons=(0.25, 0.1), seed=cfg.seed)
    text = germs.certificate_to_json(cert)
    again = germs.certify(germ, cfg.germ_level, epsilons=(0.25, 0.1), seed=cfg.seed)
    _require(
        germs.certificate_to_json(again) == text,
        f"{germ_id} certificate differs between two runs at seed {cfg.seed}",
    )
    _require(
        germs.replay_certificate(germ, germs.certificate_from_json(text)),
        f"{germ_id} certificate does not replay from JSON at seed {cfg.seed}",
    )
    _require_spd(germ.context_for(0.0).gram(cfg.germ_level), germ_id)
    moving = germs.make_germ("moving-bump", schedule)
    c = 0.1 + 0.3 * random.Random(cfg.seed).random()
    _require_spd(moving.context_for(c).gram(0), f"moving-bump at c={c!r}")
    return 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seq-model",
            ("seq-discontinuity", "seq-tail-bounds", "seq-tangent-check"),
            _seq_round,
            _seq_verify,
            trace_rounds=2,
        ),
        Workload(
            "grid-maps",
            (
                "retract-image-gap",
                "identity-differential",
                "inverse-blowup",
                "opnorm-dichotomy",
                "noncompact-zeroset",
                "branching-zeroset",
                "transversality-witness",
                "g0-smoothness",
            ),
            _grid_round,
            _grid_verify,
            trace_rounds=5,
        ),
        Workload(
            "germ-cert",
            ("germ-continuity", "germ-openness"),
            _germ_round,
            _germ_verify,
            trace_rounds=1,
        ),
    )
}
