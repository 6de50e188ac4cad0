"""Basic germs (c, w) -> (a(c, w), w - B(c, w)) with the level-wise
contraction property, sampled contraction certificates, the factor-two law
for the partial differential norm, and openness probes for the
differential — plus a pseudo-germ built from the moving-bump projection
that fails all of it.

Inputs w live in the span of a small list of smooth atoms (grid
functions); per-parameter witness atoms are added for maps whose bad
directions move with the parameter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bump_profiles import (
    DEFAULT_MARGIN,
    DEFAULT_SPACING,
    is_representable,
    make_bump,
    shifted_bump,
)
from .operator_probe import OperatorHandle, metric_singular_values
from .scale_core import (
    GridFunction,
    WeightSchedule,
    grid_l2_inner,
    grid_sobolev_inner,
)

__all__ = [
    "GermContext",
    "BasicGerm",
    "germ_eval",
    "DegenerateSampleError",
    "ModulusResult",
    "modulus_with_count",
    "contraction_modulus",
    "CertifiedPair",
    "ContractionCertificate",
    "certify",
    "certificate_to_json",
    "certificate_from_json",
    "replay_certificate",
    "dW_opnorm_probe",
    "ContinuityRow",
    "ContinuityReport",
    "germ_continuity_report",
    "radius_shrink_probes",
    "OpennessReport",
    "openness_probe",
    "make_rank_one_germ",
    "make_quadratic_germ",
    "make_moving_bump_pseudo_germ",
    "GERM_IDS",
    "make_germ",
]

_ATOM_WINDOW = (-2.0, 2.0)


class DegenerateSampleError(RuntimeError):
    """All sampled pairs were degenerate (zero difference or no valid c)."""


@dataclass
class GermContext:
    """Atoms spanning the sampled w-subspace at one parameter value, with
    cached level Gram matrices."""

    atoms: Tuple[GridFunction, ...]
    schedule: WeightSchedule
    _grams: Dict[int, np.ndarray] = field(default_factory=dict)
    _pairs: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.atoms)

    def gram(self, level: int) -> np.ndarray:
        if level not in self._grams:
            delta = self.schedule.delta(level)
            m = self.dim
            g = np.zeros((m, m))
            for p in range(m):
                for q in range(p, m):
                    g[p, q] = g[q, p] = grid_sobolev_inner(
                        self.atoms[p], self.atoms[q], level, delta
                    )
            self._grams[level] = g
        return self._grams[level]

    def norm(self, v: np.ndarray, level: int) -> float:
        g = self.gram(level)
        return math.sqrt(max(0.0, float(v @ g @ v)))

    def l2_pair_vector(self, j: int) -> np.ndarray:
        """L2 pairings of every atom with atom j."""
        if j not in self._pairs:
            g = self.atoms[j]
            self._pairs[j] = np.array([grid_l2_inner(a, g) for a in self.atoms])
        return self._pairs[j]


@dataclass(frozen=True)
class BasicGerm:
    """A germ (c, w) -> (a(c, w), w - B(c, w)) restricted to the sampled
    atom span; B and a act on coefficient vectors over the context atoms."""

    name: str
    context_for: Callable[[float], GermContext]
    a: Callable[[float, np.ndarray, GermContext], float]
    B: Callable[[float, np.ndarray, GermContext], np.ndarray]
    sample_c: Callable[[np.random.Generator, float], Optional[float]]
    contraction_claimed: bool = True
    c_dependent_atoms: bool = False


def germ_eval(
    germ: BasicGerm, c: float, v: np.ndarray, ctx: Optional[GermContext] = None
) -> Tuple[float, np.ndarray]:
    """(a(c, w), w - B(c, w)) in coefficient coordinates."""
    ctx = ctx or germ.context_for(c)
    return germ.a(c, v, ctx), v - germ.B(c, v, ctx)


# ---------------------------------------------------------------------------
# contraction sampling and certificates


@dataclass(frozen=True)
class ModulusResult:
    worst_ratio: float
    samples: int


def modulus_with_count(
    germ: BasicGerm,
    level: int,
    delta: float,
    n_samples: int = 40,
    seed: int = 0,
) -> ModulusResult:
    """Worst sampled ratio ||B(c,w1) - B(c,w2)||_i / ||w1 - w2||_i over
    |c|, ||w1||_i, ||w2||_i < delta, with the sample count.  Deterministic
    given the seed."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    used = 0
    for trial in range(n_samples):
        c = germ.sample_c(rng, delta)
        if c is None:
            continue
        ctx = germ.context_for(c)
        g_level = ctx.gram(level)
        m = ctx.dim

        def scaled(v: np.ndarray, radius: float) -> np.ndarray:
            n = math.sqrt(max(float(v @ g_level @ v), 1e-300))
            return v * (radius / n)

        def draw(radius: float) -> np.ndarray:
            return scaled(rng.normal(size=m), radius)

        r1 = 0.999 * delta if trial % 2 == 0 else delta * rng.uniform(0.05, 0.95)
        w1 = draw(r1)
        pairs = [
            (w1, np.zeros(m)),
            (w1, draw(delta * rng.uniform(0.05, 0.95))),
            (w1, w1 + draw(1e-3 * delta)),
        ]
        if germ.c_dependent_atoms:
            # the bad direction moves with c and random draws can miss it:
            # also sample the witness atom itself
            pairs.append((scaled(np.eye(m)[-1], r1), np.zeros(m)))
        for wa, wb in pairs:
            diff = wa - wb
            denom = ctx.norm(diff, level)
            if denom == 0.0:
                continue
            num = ctx.norm(germ.B(c, wa, ctx) - germ.B(c, wb, ctx), level)
            worst = max(worst, num / denom)
            used += 1
    if used == 0:
        raise DegenerateSampleError(
            f"no admissible contraction samples for {germ.name} at delta={delta}"
        )
    return ModulusResult(worst, used)


def contraction_modulus(
    germ: BasicGerm,
    level: int,
    delta: float,
    n_samples: int = 40,
    seed: int = 0,
) -> float:
    """Worst sampled contraction ratio; see modulus_with_count."""
    return modulus_with_count(germ, level, delta, n_samples, seed).worst_ratio


@dataclass(frozen=True)
class CertifiedPair:
    epsilon: float
    delta: Optional[float]
    worst_ratio: float
    samples: int
    seed: int


@dataclass(frozen=True)
class ContractionCertificate:
    germ_id: str
    level: int
    pairs: Tuple[CertifiedPair, ...]

    @property
    def all_certified(self) -> bool:
        return all(p.delta is not None for p in self.pairs)


def certify(
    germ: BasicGerm,
    level: int,
    epsilons: Sequence[float] = (0.5, 0.25, 0.1),
    n_samples: int = 40,
    seed: int = 0,
    max_halvings: int = 40,
) -> ContractionCertificate:
    """For each target modulus epsilon, search for a radius delta whose
    sampled modulus stays below it (halving from delta = epsilon).  A pair
    with delta None records a failed search."""
    pairs: List[CertifiedPair] = []
    for eps in epsilons:
        delta = min(float(eps), 0.5)
        found = None
        last = float("nan")
        for _ in range(max_halvings):
            try:
                res = modulus_with_count(germ, level, delta, n_samples, seed)
            except DegenerateSampleError:
                break
            last = res.worst_ratio
            if res.worst_ratio <= eps:
                found = CertifiedPair(eps, delta, res.worst_ratio, res.samples, seed)
                break
            delta /= 2.0
        if found is None:
            found = CertifiedPair(eps, None, last, 0, seed)
        pairs.append(found)
    return ContractionCertificate(germ.name, level, tuple(pairs))


def certificate_to_json(cert: ContractionCertificate) -> str:
    return json.dumps(
        {
            "germ_id": cert.germ_id,
            "level": cert.level,
            "pairs": [
                {
                    "epsilon": p.epsilon,
                    "delta": p.delta,
                    "worst_ratio": p.worst_ratio,
                    "samples": p.samples,
                    "seed": p.seed,
                }
                for p in cert.pairs
            ],
        },
        sort_keys=True,
        indent=2,
    )


def certificate_from_json(text: str) -> ContractionCertificate:
    raw = json.loads(text)
    return ContractionCertificate(
        raw["germ_id"],
        raw["level"],
        tuple(
            CertifiedPair(
                p["epsilon"], p["delta"], p["worst_ratio"], p["samples"], p["seed"]
            )
            for p in raw["pairs"]
        ),
    )


def replay_certificate(germ: BasicGerm, cert: ContractionCertificate) -> bool:
    """Re-run every certified pair with its recorded seed; the sampled
    modulus must reproduce bit-for-bit."""
    for p in cert.pairs:
        if p.delta is None:
            return False
        res = modulus_with_count(germ, cert.level, p.delta, seed=p.seed)
        if res.worst_ratio != p.worst_ratio or res.samples != p.samples:
            return False
    return True


# ---------------------------------------------------------------------------
# differential probes


def _central(
    fun: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    directions: Sequence[np.ndarray],
    h: float,
) -> np.ndarray:
    """Central differences (fun(x + h d) - fun(x - h d)) / 2h, one row per
    direction d."""
    return np.array([(fun(x + h * d) - fun(x - h * d)) / (2.0 * h) for d in directions])


def dW_opnorm_probe(
    germ: BasicGerm,
    level: int,
    radius: float,
    n_samples: int = 12,
    seed: int = 1,
    fd_step: float = 1e-6,
) -> float:
    """Sampled operator norm of the w-partial differential of B over base
    points with |c|, ||w||_i < radius, by central finite differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_samples):
        c = germ.sample_c(rng, radius)
        if c is None:
            continue
        ctx = germ.context_for(c)
        g_level = ctx.gram(level)
        m = ctx.dim

        def unit(v: np.ndarray) -> np.ndarray:
            n = math.sqrt(max(float(v @ g_level @ v), 1e-300))
            return v / n

        w = unit(rng.normal(size=m)) * (0.999 * radius if trial % 2 == 0 else radius * rng.uniform(0.05, 0.95))
        directions = [unit(np.eye(m)[j]) for j in range(m)]
        directions.append(unit(rng.normal(size=m)))
        rows = _central(lambda x: germ.B(c, x, ctx), w, directions, fd_step)
        for row in rows:
            worst = max(worst, ctx.norm(row, level))
    if worst == 0.0 and n_samples > 0:
        # legal (B may vanish identically near 0) but flag impossible c-sampling
        probe_c = germ.sample_c(np.random.default_rng(seed), radius)
        if probe_c is None:
            raise DegenerateSampleError(
                f"no admissible parameter values for {germ.name} at radius={radius}"
            )
    return worst


@dataclass(frozen=True)
class ContinuityRow:
    epsilon: float
    delta: Optional[float]
    dw_opnorm: float
    within_factor_two: bool


@dataclass(frozen=True)
class ContinuityReport:
    germ_id: str
    level: int
    certificate: ContractionCertificate
    rows: Tuple[ContinuityRow, ...]
    da_variation: float
    contracting: bool
    two_epsilon_law_ok: bool


def germ_continuity_report(
    germ: BasicGerm,
    level: int,
    epsilons: Sequence[float] = (0.5, 0.25, 0.1),
    n_samples: int = 40,
    seed: int = 0,
    slack: float = 1e-8,
) -> ContinuityReport:
    """Certify contraction radii, check the factor-two law (inside each
    certified radius the w-partial differential norm stays below
    2 epsilon), and probe continuity of the parameter-part differential.
    Maps that fail certification are flagged, not rejected."""
    cert = certify(germ, level, epsilons, n_samples, seed)
    rows: List[ContinuityRow] = []
    for p in cert.pairs:
        if p.delta is None:
            # record the modulus observed at the smallest radius searched
            rows.append(ContinuityRow(p.epsilon, None, p.worst_ratio, False))
            continue
        op = dW_opnorm_probe(germ, level, p.delta, seed=seed + 1)
        rows.append(ContinuityRow(p.epsilon, p.delta, op, op <= 2.0 * p.epsilon + slack))
    da_variation = _da_variation(germ, level, min((e for e in epsilons), default=0.1), seed)
    contracting = cert.all_certified
    return ContinuityReport(
        germ_id=germ.name,
        level=level,
        certificate=cert,
        rows=tuple(rows),
        da_variation=da_variation,
        contracting=contracting,
        two_epsilon_law_ok=contracting and all(r.within_factor_two for r in rows),
    )


def _da_variation(
    germ: BasicGerm, level: int, radius: float, seed: int, fd_step: float = 1e-6
) -> float:
    """Largest deviation of the finite-difference gradient of a from its
    value at the origin, over sampled points in the radius ball."""
    rng = np.random.default_rng(seed + 2)

    def grad(c: float, v: np.ndarray, ctx: GermContext) -> np.ndarray:
        x = np.concatenate(([c], v))
        return _central(lambda y: germ.a(y[0], y[1:], ctx), x, np.eye(x.size), fd_step)

    ctx0 = germ.context_for(0.0)
    g0 = grad(0.0, np.zeros(ctx0.dim), ctx0)
    worst = 0.0
    for _ in range(6):
        c = germ.sample_c(rng, radius)
        if c is None:
            continue
        ctx = germ.context_for(c)
        gram = ctx.gram(level)
        v = rng.normal(size=ctx.dim)
        v *= 0.5 * radius / math.sqrt(max(float(v @ gram @ v), 1e-300))
        g = grad(c, v, ctx)
        n = min(g.size, g0.size)
        worst = max(worst, float(np.linalg.norm(g[:n] - g0[:n])))
    return worst


def radius_shrink_probes(
    germ: BasicGerm,
    level: int,
    base_radius: float,
    fractions: Sequence[float] = (1.0, 0.5, 0.25, 0.125),
    seed: int = 1,
) -> List[Tuple[float, float]]:
    """Differential-norm probes at shrinking fractions of a base radius."""
    return [
        (frac, dW_opnorm_probe(germ, level, frac * base_radius, seed=seed))
        for frac in fractions
    ]


# ---------------------------------------------------------------------------
# openness of invertible differentials


@dataclass(frozen=True)
class OpennessReport:
    germ_id: str
    level: int
    radius: float
    cond_at_zero: float
    worst_cond: float
    passed: bool
    rows: Tuple[Tuple[float, float, float], ...]  # (c, ||w||, cond)

    def __bool__(self) -> bool:
        return self.passed


def _full_diff_cond(
    germ: BasicGerm,
    c: float,
    v: np.ndarray,
    ctx: GermContext,
    level: int,
    fd_step: float = 1e-6,
) -> float:
    """Condition number of the full differential of (c, w) -> (a, w - B) in
    the metric of level i, with the parameter direction included."""
    m = ctx.dim
    x = np.concatenate(([c], v))
    eye = np.eye(1 + m)

    def f_at(y: np.ndarray) -> np.ndarray:
        aa, ww = germ_eval(germ, y[0], y[1:], ctx)
        return np.concatenate(([aa], ww))

    def a_at(y: np.ndarray) -> np.ndarray:
        return eye[0] * germ.a(y[0], y[1:], ctx)

    # where atoms move with c, probe only the a-component in the c-direction
    c_fun = a_at if germ.c_dependent_atoms else f_at
    # row k of the stacked differences is column k of the differential
    cols = np.vstack(
        [_central(c_fun, x, eye[:1], fd_step), _central(f_at, x, eye[1:], fd_step)]
    )
    g = ctx.gram(level)
    gram = np.block([[np.ones((1, 1)), np.zeros((1, m))], [np.zeros((m, 1)), g]])
    op = OperatorHandle(cols.T, gram, gram, label=f"{germ.name} full differential")
    sv = metric_singular_values(op)
    if sv[-1] <= 1e-300:
        return float("inf")
    return float(sv[0] / sv[-1])


def openness_probe(
    germ: BasicGerm,
    level: int,
    radius: float,
    seed: int = 2,
    cond_factor: float = 2.0,
) -> OpennessReport:
    """Invertibility of the full differential must persist on a ball: the
    condition number at sampled points within the radius may not exceed the
    condition number at the origin by more than the given factor."""
    rng = np.random.default_rng(seed)
    ctx0 = germ.context_for(0.0)
    cond0 = _full_diff_cond(germ, 0.0, np.zeros(ctx0.dim), ctx0, level)
    rows: List[Tuple[float, float, float]] = [(0.0, 0.0, cond0)]
    worst = cond0
    if germ.c_dependent_atoms:
        c_values = [
            frac * radius
            for frac in (0.9, 0.5)
            if is_representable(frac * radius)
        ]
    else:
        c_values = [0.9 * radius, -0.9 * radius, 0.5 * radius]
    for c in c_values:
        ctx = germ.context_for(c)
        g = ctx.gram(level)
        for w_radius in (0.0, 0.5 * radius):
            v = np.zeros(ctx.dim)
            if w_radius > 0:
                v = rng.normal(size=ctx.dim)
                v *= w_radius / math.sqrt(max(float(v @ g @ v), 1e-300))
            cond = _full_diff_cond(germ, c, v, ctx, level)
            rows.append((c, w_radius, cond))
            worst = max(worst, cond)
    passed = math.isfinite(worst) and worst <= cond_factor * cond0
    return OpennessReport(germ.name, level, radius, cond0, worst, passed, tuple(rows))


# ---------------------------------------------------------------------------
# concrete germs


def _base_atoms(spacing: float = DEFAULT_SPACING) -> Tuple[GridFunction, ...]:
    bump = make_bump()
    x0, x1 = _ATOM_WINDOW
    n = round((x1 - x0) / spacing) + 1
    xs = x0 + spacing * np.arange(n)
    return (
        GridFunction(x0, spacing, bump(xs)),
        GridFunction(x0, spacing, bump(xs - 0.5)),
        GridFunction(x0, spacing, bump(xs + 0.5)),
        GridFunction(x0, spacing, bump.derivative(xs, 1)),
    )


def _symmetric_sampler(rng: np.random.Generator, delta: float) -> float:
    return float(rng.uniform(-0.999 * delta, 0.999 * delta))


def make_rank_one_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = c <w, b> b with the unit bump b: linear in w, contraction
    radius proportional to the target modulus."""
    schedule = schedule or WeightSchedule.default()
    atoms = _base_atoms(spacing)
    ctx = GermContext(atoms, schedule)
    pair_vec = ctx.l2_pair_vector(0)
    e_bump = np.eye(len(atoms))[0]

    def B(c: float, v: np.ndarray, _ctx: GermContext) -> np.ndarray:
        return c * float(pair_vec @ v) * e_bump

    return BasicGerm(
        name="rank-one",
        context_for=lambda c: ctx,
        a=lambda c, v, _ctx: c,
        B=B,
        sample_c=_symmetric_sampler,
    )


def make_quadratic_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = <w, b> w: quadratic in w, independent of c."""
    schedule = schedule or WeightSchedule.default()
    atoms = _base_atoms(spacing)
    ctx = GermContext(atoms, schedule)
    pair_vec = ctx.l2_pair_vector(0)

    def B(c: float, v: np.ndarray, _ctx: GermContext) -> np.ndarray:
        return float(pair_vec @ v) * v

    return BasicGerm(
        name="quadratic",
        context_for=lambda c: ctx,
        a=lambda c, v, _ctx: c,
        B=B,
        sample_c=_symmetric_sampler,
    )


def make_moving_bump_pseudo_germ(
    schedule: Optional[WeightSchedule] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> BasicGerm:
    """B(c, w) = <w, b_c> b_c with the escaping bump b_c for c > 0 (zero
    for c <= 0): the projection map's correction term.  Not a contraction —
    along the direction b_c the ratio stays near 1 at every radius."""
    schedule = schedule or WeightSchedule.default()
    base = _base_atoms(spacing)
    base_ctx = GermContext(base, schedule)
    contexts: Dict[float, GermContext] = {}

    def context_for(c: float) -> GermContext:
        if c <= 0.0 or not is_representable(c):
            return base_ctx
        if c not in contexts:
            contexts[c] = GermContext(
                base + (shifted_bump(c, 0, spacing, margin),), schedule
            )
        return contexts[c]

    def B(c: float, v: np.ndarray, ctx: GermContext) -> np.ndarray:
        if c <= 0.0 or ctx.dim == len(base):
            return np.zeros(ctx.dim)
        out = np.zeros(ctx.dim)
        out[-1] = float(ctx.l2_pair_vector(ctx.dim - 1) @ v)
        return out

    def sample_c(rng: np.random.Generator, delta: float) -> Optional[float]:
        lo = 0.074  # smallest parameter whose bump shift stays representable
        hi = 0.999 * delta
        if hi <= lo:
            return None
        return float(rng.uniform(max(lo, 0.5 * delta), hi))

    return BasicGerm(
        name="moving-bump",
        context_for=context_for,
        a=lambda c, v, _ctx: c,
        B=B,
        sample_c=sample_c,
        contraction_claimed=False,
        c_dependent_atoms=True,
    )


GERM_IDS = ("rank-one", "quadratic", "moving-bump")


def make_germ(germ_id: str, schedule: Optional[WeightSchedule] = None) -> BasicGerm:
    factory = {
        "rank-one": make_rank_one_germ,
        "quadratic": make_quadratic_germ,
        "moving-bump": make_moving_bump_pseudo_germ,
    }.get(germ_id)
    if factory is None:
        raise KeyError(f"unknown germ id {germ_id!r}; known: {GERM_IDS}")
    return factory(schedule)
