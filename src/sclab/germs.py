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

import functools
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


def _quad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Quadratic forms v @ g @ v of the rows of v (n, m), with one Gram
    matrix g (m, m) or one per row (n, m, m).  The stacked matmul agrees with
    the one-row float(v @ g @ v) bit for bit; einsum, vecdot and a summed
    elementwise product add in another order."""
    return (v[:, None, :] @ g @ v[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row norms sqrt(v g v), with q < 0 and NaN read as 0 (Python's max(0, q))."""
    return np.sqrt(np.fmax(0.0, _quad(v, g)))


def _scale_norms(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row norms floored at sqrt(1e-300), the divisors that rescale samples."""
    return np.sqrt(np.maximum(_quad(v, g), 1e-300))


def _dots(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise pairings of v (n, m) with one vector p (m,) or one per row
    (n, m), as the stacked matmul (bit for bit the one-row p @ v)."""
    return (v[:, None, :] @ p[..., :, None])[:, 0, 0]


def _worst(values: np.ndarray) -> float:
    """The running max(0.0, ...) of Python floats: NaN and -0.0 never win."""
    return float(np.max(values, initial=0.0, where=values > 0.0))


@dataclass
class GermContext:
    """Atoms spanning the sampled w-subspace at one parameter value, with
    cached level Gram matrices (read-only arrays).

    A context made by `extended` keeps its base and copies the base's Gram
    block, so only the rows of the new atoms are integrated."""

    atoms: Tuple[GridFunction, ...]
    schedule: WeightSchedule
    base: Optional["GermContext"] = field(default=None, repr=False)
    _grams: Dict[int, np.ndarray] = field(default_factory=dict)
    _l2: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.atoms)

    def extended(self, *atoms: GridFunction) -> "GermContext":
        """This context's atoms followed by the given ones."""
        return GermContext(self.atoms + atoms, self.schedule, base=self)

    def _integrate(
        self, order: int, delta: float, base_block: Callable[["GermContext"], np.ndarray]
    ) -> np.ndarray:
        m = self.dim
        g = np.zeros((m, m))
        k = 0
        if self.base is not None:
            k = self.base.dim
            g[:k, :k] = base_block(self.base)
        for q in range(k, m):
            for p in range(q + 1):
                g[p, q] = g[q, p] = grid_sobolev_inner(
                    self.atoms[p], self.atoms[q], order, delta
                )
        g.flags.writeable = False
        return g

    def gram(self, level: int) -> np.ndarray:
        if level not in self._grams:
            self._grams[level] = self._integrate(
                level, self.schedule.delta(level), lambda base: base.gram(level)
            )
        return self._grams[level]

    def l2_gram(self) -> np.ndarray:
        """The order-0, delta = 0 Gram matrix: gram(0) itself when delta_0 = 0."""
        if self._l2 is None:
            if self.schedule.delta(0) == 0.0:
                self._l2 = self.gram(0)
            else:
                self._l2 = self._integrate(0, 0.0, GermContext.l2_gram)
        return self._l2

    def norm(self, v: np.ndarray, level: int) -> float:
        return float(_norms(v[None, :], self.gram(level))[0])

    def l2_pair_vector(self, j: int) -> np.ndarray:
        """L2 pairings of atom j with every atom: row j of the L2 Gram matrix
        (a contiguous read-only view)."""
        return self.l2_gram()[j]


#: a and B of a germ act on row stacks: parameters c of shape (n,) and
#: coefficient rows v of shape (n, m), each row over the atoms of its own
#: context in ctxs; a returns shape (n,) and B shape (n, m).
RowMap = Callable[[np.ndarray, np.ndarray, Sequence[GermContext]], np.ndarray]


@dataclass(frozen=True)
class BasicGerm:
    """A germ (c, w) -> (a(c, w), w - B(c, w)) restricted to the sampled
    atom span; B and a act on row stacks of coefficient vectors over the
    context atoms (see RowMap)."""

    name: str
    context_for: Callable[[float], GermContext]
    a: RowMap
    B: RowMap
    sample_c: Callable[[np.random.Generator, float], Optional[float]]
    contraction_claimed: bool = True
    c_dependent_atoms: bool = False


def germ_eval(
    germ: BasicGerm, c: float, v: np.ndarray, ctx: Optional[GermContext] = None
) -> Tuple[float, np.ndarray]:
    """(a(c, w), w - B(c, w)) in coefficient coordinates, at one point."""
    cs, vs, ctxs = np.array([c]), v[None, :], [ctx or germ.context_for(c)]
    return float(germ.a(cs, vs, ctxs)[0]), v - germ.B(cs, vs, ctxs)[0]


def _over_dims(trials: List[tuple], evaluate: Callable[[List[tuple]], np.ndarray]) -> np.ndarray:
    """evaluate(group) for the sampled trials grouped by the dimension of
    their context (a trial's second entry), so that each group stacks into
    arrays; the results concatenated."""
    groups: Dict[int, List[tuple]] = {}
    for trial in trials:
        groups.setdefault(trial[1].dim, []).append(trial)
    return np.concatenate([np.empty(0)] + [evaluate(group) for group in groups.values()])


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
    given the seed: every trial's draws are read first, in trial order, and
    then all pairs are evaluated as row stacks."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    trials = []
    for trial in range(n_samples):
        c = germ.sample_c(rng, delta)
        if c is None:
            continue
        ctx = germ.context_for(c)
        r1 = 0.999 * delta if trial % 2 == 0 else delta * rng.uniform(0.05, 0.95)
        n1 = rng.normal(size=ctx.dim)
        r2 = delta * rng.uniform(0.05, 0.95)
        n2, n3 = rng.normal(size=ctx.dim), rng.normal(size=ctx.dim)
        trials.append((c, ctx, r1, n1, r2, n2, n3))
    ratios = _over_dims(trials, lambda group: _pair_ratios(germ, level, delta, group))
    if ratios.size == 0:
        raise DegenerateSampleError(
            f"no admissible contraction samples for {germ.name} at delta={delta}"
        )
    return ModulusResult(_worst(ratios), ratios.size)


def _pair_ratios(germ: BasicGerm, level: int, delta: float, trials: List[tuple]) -> np.ndarray:
    """Contraction ratios of the pairs with a non-zero difference, for
    trials whose contexts share one dimension.  Each trial pairs w1 (radius
    r1) with 0, with a w2 of radius r2 and with w1 plus a step of radius
    1e-3 delta."""
    c, ctxs, r1, n1, r2, n2, n3 = zip(*trials)
    g = np.stack([ctx.gram(level) for ctx in ctxs])

    def scaled(v: np.ndarray, radius) -> np.ndarray:
        return v * (radius / _scale_norms(v, g))[:, None]

    r1 = np.array(r1)
    w1 = scaled(np.array(n1), r1)
    zero = np.zeros_like(w1)
    wa = [w1, w1, w1]
    wb = [zero, scaled(np.array(n2), np.array(r2)), w1 + scaled(np.array(n3), 1e-3 * delta)]
    if germ.c_dependent_atoms:
        # the bad direction moves with c and random draws can miss it:
        # also sample the witness atom itself
        witness = zero.copy()
        witness[:, -1] = 1.0
        wa.append(scaled(witness, r1))
        wb.append(zero)
    k = len(wa)
    wa, wb, g = np.concatenate(wa), np.concatenate(wb), np.concatenate([g] * k)
    denom = _norms(wa - wb, g)
    b = germ.B(np.array(c * 2 * k), np.concatenate((wa, wb)), ctxs * 2 * k)
    num = _norms(b[: len(wa)] - b[len(wa) :], g)
    admissible = denom != 0.0
    return num[admissible] / denom[admissible]


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
    directions: np.ndarray,
    h: float,
) -> np.ndarray:
    """Central differences (fun(x + h d) - fun(x - h d)) / 2h, one row per
    row d of the direction stack; x is one point or one per direction.  fun
    maps a row stack to a row stack and is called once, on the rows x + h d
    followed by the rows x - h d."""
    k = len(directions)
    f = fun(np.concatenate((x + h * directions, x - h * directions)))
    return (f[:k] - f[k:]) / (2.0 * h)


def dW_opnorm_probe(
    germ: BasicGerm,
    level: int,
    radius: float,
    n_samples: int = 12,
    seed: int = 1,
    fd_step: float = 1e-6,
) -> float:
    """Sampled operator norm of the w-partial differential of B over base
    points with |c|, ||w||_i < radius, by central finite differences along
    each atom and one random direction.  The draws are read first, in trial
    order; all differences are then taken as one row stack."""
    rng = np.random.default_rng(seed)
    trials = []
    for trial in range(n_samples):
        c = germ.sample_c(rng, radius)
        if c is None:
            continue
        ctx = germ.context_for(c)
        n0 = rng.normal(size=ctx.dim)
        r = 0.999 * radius if trial % 2 == 0 else radius * rng.uniform(0.05, 0.95)
        trials.append((c, ctx, n0, r, rng.normal(size=ctx.dim)))
    worst = _worst(_over_dims(trials, lambda group: _dW_row_norms(germ, level, group, fd_step)))
    if worst == 0.0 and n_samples > 0:
        # legal (B may vanish identically near 0) but flag impossible c-sampling
        probe_c = germ.sample_c(np.random.default_rng(seed), radius)
        if probe_c is None:
            raise DegenerateSampleError(
                f"no admissible parameter values for {germ.name} at radius={radius}"
            )
    return worst


def _dW_row_norms(germ: BasicGerm, level: int, trials: List[tuple], fd_step: float) -> np.ndarray:
    """Norms of the difference quotients of B at each trial's point w along
    its unit directions, for trials whose contexts share one dimension."""
    c, ctxs, n0, r, nd = zip(*trials)
    m = ctxs[0].dim
    g = np.stack([ctx.gram(level) for ctx in ctxs])
    n0 = np.array(n0)
    w = (n0 / _scale_norms(n0, g)[:, None]) * np.array(r)[:, None]
    # per trial: the m atom directions, then the random one, each of unit norm
    d = np.concatenate(
        (np.broadcast_to(np.eye(m), (len(c), m, m)), np.array(nd)[:, None, :]), axis=1
    ).reshape(-1, m)
    g = np.repeat(g, m + 1, axis=0)
    rows_c = np.repeat(c, m + 1)
    rows_ctx = [ctx for ctx in ctxs for _ in range(m + 1)]
    rows = _central(
        lambda y: germ.B(np.concatenate((rows_c, rows_c)), y, rows_ctx * 2),
        np.repeat(w, m + 1, axis=0),
        d / _scale_norms(d, g)[:, None],
        fd_step,
    )
    return _norms(rows, g)


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
        ctxs = [ctx] * (2 * x.size)
        return _central(lambda y: germ.a(y[:, 0], y[:, 1:], ctxs), x, np.eye(x.size), fd_step)

    ctx0 = germ.context_for(0.0)
    g0 = grad(0.0, np.zeros(ctx0.dim), ctx0)
    worst = 0.0
    for _ in range(6):
        c = germ.sample_c(rng, radius)
        if c is None:
            continue
        ctx = germ.context_for(c)
        v = rng.normal(size=ctx.dim)
        v *= 0.5 * radius / _scale_norms(v[None, :], ctx.gram(level))[0]
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
        cs, vs, ctxs = y[:, 0], y[:, 1:], [ctx] * len(y)
        return np.column_stack((germ.a(cs, vs, ctxs), vs - germ.B(cs, vs, ctxs)))

    def a_at(y: np.ndarray) -> np.ndarray:
        return germ.a(y[:, 0], y[:, 1:], [ctx] * len(y))[:, None] * eye[0]

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
                v *= w_radius / _scale_norms(v[None, :], g)[0]
            cond = _full_diff_cond(germ, c, v, ctx, level)
            rows.append((c, w_radius, cond))
            worst = max(worst, cond)
    passed = math.isfinite(worst) and worst <= cond_factor * cond0
    return OpennessReport(germ.name, level, radius, cond0, worst, passed, tuple(rows))


# ---------------------------------------------------------------------------
# concrete germs


@functools.lru_cache(maxsize=32)
def _base_context(schedule: WeightSchedule, spacing: float) -> GermContext:
    """The bump, its shifts by -1/2 and 1/2 and its derivative as atoms, with
    their cached Gram matrices: built once per (schedule, spacing) and shared
    by every germ."""
    bump = make_bump()
    x0, x1 = _ATOM_WINDOW
    n = round((x1 - x0) / spacing) + 1
    xs = x0 + spacing * np.arange(n)
    samples = (bump(xs), bump(xs - 0.5), bump(xs + 0.5), bump.derivative(xs, 1))
    return GermContext(tuple(GridFunction(x0, spacing, v) for v in samples), schedule)


def _symmetric_sampler(rng: np.random.Generator, delta: float) -> float:
    return float(rng.uniform(-0.999 * delta, 0.999 * delta))


def _a_is_c(c: np.ndarray, v: np.ndarray, ctxs: Sequence[GermContext]) -> np.ndarray:
    """a(c, w) = c."""
    return c


def make_rank_one_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = c <w, b> b with the unit bump b: linear in w, contraction
    radius proportional to the target modulus."""
    ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    pair_vec = ctx.l2_pair_vector(0)
    e_bump = np.eye(ctx.dim)[0]

    def B(c: np.ndarray, v: np.ndarray, _ctxs: Sequence[GermContext]) -> np.ndarray:
        return (c * _dots(v, pair_vec))[:, None] * e_bump

    return BasicGerm(
        name="rank-one",
        context_for=lambda c: ctx,
        a=_a_is_c,
        B=B,
        sample_c=_symmetric_sampler,
    )


def make_quadratic_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = <w, b> w: quadratic in w, independent of c."""
    ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    pair_vec = ctx.l2_pair_vector(0)

    def B(c: np.ndarray, v: np.ndarray, _ctxs: Sequence[GermContext]) -> np.ndarray:
        return _dots(v, pair_vec)[:, None] * v

    return BasicGerm(
        name="quadratic",
        context_for=lambda c: ctx,
        a=_a_is_c,
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
    along the direction b_c the ratio stays near 1 at every radius.

    Each context for c > 0 extends the shared base context by b_c.  For
    c >= 1/ln 4 the window of b_c meets the base window on nodes that do not
    line up, and its Gram matrix raises GridMismatchError; the experiments
    draw c < 0.5."""
    base_ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    contexts: Dict[float, GermContext] = {}

    def context_for(c: float) -> GermContext:
        if c <= 0.0 or not is_representable(c):
            return base_ctx
        if c not in contexts:
            contexts[c] = base_ctx.extended(shifted_bump(c, 0, spacing, margin))
        return contexts[c]

    def B(c: np.ndarray, v: np.ndarray, ctxs: Sequence[GermContext]) -> np.ndarray:
        out = np.zeros(v.shape)
        m = v.shape[1]
        if m > base_ctx.dim:
            live = c > 0.0
            pairs = np.stack([ctx.l2_gram()[m - 1] for ctx in ctxs])
            out[live, -1] = _dots(v[live], pairs[live])
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
        a=_a_is_c,
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
