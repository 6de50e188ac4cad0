"""Basic germs (c, w) -> (c, w - B(c, w)) with the level-wise
contraction property, sampled contraction certificates, the factor-two law
for the partial differential norm, and openness probes for the
differential — plus a pseudo-germ built from the moving-bump projection
that fails all of it.

Inputs w live in the span of a small list of smooth atoms (grid
functions); one witness coordinate along the escaping bump, scaled per
level, is added for the map whose bad direction moves with the parameter.
Every germ carries the closed-form differential dB of B, so the
differential probes take exact metric operator norms and no finite
difference is formed here.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bump_profiles import DEFAULT_MARGIN, DEFAULT_SPACING, bump_self_pairing, make_bump
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

#: absolute slack of the factor-two law ||D_w B|| <= 2 epsilon
_LAW_SLACK = 1e-8

#: how far the openness probe lets the condition number grow over its value
#: at the origin
_COND_FACTOR = 2.0


class DegenerateSampleError(RuntimeError):
    """All sampled pairs were degenerate (zero difference or no valid c)."""


def _quad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Quadratic forms v @ g @ v of the rows of v (n, m) with one Gram
    matrix g (m, m).  The stacked matmul agrees with the one-row
    float(v @ g @ v) bit for bit; einsum, vecdot and a summed elementwise
    product add in another order."""
    return (v[:, None, :] @ g @ v[:, :, None])[:, 0, 0]


def _norms(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row norms sqrt(v g v), with q < 0 and NaN read as 0 (Python's max(0, q))."""
    return np.sqrt(np.fmax(0.0, _quad(v, g)))


def _scaled(v: np.ndarray, radius, g: np.ndarray) -> np.ndarray:
    """The rows of v rescaled to the given norms (one radius, or one per
    row), each norm floored at sqrt(1e-300)."""
    return v * (radius / np.sqrt(np.maximum(_quad(v, g), 1e-300)))[:, None]


def _dots(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise pairings of v (n, m) with one vector p (m,), as the stacked
    matmul (bit for bit the one-row p @ v)."""
    return (v[:, None, :] @ p[:, None])[:, 0, 0]


def _worst(values: np.ndarray) -> float:
    """The running max(0.0, ...) of Python floats: NaN and -0.0 never win."""
    return float(np.max(values, initial=0.0, where=values > 0.0))


@dataclass
class GermContext:
    """Grid atoms spanning a germ's sampled w-subspace, with cached level
    Gram matrices (read-only arrays)."""

    atoms: Tuple[GridFunction, ...]
    schedule: WeightSchedule
    _grams: Dict[int, np.ndarray] = field(default_factory=dict)
    _l2: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.atoms)

    def _pairings(self, order: int, delta: float) -> np.ndarray:
        """The Gram matrix of the order-th Sobolev pairing with weight delta."""
        m = self.dim
        g = np.zeros((m, m))
        for q in range(m):
            for p in range(q + 1):
                g[p, q] = g[q, p] = grid_sobolev_inner(
                    self.atoms[p], self.atoms[q], order, delta
                )
        g.flags.writeable = False
        return g

    def gram(self, level: int) -> np.ndarray:
        if level not in self._grams:
            self._grams[level] = self._pairings(level, self.schedule.delta(level))
        return self._grams[level]

    def l2_gram(self) -> np.ndarray:
        """The order-0, delta = 0 Gram matrix: gram(0) itself when delta_0 = 0."""
        if self._l2 is None:
            self._l2 = self.gram(0) if self.schedule.delta(0) == 0.0 else self._pairings(0, 0.0)
        return self._l2

    def norm(self, v: np.ndarray, level: int) -> float:
        return float(_norms(v[None, :], self.gram(level))[0])

    def l2_pair_vector(self, j: int) -> np.ndarray:
        """L2 pairings of coordinate j with every coordinate: row j of the L2
        Gram matrix (a contiguous read-only view)."""
        return self.l2_gram()[j]


@dataclass
class _BumpContext(GermContext):
    """A base context's atoms followed by one coordinate along the escaping
    bump b_c, scaled per level: at level i it is e_i = s_i b_c with
    s_i^2 ||b_c||_i^2 = q = <b_c, b_c>.  b_c's window lies left of every
    atom's, so each Gram matrix is blockdiag(base block, q) at every c, and
    no grid is sampled.  When delta_0 = 0, s_0 = 1."""

    base: Optional[GermContext] = field(default=None, repr=False)
    q: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.atoms) + 1

    def _pairings(self, order: int, delta: float) -> np.ndarray:
        # l2_gram asks for (0, 0.0): the base's L2 block, its gram(0) if delta_0 = 0
        block = self.base.l2_gram() if (order, delta) == (0, 0.0) else self.base.gram(order)
        g = np.pad(block, (0, 1))
        g[-1, -1] = self.q
        g.flags.writeable = False
        return g


#: B and dB of a germ act on row stacks: parameters c of shape (n,) and
#: coefficient rows v of shape (n, m) over the germ's context; B returns
#: shape (n, m) and dB shape (n, m, 1 + m).
RowMap = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BasicGerm:
    """A germ (c, w) -> (c, w - B(c, w)) restricted to the sampled atom
    span; B and its differential dB act on row stacks of coefficient vectors
    over the coordinates of the germ's one context (see RowMap).  Row k of
    dB is the differential of B at (c_k, w_k) in (c, w): column 0 the
    c-partial, columns 1..m the w-partial D_wB."""

    name: str
    context: GermContext
    B: RowMap
    dB: RowMap
    #: sample_c(rng, delta, n): n parameters as one (n,) array, or None
    #: when delta admits no c
    sample_c: Callable[[np.random.Generator, float, int], Optional[np.ndarray]]
    c_dependent_atoms: bool = False

    def context_for(self, c: float) -> GermContext:
        """The context at parameter c: the germ's one context, for every c."""
        return self.context


def germ_eval(germ: BasicGerm, c: float, v: np.ndarray) -> Tuple[float, np.ndarray]:
    """(c, w - B(c, w)) in coefficient coordinates, at one point."""
    return c, v - germ.B(np.array([c]), v[None, :])[0]


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
    |c|, ||w1||_i, ||w2||_i < delta, with the sample count.  Each trial
    pairs w1 (radius r1) with 0, with a w2 of radius r2 and with w1 plus a
    step of radius 1e-3 delta; where the atoms move with c, also the witness
    coordinate (radius r1) with 0.

    Deterministic given the seed.  The draws are one generator call per
    kind, in this order: the n parameters c, n uniforms for r1 (r1 is
    0.999 delta at even trials), the (3, n, m) normals of w1, w2 and the
    step, and n uniforms for r2.  All pairs are then evaluated as one row
    stack."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    c = germ.sample_c(rng, delta, n_samples)
    if c is None:
        raise DegenerateSampleError(
            f"no admissible parameter values for {germ.name} at delta={delta}"
        )
    g = germ.context.gram(level)
    r1 = delta * rng.uniform(0.05, 0.95, n_samples)
    r1[::2] = 0.999 * delta
    n1, n2, n3 = rng.normal(size=(3, n_samples, len(g)))
    r2 = delta * rng.uniform(0.05, 0.95, n_samples)

    w1 = _scaled(n1, r1, g)
    zero = np.zeros_like(w1)
    wa = [w1, w1, w1]
    wb = [zero, _scaled(n2, r2, g), w1 + _scaled(n3, 1e-3 * delta, g)]
    if germ.c_dependent_atoms:
        # the bad direction moves with c and random draws can miss it:
        # also sample the witness atom itself
        witness = zero.copy()
        witness[:, -1] = 1.0
        wa.append(_scaled(witness, r1, g))
        wb.append(zero)
    k = len(wa)
    wa, wb = np.concatenate(wa), np.concatenate(wb)
    denom = _norms(wa - wb, g)
    b = germ.B(np.tile(c, 2 * k), np.concatenate((wa, wb)))
    num = _norms(b[: len(wa)] - b[len(wa) :], g)
    admissible = denom != 0.0
    ratios = num[admissible] / denom[admissible]
    if ratios.size == 0:
        raise DegenerateSampleError(
            f"no admissible contraction samples for {germ.name} at delta={delta}"
        )
    return ModulusResult(_worst(ratios), ratios.size)


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


def dW_opnorm_probe(
    germ: BasicGerm,
    level: int,
    radius: float,
    n_samples: int = 12,
    seed: int = 1,
) -> float:
    """Sampled operator norm of the w-partial differential of B over base
    points with |c|, ||w||_i < radius: the largest exact level-i operator
    norm of D_wB at the points, from one metric_singular_values call on the
    stack of germ.dB.  The draws are one generator call per kind, in this
    order: the n parameters c, n uniforms for the radius r of w (0.999
    radius at even trials) and the (n, m) normals of w."""
    rng = np.random.default_rng(seed)
    c = germ.sample_c(rng, radius, n_samples)
    if c is None:
        raise DegenerateSampleError(
            f"no admissible parameter values for {germ.name} at radius={radius}"
        )
    g = germ.context.gram(level)
    r = radius * rng.uniform(0.05, 0.95, n_samples)
    r[::2] = 0.999 * radius
    w = _scaled(rng.normal(size=(n_samples, len(g))), r, g)
    sv = metric_singular_values(OperatorHandle(germ.dB(c, w)[:, :, 1:], g, g))
    return _worst(sv[:, 0])


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
    contracting: bool
    two_epsilon_law_ok: bool


def germ_continuity_report(
    germ: BasicGerm,
    level: int,
    epsilons: Sequence[float] = (0.5, 0.25, 0.1),
    n_samples: int = 40,
    seed: int = 0,
) -> ContinuityReport:
    """Certify contraction radii and check the factor-two law: inside each
    certified radius the w-partial differential norm stays below
    2 epsilon.  Maps that fail certification are flagged, not rejected."""
    cert = certify(germ, level, epsilons, n_samples, seed)
    rows: List[ContinuityRow] = []
    for p in cert.pairs:
        if p.delta is None:
            # record the modulus observed at the smallest radius searched
            rows.append(ContinuityRow(p.epsilon, None, p.worst_ratio, False))
            continue
        op = dW_opnorm_probe(germ, level, p.delta, seed=seed + 1)
        rows.append(ContinuityRow(p.epsilon, p.delta, op, op <= 2.0 * p.epsilon + _LAW_SLACK))
    contracting = cert.all_certified
    return ContinuityReport(
        germ_id=germ.name,
        level=level,
        certificate=cert,
        rows=tuple(rows),
        contracting=contracting,
        two_epsilon_law_ok=contracting and all(r.within_factor_two for r in rows),
    )


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


def openness_probe(
    germ: BasicGerm,
    level: int,
    radius: float,
    seed: int = 2,
) -> OpennessReport:
    """Invertibility of the full differential must persist on a ball: the
    condition number at sampled points within the radius may not exceed the
    condition number at the origin by more than _COND_FACTOR.

    The points are the origin, then for each probed c the point (c, 0) and
    (c, w) with one normal draw of w per c, of norm radius / 2.  The full
    differentials I - (0; dB) of (c, w) -> (c, w - B) at every point, in
    the metric of level i with the parameter direction included, go to one
    metric_singular_values call."""
    rng = np.random.default_rng(seed)
    m, g = germ.context.dim, germ.context.gram(level)
    if germ.c_dependent_atoms:
        c_values = [0.9 * radius, 0.5 * radius]
    else:
        c_values = [0.9 * radius, -0.9 * radius, 0.5 * radius]
    cs = [0.0] + [c for c in c_values for _ in range(2)]
    w_radii = [0.0] + [0.0, 0.5 * radius] * len(c_values)
    v = np.zeros((len(cs), m))
    v[2::2] = _scaled(rng.normal(size=(len(c_values), m)), 0.5 * radius, g)
    jac = np.eye(1 + m) - np.pad(germ.dB(np.array(cs), v), ((0, 0), (1, 0), (0, 0)))
    gram = np.block([[np.ones((1, 1)), np.zeros((1, m))], [np.zeros((m, 1)), g]])
    sv = metric_singular_values(OperatorHandle(jac, gram, gram))
    cond = np.full(len(cs), math.inf)
    np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 1e-300)
    cond0, worst = float(cond[0]), float(cond.max())
    passed = math.isfinite(worst) and worst <= _COND_FACTOR * cond0
    rows = tuple(zip(cs, w_radii, cond.tolist()))
    return OpennessReport(germ.name, level, radius, cond0, worst, passed, rows)


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


def _symmetric_sampler(rng: np.random.Generator, delta: float, n: int) -> np.ndarray:
    return rng.uniform(-0.999 * delta, 0.999 * delta, n)


def make_rank_one_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = c <w, b> b with the unit bump b: linear in w, contraction
    radius proportional to the target modulus."""
    ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    pair_vec = ctx.l2_pair_vector(0)
    e_bump = np.eye(ctx.dim)[0]

    def B(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (c * _dots(v, pair_vec))[:, None] * e_bump

    def dB(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        # dB/dc = <w, b> e and D_wB = c e (x) p: both live in row 0
        out = np.zeros((len(c), ctx.dim, 1 + ctx.dim))
        out[:, 0, 0] = _dots(v, pair_vec)
        out[:, 0, 1:] = c[:, None] * pair_vec
        return out

    return BasicGerm(name="rank-one", context=ctx, B=B, dB=dB, sample_c=_symmetric_sampler)


def make_quadratic_germ(
    schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    """B(c, w) = <w, b> w: quadratic in w, independent of c."""
    ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    pair_vec = ctx.l2_pair_vector(0)

    def B(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _dots(v, pair_vec)[:, None] * v

    def dB(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        # dB/dc = 0 and D_wB = v (x) p + <w, b> I
        out = np.zeros((len(c), ctx.dim, 1 + ctx.dim))
        out[:, :, 1:] = v[:, :, None] * pair_vec
        out[:, :, 1:] += _dots(v, pair_vec)[:, None, None] * np.eye(ctx.dim)
        return out

    return BasicGerm(name="quadratic", context=ctx, B=B, dB=dB, sample_c=_symmetric_sampler)


def make_moving_bump_pseudo_germ(
    schedule: Optional[WeightSchedule] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> BasicGerm:
    """B(c, w) = <w, b_c> b_c with the escaping bump b_c for c > 0 (zero
    for c <= 0): the projection map's correction term.  Not a contraction —
    along the direction b_c the ratio stays near 1 at every radius.

    The germ's one context, for every c, is the shared base context plus one
    coordinate along b_c, scaled per level to e_i = s_i b_c with
    s_i^2 ||b_c||_i^2 = q = <b_c, b_c> (_BumpContext).  So no c samples a
    grid, and B(c, w) = (s_i q v_m) b_c = q v_m e_i at every level, with
    D_wB = q e_m (x) e_m.  Its c-partial is 0: B is written in the shared
    coordinate, whatever c it stands for.  That needs b_c's window left of
    the atoms', that is c < 1/ln(3 + margin) (1/ln 4 by default), which B
    and dB check; the experiments draw c < 0.5."""
    base_ctx = _base_context(schedule or WeightSchedule.default(), spacing)
    q = bump_self_pairing(spacing, margin)  # the same for every c
    ctx = _BumpContext(base_ctx.atoms, base_ctx.schedule, base=base_ctx, q=q)
    reach = 1.0 + margin - _ATOM_WINDOW[0]
    c_max = 1.0 / math.log(reach)

    def live(c: np.ndarray) -> np.ndarray:
        if (c >= c_max).any():
            raise ValueError(f"moving-bump B needs c < 1/ln({reach:g}), got c={float(c.max())!r}")
        return c > 0.0

    def B(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros(v.shape)
        on = live(c)
        out[on, -1] = q * v[on, -1]
        return out

    def dB(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros((len(c), ctx.dim, 1 + ctx.dim))
        out[live(c), -1, -1] = q
        return out

    def sample_c(rng: np.random.Generator, delta: float, n: int) -> Optional[np.ndarray]:
        # once 0.999 delta <= lo no c is drawn, which ends certify's
        # (failing) halving search
        lo = 0.074
        hi = 0.999 * delta
        if hi <= lo:
            return None
        return rng.uniform(max(lo, 0.5 * delta), hi, n)

    return BasicGerm(
        name="moving-bump", context=ctx, B=B, dB=dB, sample_c=sample_c, c_dependent_atoms=True
    )


GERM_IDS = ("rank-one", "quadratic", "moving-bump")


def make_germ(
    germ_id: str, schedule: Optional[WeightSchedule] = None, spacing: float = DEFAULT_SPACING
) -> BasicGerm:
    factory = {
        "rank-one": make_rank_one_germ,
        "quadratic": make_quadratic_germ,
        "moving-bump": make_moving_bump_pseudo_germ,
    }.get(germ_id)
    if factory is None:
        raise KeyError(f"unknown germ id {germ_id!r}; known: {GERM_IDS}")
    return factory(schedule, spacing)
