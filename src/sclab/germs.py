"""Basic germs (c, w) -> (c, w - B(c, w)) with the level-wise
contraction property, contraction certificates from each germ's closed-form
modulus with a sampled witness on replay, the factor-two law for the
partial differential norm, and openness probes for the differential — plus
a pseudo-germ built from the moving-bump projection that fails all of it.

Inputs w live in the span of a small list of smooth atoms (grid
functions); one coordinate along the escaping bump, scaled per level, is
added for the map whose bad direction moves with the parameter.  Every
germ carries the closed-form differential dB of B, so the differential
probes take exact metric operator norms and no finite difference is formed
here, and its exact contraction modulus on each ball, which certify reads
and modulus_with_count samples from below.  Every radius delta > 0 admits
parameters, so each probe returns one float per radius and a certificate
search that never meets its target ends at its last rung.  The constants a
modulus needs per level (the Gram matrix, the dual norm of the bump
pairing) are formed once per germ and level.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bump_profiles import DEFAULT_MARGIN, DEFAULT_SPACING, bump_self_pairing, make_bump
from .operator_probe import OperatorHandle, metric_singular_values
from .scale_core import GridFunction, WeightSchedule, grid_sobolev_gram, grid_sobolev_pairings

__all__ = [
    "GermContext",
    "BasicGerm",
    "modulus_with_count",
    "CertifiedPair",
    "ContractionCertificate",
    "certify",
    "certificate_to_json",
    "certificate_from_json",
    "replay_certificate",
    "dW_opnorm_probe",
    "OpennessReport",
    "openness_probe",
    "GERM_IDS",
    "make_germ",
]

_ATOM_WINDOW = (-2.0, 2.0)

#: how far the openness probe lets the condition number grow over its value
#: at the origin
_COND_FACTOR = 2.0


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
    """The rows of v (..., m) rescaled to the given norms, which broadcast
    against v's rows (so a stack of norms gives a stack of copies), each
    norm of v formed once and floored at sqrt(1e-300)."""
    quad = _quad(v.reshape(-1, v.shape[-1]), g).reshape(v.shape[:-1])
    return v * (radius / np.sqrt(np.maximum(quad, 1e-300)))[..., None]


def _dots(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise pairings of v (n, m) with one vector p (m,), as the stacked
    matmul (bit for bit the one-row p @ v)."""
    return (v[:, None, :] @ p[:, None])[:, 0, 0]


def _worst(values: np.ndarray) -> float:
    """The running max(0.0, ...) of Python floats: NaN and -0.0 never win."""
    return float(np.max(values, initial=0.0, where=values > 0.0))


@dataclass(eq=False)
class GermContext:
    """A Gram provider for a germ's coordinates: its dim and its level Gram
    matrices gram(level) = build(level), each built once and cached
    read-only in _grams."""

    dim: int
    build: Callable[[int], np.ndarray]
    _grams: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def gram(self, level: int) -> np.ndarray:
        if level not in self._grams:
            g = self.build(level)
            g.flags.writeable = False
            self._grams[level] = g
        return self._grams[level]


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
    #: c_range(delta): the interval (lo, hi) of the parameters sampled at
    #: radius delta; every delta > 0 admits parameters
    c_range: Callable[[float], Tuple[float, float]]
    #: modulus(level, delta): the exact level-i contraction modulus, the sup
    #: of ||B(c, w1) - B(c, w2)||_i / ||w1 - w2||_i over c in c_range(delta)
    #: and ||w1||_i, ||w2||_i < delta
    modulus: Callable[[int, float], float]

    def context_for(self, c: float) -> GermContext:
        """The context at parameter c: the germ's one context, for every c."""
        return self.context


def _parameters(
    germ: BasicGerm, radii: Sequence[float], u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The radii as a (k, 1) column and their parameters lo + (hi - lo) u
    over c_range, one (n,) row per radius: bit for bit
    Generator.uniform(lo, hi, n) on the draws u = Generator.uniform(size=n)."""
    bounds = np.array([germ.c_range(r) for r in radii]).reshape(-1, 2)
    lo, hi = bounds[:, :1], bounds[:, 1:]
    return np.array(radii, dtype=float)[:, None], lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# sampled contraction moduli and certificates


def modulus_with_count(
    germ: BasicGerm,
    level: int,
    deltas: Sequence[float],
    n_samples: int = 40,
    seed: int = 0,
) -> List[float]:
    """For each radius delta, the worst sampled ratio
    ||B(c,w1) - B(c,w2)||_i / ||w1 - w2||_i over c in c_range(delta) and
    ||w1||_i, ||w2||_i < delta.  Each trial pairs w1 (radius r1, at least
    0.05 delta) with 0, with a w2 of radius r2 and with w1 plus a step of
    radius 1e-3 delta, and pairs with w1 = w2 are skipped.  Random
    pairs bound the modulus from below only: replay_certificate reads them
    as a witness against the closed form, and nothing certifies from them.

    Deterministic given the seed, and each radius's result is that of a
    call with it alone.  The draws are made once for every radius, one
    generator call per kind, in this order: n uniforms u for c (c = lo +
    (hi - lo) u over c_range(delta)), n uniforms for r1 / delta (r1 is
    0.999 delta at even trials), the (3, n, m) normals of w1, w2 and the
    step, and n uniforms for r2 / delta.  All radii's pairs are then
    evaluated as one row stack: one B call and two norm calls."""
    if any(delta <= 0 for delta in deltas):
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n_samples)
    g = germ.context.gram(level)
    m = len(g)
    u1 = rng.uniform(0.05, 0.95, n_samples)
    normals = rng.normal(size=(3, n_samples, m))
    u2 = rng.uniform(0.05, 0.95, n_samples)
    delta, c = _parameters(germ, deltas, u)

    r1 = delta * u1
    r1[:, ::2] = 0.999 * delta
    # the norms of w1, w2 and the step at every radius
    norms = [r1, delta * u2, np.broadcast_to(1e-3 * delta, r1.shape)]
    w = _scaled(normals, np.stack(norms, axis=1), g)
    w1 = w[:, 0]
    wa, wb = [w1, w1, w1], [np.zeros_like(w1), w[:, 1], w1 + w[:, 2]]
    # (2, radii, kinds of pair, n, m), and the parameter of every row
    pairs = np.stack((np.stack(wa, axis=1), np.stack(wb, axis=1)))
    rows = pairs.shape[1:-1]
    b = germ.B(np.broadcast_to(c[:, None], pairs.shape[:-1]).ravel(), pairs.reshape(-1, m))
    b = b.reshape(pairs.shape)
    denom = _norms((pairs[0] - pairs[1]).reshape(-1, m), g).reshape(rows)
    num = _norms((b[0] - b[1]).reshape(-1, m), g).reshape(rows)
    return [_worst(nk[dk != 0.0] / dk[dk != 0.0]) for nk, dk in zip(num, denom)]


@dataclass(frozen=True)
class CertifiedPair:
    epsilon: float
    delta: Optional[float]
    #: the exact modulus at delta; for a failed search (delta None) the last
    #: modulus above epsilon, NaN where the ladder had none
    modulus: float


@dataclass(frozen=True)
class ContractionCertificate:
    germ_id: str
    level: int
    pairs: Tuple[CertifiedPair, ...]
    #: the trials and the seed of the sampled witness that a replay runs
    n_samples: int
    seed: int

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
    """For each target modulus epsilon, the first radius on the halving
    ladder min(epsilon, 0.5), its half, ... (at most max_halvings radii)
    whose exact modulus germ.modulus(level, delta) is at most epsilon.  A
    pair with delta None records a failed search, which ends at the last
    rung.  Nothing is sampled here: n_samples and seed are recorded for the
    witness of replay_certificate."""

    def search(eps: float) -> CertifiedPair:
        delta, last = min(float(eps), 0.5), math.nan
        for _ in range(max_halvings):
            modulus = germ.modulus(level, delta)
            if modulus <= eps:
                return CertifiedPair(eps, delta, modulus)
            last, delta = modulus, delta / 2.0
        return CertifiedPair(eps, None, last)

    pairs = tuple(search(eps) for eps in epsilons)
    return ContractionCertificate(germ.name, level, pairs, n_samples, seed)


def certificate_to_json(cert: ContractionCertificate) -> str:
    return json.dumps(asdict(cert), sort_keys=True, indent=2)


def certificate_from_json(text: str) -> ContractionCertificate:
    """The certificate a JSON text holds; a missing or unknown key raises."""
    raw = json.loads(text)
    raw["pairs"] = tuple(CertifiedPair(**p) for p in raw["pairs"])
    return ContractionCertificate(**raw)


def replay_certificate(germ: BasicGerm, cert: ContractionCertificate) -> bool:
    """Every pair must be certified, with its modulus re-derived bit for bit
    from germ.modulus at its radius and at most its epsilon.  Then the
    sampled route witnesses the closed forms: one fresh modulus_with_count
    call over the certified radii, at the certificate's seed and n_samples,
    whose worst ratio at each radius may not exceed the exact modulus."""
    if not cert.all_certified or any(
        germ.modulus(cert.level, p.delta) != p.modulus or p.modulus > p.epsilon
        for p in cert.pairs
    ):
        return False
    deltas = [p.delta for p in cert.pairs]
    witness = modulus_with_count(germ, cert.level, deltas, cert.n_samples, cert.seed)
    return all(worst <= p.modulus for p, worst in zip(cert.pairs, witness))


# ---------------------------------------------------------------------------
# differential probes


def dW_opnorm_probe(
    germ: BasicGerm,
    level: int,
    radii: Sequence[float],
    n_samples: int = 12,
    seed: int = 1,
) -> List[float]:
    """For each radius, the sampled operator norm of the w-partial
    differential of B over base points with c in c_range(radius) and
    ||w||_i < radius: the largest exact level-i operator norm of D_wB at
    the points.  Each radius's value is that of a call with it alone.  The
    draws are made once for every radius, one generator call per kind, in
    this order: n uniforms u for c (c = lo + (hi - lo) u over
    c_range(radius)), n uniforms for r / radius (r, the radius of w, is
    0.999 radius at even trials) and the (n, m) normals of w.  All radii's
    points go to one metric_singular_values call on the stack of germ.dB."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=n_samples)
    g = germ.context.gram(level)
    u_r = rng.uniform(0.05, 0.95, n_samples)
    normals = rng.normal(size=(n_samples, len(g)))
    radius, c = _parameters(germ, radii, u)
    r = radius * u_r
    r[:, ::2] = 0.999 * radius
    w = _scaled(normals, r, g).reshape(-1, len(g))
    sv = metric_singular_values(OperatorHandle(germ.dB(c.ravel(), w)[:, :, 1:], g, g))
    tops = sv[:, 0].reshape(len(radii), n_samples)
    return [_worst(top) for top in tops]


# ---------------------------------------------------------------------------
# openness of invertible differentials


@dataclass(frozen=True)
class OpennessReport:
    cond_at_zero: float
    worst_cond: float
    passed: bool
    rows: Tuple[Tuple[float, float, float], ...]  # (c, ||w||, cond)


def openness_probe(
    germ: BasicGerm,
    level: int,
    radii: Sequence[float],
    seed: int = 2,
) -> List[OpennessReport]:
    """For each radius, invertibility of the full differential must
    persist on its ball: the condition number at sampled points within the
    radius may not exceed the condition number at the origin by more than
    _COND_FACTOR.  Each radius's report is that of a call with it alone.

    The points are the origin, then for each c of 0.9, -0.9 and 0.5 times
    the radius the point (c, 0) and (c, w) with one normal draw of w per c,
    of norm radius / 2; the normals are drawn once, for every radius and
    every germ.  The full differentials I - (0; dB)
    of (c, w) -> (c, w - B) at every radius's points, in the metric of
    level i with the parameter direction included, go to one
    metric_singular_values call."""
    rng = np.random.default_rng(seed)
    m, g = germ.context.dim, germ.context.gram(level)
    fractions = (0.9, -0.9, 0.5)
    normals = rng.normal(size=(len(fractions), m))
    cs = [[0.0] + [f * radius for f in fractions for _ in range(2)] for radius in radii]
    v = np.zeros((len(radii), 1 + 2 * len(fractions), m))
    v[:, 2::2] = _scaled(normals, 0.5 * np.array(radii, dtype=float)[:, None], g)
    d = germ.dB(np.array(cs).ravel(), v.reshape(-1, m))
    # I - (0; dB) and blockdiag(1, G_i), filled in place
    jac = np.tile(np.eye(1 + m), (len(d), 1, 1))
    jac[:, 1:] -= d
    gram = np.zeros((1 + m, 1 + m))
    gram[0, 0] = 1.0
    gram[1:, 1:] = g
    sv = metric_singular_values(OperatorHandle(jac, gram, gram))
    cond = np.full(len(sv), math.inf)
    np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 1e-300)
    reports = []
    for radius, c_rows, conds in zip(radii, cs, cond.reshape(v.shape[:2])):
        w_radii = [0.0] + [0.0, 0.5 * radius] * len(fractions)
        cond0, worst = float(conds[0]), float(conds.max())
        passed = math.isfinite(worst) and worst <= _COND_FACTOR * cond0
        rows = tuple(zip(c_rows, w_radii, conds.tolist()))
        reports.append(OpennessReport(cond0, worst, passed, rows))
    return reports


# ---------------------------------------------------------------------------
# concrete germs


@functools.lru_cache(maxsize=32)
def _atoms(spacing: float) -> Tuple[GridFunction, ...]:
    """The bump b, its shifts by -1/2 and 1/2 and its derivative, sampled
    on _ATOM_WINDOW."""
    bump = make_bump()
    x0, x1 = _ATOM_WINDOW
    n = round((x1 - x0) / spacing) + 1
    xs = x0 + spacing * np.arange(n)
    samples = (bump(xs), bump(xs - 0.5), bump(xs + 0.5), bump.derivative(xs, 1))
    return tuple(GridFunction(x0, spacing, v) for v in samples)


@functools.lru_cache(maxsize=32)
def _bump_pairings(spacing: float) -> np.ndarray:
    """The L2 pairings <a_j, b> of the atoms with the bump b = a_0, a
    read-only vector: one for every schedule, which weights only the level
    Gram matrices (at delta_0 = 0 it is row 0 of gram(0), bit for bit)."""
    atoms = _atoms(spacing)
    row_0 = [(0, j) for j in range(len(atoms))]
    p = grid_sobolev_pairings([a.values for a in atoms], row_0, 0, 0.0, atoms[0].x0, spacing)
    p.flags.writeable = False
    return p


@functools.lru_cache(maxsize=32)
def _base_context(schedule: WeightSchedule, spacing: float) -> GermContext:
    """The atoms' context, built once per (schedule, spacing) and shared by
    every germ: its level Gram matrix is grid_sobolev_gram of the atoms'
    samples, which share one window, at the level's weight."""
    atoms = _atoms(spacing)
    rows = [a.values for a in atoms]

    def build(level: int) -> np.ndarray:
        return grid_sobolev_gram(rows, level, schedule.delta(level), atoms[0].x0, spacing)

    return GermContext(len(atoms), build)


def _symmetric_range(delta: float) -> Tuple[float, float]:
    return -0.999 * delta, 0.999 * delta


def _dual_norm(g: np.ndarray, p: np.ndarray) -> float:
    """||p||_{i,*} = sqrt(p G_i^-1 p): the level-i norm of the functional
    v -> p . v, attained along G_i^-1 p."""
    return math.sqrt(float(p @ np.linalg.solve(g, p)))


def _rank_one(base: GermContext, spacing: float, margin: float) -> BasicGerm:
    """B(c, w) = c <w, b> b with the unit bump b: linear in w, contraction
    radius proportional to the target modulus."""
    pair_vec = _bump_pairings(spacing)
    dual = functools.cache(lambda level: _dual_norm(base.gram(level), pair_vec))
    e_bump = np.eye(base.dim)[0]

    def B(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        return (c * _dots(v, pair_vec))[:, None] * e_bump

    def dB(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        # dB/dc = <w, b> e and D_wB = c e (x) p: both live in row 0
        out = np.zeros((len(c), base.dim, 1 + base.dim))
        out[:, 0, 0] = _dots(v, pair_vec)
        out[:, 0, 1:] = c[:, None] * pair_vec
        return out

    def modulus(level: int, delta: float) -> float:
        # B is linear in w with norm |c| ||e||_i ||p||_{i,*}, largest at the
        # end of c_range
        return _symmetric_range(delta)[1] * math.sqrt(base.gram(level)[0, 0]) * dual(level)

    return BasicGerm("rank-one", base, B, dB, _symmetric_range, modulus)


def _quadratic(base: GermContext, spacing: float, margin: float) -> BasicGerm:
    """B(c, w) = <w, b> w: quadratic in w, independent of c."""
    pair_vec = _bump_pairings(spacing)
    dual = functools.cache(lambda level: _dual_norm(base.gram(level), pair_vec))

    def B(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        return _dots(v, pair_vec)[:, None] * v

    def dB(c: np.ndarray, v: np.ndarray) -> np.ndarray:
        # dB/dc = 0 and D_wB = v (x) p + <w, b> I
        out = np.zeros((len(c), base.dim, 1 + base.dim))
        out[:, :, 1:] = v[:, :, None] * pair_vec
        out[:, :, 1:] += _dots(v, pair_vec)[:, None, None] * np.eye(base.dim)
        return out

    def modulus(level: int, delta: float) -> float:
        # B(w1) - B(w2) = <w1 - w2, b> w1 + <w2, b> (w1 - w2), so the ratio
        # is below (||w1||_i + ||w2||_i) ||p||_{i,*}, and tends to that sup
        # along G_i^-1 p
        return 2.0 * delta * dual(level)

    return BasicGerm("quadratic", base, B, dB, _symmetric_range, modulus)


def _moving_bump(base: GermContext, spacing: float, margin: float) -> BasicGerm:
    """B(c, w) = <w, b_c> b_c with the escaping bump b_c for c > 0 (zero
    for c <= 0): the projection map's correction term.  Not a contraction —
    along the direction b_c the ratio stays near 1 at every radius.

    The germ's one context, for every c, is the base context plus one
    coordinate along b_c, scaled per level to e_i = s_i b_c with
    s_i^2 ||b_c||_i^2 = q = <b_c, b_c> (s_0 = 1 when delta_0 = 0).  b_c's
    window lies left of every atom's, so each Gram matrix is blockdiag(base
    Gram matrix, q) and no c samples a grid.  B(c, w) = (s_i q v_m) b_c =
    q v_m e_i at every level, with D_wB = q e_m (x) e_m.  Its c-partial is
    0: B is written in the shared coordinate, whatever c it stands for.
    That needs b_c's window left of the atoms', that is c < 1/ln(3 +
    margin) (1/ln 4 by default), which B and dB check.  Its parameters at
    radius delta are (0.5 delta, 0.999 delta), positive at every radius, so
    its modulus is q on every ball; certify's radii stay at or below 0.5."""
    q = bump_self_pairing(spacing, margin)  # the same for every c

    def gram(level: int) -> np.ndarray:
        g = np.pad(base.gram(level), (0, 1))
        g[-1, -1] = q
        return g

    ctx = GermContext(base.dim + 1, gram)
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

    def c_range(delta: float) -> Tuple[float, float]:
        return 0.5 * delta, 0.999 * delta

    def modulus(level: int, delta: float) -> float:
        # every sampled c is positive, and B scales the bump coordinate by
        # q, a block of its own in every Gram matrix: the ratio is at most
        # q, and q along that coordinate, at every radius
        return q

    return BasicGerm("moving-bump", ctx, B, dB, c_range, modulus)


_BUILDERS = {"rank-one": _rank_one, "quadratic": _quadratic, "moving-bump": _moving_bump}
GERM_IDS = tuple(_BUILDERS)


def make_germ(
    germ_id: str,
    schedule: Optional[WeightSchedule] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> BasicGerm:
    """The germ named germ_id over the shared base context of (schedule,
    spacing); margin reaches only the moving bump."""
    if germ_id not in _BUILDERS:
        raise KeyError(f"unknown germ id {germ_id!r}; known: {GERM_IDS}")
    base = _base_context(schedule or WeightSchedule.default(), spacing)
    return _BUILDERS[germ_id](base, spacing, margin)
