"""The explicit map gallery: the rank-one retraction onto the moving bump
direction, the orthogonal-projection map, the gated shear with blowing-up
inverse, the branching family, and the diagonal sequence-space
diffeomorphism with its derivative family.

Coefficients along the shifted bump are carried as LogScalars attached to
the unit profile, and materialized on a grid only when representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .bump_profiles import (
    DEFAULT_MARGIN,
    DEFAULT_SPACING,
    K_MAX,
    bump_self_pairing,
    pair_with_bump,
    phi_gate,
    shift_amount,
    shifted_bump,
    step_n,
)
from .scale_core import (
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_combine,
    grid_sobolev_norm,
    seq_norm,
)

__all__ = [
    "rho_eval",
    "s_proj",
    "s_proj_diff",
    "TrackedScalar",
    "BumpSplit",
    "ShearImage",
    "ShearPreimage",
    "s_tilde_eval",
    "s_tilde_inv",
    "PhiFamily",
    "default_phi_family",
    "h_eval",
    "h_diff",
    "h_zero_branch",
    "h_transversality_data",
    "TransversalityData",
    "seq_diffeo",
    "seq_diffeo_inv",
    "rho_k_eval",
    "rho_k_tangent",
    "ScMapHandle",
    "seq_rho_k_handle",
    "seq_diffeo_handle",
    "h_family_handle",
    "s_proj_handle",
]


# ---------------------------------------------------------------------------
# rank-one retraction


def rho_eval(
    t: float,
    f: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
):
    """(t, <f, b_t> b_t) for t > 0, (t, 0) for t <= 0."""
    a = pair_with_bump(f, t, spacing, margin) if t > 0 else 0.0
    if a == 0.0:
        return (t, f.zeros_like())
    return (t, shifted_bump(t, 0, spacing, margin).scaled(a))


# ---------------------------------------------------------------------------
# orthogonal projection map


def s_proj(
    t: float,
    f: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
):
    """(t, f - <f, b_t> b_t) for t > 0, identity for t <= 0."""
    if t <= 0:
        return (t, f)
    a = pair_with_bump(f, t, spacing, margin)
    if a == 0.0:
        return (t, f)
    return (t, grid_combine([(1.0, f), (-a, shifted_bump(t, 0, spacing, margin))]))


def s_proj_diff(
    t: float,
    f: GridFunction,
    T: float,
    F: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
):
    """Full differential of the projection map at (t, f).

    The t-derivative terms carry the pairings of f with b_t and b_t'; where
    both are exactly 0 (the bump window lies left of f's) they add nothing.
    """
    if t <= 0:
        return (T, F)
    terms = [(1.0, F)]
    aF = pair_with_bump(F, t, spacing, margin)
    if aF != 0.0:
        terms.append((-aF, shifted_bump(t, 0, spacing, margin)))
    if T != 0.0:
        af = pair_with_bump(f, t, spacing, margin)
        afp = pair_with_bump(f, t, spacing, margin, order=1)
        if af != 0.0 or afp != 0.0:
            scale = T * shift_amount(t) / (t * t)
            terms.append((scale * afp, shifted_bump(t, 0, spacing, margin)))
            terms.append((scale * af, shifted_bump(t, 1, spacing, margin)))
    if len(terms) == 1:
        return (T, F)
    return (T, grid_combine(terms))


# ---------------------------------------------------------------------------
# gated shear and its inverse


@dataclass(frozen=True)
class TrackedScalar:
    """A float plus a log-domain correction too small for float addition."""

    base: float
    dust: LogScalar

    def to_log(self) -> LogScalar:
        return LogScalar.from_real(self.base).add(self.dust)

    def to_real(self) -> float:
        extra = 0.0
        if not self.dust.is_zero and self.dust.logmag > -745.0:
            extra = self.dust.to_real()
        return self.base + extra


@dataclass(frozen=True)
class BumpSplit:
    """Function component split into an orthogonal part plus a log-domain
    coefficient along the unit bump at parameter t."""

    t: float
    orth: Optional[GridFunction]
    along: LogScalar

    def materialize(
        self, spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN
    ) -> GridFunction:
        if self.orth is None:
            raise ValueError("orthogonal part is symbolic; cannot materialize")
        if self.along.is_zero or self.along.logmag < -745.0:
            return self.orth
        coeff = self.along.to_real()
        return grid_combine(
            [(1.0, self.orth), (coeff, shifted_bump(self.t, 0, spacing, margin))]
        )


@dataclass(frozen=True)
class ShearImage:
    t: float
    y: TrackedScalar
    f: BumpSplit


@dataclass(frozen=True)
class ShearPreimage:
    t: float
    y: LogScalar
    f: BumpSplit


def s_tilde_eval(
    t: float,
    y: float,
    f: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> ShearImage:
    """(t, y + phi(t)<f,b_t>, f - <f,b_t> b_t + y phi(t) b_t); identity t <= 0."""
    if t <= 0:
        return ShearImage(t, TrackedScalar(y, LogScalar.zero()), BumpSplit(t, f, LogScalar.zero()))
    phi = phi_gate(t)
    a = pair_with_bump(f, t, spacing, margin)
    if a == 0.0:
        orth = f
    else:
        orth = grid_combine([(1.0, f), (-a, shifted_bump(t, 0, spacing, margin))])
    return ShearImage(
        t,
        TrackedScalar(y, phi.mul(LogScalar.from_real(a))),
        BumpSplit(t, orth, LogScalar.from_real(y).mul(phi)),
    )


def s_tilde_inv(
    t: float,
    y: Union[float, TrackedScalar],
    f: Union[GridFunction, BumpSplit, AnalyticTailFunction],
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> ShearPreimage:
    """Inverse of the gated shear; the y output is a LogScalar because it
    divides by the double-exponentially small gate."""
    if not isinstance(y, TrackedScalar):
        y = TrackedScalar(float(y), LogScalar.zero())
    if t <= 0:
        orth = f if isinstance(f, GridFunction) else getattr(f, "orth", None)
        along = f.along if isinstance(f, BumpSplit) else LogScalar.zero()
        return ShearPreimage(t, y.to_log(), BumpSplit(t, orth, along))
    phi = phi_gate(t)
    if isinstance(f, BumpSplit):
        along, orth = f.along, f.orth
    elif isinstance(f, AnalyticTailFunction):
        along, orth = pair_with_bump(f, t, spacing, margin), None
    else:
        a = pair_with_bump(f, t, spacing, margin)
        along = LogScalar.from_real(a)
        if a == 0.0:
            orth = f
        else:
            orth = grid_combine([(1.0, f), (-a, shifted_bump(t, 0, spacing, margin))])
    y_out = along.div(phi)
    # (y phi - <f, b_t>) / phi^2; pair the large terms first so that the
    # exact round-trip cancellation happens before the tiny dust term lands
    num = LogScalar.from_real(y.base).mul(phi).add(along.neg()).add(y.dust.mul(phi))
    along_out = num.div(phi.mul(phi))
    return ShearPreimage(t, y_out, BumpSplit(t, orth, along_out))


# ---------------------------------------------------------------------------
# branching family


@dataclass(frozen=True)
class PhiFamily:
    """Scalar family (t, x) -> phi_t(x) with partials, in log-domain arithmetic."""

    value: Callable[[float, LogScalar], LogScalar]
    dx: Callable[[float, LogScalar], LogScalar]
    dt: Callable[[float, LogScalar], LogScalar]


def default_phi_family() -> PhiFamily:
    """phi_t(x) = x (1 - g(t) + x) with the double-exponential gate g."""

    def value(t: float, x: LogScalar) -> LogScalar:
        g = phi_gate(t)
        return x.mul(LogScalar.one().add(g.neg()).add(x))

    def dx(t: float, x: LogScalar) -> LogScalar:
        g = phi_gate(t)
        two_x = x.mul(LogScalar.from_real(2.0))
        return LogScalar.one().add(g.neg()).add(two_x)

    def dt(t: float, x: LogScalar) -> LogScalar:
        if t <= 0 or x.is_zero:
            return LogScalar.zero()
        g = phi_gate(t)
        lead = LogScalar(-1, math.log(2.0) - 3.0 * math.log(t) + 1.0 / (t * t))
        return lead.mul(g).mul(x)

    return PhiFamily(value, dx, dt)


def h_eval(
    t: float,
    f: GridFunction,
    phi: Optional[PhiFamily] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """f - phi_t(<f, b_t>) b_t for t > 0, identity for t <= 0."""
    if t <= 0:
        return f
    phi = phi or default_phi_family()
    a = pair_with_bump(f, t, spacing, margin)
    val = phi.value(t, LogScalar.from_real(a))
    if val.is_zero or val.logmag < -745.0:
        return f
    return grid_combine(
        [(1.0, f), (-val.to_real(), shifted_bump(t, 0, spacing, margin))]
    )


def h_diff(
    t: float,
    f: GridFunction,
    T: float,
    F: GridFunction,
    phi: Optional[PhiFamily] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """Full differential of the branching family at (t, f), applied to (T, F).

    Every t-derivative term carries a pairing of f with b_t or b_t'; where
    those are exactly 0 (the bump window lies left of f's) it adds nothing.
    """
    if t <= 0:
        return F
    phi = phi or default_phi_family()
    x_t = pair_with_bump(f, t, spacing, margin)
    aF = pair_with_bump(F, t, spacing, margin)
    x_log = LogScalar.from_real(x_t)
    c1 = phi.dx(t, x_log).to_real()
    terms = [(1.0, F)]
    if aF != 0.0:
        terms.append((-c1 * aF, shifted_bump(t, 0, spacing, margin)))
    if T != 0.0:
        dphit = phi.dt(t, x_log)
        c2 = phi.value(t, x_log)
        dshift = -shift_amount(t) / (t * t)  # d/dt of exp(1/t)
        if not dphit.is_zero and dphit.logmag > -745.0:
            terms.append((-T * dphit.to_real(), shifted_bump(t, 0, spacing, margin)))
        afp = pair_with_bump(f, t, spacing, margin, order=1)
        if afp != 0.0:
            terms.append((-T * c1 * (dshift * afp), shifted_bump(t, 0, spacing, margin)))
        if not c2.is_zero and c2.logmag > -745.0:
            terms.append((-T * c2.to_real() * dshift, shifted_bump(t, 1, spacing, margin)))
    if len(terms) == 1:
        return F
    return grid_combine(terms)


def h_zero_branch(t: float):
    """The nontrivial zero branch: coefficient of b_t, zero for t <= 0."""
    return (t, phi_gate(t))


@dataclass(frozen=True)
class TransversalityData:
    failure_coeff: LogScalar
    midpoint_identity: bool
    witness_value: LogScalar
    witness_value_partial_route: LogScalar


def h_transversality_data(
    t: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> TransversalityData:
    """Where fiber transversality fails, and the total-derivative witness.

    The failure locus coefficient is half the zero-branch coefficient; the
    witness magnitude (1/t^3) exp(1/t^2 - 2 exp(1/t^2)) is computed by two
    independent routes that must agree.
    """
    if t <= 0:
        raise ValueError("the failure locus exists only for t > 0")
    gate = phi_gate(t)
    half = LogScalar.from_real(0.5)
    failure_coeff = gate.mul(half)
    _, branch = h_zero_branch(t)
    midpoint = failure_coeff.cmp(branch.mul(half)) == 0
    E = math.exp(1.0 / (t * t))
    direct = LogScalar(1, math.fsum([-3.0 * math.log(t), 1.0 / (t * t), -2.0 * E]))
    # independent route: |d_t phi_t(x_t)| * <b_t, b_t> with x_t = gate / 2
    q = bump_self_pairing(t, spacing=spacing, margin=margin)
    partial = LogScalar(
        1,
        math.fsum(
            [
                math.log(2.0),
                -3.0 * math.log(t),
                1.0 / (t * t),
                -E,
                -E,
                math.log(0.5),
                math.log(q),
            ]
        ),
    )
    return TransversalityData(failure_coeff, midpoint, direct, partial)


# ---------------------------------------------------------------------------
# diagonal sequence-space diffeomorphism and derivative family


def seq_diffeo(t: float, x: SeqVector) -> SeqVector:
    """Coefficient-wise multiplication by the plateau values f_n(t)."""
    if x.dim == 0:
        return x
    return SeqVector(step_n(np.arange(1, x.dim + 1), t, 0) * x.coeffs)


def seq_diffeo_inv(t: float, y: SeqVector) -> SeqVector:
    """Coefficient-wise division by f_n(t); exact since f_n never vanishes."""
    if y.dim == 0:
        return y
    return SeqVector(y.coeffs / step_n(np.arange(1, y.dim + 1), t, 0))


def rho_k_eval(k: int, t: float, x: SeqVector) -> SeqVector:
    """Coefficient-wise multiplication by the k-th derivatives of f_n.

    For k >= 1 only the coefficient n = floor(1/t) can survive (the
    derivative supports are disjoint), and the map vanishes for t <= 0.
    """
    if k < 0 or k > K_MAX:
        raise ValueError(f"k must be in 0..{K_MAX}")
    return _rho(k, t, x)


def _rho(k: int, t: float, x: SeqVector) -> SeqVector:
    if k == 0:
        return seq_diffeo(t, x)
    if t <= 0 or x.dim == 0:
        return SeqVector(np.zeros(0))
    return SeqVector(step_n(np.arange(1, x.dim + 1), t, k) * x.coeffs)


def rho_k_tangent(k: int, t: float, x: SeqVector, T: float, X: SeqVector) -> SeqVector:
    """Tangent map: rho_k(t, X) + T rho_{k+1}(t, x), for every k of the family."""
    return rho_k_eval(k, t, X).add(_rho(k + 1, t, x).scaled(T))


# ---------------------------------------------------------------------------
# uniform handles for differential probing


@dataclass(frozen=True)
class ScMapHandle:
    """A gallery map with evaluation along a line, analytic differential and
    the codomain algebra needed for finite-difference validation.

    ``eval(point, tangent, hs)`` returns the map's outputs at
    point + h * tangent for each h in hs, in order, as an iterable that is
    read once.
    """

    name: str
    eval: Callable
    diff: Callable
    cod_combine: Callable
    cod_norm: Callable


def _seq_pair_combine(terms):
    T = sum(c * tan[0] for c, tan in terms)
    return (T, _seq_combine([(c, tan[1]) for c, tan in terms]))


def _seq_pair_norm(tan, i: int) -> float:
    return math.hypot(tan[0], seq_norm(tan[1], i))


def _seq_combine(terms):
    """sum(c * v), each term added in order into one zero array."""
    out = np.zeros(max((v.dim for _, v in terms), default=0))
    for c, v in terms:
        out[: v.dim] += c * v.coeffs
    return SeqVector(out)


def _seq_line(k: int, point, tangent, hs):
    """Parameters t + h T and rows rho_k(t + h T, x + h X) for each h in hs,
    from one step_n call; each row has the bits of the one-point map."""
    (t, x), (T, X) = point, tangent
    hs = np.asarray(hs, dtype=float)
    ts = t + hs * T
    xs = np.zeros((hs.size, max(x.dim, X.dim)))
    xs[:, : x.dim] += x.coeffs
    xs[:, : X.dim] += hs[:, np.newaxis] * X.coeffs
    # for t <= 0 every mode sits left of its transition window, so the rows
    # of k >= 1 come out zero there, as rho_k_eval makes them
    ys = step_n(np.arange(1, xs.shape[1] + 1), ts[:, np.newaxis], k) * xs
    return ts.tolist(), [SeqVector(y) for y in ys]


def seq_rho_k_handle(k: int) -> ScMapHandle:
    if k < 0 or k > K_MAX:
        raise ValueError(f"k must be in 0..{K_MAX}")
    return ScMapHandle(
        name=f"rho-{k}",
        eval=lambda p, tan, hs: _seq_line(k, p, tan, hs)[1],
        diff=lambda p, tan: rho_k_tangent(k, p[0], p[1], tan[0], tan[1]),
        cod_combine=_seq_combine,
        cod_norm=lambda v, i: seq_norm(v, i),
    )


def seq_diffeo_handle() -> ScMapHandle:
    return ScMapHandle(
        name="seq-diffeo",
        eval=lambda p, tan, hs: list(zip(*_seq_line(0, p, tan, hs))),
        diff=lambda p, tan: (tan[0], rho_k_tangent(0, p[0], p[1], tan[0], tan[1])),
        cod_combine=_seq_pair_combine,
        cod_norm=_seq_pair_norm,
    )


def _grid_line(f: Callable) -> Callable:
    """eval for a grid map f(t, g): one point of the line at a time, made
    as it is read, so a sweep holds no more grids than its reader keeps."""

    def line(p, tan, hs):
        return (f(p[0] + h * tan[0], grid_combine([(1.0, p[1]), (h, tan[1])])) for h in hs)

    return line


def _grid_pair_combine(terms):
    T = sum(c * tan[0] for c, tan in terms)
    g = grid_combine([(c, tan[1]) for c, tan in terms])
    return (T, g)


def _grid_norm(g: GridFunction, i: int, schedule=None) -> float:
    schedule = schedule or WeightSchedule.default()
    return grid_sobolev_norm(g, i, schedule.delta(i))


def s_proj_handle(spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN) -> ScMapHandle:
    return ScMapHandle(
        name="s-proj",
        eval=_grid_line(lambda t, f: s_proj(t, f, spacing, margin)),
        diff=lambda p, tan: s_proj_diff(p[0], p[1], tan[0], tan[1], spacing, margin),
        cod_combine=_grid_pair_combine,
        cod_norm=lambda tan, i: math.hypot(tan[0], _grid_norm(tan[1], i)),
    )


def h_family_handle(
    phi: Optional[PhiFamily] = None,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> ScMapHandle:
    return ScMapHandle(
        name="h-family",
        eval=_grid_line(lambda t, f: h_eval(t, f, phi, spacing, margin)),
        diff=lambda p, tan: h_diff(p[0], p[1], tan[0], tan[1], phi, spacing, margin),
        cod_combine=lambda terms: grid_combine(terms),
        cod_norm=lambda g, i: _grid_norm(g, i),
    )
