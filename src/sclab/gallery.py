"""The explicit map gallery: the rank-one retraction onto the moving bump
direction, the orthogonal-projection map, the gated shear with blowing-up
inverse, the branching family, and the diagonal sequence-space
diffeomorphism with its derivative family.

Coefficients along the shifted bump are carried as LogScalars attached to
the unit profile, and materialized on a grid only when representable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .bump_profiles import (
    DEFAULT_MARGIN,
    DEFAULT_SPACING,
    K_MAX,
    bump_reaches,
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
    grid_row,
    grid_sobolev_norm,
    grid_sobolev_norms,
    grid_window,
    seq_norm,
    seq_norms,
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
    "phi_value",
    "phi_dx",
    "phi_dt",
    "h_eval",
    "h_diff",
    "h_zero_branch",
    "h_transversality_data",
    "TransversalityData",
    "seq_diffeo",
    "seq_diffeo_inv",
    "rho_k_eval",
    "rho_k_tangent",
    "Sweep",
    "ScMapHandle",
    "seq_rho_k_handle",
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
    return (t, _add_bump(f, t, spacing, margin, _s_proj_coefficient(t, f, spacing, margin)))


def _s_proj_coefficient(t: float, f: GridFunction, spacing: float, margin: float) -> float:
    """The c with s_proj(t, f) = (t, f + c b_t): -<f, b_t> for t > 0, else 0.0."""
    return -pair_with_bump(f, t, spacing, margin) if t > 0 else 0.0


def _add_bump(
    f: GridFunction, t: float, spacing: float, margin: float, c0: float, c1: float = 0.0
) -> GridFunction:
    """f + c0 b_t + c1 b_t' on the union window, each term added only where
    its coefficient is not 0.0, so f itself where both are."""
    terms = [(c, shifted_bump(t, k, spacing, margin)) for k, c in enumerate((c0, c1)) if c != 0.0]
    return grid_combine([(1.0, f), *terms]) if terms else f


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
    both are exactly 0 (the bump window lies left of f's) they add nothing,
    and exp(1/t), which may be inf there, is not read.
    """
    if t <= 0:
        return (T, F)
    c0, c1 = -pair_with_bump(F, t, spacing, margin), 0.0
    if T != 0.0:
        af = pair_with_bump(f, t, spacing, margin)
        afp = pair_with_bump(f, t, spacing, margin, order=1)
        if af != 0.0 or afp != 0.0:
            scale = T * shift_amount(t) / (t * t)
            c0, c1 = c0 + scale * afp, scale * af
    return (T, _add_bump(F, t, spacing, margin, c0, c1))


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
        return _add_bump(self.orth, self.t, spacing, margin, self.along.to_real())


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
    orth = _add_bump(f, t, spacing, margin, -a)
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
        orth = _add_bump(f, t, spacing, margin, -a)
    y_out = along.div(phi)
    # (y phi - <f, b_t>) / phi^2; pair the large terms first so that the
    # exact round-trip cancellation happens before the tiny dust term lands
    num = LogScalar.from_real(y.base).mul(phi).add(along.neg()).add(y.dust.mul(phi))
    along_out = num.div(phi.mul(phi))
    return ShearPreimage(t, y_out, BumpSplit(t, orth, along_out))


# ---------------------------------------------------------------------------
# branching family


def phi_value(t: float, x: LogScalar) -> LogScalar:
    """The scalar family phi_t(x) = x (1 - g(t) + x), with the
    double-exponential gate g, in log-domain arithmetic."""
    return x.mul(LogScalar.one().add(phi_gate(t).neg()).add(x))


def phi_dx(t: float, x: LogScalar) -> LogScalar:
    """d/dx phi_t(x) = 1 - g(t) + 2x."""
    return LogScalar.one().add(phi_gate(t).neg()).add(x.mul(LogScalar.from_real(2.0)))


def phi_dt(t: float, x: LogScalar) -> LogScalar:
    """d/dt phi_t(x) = -g'(t) x = -(2/t^3) exp(1/t^2) g(t) x, 0 for t <= 0."""
    if t <= 0 or x.is_zero:
        return LogScalar.zero()
    lead = LogScalar(-1, math.log(2.0) - 3.0 * math.log(t) + 1.0 / (t * t))
    return lead.mul(phi_gate(t)).mul(x)


def h_eval(
    t: float,
    f: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """f - phi_t(<f, b_t>) b_t for t > 0, identity for t <= 0."""
    return _add_bump(f, t, spacing, margin, _h_coefficient(t, f, spacing, margin))


def _real(x: LogScalar) -> float:
    """x as a float, 0.0 where it is zero or underflows one."""
    return 0.0 if x.is_zero or x.logmag < -745.0 else x.to_real()


def _h_coefficient(t: float, f: GridFunction, spacing: float, margin: float) -> float:
    """The c with h_eval(t, f) = f + c b_t: -phi_t(<f, b_t>) for t > 0, and
    0.0 for t <= 0 or where phi_t underflows a float."""
    if t <= 0:
        return 0.0
    return -_real(phi_value(t, LogScalar.from_real(pair_with_bump(f, t, spacing, margin))))


def h_diff(
    t: float,
    f: GridFunction,
    T: float,
    F: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """Full differential of the branching family at (t, f), applied to (T, F).

    Every t-derivative term carries a pairing of f with b_t or b_t'; where
    those are exactly 0 (the bump window lies left of f's) it adds nothing,
    and exp(1/t), which may be inf there, is not multiplied in.
    """
    if t <= 0:
        return F
    x_log = LogScalar.from_real(pair_with_bump(f, t, spacing, margin))
    slope = phi_dx(t, x_log).to_real()
    c0, c1 = -slope * pair_with_bump(F, t, spacing, margin), 0.0
    if T != 0.0:
        dshift = -shift_amount(t) / (t * t)  # d/dt of exp(1/t)
        c0 -= T * _real(phi_dt(t, x_log))
        afp = pair_with_bump(f, t, spacing, margin, order=1)
        if afp != 0.0:
            c0 -= T * slope * (dshift * afp)
        value = _real(phi_value(t, x_log))
        if value != 0.0:
            c1 = -T * value * dshift
    return _add_bump(F, t, spacing, margin, c0, c1)


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
    q = bump_self_pairing(spacing, margin)
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
    return _rho(0, t, x)


def seq_diffeo_inv(t: float, y: SeqVector) -> SeqVector:
    """Coefficient-wise division by f_n(t); exact since f_n never vanishes."""
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
    # for t <= 0 every mode sits left of its transition window, where the
    # derivatives of order k >= 1 are exactly 0
    return SeqVector(step_n(np.arange(1, x.dim + 1), t, k) * x.coeffs)


def rho_k_tangent(k: int, t: float, x: SeqVector, T: float, X: SeqVector) -> SeqVector:
    """Tangent map: rho_k(t, X) + T rho_{k+1}(t, x), for every k of the family."""
    return rho_k_eval(k, t, X).add(_rho(k + 1, t, x).scaled(T))


# ---------------------------------------------------------------------------
# uniform handles for differential probing


@dataclass(frozen=True)
class Sweep:
    """A map's outputs along a line as 1-D float rows on one index set.

    Pair codomains (parameter, function) put the parameter first.  Every
    row has the bits of the one-point map's output on its own indices, and
    zeros elsewhere.
    """

    rows: Iterable  # one row per step, in order, read once
    row: Callable  # a codomain value, such as the analytic differential, as a row
    norms: Callable  # (row stack, level) -> the rows' level-i codomain norms, an array
    norm: Callable  # (codomain value, level) -> its level-i norm on its own window


@dataclass(frozen=True)
class ScMapHandle:
    """A gallery map with evaluation along a line and its analytic
    differential, for finite-difference validation.

    ``eval(point, tangent, hs)`` returns the ``Sweep`` of the map's outputs
    at point + h * tangent for each h in hs.  ``diff(point, tangent)``
    returns the differential applied to the tangent, a codomain value.
    """

    name: str
    eval: Callable
    diff: Callable


def _pair_norms(norms: Callable) -> Callable:
    """Norms of (parameter, rest) rows: the hypot of the parameter and the
    rest's norm, as math.hypot takes it."""

    def pair(rows, i: int) -> np.ndarray:
        rest = norms(rows[:, 1:], i).tolist()
        return np.array([math.hypot(p, q) for p, q in zip(rows[:, 0].tolist(), rest)])

    return pair


def _pair_norm(norm: Callable) -> Callable:
    """The norm of a (parameter, rest) value, as _pair_norms takes a row's."""
    return lambda value, i: math.hypot(value[0], norm(value[1], i))


def _seq_sweep(k: int, point, tangent, hs) -> Sweep:
    """Rows of rho_k(t + h T, x + h X) for each h in hs, on the modes up to
    the larger of x and X, from one step_n call."""
    (t, x), (T, X) = point, tangent
    hs = np.asarray(hs, dtype=float)
    n = max(x.dim, X.dim)
    xs = np.zeros((hs.size, n))
    xs[:, : x.dim] += x.coeffs
    xs[:, : X.dim] += hs[:, np.newaxis] * X.coeffs
    rows = step_n(np.arange(1, n + 1), (t + hs * T)[:, np.newaxis], k) * xs

    def row(value: SeqVector) -> np.ndarray:
        out = np.zeros(n)
        out[: value.dim] = value.coeffs
        return out

    return Sweep(rows, row, seq_norms, seq_norm)


def seq_rho_k_handle(k: int) -> ScMapHandle:
    if k < 0 or k > K_MAX:
        raise ValueError(f"k must be in 0..{K_MAX}")
    return ScMapHandle(
        name=f"rho-{k}",
        eval=lambda p, tan, hs: _seq_sweep(k, p, tan, hs),
        diff=lambda p, tan: rho_k_tangent(k, p[0], p[1], tan[0], tan[1]),
    )


def _grid_sweep(coefficient: Callable, with_t: bool, spacing: float, margin: float) -> Callable:
    """eval for a grid map that sends (t, g) to g + c b_t, c = coefficient(t, g),
    where c is 0.0 for t <= 0 and wherever b_t's window does not reach g's.

    The rows share one window, the hull of the point's, the tangent's and
    the bump terms'.  A first pass finds c at the steps where b_t reaches
    g = f + h F, the only steps that build g as a grid.  Each row is then
    formed as it is read, g and then c b_t added in the order the one-point
    map adds them, so the sweep holds no outputs.
    """

    def line(point, tangent, hs) -> Sweep:
        (t, f), (T, F) = point, tangent
        ts = [t + h * T for h in hs]
        x0_g = min(f.x0, F.x0)
        coefs = {}
        for j, (h, s) in enumerate(zip(hs, ts)):
            if s > 0 and bump_reaches(x0_g, s, margin):
                c = coefficient(s, grid_combine([(1.0, f), (h, F)]))
                if c != 0.0:
                    coefs[j] = c

        def bump(j: int) -> GridFunction:
            return shifted_bump(ts[j], 0, spacing, margin)

        dx, lead = f.spacing, int(with_t)
        x0, n = grid_window(itertools.chain((f, F), map(bump, coefs)))
        f_row, F_row = grid_row(f, x0, dx, n), grid_row(F, x0, dx, n)
        schedule = WeightSchedule.default()

        def rows():
            for j, (h, s) in enumerate(zip(hs, ts)):
                out = np.empty(lead + n)
                out[:lead] = s
                np.multiply(F_row, h, out=out[lead:])
                out[lead:] += f_row
                if j in coefs:
                    b = bump(j)
                    lo = lead + round((b.x0 - x0) / dx)
                    out[lo : lo + b.n_nodes] += coefs[j] * b.values
                yield out

        def row(value) -> np.ndarray:
            out = np.empty(lead + n)
            if with_t:
                out[0], value = value
            out[lead:] = grid_row(value, x0, dx, n)
            return out

        def norms(stack, i: int) -> np.ndarray:
            return grid_sobolev_norms(stack, i, schedule.delta(i), x0, dx)

        def norm(g: GridFunction, i: int) -> float:
            return grid_sobolev_norm(g, i, schedule.delta(i))

        if with_t:
            return Sweep(rows(), row, _pair_norms(norms), _pair_norm(norm))
        return Sweep(rows(), row, norms, norm)

    return line


def s_proj_handle(spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN) -> ScMapHandle:
    return ScMapHandle(
        name="s-proj",
        eval=_grid_sweep(
            lambda t, g: _s_proj_coefficient(t, g, spacing, margin), True, spacing, margin
        ),
        diff=lambda p, tan: s_proj_diff(p[0], p[1], tan[0], tan[1], spacing, margin),
    )


def h_family_handle(spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN) -> ScMapHandle:
    return ScMapHandle(
        name="h-family",
        eval=_grid_sweep(
            lambda t, g: _h_coefficient(t, g, spacing, margin), False, spacing, margin
        ),
        diff=lambda p, tan: h_diff(p[0], p[1], tan[0], tan[1], spacing, margin),
    )
