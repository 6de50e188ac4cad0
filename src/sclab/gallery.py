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
    grid_slice,
    grid_sobolev_norm,
    grid_sobolev_norms,
    grid_window,
    seq_norms,
    uniform_trapezoid,
)

__all__ = [
    "rho_eval",
    "s_proj",
    "s_proj_row",
    "s_proj_diff",
    "TrackedScalar",
    "BumpSplit",
    "ShearImage",
    "ShearPreimage",
    "s_tilde_eval",
    "s_tilde_inv",
    "phi_value",
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
    return (t, _moving_bump(_s_proj_partials, t, f, spacing, margin))


def _s_proj_partials(t: float, a: float):
    """(c, dc/da, dc/dt) of the projection map's c = -a at a = <f, b_t>."""
    return (-a, -1.0, 0.0)


def s_proj_row(
    t: float,
    row: np.ndarray,
    x0: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> np.ndarray:
    """s_proj on a row of samples on the window x0 + j*spacing, in place.

    The row, returned, becomes grid_row(s_proj(t, f)[1], x0, spacing,
    row.size) of f = GridFunction(x0, spacing, row), bit for bit where the
    row holds no -0.0: the pairing with b_t is the uniform_trapezoid over
    b_t's window, which must lie inside the row's where b_t reaches it.
    """
    if t > 0 and bump_reaches(x0, t, margin):
        b = shifted_bump(t, 0, spacing, margin)
        seg = row[grid_slice(b, x0, spacing, row.size)]
        c = _s_proj_partials(t, uniform_trapezoid(seg * b.values, spacing))[0]
        if c != 0.0:
            seg += c * b.values
    return row


def _add_bump(
    f: GridFunction, t: float, spacing: float, margin: float, c0: float, c1: float = 0.0
) -> GridFunction:
    """f + c0 b_t + c1 b_t' on the union window, each term added only where
    its coefficient is not 0.0, so f itself where both are."""
    terms = [(c, shifted_bump(t, k, spacing, margin)) for k, c in enumerate((c0, c1)) if c != 0.0]
    return grid_combine([(1.0, f), *terms]) if terms else f


def _moving_bump(
    partials: Callable,
    t: float,
    f: GridFunction,
    spacing: float,
    margin: float,
    tangent: Optional[tuple] = None,
) -> GridFunction:
    """The grid map f -> f + c b_t at parameter t, identity for t <= 0,
    where partials(t, a) gives (c, dc/da, dc/dt) at a = <f, b_t>; or, given
    a tangent (T, F), its differential at (t, f):

        F + (c_a <F, b_t> + T c_t + T c_a S' <f, b_t'>) b_t + T c S' b_t',

    with S' = d/dt exp(1/t) = -exp(1/t)/t^2, the escaping bump's speed.
    S' multiplies only a non-zero <f, b_t'> or c: where b_t's window lies
    left of f's, exp(1/t) may be inf, and every pairing is exactly 0.
    """
    if t <= 0:
        return f if tangent is None else tangent[1]
    c, c_a, c_t = partials(t, pair_with_bump(f, t, spacing, margin))
    if tangent is None:
        return _add_bump(f, t, spacing, margin, c)
    T, F = tangent
    c0, c1 = c_a * pair_with_bump(F, t, spacing, margin), 0.0
    if T != 0.0:
        ds = -shift_amount(t) / (t * t)
        c0 += T * c_t
        afp = pair_with_bump(f, t, spacing, margin, order=1)
        if afp != 0.0:
            c0 += T * c_a * (ds * afp)
        if c != 0.0:
            c1 = T * c * ds
    return _add_bump(F, t, spacing, margin, c0, c1)


def s_proj_diff(
    t: float,
    f: GridFunction,
    T: float,
    F: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
):
    """Full differential of the projection map at (t, f), applied to (T, F)."""
    return (T, _moving_bump(_s_proj_partials, t, f, spacing, margin, (T, F)))


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
        return self.base + self.dust.to_real()


@dataclass(frozen=True)
class BumpSplit:
    """Function component split into an orthogonal part plus a log-domain
    coefficient along the unit bump at parameter t."""

    t: float
    orth: Optional[GridFunction]
    along: LogScalar


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


def _h_partials(t: float, a: float):
    """(c, dc/da, dc/dt) of the branching family's c = -phi_t(a) at
    a = <f, b_t>: (-phi_t(a), -(1 - g(t) + 2a), g'(t) a), with
    g'(t) = (2/t^3) exp(1/t^2) g(t), each a float from log-domain arithmetic
    (0.0 where it underflows)."""
    x, gate = LogScalar.from_real(a), phi_gate(t)
    slope = LogScalar.one().add(gate.neg()).add(x.mul(LogScalar.from_real(2.0)))
    lead = LogScalar(1, math.log(2.0) - 3.0 * math.log(t) + 1.0 / (t * t))
    c_t = lead.mul(gate).mul(x)
    return (-phi_value(t, x).to_real(), -slope.to_real(), c_t.to_real())


def h_eval(
    t: float,
    f: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """f - phi_t(<f, b_t>) b_t for t > 0, identity for t <= 0."""
    return _moving_bump(_h_partials, t, f, spacing, margin)


def h_diff(
    t: float,
    f: GridFunction,
    T: float,
    F: GridFunction,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """Full differential of the branching family at (t, f), applied to (T, F)."""
    return _moving_bump(_h_partials, t, f, spacing, margin, (T, F))


def h_zero_branch(t: float):
    """The nontrivial zero branch: coefficient of b_t, zero for t <= 0."""
    return (t, phi_gate(t))


@dataclass(frozen=True)
class TransversalityData:
    failure_coeff: LogScalar
    midpoint_identity: bool
    witness_value: LogScalar
    witness_value_partial_route: LogScalar


def _fiber_critical(gate: LogScalar, x: LogScalar) -> bool:
    """Whether the fiber derivative g - 2x of a -> a - phi_t(a) vanishes at
    x, with g = gate = g(t), formed in log arithmetic (1 - g rounds to 1 in
    floats): it is zero, or its size relative to g lies below the two-route
    witness's tolerance 1e-12 max(1, |log g|)."""
    d = gate.sub(x.mul(LogScalar.from_real(2.0)))
    tol = math.log(1e-12 * max(1.0, abs(gate.logmag)))
    return d.is_zero or d.logmag - gate.logmag <= tol


def h_transversality_data(
    t: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> TransversalityData:
    """Where fiber transversality fails, and the total-derivative witness.

    The failure locus coefficient is half the zero-branch coefficient g(t),
    where the fiber derivative of a -> a - phi_t(a) must vanish; the
    witness magnitude (1/t^3) exp(1/t^2 - 2 exp(1/t^2)) is computed by two
    independent routes that must agree.
    """
    if t <= 0:
        raise ValueError("the failure locus exists only for t > 0")
    gate = phi_gate(t)
    failure_coeff = gate.mul(LogScalar.from_real(0.5))
    midpoint = _fiber_critical(gate, failure_coeff)
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
    """Coefficient-wise multiplication by the plateau values f_n(t): the
    one-vector shell, which bench/ reads, of rho_k_eval(0, t, x.coeffs)."""
    return SeqVector(rho_k_eval(0, t, x.coeffs))


def seq_diffeo_inv(t: float, y: SeqVector) -> SeqVector:
    """Coefficient-wise division by f_n(t), which never vanishes; it rounds,
    so a round trip through seq_diffeo is within 2u + u^2 relative, u = 2^-53."""
    return SeqVector(y.coeffs / step_n(np.arange(1, y.dim + 1), t, 0))


def _check_k(k: int) -> None:
    if k < 0 or k > K_MAX:
        raise ValueError(f"k must be in 0..{K_MAX}")


def rho_k_eval(k: int, ts, rows) -> np.ndarray:
    """Rows (..., n) times the k-th derivatives of f_1, ..., f_n at ts, which
    broadcast against the rows' leading axes.  For k >= 1 only mode floor(1/t)
    can survive (the derivative supports are disjoint), and for t <= 0, where
    every mode sits left of its transition window, the map vanishes."""
    _check_k(k)
    ts = np.asarray(ts, dtype=float)[..., np.newaxis]
    return step_n(np.arange(1, np.shape(rows)[-1] + 1), ts, k) * rows


def rho_k_tangent(k: int, ts, xs, Ts, Xs) -> np.ndarray:
    """Rows of the tangent map rho_k(t, X) + T rho_{k+1}(t, x), for every k
    of the family, added into zeros (a -0.0 sum reads 0.0); ts and Ts
    broadcast against the leading axes of the (..., n) rows xs and Xs."""
    _check_k(k)
    ts, Ts = (np.asarray(a, dtype=float)[..., np.newaxis] for a in (ts, Ts))
    modes = np.arange(1, np.shape(xs)[-1] + 1)
    out = np.zeros(np.broadcast_shapes(ts.shape, Ts.shape, np.shape(xs), np.shape(Xs)))
    out += step_n(modes, ts, k) * Xs
    out += step_n(modes, ts, k + 1) * xs * Ts
    return out


# ---------------------------------------------------------------------------
# uniform handles for differential probing


@dataclass(frozen=True)
class Sweep:
    """A map's outputs along P lines, one through each base point, and its
    analytic differentials at those points, as float rows on one index set.

    Pair codomains (parameter, function) put the parameter first.  Every
    row, output or differential, has the bits of the one-point value on its
    own indices, up to the signs of zeros, and zeros elsewhere.
    """

    rows: Iterable  # one (P, width) stack per step, in order, read once
    # level -> the P analytic differentials as a (P, width) stack, and their
    # level-i norms, an array, each taken on the value's own window
    exact: Callable
    norms: Callable  # (row stack, level) -> the rows' level-i codomain norms, an array


@dataclass(frozen=True)
class ScMapHandle:
    """A gallery map with evaluation along lines, for finite-difference
    validation of its analytic differential.

    ``eval(points, tangents, hs)`` returns the ``Sweep`` of the map's
    outputs at points[p] + h * tangents[p] for each h in hs, with the
    differential at each point applied to its tangent.  A sequence map takes
    a batch of P points and P tangents as stacks: (ts, xs) and (Ts, Xs),
    (P,) parameters and (P, n) rows on one mode count.  A grid map takes a
    list of one (t, GridFunction) point and one tangent (P = 1) and raises
    ValueError on more.
    """

    name: str
    eval: Callable


def _pair_norms(norms: Callable) -> Callable:
    """Norms of (parameter, rest) rows: the hypot of the parameter and the
    rest's norm, as math.hypot takes it."""

    def pair(rows, i: int) -> np.ndarray:
        rest = norms(rows[:, 1:], i).tolist()
        return np.array([math.hypot(p, q) for p, q in zip(rows[:, 0].tolist(), rest)])

    return pair


def _seq_sweep(k: int, points, tangents, hs) -> Sweep:
    """Rows of rho_k(t + h T, x + h X), one (P, n) stack per h in hs for the
    P points (ts, xs) and tangents (Ts, Xs), each a (P,) parameter array and
    a (P, n) row stack, and the rows of rho_k_tangent, each from one call of
    its kernel, whatever P is.
    """
    (ts, xs), (Ts, Xs) = points, tangents
    ts, xs, Ts, Xs = (np.asarray(a, dtype=float) for a in (ts, xs, Ts, Xs))
    stacked = ts.ndim == 1 and xs.ndim == 2 and len(xs) == ts.size
    if not stacked or Ts.shape != ts.shape or Xs.shape != xs.shape:
        raise ValueError(
            "a sequence batch takes (P,) parameters and (P, n) rows, not "
            f"{ts.shape} and {xs.shape} at the points, {Ts.shape} and {Xs.shape} at the tangents"
        )
    hs = np.asarray(hs, dtype=float)[:, np.newaxis]
    rows = rho_k_eval(k, ts + hs * Ts, xs + hs[..., np.newaxis] * Xs)
    exact = rho_k_tangent(k, ts, xs, Ts, Xs)
    return Sweep(rows, lambda i: (exact, seq_norms(exact, i)), seq_norms)


def seq_rho_k_handle(k: int) -> ScMapHandle:
    _check_k(k)
    return ScMapHandle(f"rho-{k}", lambda ps, tans, hs: _seq_sweep(k, ps, tans, hs))


def _grid_sweep(
    partials: Callable,
    with_t: bool,
    spacing: float,
    margin: float,
    schedule: Optional[WeightSchedule],
) -> Callable:
    """eval for the grid map _moving_bump(partials, ...), which sends (t, g)
    to g + c b_t, c = partials(t, <g, b_t>)[0], where c is 0.0 for t <= 0
    and wherever b_t's window does not reach g's.

    A grid sweep takes one base point.  Its rows lie on the hull of the
    point's window, its tangent's and its bump terms', and are normed with
    schedule's weights (WeightSchedule.default() if None).  A first pass
    finds c at the steps where b_t reaches g = f + h F, the only steps that
    build g as a grid.  Each row is then formed as it is read, g and then
    c b_t added in the order the one-point map adds them, so the sweep
    holds no outputs.  A zero f is not added: it would change only the
    signs of zeros, which no central, difference or squared norm reads.
    """
    schedule = schedule or WeightSchedule.default()
    lead = int(with_t)

    def bump(s: float) -> GridFunction:
        return shifted_bump(s, 0, spacing, margin)

    def line(points, tangents, hs) -> Sweep:
        if len(points) != 1 or len(tangents) != 1:
            raise ValueError(
                f"a grid sweep takes one base point and one tangent, "
                f"not {len(points)} and {len(tangents)}"
            )
        ((t, f),), ((T, F),) = points, tangents
        ts, x0_g = [t + h * T for h in hs], min(f.x0, F.x0)

        def bump_term(h: float, s: float) -> float:
            if s > 0 and bump_reaches(x0_g, s, margin):
                g = grid_combine([(1.0, f), (h, F)])
                return partials(s, pair_with_bump(g, s, spacing, margin))[0]
            return 0.0

        coefs = [bump_term(h, s) for h, s in zip(hs, ts)]
        terms = (bump(s) for s, c in zip(ts, coefs) if c != 0.0)
        (x0, n), dx = grid_window(itertools.chain((f, F), terms)), f.spacing
        f_row = grid_row(f, x0, dx, n) if f.values.any() else None
        F_row = grid_row(F, x0, dx, n)

        def rows():
            for h, s, c in zip(hs, ts, coefs):
                out = np.empty((1, lead + n))
                out[0, :lead] = s
                body = out[0, lead:]
                np.multiply(F_row, h, out=body)
                if f_row is not None:
                    body += f_row
                if c != 0.0:
                    b = bump(s)
                    body[grid_slice(b, x0, dx, n)] += c * b.values
                yield out

        def exact(i: int):
            out = np.empty((1, lead + n))
            value = _moving_bump(partials, t, f, spacing, margin, (T, F))
            out[0, :lead] = T
            out[0, lead:] = grid_row(value, x0, dx, n)
            norm = grid_sobolev_norm(value, i, schedule.delta(i))
            return out, np.array([math.hypot(out[0, 0], norm) if with_t else norm])

        def norms(stack, i: int) -> np.ndarray:
            return grid_sobolev_norms(stack, i, schedule.delta(i), x0, dx)

        return Sweep(rows(), exact, _pair_norms(norms) if with_t else norms)

    return line


def s_proj_handle(
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
    schedule: Optional[WeightSchedule] = None,
) -> ScMapHandle:
    sweep = _grid_sweep(_s_proj_partials, True, spacing, margin, schedule)
    return ScMapHandle("s-proj", sweep)


def h_family_handle(
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
    schedule: Optional[WeightSchedule] = None,
) -> ScMapHandle:
    sweep = _grid_sweep(_h_partials, False, spacing, margin, schedule)
    return ScMapHandle("h-family", sweep)
