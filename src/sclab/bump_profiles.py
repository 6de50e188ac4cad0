"""The normalized bump, its far-left shifts, the double-exponential gate,
and the plateau step family driving the sequence-space constructions.

All pairings with shifted bumps live near x = -exp(1/t), so magnitudes are
routed through log-domain arithmetic whenever they can leave float range.

Derivatives of every order of the bump and the step are closed forms, exact
to rounding: both are built from exp(u) with an explicit u, whose
derivatives follow from one recurrence.  Finite differences appear only in
operator_probe, as the independent check of the analytic differentials.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .scale_core import (
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    grid_l2_inner,
    grid_sobolev_gram,
    uniform_trapezoid,
)

__all__ = [
    "RepresentabilityError",
    "ConvergenceError",
    "BumpProfile",
    "SmoothStep",
    "make_bump",
    "make_smooth_step",
    "shift_amount",
    "shifted_bump",
    "bump_window",
    "bump_window_gram",
    "pair_with_bump",
    "bump_reaches",
    "bump_onset",
    "bump_self_pairing",
    "phi_gate",
    "phi_gate_logmag",
    "step_n",
    "log_limit_probe",
    "DEFAULT_SPACING",
    "DEFAULT_MARGIN",
    "MAX_SHIFT",
    "K_MAX",
]

DEFAULT_SPACING = 1e-3
DEFAULT_MARGIN = 1.0
# largest exp(1/t) we materialize on a grid; smaller t must use the log path
MAX_SHIFT = 1e6
# highest k of the derivative family rho_k; the profiles' derivatives take any order
K_MAX = 3

_LOG_MIN = -1.7976931348623157e308


class RepresentabilityError(ValueError):
    """A shift exp(1/t) is too large for the grid path; use log-domain ops."""


class ConvergenceError(ArithmeticError):
    """A refined quadrature did not settle; the message names its last two iterates."""


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# closed-form derivatives of exp(u)


def _exp_derivatives(f0: np.ndarray, du: list, order: int) -> list:
    """[f, f', ..., f^(order)] of f = exp(u), given f0 = exp(u) and du[j] = u^(j+1).

    Uses f^(k+1) = sum_{j=0..k} C(k, j) u^(j+1) f^(k-j), the Leibniz rule on f' = u' f.
    """
    fs = [f0]
    for k in range(order):
        fs.append(sum(math.comb(k, j) * du[j] * fs[k - j] for j in range(k + 1)))
    return fs


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")


# ---------------------------------------------------------------------------
# bump profile


def _bump_unnormalized(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    z = 1.0 - x * x
    out = np.zeros_like(z)
    m = z > 0
    with np.errstate(over="ignore", under="ignore"):
        out[m] = np.exp(-1.0 / z[m])
    return out


def _settle(quad, settled, refinements: int, what: str):
    """The first quad(j), j = 1..refinements, with settled(quad(j - 1),
    quad(j)), where each quad(j) is a quadrature 4x finer than quad(j - 1).
    If none settles, ConvergenceError naming what and the last two
    iterates."""
    cur = quad(0)
    for j in range(1, refinements + 1):
        prev, cur = cur, quad(j)
        if settled(prev, cur):
            return cur
    raise ConvergenceError(
        f"{what} did not settle after {refinements} refinements: "
        f"last two iterates {prev!r} and {cur!r}"
    )


@dataclass(frozen=True)
class BumpProfile:
    """Smooth non-negative bump supported in [-1, 1] with unit L2 norm."""

    normalization: float

    def __call__(self, x) -> np.ndarray:
        return self.normalization * _bump_unnormalized(np.asarray(x, dtype=float))

    def derivative(self, x, order: int) -> np.ndarray:
        """order-th derivative, in closed form on the support and exactly 0 off it."""
        _check_order(order)
        x = np.asarray(x, dtype=float)
        if order == 0:
            return self(x)
        f0 = np.asarray(self(x))
        out = np.zeros_like(f0)
        m = f0 > 0  # where exp(-1/(1-x^2)) has not underflowed, so 1 -+ x > 6e-4
        xm = x[m]
        r_hi, r_lo = 1.0 / (1.0 - xm), 1.0 / (1.0 + xm)
        # u = -1/(1-x^2) = -(1/(1-x) + 1/(1+x))/2
        du = [
            -0.5 * math.factorial(j) * (r_hi ** (j + 1) + (-1) ** j * r_lo ** (j + 1))
            for j in range(1, order + 1)
        ]
        out[m] = _exp_derivatives(f0[m], du, order)[order]
        return out


@functools.cache
def make_bump() -> BumpProfile:
    """Normalized mollifier c * exp(-1/(1-x^2)) with integral of square 1:
    the trapezoid on 2001 nodes over [-1, 1], refined at most 5 times (to
    2,048,001 nodes) until two values agree to 1e-13 relative."""

    def quad(j: int) -> float:
        xs = np.linspace(-1.0, 1.0, 2000 * 4**j + 1)
        return float(np.trapezoid(_bump_unnormalized(xs) ** 2, xs))

    def settled(prev: float, cur: float) -> bool:
        return abs(cur - prev) <= 1e-13 * max(abs(cur), 1e-300)

    integral = _settle(quad, settled, 5, "trapezoid on [-1, 1]")
    return BumpProfile(normalization=integral**-0.5)


# ---------------------------------------------------------------------------
# smooth step


# powers of 1/y are taken from max(y, _Y_MIN); below it exp(-1/y) is exactly 0
_Y_MIN = 1e-3


def _g_derivatives(y: np.ndarray, order: int) -> list:
    """[g, g', ..., g^(order)] of g(y) = exp(-1/y) at y > 0."""
    r = 1.0 / np.maximum(y, _Y_MIN)
    # u = -1/y, u^(j) = (-1)^(j+1) j! y^-(j+1)
    du = [(-1) ** (j + 1) * math.factorial(j) * r ** (j + 1) for j in range(1, order + 1)]
    return _exp_derivatives(np.exp(-1.0 / y), du, order)


def _step(x, order: int) -> np.ndarray:
    """order-th derivative of the smooth step.

    Off the transition interval (1/2, 1) the values are exact constants: 1
    left of it, 1/2 right of it, and 0 for every derivative.  Inside, the
    step is 1/2 + q/2 with q = a/(a + b), a(x) = g(1 - x), b(x) = g(x - 1/2),
    and q^(k) follows from Leibniz on q (a + b) = a.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 1.0, 0.5, 1.0) if order == 0 else np.zeros_like(x)
    m = (x > 0.5) & (x < 1.0)
    if not m.any():
        return out
    xm = x[m]
    if order == 0:
        a = np.exp(-1.0 / (1.0 - xm))
        out[m] = 0.5 + 0.5 * (a / (a + np.exp(-1.0 / (xm - 0.5))))
        return out
    a = [(-1) ** k * ak for k, ak in enumerate(_g_derivatives(1.0 - xm, order))]
    b = _g_derivatives(xm - 0.5, order)
    d = [ak + bk for ak, bk in zip(a, b)]
    q = [a[0] / d[0]]
    for k in range(1, order + 1):
        q.append((a[k] - sum(math.comb(k, j) * q[j] * d[k - j] for j in range(k))) / d[0])
    out[m] = 0.5 * q[order]
    return out


@dataclass(frozen=True)
class SmoothStep:
    """Smooth monotone plateau: 1 on (-inf, 1/2], 1/2 on [1, inf)."""

    def __call__(self, x) -> np.ndarray:
        return _step(x, 0)

    def derivative(self, x, order: int) -> np.ndarray:
        _check_order(order)
        return _step(x, order)


def make_smooth_step() -> SmoothStep:
    return SmoothStep()


# ---------------------------------------------------------------------------
# shifts and pairings


def shift_amount(t: float) -> float:
    """exp(1/t) for t > 0 (may be inf for extremely small t)."""
    if t <= 0:
        raise ValueError("shift defined only for t > 0")
    return _safe_exp(1.0 / t)


@functools.lru_cache(maxsize=256)
def shifted_bump(
    t: float,
    order: int = 0,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> GridFunction:
    """Grid sampling of the order-th bump derivative shifted to -exp(1/t);
    the only place that builds one, so the only check of MAX_SHIFT.

    Memoised per argument tuple: each call with the same arguments returns
    the same GridFunction, whose values are the shared read-only
    bump_window itself, not a copy."""
    if t <= 0:
        raise ValueError("shifted bump defined only for t > 0")
    if 1.0 / t > math.log(MAX_SHIFT):
        raise RepresentabilityError(
            f"exp(1/t) = exp({1.0 / t:.3g}) exceeds the grid policy bound "
            f"{MAX_SHIFT:g}; use the log-domain path"
        )
    vals = bump_window(order, spacing, margin)
    return GridFunction(x0=-shift_amount(t) - (1.0 + margin), spacing=spacing, values=vals)


@functools.lru_cache(maxsize=32)
def bump_window(order: int, spacing: float, margin: float) -> np.ndarray:
    """Read-only samples of the order-th bump derivative on [-1-margin, 1+margin].

    They do not depend on t, so each (order, spacing, margin) is sampled once:
    shifted_bump places them at -exp(1/t), and the cross-level dichotomy
    reads them unshifted.  The cached array is read-only.
    """
    bump = make_bump()
    n = round(2 * (1.0 + margin) / spacing) + 1
    u = -(1.0 + margin) + spacing * np.arange(n)
    vals = bump.derivative(u, order) if order else bump(u)
    vals.flags.writeable = False
    return vals


@functools.lru_cache(maxsize=8)
def bump_window_gram(
    r: int, level: int, delta: float, spacing: float, margin: float
) -> np.ndarray:
    """Read-only level Gram of b^(0..r-1) on the unshifted window ending
    at 0: grid_sobolev_gram of their rows.  Raises OverflowError, naming
    delta and the window, where an entry is not finite."""
    rows = np.array([bump_window(k, spacing, margin) for k in range(r)])
    gram = grid_sobolev_gram(rows, level, delta, -2.0 * (1.0 + margin), spacing)
    gram.flags.writeable = False
    return gram


@functools.lru_cache(maxsize=64)
def bump_self_pairing(spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN) -> float:
    """grid_l2_inner(b, b) of b = shifted_bump(t), bit for bit, for every
    t > 0: the uniform_trapezoid of b(u)^2 over the window nodes u, as
    grid_sobolev_pairings takes it at order 0 and delta = 0."""
    vals = bump_window(0, spacing, margin)
    return uniform_trapezoid(vals * vals, spacing)


def pair_with_bump(
    f: Union[GridFunction, AnalyticTailFunction],
    t: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
    order: int = 0,
) -> Union[float, LogScalar]:
    """L2 pairing of f with the order-th derivative of the shifted bump.

    Grid inputs return a float: exact 0.0, with no grid built, whenever the
    bump window lies left of f's, else trapezoid quadrature on the overlap.
    Analytic tails pair b_t by log-domain quadrature and return a LogScalar,
    which stays meaningful when the result underflows floats.
    """
    if t <= 0:
        raise ValueError("pairing defined only for t > 0")
    if isinstance(f, AnalyticTailFunction):
        if order:
            raise ValueError("analytic tails pair with the bump itself only")
        return _pair_tail_log(f, t, spacing)
    if not bump_reaches(f.x0, t, margin):
        return 0.0
    return grid_l2_inner(f, shifted_bump(t, order, spacing, margin))


def bump_onset(x0: float, margin: float = DEFAULT_MARGIN) -> float:
    """The first t > 0 at which b_t's window reaches x0 < margin; bump_reaches,
    which compares in log form, can differ from it by the rounding of 1/t."""
    return 1.0 / math.log(1.0 + margin - x0)


def bump_reaches(x0: float, t: float, margin: float = DEFAULT_MARGIN) -> bool:
    """Whether the window of b_t (t > 0) reaches x0 or beyond; where it does
    not, it lies wholly left of a window that starts at x0."""
    # the bump window ends at 1 + margin - exp(1/t): compare in log form,
    # which holds where exp(1/t) overflows
    reach = 1.0 + margin - x0
    return reach > 0.0 and 1.0 / t <= math.log(reach)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a non-empty array of finite logs.

    Shifts by the maximum and sums the maxima apart, in the order and with
    the rounding of scipy.special.logsumexp, so results match it bit for bit.
    """
    top = a.max()
    is_top = a == top
    m = np.count_nonzero(is_top)
    s = np.sum(np.exp(np.where(is_top, -np.inf, a - top)))
    return float(np.log1p(s / m) + np.log(m) + top)


@functools.lru_cache(maxsize=16)
def _tail_nodes(spacing: float, j: int):
    """The tail pairing's quadrature at refinement j, read-only: the nodes u
    of [-1, 1], spacing / 4**j apart, where the bump is positive, and the
    log weights log(b(u)) + log(spacing / 4**j).  They do not depend on t or
    on the tail, so each (spacing, j) is sampled once."""
    h = spacing / 4.0**j
    u = np.linspace(-1.0, 1.0, round(2.0 / h) + 1)
    bv = make_bump()(u)
    keep = bv > 0
    u = u[keep]
    log_w = np.log(bv[keep]) + math.log(h)
    u.flags.writeable = log_w.flags.writeable = False
    return u, log_w


def _pair_tail_log(f: AnalyticTailFunction, t: float, spacing: float) -> LogScalar:
    shift = shift_amount(t)
    if not math.isfinite(shift):
        raise RepresentabilityError("exp(1/t) overflows floats even for the log path")

    def quad(j: int) -> LogScalar:
        u, log_w = _tail_nodes(spacing, j)
        signs, logf = f.log_evaluate(u - shift)
        log_terms = log_w + logf
        pos = log_terms[signs > 0]
        neg = log_terms[signs < 0]
        lp = _logsumexp(pos) if pos.size else -math.inf
        ln = _logsumexp(neg) if neg.size else -math.inf
        return LogScalar.from_log(1, lp).add(LogScalar.from_log(-1, ln))

    def settled(prev: LogScalar, cur: LogScalar) -> bool:
        tol = 1e-9 * max(1.0, abs(cur.logmag))
        return prev.sign == cur.sign and abs(prev.logmag - cur.logmag) <= tol

    return _settle(quad, settled, 4, f"tail pairing at t={t:g}")


# ---------------------------------------------------------------------------
# the double-exponential gate


def phi_gate_logmag(t: float) -> float:
    """-exp(1/t^2), clamped to the most negative finite float."""
    e = _safe_exp(1.0 / (t * t))
    return -e if math.isfinite(e) else _LOG_MIN


def phi_gate(t: float) -> LogScalar:
    """exp(-exp(1/t^2)) for t > 0, zero for t <= 0, as a LogScalar."""
    if t <= 0:
        return LogScalar.zero()
    return LogScalar(1, phi_gate_logmag(t))


# ---------------------------------------------------------------------------
# reparameterized steps


def step_n(n, t: float, order: int = 0):
    """order-th derivative of f(0.5*(n(n+1)t + 1 - n)) by the chain rule.

    n is an integer or an integer array; an array gives one value per entry
    and a scalar gives a float.  t may be an array too: a column of t against
    a row of modes gives one row per t.  Every operation is elementwise, so
    an array call returns the same bits as one scalar call per entry.
    """
    n = np.asarray(n)
    if (n < 1).any():
        raise ValueError("n must be >= 1")
    _check_order(order)
    arg = 0.5 * (n * (n + 1) * t + 1 - n)
    out = _step(arg, order)
    if order:
        out *= (n * (n + 1) / 2.0) ** order
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vanishing-limit probe for the gated shifts


def log_limit_probe(
    exponents: Sequence[Tuple[int, int, int]], delta: float, t_grid: Sequence[float]
) -> List[List[float]]:
    """Per (l, m, n), the log of t^-l * exp(delta*exp(1/t)/2 + m/t^2 + n/t -
    exp(1/t^2)) at each t, clamped to the most negative float; each t's terms
    are computed once.  The gate's double-exponential decay dominates, so the
    values must dive to -inf as t decreases; callers check that trend."""
    if any(t <= 0 or t > 1 for t in t_grid):
        raise ValueError("t grid must lie in (0, 1]")
    terms = [
        (t, math.log(t), 0.5 * delta * _safe_exp(1.0 / t), t * t, phi_gate_logmag(t))
        for t in t_grid
    ]
    if not all(math.isfinite(envelope) for _, _, envelope, _, _ in terms):
        raise RepresentabilityError("exp(1/t) overflows the probe envelope")
    return [
        [max(math.fsum([-l * lt, e, m / tt, n / t, g]), _LOG_MIN) for t, lt, e, tt, g in terms]
        for l, m, n in exponents
    ]
