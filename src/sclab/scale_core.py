"""Scale-space building blocks: log-domain scalars, windowed grid functions
with weighted Sobolev norms, and the weighted sequence model.

Everything here is immutable and pure; values can be shared freely across
threads.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "LogScalar",
    "WeightSchedule",
    "GridFunction",
    "SeqVector",
    "AnalyticTailFunction",
    "GridMismatchError",
    "grid_l2_inner",
    "grid_sobolev_norm",
    "grid_sobolev_inner",
    "grid_combine",
    "seq_inner",
    "seq_norm",
    "tail_projection",
    "check_level",
]

_NEG_INF = float("-inf")
_FLOAT_MIN = sys.float_info.min  # smallest normal float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows above this


class GridMismatchError(ValueError):
    """Two grid functions overlap but live on incompatible discretizations."""


def check_level(i: int) -> int:
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise ValueError(f"scale level must be a non-negative integer, got {i!r}")
    return int(i)


# ---------------------------------------------------------------------------
# log-domain scalars


@dataclass(frozen=True)
class LogScalar:
    """A real number stored as sign and log of absolute value.

    Keeps quantities like exp(-exp(1/t^2)) computable far outside the
    double-precision range.  sign == 0 if and only if logmag == -inf.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.logmag == _NEG_INF):
            raise ValueError("sign 0 requires logmag -inf and vice versa")
        if math.isnan(self.logmag):
            raise ValueError("logmag must not be NaN")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogScalar":
        return LogScalar(0, _NEG_INF)

    @staticmethod
    def one() -> "LogScalar":
        return LogScalar(1, 0.0)

    @staticmethod
    def from_real(v: float) -> "LogScalar":
        if v == 0.0:
            return LogScalar.zero()
        return LogScalar(1 if v > 0 else -1, math.log(abs(v)))

    @staticmethod
    def from_log(sign: int, logmag: float) -> "LogScalar":
        if sign == 0 or logmag == _NEG_INF:
            return LogScalar.zero()
        return LogScalar(sign, logmag)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.logmag > 709.78:
            raise OverflowError(f"log magnitude {self.logmag} exceeds float range")
        return self.sign * math.exp(self.logmag)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0 or other.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * other.sign, self.logmag + other.logmag)

    def div(self, other: "LogScalar") -> "LogScalar":
        if other.sign == 0:
            raise ZeroDivisionError("log-domain division by zero")
        if self.sign == 0:
            return LogScalar.zero()
        return LogScalar(self.sign * other.sign, self.logmag - other.logmag)

    def neg(self) -> "LogScalar":
        return LogScalar(-self.sign, self.logmag)

    def abs(self) -> "LogScalar":
        return LogScalar(abs(self.sign), self.logmag)

    def add(self, other: "LogScalar") -> "LogScalar":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.logmag >= other.logmag else (other, self)
        if self.sign == other.sign:
            return LogScalar(self.sign, hi.logmag + math.log1p(math.exp(lo.logmag - hi.logmag)))
        if self.logmag == other.logmag:
            return LogScalar.zero()
        ratio = math.exp(lo.logmag - hi.logmag)  # in [0, 1)
        if ratio == 1.0:  # cancellation below float resolution
            return LogScalar.zero()
        return LogScalar(hi.sign, hi.logmag + math.log1p(-ratio))

    def sub(self, other: "LogScalar") -> "LogScalar":
        return self.add(other.neg())

    def cmp(self, other: "LogScalar") -> int:
        """-1, 0 or +1 according to the order of the represented reals."""
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0:
            return 0
        if self.logmag == other.logmag:
            return 0
        bigger_mag = 1 if self.logmag > other.logmag else -1
        return bigger_mag * self.sign

    def __lt__(self, other: "LogScalar") -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: "LogScalar") -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: "LogScalar") -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: "LogScalar") -> bool:
        return self.cmp(other) >= 0


# ---------------------------------------------------------------------------
# weight schedules


@dataclass(frozen=True)
class WeightSchedule:
    """Exponential weights delta_0 < delta_1 < ... for the grid scale levels."""

    deltas: tuple

    def __post_init__(self) -> None:
        ds = tuple(float(d) for d in self.deltas)
        if not ds:
            raise ValueError("weight schedule must be non-empty")
        if ds[0] < 0:
            raise ValueError("delta_0 must be >= 0")
        for a, b in zip(ds, ds[1:]):
            if b <= a:
                raise ValueError("weights must be strictly increasing")
        object.__setattr__(self, "deltas", ds)

    @staticmethod
    def default(levels: int = 4, step: float = 0.1) -> "WeightSchedule":
        """delta_i = i * step, so level 0 is the plain L2 space."""
        return WeightSchedule(tuple(i * step for i in range(levels)))

    def delta(self, i: int) -> float:
        check_level(i)
        if i >= len(self.deltas):
            raise ValueError(f"level {i} beyond schedule of length {len(self.deltas)}")
        return self.deltas[i]

    def __len__(self) -> int:
        return len(self.deltas)


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a uniform grid over a finite window; zero outside."""

    x0: float
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)  # a copy: never alias the caller
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid function needs at least 2 nodes")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        if not (self.spacing > 0):
            raise ValueError("spacing must be positive")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def x_end(self) -> float:
        return self.x0 + (self.n_nodes - 1) * self.spacing

    def xs(self) -> np.ndarray:
        return self.x0 + self.spacing * np.arange(self.n_nodes)

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.x0, self.spacing, c * self.values)

    def zeros_like(self) -> "GridFunction":
        return GridFunction(self.x0, self.spacing, np.zeros(self.n_nodes))


def _disjoint(f: GridFunction, g: GridFunction) -> bool:
    return f.x_end < g.x0 or g.x_end < f.x0


def _check_compatible(f: GridFunction, g: GridFunction) -> int:
    """Return the integer node offset of g relative to f, or raise."""
    if abs(f.spacing - g.spacing) > 1e-12 * f.spacing:
        raise GridMismatchError(
            f"spacings differ on overlapping windows: {f.spacing} vs {g.spacing}"
        )
    shift = (g.x0 - f.x0) / f.spacing
    offset = round(shift)
    if abs(shift - offset) > 1e-6:
        raise GridMismatchError("grid nodes of overlapping windows do not line up")
    return offset


def _overlap_slices(f: GridFunction, g: GridFunction):
    offset = _check_compatible(f, g)
    lo = max(0, offset)
    hi = min(f.n_nodes, offset + g.n_nodes)
    if hi - lo < 2:
        return None
    return slice(lo, hi), slice(lo - offset, hi - offset)


def grid_l2_inner(f: GridFunction, g: GridFunction) -> float:
    """Trapezoid quadrature of f*g over the window overlap."""
    if _disjoint(f, g):
        return 0.0
    sl = _overlap_slices(f, g)
    if sl is None:
        return 0.0
    sf, sg = sl
    return float(np.trapezoid(f.values[sf] * g.values[sg], dx=f.spacing))


def _weighted_l2(values: np.ndarray, xs: np.ndarray, delta: float, spacing: float) -> float:
    w = np.exp(delta * np.abs(xs)) if delta != 0.0 else 1.0
    return float(np.sqrt(np.trapezoid((w * values) ** 2, dx=spacing)))


def grid_sobolev_norm(
    f: GridFunction, k: int, delta: float, variant: str = "sum"
) -> float:
    """Weighted Sobolev norm: exp(delta|x|)-weighted L2 norms of derivatives.

    variant "sum" adds the per-order L2 norms; "quadratic" takes the
    root-sum-of-squares (the Hilbert-equivalent form used for Gram matrices,
    within a factor sqrt(k+1) of the sum form).
    """
    if k < 0 or delta < 0:
        raise ValueError("need k >= 0 and delta >= 0")
    if f.n_nodes < 2 * k + 1:
        raise ValueError(f"{f.n_nodes} nodes too few for Sobolev order {k}")
    xs = f.xs()
    vals = f.values
    terms = []
    for j in range(k + 1):
        terms.append(_weighted_l2(vals, xs, delta, f.spacing))
        if j < k:
            vals = np.gradient(vals, f.spacing, edge_order=2)
    if variant == "sum":
        return float(sum(terms))
    if variant == "quadratic":
        return float(math.sqrt(sum(t * t for t in terms)))
    raise ValueError(f"unknown variant {variant!r}")


def _window(f: GridFunction, sl: slice) -> str:
    return f"[{f.x0 + f.spacing * sl.start!r}, {f.x0 + f.spacing * (sl.stop - 1)!r}]"


def grid_sobolev_inner(f: GridFunction, g: GridFunction, k: int, delta: float) -> float:
    """Quadratic-variant weighted Sobolev inner product over the overlap."""
    if k < 0 or delta < 0:
        raise ValueError("need k >= 0 and delta >= 0")
    if _disjoint(f, g):
        return 0.0
    sl = _overlap_slices(f, g)
    if sl is None:
        return 0.0
    sf, sg = sl
    w2 = 1.0
    if delta != 0.0:
        exponent = 2.0 * delta * np.abs(f.xs()[sf])
        if exponent.max() > _LOG_FLOAT_MAX:
            raise OverflowError(
                f"weight exp(2*delta*|x|) with delta={delta!r} overflows on the "
                f"overlap window {_window(f, sf)}"
            )
        w2 = np.exp(exponent)
    fv, gv = f.values, g.values
    total = 0.0
    for j in range(k + 1):
        total += float(np.trapezoid(w2 * fv[sf] * gv[sg], dx=f.spacing))
        if j < k:
            fv = np.gradient(fv, f.spacing, edge_order=2)
            gv = np.gradient(gv, g.spacing, edge_order=2)
    if not math.isfinite(total):
        raise OverflowError(
            f"weighted Sobolev inner product with delta={delta!r} is not finite "
            f"on the overlap window {_window(f, sf)}"
        )
    return total


def grid_combine(terms: list, max_nodes: int = 10_000_000) -> GridFunction:
    """Linear combination sum(c * f) materialized on the union window."""
    terms = [(float(c), f) for c, f in terms]
    if not terms:
        raise ValueError("empty combination")
    base = terms[0][1]
    for _, f in terms[1:]:
        _check_compatible(base, f)
    h = base.spacing
    x0 = min(f.x0 for _, f in terms)
    x1 = max(f.x_end for _, f in terms)
    n = round((x1 - x0) / h) + 1
    if n > max_nodes:
        raise ValueError(f"union grid would need {n} nodes")
    out = np.zeros(n)
    for c, f in terms:
        off = round((f.x0 - x0) / h)
        out[off : off + f.n_nodes] += c * f.values
    return GridFunction(x0, h, out)


# ---------------------------------------------------------------------------
# the sequence model


@dataclass(frozen=True)
class SeqVector:
    """Finite vector of coefficients in the abstract orthogonal basis e_1, e_2, ...

    The level-i inner product weights the n-th coefficient by n^(6i).
    Trailing zeros are normalized away.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)  # a copy: never alias the caller
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        if c.size and c[-1] == 0.0:  # most vectors end in a non-zero: skip the scan
            nz = np.flatnonzero(c)
            c = c[: nz[-1] + 1] if nz.size else c[:0]
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def basis(n: int, scale: float = 1.0) -> "SeqVector":
        if n < 1:
            raise ValueError("basis index starts at 1")
        c = np.zeros(n)
        c[n - 1] = scale
        return SeqVector(c)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def add(self, other: "SeqVector") -> "SeqVector":
        n = max(self.dim, other.dim)
        c = np.zeros(n)
        c[: self.dim] += self.coeffs
        c[: other.dim] += other.coeffs
        return SeqVector(c)

    def scaled(self, c: float) -> "SeqVector":
        return SeqVector(c * self.coeffs)


@functools.lru_cache(maxsize=256)
def _seq_weights(n: int, i: int) -> np.ndarray:
    """Read-only level-i weights n^(6i) for modes 1..n."""
    w = np.arange(1, n + 1, dtype=float) ** (6 * i)
    w.flags.writeable = False
    return w


def seq_inner(x: SeqVector, y: SeqVector, i: int) -> float:
    """Level-i inner product: sum over n of n^(6i) x_n y_n."""
    i = check_level(i)
    n = min(x.dim, y.dim)
    if n == 0:
        return 0.0
    return float((_seq_weights(n, i) * x.coeffs[:n] * y.coeffs[:n]).sum())


def seq_norm(x: SeqVector, i: int) -> float:
    """Level-i norm.  Where the plain weighted sum of squares under- or
    overflows the normal range, it is recomputed with the coefficients
    scaled by their largest magnitude; elsewhere it is sqrt(seq_inner(x, x, i))
    bit for bit."""
    c = x.coeffs
    if not c.size:
        return 0.0
    w = _seq_weights(c.size, check_level(i))
    s = _weighted_square_sum(w, c)
    if _FLOAT_MIN <= s < math.inf:
        return math.sqrt(s)
    m = float(np.abs(c).max())
    return m * math.sqrt(_weighted_square_sum(w, c / m))


@np.errstate(over="ignore")  # an overflowing sum comes back inf and is rescaled
def _weighted_square_sum(w: np.ndarray, c: np.ndarray) -> float:
    return float((w * c * c).sum())


def tail_projection(x: SeqVector, N: int) -> SeqVector:
    """Zero out all coefficients with basis index below N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if x.dim < N:
        return SeqVector(np.zeros(0))
    c = x.coeffs.copy()
    c[: N - 1] = 0.0
    return SeqVector(c)


# ---------------------------------------------------------------------------
# analytic tails


@dataclass(frozen=True)
class AnalyticTailFunction:
    """Closed-form function with a log-domain evaluator for far-field pairings.

    ``log_evaluate(xs)`` takes a float array of points and returns two float
    arrays ``(signs, logmags)`` with one entry per point: the function equals
    ``signs * exp(logmags)`` there, with signs in {-1, 0, +1} and logmags
    -inf exactly where the sign is 0.
    """

    # points array -> (signs, logmags) arrays, one entry per point
    log_evaluate: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    delta: float

    @staticmethod
    def inverse_square_tail(delta: float) -> "AnalyticTailFunction":
        """f(x) = exp(-delta |x|) / x^2 for |x| > 1 (capped at |x| <= 1)."""

        def lev(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            ax = np.abs(xs)
            # the max keeps log away from 0 where the cap applies, so x = 0 is silent
            lm = -delta * ax - np.where(ax > 1.0, 2.0 * np.log(np.maximum(ax, 1.0)), 0.0)
            return np.ones_like(lm), lm

        return AnalyticTailFunction(lev, delta)
