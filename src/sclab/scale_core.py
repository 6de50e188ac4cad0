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
from typing import Callable, Iterable, Tuple

import numpy as np

__all__ = [
    "LogScalar",
    "WeightSchedule",
    "GridFunction",
    "SeqVector",
    "AnalyticTailFunction",
    "GridMismatchError",
    "uniform_trapezoid",
    "grid_l2_inner",
    "grid_sobolev_pairings",
    "grid_sobolev_gram",
    "grid_sobolev_norm",
    "grid_sobolev_norms",
    "grid_sobolev_inner",
    "grid_combine",
    "grid_window",
    "grid_slice",
    "grid_row",
    "seq_inner",
    "seq_norm",
    "seq_norms",
    "tail_projection",
    "check_level",
]

_NEG_INF = float("-inf")
_FLOAT_MIN = sys.float_info.min  # smallest normal float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows above this
_MAX_GRID_NODES = 10_000_000  # the largest union window grid_window admits


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
        """sign * exp(logmag): a signed zero where exp underflows, and
        OverflowError past the float range."""
        if self.sign == 0:
            return 0.0
        if self.logmag > _LOG_FLOAT_MAX:
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


# ---------------------------------------------------------------------------
# grid functions


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, read-only: for a fresh array nobody else holds."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridFunction:
    """Real samples on a uniform grid over a finite window; zero outside.

    A read-only float64 1-D ndarray that owns its data is stored as given,
    so functions built from one shared window share its memory; any other
    input, a writable array or a view included, is copied.
    """

    x0: float
    spacing: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = self.values
        if not (
            type(vals) is np.ndarray
            and vals.dtype == np.float64
            and vals.ndim == 1
            and vals.flags.owndata
            and not vals.flags.writeable
        ):
            vals = np.array(vals, dtype=float)  # a copy: never alias the caller
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
        return GridFunction(self.x0, self.spacing, _frozen(c * self.values))

    def zeros_like(self) -> "GridFunction":
        return GridFunction(self.x0, self.spacing, _frozen(np.zeros(self.n_nodes)))


def _disjoint(f: GridFunction, g: GridFunction) -> bool:
    return f.x_end < g.x0 or g.x_end < f.x0


def _node_offset(g: GridFunction, x0: float, spacing: float) -> int:
    """Return the integer node offset of g on the grid x0 + j*spacing, or raise."""
    if abs(spacing - g.spacing) > 1e-12 * spacing:
        raise GridMismatchError(
            f"spacings differ on overlapping windows: {spacing} vs {g.spacing}"
        )
    shift = (g.x0 - x0) / spacing
    offset = round(shift)
    if abs(shift - offset) > 1e-6:
        raise GridMismatchError("grid nodes of overlapping windows do not line up")
    return offset


def _overlap_slices(f: GridFunction, g: GridFunction):
    offset = _node_offset(g, f.x0, f.spacing)
    lo = max(0, offset)
    hi = min(f.n_nodes, offset + g.n_nodes)
    if hi - lo < 2:
        return None
    return slice(lo, hi), slice(lo - offset, hi - offset)


def uniform_trapezoid(y: np.ndarray, h: float) -> float:
    """The trapezoid rule for samples y (at least 2) on nodes h apart:
    h (sum(y) - (y[0] + y[-1]) / 2), one pass of numpy's pairwise sum.

    It is np.trapezoid(y, dx=h) up to rounding, not bit for bit, and the
    quadrature of every uniform grid in sclab."""
    return h * (float(y.sum()) - (float(y[0]) + float(y[-1])) / 2)


def grid_l2_inner(f: GridFunction, g: GridFunction) -> float:
    """uniform_trapezoid of f*g over the window overlap, so 0.0 where the
    windows share fewer than 2 nodes."""
    if _disjoint(f, g):
        return 0.0
    sl = _overlap_slices(f, g)
    if sl is None:
        return 0.0
    sf, sg = sl
    return uniform_trapezoid(f.values[sf] * g.values[sg], f.spacing)


def grid_sobolev_pairings(
    rows: np.ndarray, pairs: Iterable, k: int, delta: float, x0: float, spacing: float
) -> np.ndarray:
    """The level-k pairing of each row pair (a, b) of an (n, N) stack of
    samples on the window of N nodes x0 + j*spacing: the sum over j <= k, in
    j order, of uniform_trapezoid((w d^j a) (w d^j b)), w = exp(delta|x|).

    sclab's one weighted-Sobolev quadrature: the weight is built once, and
    the j-th derivative is np.gradient (edge_order=2) of the whole stack,
    taken once per order and never past the last.  Raises OverflowError,
    naming delta and the window, where a pairing is not finite, as where w
    itself overflows; zero samples under a finite w pair to 0.0.
    """
    if k < 0 or delta < 0:
        raise ValueError("need k >= 0 and delta >= 0")
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("sample stack must be two-dimensional")
    n = rows.shape[1]
    if n < 2 * k + 1:
        raise ValueError(f"{n} nodes too few for Sobolev order {k}")
    pairs = list(pairs)
    out = np.zeros(len(pairs))
    # an overflow shows as a non-finite pairing, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        # a weight of 1.0 would multiply exactly; skip the pass
        w = np.exp(delta * np.abs(x0 + spacing * np.arange(n))) if delta != 0.0 else None
        for j in range(k + 1):
            if j:
                rows = np.gradient(rows, spacing, axis=1, edge_order=2)
            weighted = rows if w is None else w * rows
            for p, (a, b) in enumerate(pairs):
                # u**2 is u*u bit for bit, in one read of u
                y = weighted[a] ** 2 if a == b else weighted[a] * weighted[b]
                out[p] += uniform_trapezoid(y, spacing)
    if not np.isfinite(out).all():
        where = f"delta={delta!r} is not finite on {_window(float(x0), spacing, slice(0, n))}"
        raise OverflowError(f"weighted Sobolev pairing with {where}")
    return out


def grid_sobolev_gram(
    rows: np.ndarray, k: int, delta: float, x0: float, spacing: float
) -> np.ndarray:
    """The level-k Gram matrix of the rows of a stack on one window: each
    grid_sobolev_pairings entry on and above the diagonal, mirrored below."""
    a, b = np.triu_indices(len(rows))
    gram = np.empty((len(rows), len(rows)))
    gram[a, b] = gram[b, a] = grid_sobolev_pairings(rows, zip(a, b), k, delta, x0, spacing)
    return gram


def grid_sobolev_norm(f: GridFunction, k: int, delta: float) -> float:
    """Weighted Sobolev norm: the square root of the sum over j <= k of the
    squared exp(delta|x|)-weighted L2 norms of the j-th derivatives, the
    Hilbert norm sqrt(grid_sobolev_inner(f, f, k, delta)) bit for bit.
    Raises OverflowError, naming delta and the window, where it is not
    finite.  The one-row case of grid_sobolev_norms."""
    return float(grid_sobolev_norms(f.values[np.newaxis], k, delta, f.x0, f.spacing)[0])


def grid_sobolev_norms(
    rows: np.ndarray, k: int, delta: float, x0: float, spacing: float
) -> np.ndarray:
    """grid_sobolev_norm of each row of an (n, N) stack of samples on the
    window of N nodes x0 + j*spacing: the roots of the stack's diagonal
    grid_sobolev_pairings, so each row's norm has the bits of
    grid_sobolev_norm of a GridFunction with those samples."""
    diagonal = [(r, r) for r in range(len(rows))]
    return np.sqrt(grid_sobolev_pairings(rows, diagonal, k, delta, x0, spacing))


def _window(x0: float, spacing: float, sl: slice) -> str:
    return f"[{x0 + spacing * sl.start!r}, {x0 + spacing * (sl.stop - 1)!r}]"


def grid_sobolev_inner(f: GridFunction, g: GridFunction, k: int, delta: float) -> float:
    """Level-k weighted Sobolev inner product: grid_sobolev_pairings of the
    pair of f's and g's samples on the overlap of their windows, with the
    derivatives taken on that overlap; 0.0 where the windows share fewer
    than 2 nodes."""
    if k < 0 or delta < 0:
        raise ValueError("need k >= 0 and delta >= 0")
    if _disjoint(f, g):
        return 0.0
    sl = _overlap_slices(f, g)
    if sl is None:
        return 0.0
    sf, sg = sl
    rows = np.stack((f.values[sf], g.values[sg]))
    x0 = f.x0 + f.spacing * sf.start
    return float(grid_sobolev_pairings(rows, [(0, 1)], k, delta, x0, f.spacing)[0])


def grid_window(fs: Iterable[GridFunction]) -> Tuple[float, int]:
    """First node and node count of the union window of grid functions whose
    nodes line up with those of the first, read in one pass."""
    fs = iter(fs)
    base = next(fs, None)
    if base is None:
        raise ValueError("empty union")
    x0, x_end = base.x0, base.x_end
    for f in fs:
        _node_offset(f, base.x0, base.spacing)
        x0, x_end = min(x0, f.x0), max(x_end, f.x_end)
    n = round((x_end - x0) / base.spacing) + 1
    if n > _MAX_GRID_NODES:
        raise ValueError(f"union grid would need {n} nodes")
    return x0, n


def grid_slice(f: GridFunction, x0: float, spacing: float, n: int) -> slice:
    """The slice of f's nodes in the window of n nodes x0 + j*spacing; f's
    nodes must be among the window's."""
    off = _node_offset(f, x0, spacing)
    if off < 0 or off + f.n_nodes > n:
        inner = _window(f.x0, f.spacing, slice(0, f.n_nodes))
        raise ValueError(f"grid window {inner} is not inside {_window(x0, spacing, slice(0, n))}")
    return slice(off, off + f.n_nodes)


def grid_row(f: GridFunction, x0: float, spacing: float, n: int) -> np.ndarray:
    """f's samples on the window of n nodes x0 + j*spacing, zero elsewhere,
    as a new array; f's nodes must be among the window's."""
    out = np.zeros(n)
    out[grid_slice(f, x0, spacing, n)] = f.values
    return out


def grid_combine(terms: list) -> GridFunction:
    """Linear combination sum(c * f) materialized on the union window."""
    terms = [(float(c), f) for c, f in terms]
    if not terms:
        raise ValueError("empty combination")
    x0, n = grid_window(f for _, f in terms)
    h = terms[0][1].spacing
    out = np.zeros(n)
    for c, f in terms:
        off = round((f.x0 - x0) / h)
        out[off : off + f.n_nodes] += c * f.values
    return GridFunction(x0, h, _frozen(out))


# ---------------------------------------------------------------------------
# the sequence model


@dataclass(frozen=True)
class SeqVector:
    """Finite vector of coefficients in the abstract orthogonal basis e_1, e_2, ...

    The level-i inner product weights the n-th coefficient by n^(6i).  The
    sequence model works on (..., n) rows; bench/ reads this one-vector shell.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)  # a copy: never alias the caller
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
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


@functools.lru_cache(maxsize=256)
def _seq_weights(n: int, i: int) -> np.ndarray:
    """Read-only level-i weights n^(6i) for modes 1..n."""
    w = np.arange(1, n + 1, dtype=float) ** (6 * i)
    w.flags.writeable = False
    return w


def seq_inner(x: SeqVector, y: SeqVector, i: int) -> float:
    """Level-i inner product: sum over n of n^(6i) x_n y_n (a shell for bench/)."""
    i = check_level(i)
    n = min(x.dim, y.dim)
    return float((_seq_weights(n, i) * x.coeffs[:n] * y.coeffs[:n]).sum())


def seq_norm(x: SeqVector, i: int) -> float:
    """Level-i norm: seq_norms of the one-row stack."""
    return float(seq_norms(x.coeffs[np.newaxis], i)[0])


@functools.lru_cache(maxsize=64)
def _seq_weight_table(n: int, n_levels: int) -> np.ndarray:
    """Read-only (n_levels, n) table whose row i is _seq_weights(n, i)."""
    table = np.array([_seq_weights(n, i) for i in range(n_levels)])
    table.flags.writeable = False
    return table


@np.errstate(over="ignore")  # an overflowing sum comes back inf and is rescaled
def seq_norms(rows: np.ndarray, i: int | np.ndarray) -> np.ndarray:
    """Level-i norms of the rows of a finite (n, N) coefficient stack; i is
    one level for every row, or an integer array of n levels, one per row.
    Each row has the bits of the one-level call with that row alone.

    Where a row's plain weighted sum of squares under- or overflows the
    normal range, it is recomputed with that row scaled by its largest
    magnitude; elsewhere the norm is the square root of that sum.  A zero
    row has norm 0.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("coefficient stack must be two-dimensional")
    if np.ndim(i) == 0:
        w = _seq_weights(rows.shape[1], check_level(i))
    else:
        levels = np.asarray(i)
        integral = levels.dtype.kind in "iu"
        if levels.shape != rows.shape[:1] or not integral or levels.min(initial=0) < 0:
            raise ValueError(
                f"per-row levels must be non-negative integers of shape {rows.shape[:1]}, "
                f"got {levels.dtype} of shape {levels.shape}"
            )
        w = _seq_weight_table(rows.shape[1], int(levels.max(initial=0)) + 1)[levels]
    s = (w * rows * rows).sum(axis=1)
    out = np.sqrt(s)
    if s.size and (s.min() < _FLOAT_MIN or s.max() == math.inf):
        bad = np.flatnonzero((s < _FLOAT_MIN) | (s == math.inf))
        m = np.abs(rows[bad]).max(axis=1, initial=0.0)
        bad, m = bad[m > 0.0], m[m > 0.0]  # a zero row keeps norm 0
        scaled = rows[bad] / m[:, np.newaxis]
        out[bad] = m * np.sqrt(((w[bad] if w.ndim == 2 else w) * scaled * scaled).sum(axis=1))
    return out


def tail_projection(x: SeqVector, N: int) -> SeqVector:
    """Zero out all coefficients with basis index below N (a shell for bench/)."""
    if N < 1:
        raise ValueError("N must be >= 1")
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

    @staticmethod
    def inverse_square_tail(delta: float) -> "AnalyticTailFunction":
        """f(x) = exp(-delta |x|) / x^2 for |x| > 1 (capped at |x| <= 1)."""

        def lev(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            ax = np.abs(xs)
            # the max keeps log away from 0 where the cap applies, so x = 0 is silent
            lm = -delta * ax - np.where(ax > 1.0, 2.0 * np.log(np.maximum(ax, 1.0)), 0.0)
            return np.ones_like(lm), lm

        return AnalyticTailFunction(lev)
