"""Quantitative probes for linear operators between levels of a scale:
witness lower bounds, truncation operator norms under general inner
products, finite-difference validation of analytic differentials, and the
level-dependent norm dichotomy of the projection differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .bump_profiles import (
    DEFAULT_MARGIN,
    DEFAULT_SPACING,
    bump_self_pairing,
    bump_window,
    phi_gate,
    shift_amount,
)
from .gallery import ScMapHandle
from .scale_core import LogScalar, grid_sobolev_norms

__all__ = [
    "OperatorHandle",
    "witness_lower_bound",
    "metric_singular_values",
    "truncation_opnorm",
    "numerical_rank",
    "DiffReport",
    "finite_diff_differential",
    "DEFAULT_FD_STEPS",
    "DichotomyRow",
    "opnorm_dichotomy",
]

#: relative singular-value cutoff below which directions count as numerically null
RANK_THRESHOLD = 1e-10

#: default finite-difference step sweep, large to small
DEFAULT_FD_STEPS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


@dataclass(frozen=True)
class OperatorHandle:
    """A finite truncation of a linear operator: its matrix in chosen bases
    together with the Gram matrices of the domain and codomain inner
    products in those bases.  The matrix may be a stack (..., r, c) of
    truncations that share the two Gram matrices."""

    matrix: np.ndarray
    gram_dom: np.ndarray
    gram_cod: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        gd = np.asarray(self.gram_dom, dtype=float)
        gc = np.asarray(self.gram_cod, dtype=float)
        if gd.shape != (m.shape[-1], m.shape[-1]):
            raise ValueError("domain Gram matrix does not match matrix columns")
        if gc.shape != (m.shape[-2], m.shape[-2]):
            raise ValueError("codomain Gram matrix does not match matrix rows")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "gram_dom", gd)
        object.__setattr__(self, "gram_cod", gc)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def dom_norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return math.sqrt(max(0.0, float(v @ self.gram_dom @ v)))

    def cod_norm(self, w: np.ndarray) -> float:
        w = np.asarray(w, dtype=float)
        return math.sqrt(max(0.0, float(w @ self.gram_cod @ w)))


def witness_lower_bound(op: OperatorHandle, v: np.ndarray) -> float:
    """||A v|| / ||v||: a certified lower bound for the operator norm."""
    nv = op.dom_norm(v)
    if nv == 0.0:
        raise ValueError("witness vector has zero norm")
    return op.cod_norm(op.apply(v)) / nv


def metric_singular_values(op: OperatorHandle) -> np.ndarray:
    """Singular values of the operator under the Gram inner products,
    largest first: shape (..., min(r, c)) for a matrix stack (..., r, c),
    each row equal bit for bit to that of its matrix alone.  One Gram
    matrix serving both sides is factored once."""
    ld = np.linalg.cholesky(op.gram_dom)
    lc = ld if op.gram_cod is op.gram_dom else np.linalg.cholesky(op.gram_cod)
    # B = L_c^T A L_d^{-T} has plain-euclidean singular values equal to the
    # metric singular values of A
    right = np.linalg.solve(ld, op.matrix.swapaxes(-1, -2))
    return np.linalg.svd(lc.T @ right.swapaxes(-1, -2), compute_uv=False)


def truncation_opnorm(op: OperatorHandle) -> float:
    """Operator norm of the truncation under the supplied inner products."""
    sv = metric_singular_values(op)
    return float(sv[0]) if sv.size else 0.0


def numerical_rank(op: OperatorHandle, threshold: float = RANK_THRESHOLD) -> int:
    """Number of metric singular values above threshold * largest."""
    sv = metric_singular_values(op)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > threshold * sv[0]))


# ---------------------------------------------------------------------------
# finite-difference validation of analytic differentials


@dataclass(frozen=True)
class DiffReport:
    """Result of checking an analytic differential against central
    finite differences over a step sweep."""

    map_name: str
    level: int
    mismatch: float
    best_step: float
    order_estimate: float
    per_step: Tuple[Tuple[float, float], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return math.isfinite(self.mismatch)


def finite_diff_differential(
    handle: ScMapHandle,
    point,
    tangent,
    level: int = 0,
    steps: Sequence[float] = DEFAULT_FD_STEPS,
) -> DiffReport:
    """Compare handle.diff at a point with central finite differences of
    handle.eval along a tangent, in the level-i codomain norm.

    The mismatch reported is the best over the step sweep, taking plain
    second-order central differences and one Richardson extrapolation step
    at each h.  The map is evaluated in one handle.eval call at +h, -h,
    +h/2 and -h/2 for each h in turn, and returns the outputs as rows on one
    index set; each step's two centrals are formed as its rows are read, so
    a grid sweep holds a few rows at a time.  Centrals, Richardson rows and
    errors are explicit in-order elementwise sums, never a matrix product
    (BLAS may fuse multiply-adds and change bits), and each step's two error
    rows are normed in one call.
    """
    sweep = handle.eval(point, tangent, [s for h in steps for s in (h, -h, h / 2.0, -h / 2.0)])
    analytic = handle.diff(point, tangent)
    exact = sweep.row(analytic)
    # the scale is the norm on the analytic value's own window: zeros padded
    # past a grid's edge would change its trapezoid end weights and gradients
    scale = max(sweep.norm(analytic, level), 1.0)
    del analytic  # a grid as wide as a row, which exact stands for from here

    rows = iter(sweep.rows)

    def central(s: float) -> np.ndarray:
        return (0.5 / s) * next(rows) + (-0.5 / s) * next(rows)

    plain: List[float] = []  # the central-difference errors, one per step
    per_step: List[Tuple[float, float]] = []
    errors = np.empty((2, exact.size))
    for h in steps:
        fd = central(h)
        rich = (4.0 / 3.0) * central(h / 2.0) + (-1.0 / 3.0) * fd
        np.subtract(fd, exact, out=errors[0])
        np.subtract(rich, exact, out=errors[1])
        e_plain, e_rich = sweep.norms(errors, level).tolist()
        plain.append(e_plain)
        per_step.append((h, min(e_plain, e_rich) / scale))

    best_step, mismatch = min(per_step, key=lambda p: p[1])

    # convergence-order estimate from the raw central-difference errors at
    # the two largest steps (before roundoff takes over)
    order = float("nan")
    raw = [e / scale for e in plain[:2]]
    if len(raw) == 2 and raw[0] > 0 and raw[1] > 0 and steps[0] != steps[1]:
        order = math.log(raw[1] / raw[0]) / math.log(steps[1] / steps[0])

    return DiffReport(
        map_name=handle.name,
        level=level,
        mismatch=mismatch,
        best_step=best_step,
        order_estimate=order,
        per_step=tuple(per_step),
    )


# ---------------------------------------------------------------------------
# level dichotomy for the projection differential correction term


@dataclass(frozen=True)
class DichotomyRow:
    t: float
    l2_lower_bound: float
    log_upper_bound: float
    log_sampled_over_bound: float


def opnorm_dichotomy(
    t_grid: Sequence[float],
    delta: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
    n_samples: int = 8,
    seed: int = 0,
) -> List[DichotomyRow]:
    """Norm dichotomy for the rank-one correction F -> c_t <F, b_t> b_t
    (the gap between the branching family's differential at parameter t and
    at the limit), with c_t the slope of the scalar family at the origin.

    Same-level (L2 -> L2) the correction stays unit-size: the bump itself
    witnesses a lower bound |c_t| <b_t, b_t> >= 1 - o(1).  Cross-level
    (weighted first-order domain, plain L2 codomain) it decays like
    exp(-delta (exp(1/t) - 1)) |c_t| because the bump escapes the weighted
    region.  Each row reports the witness lower bound and, as natural logs,
    the closed-form cross-level bound (finite until exp(1/t) overflows at
    t ~ 0.00141) and the worst sampled cross-level ratio over it.

    The samples f = sum_k a_k b_t^(k), random a, live on b_t's window, where
    |x| = exp(1/t) - 1 - margin + |u| for u on the unshifted window ending
    at 0 (f vanishes where b_t's window reaches past 0).  So ||f||_{1,delta}
    is exp(delta (exp(1/t) - 1 - margin)) times that norm on the unshifted
    window, <f, b_t> does not depend on t, and t enters only through scalars.
    """
    if delta <= 0:
        raise ValueError("the cross-level dichotomy needs delta > 0")
    rng = np.random.default_rng(seed)
    windows = [bump_window(k, spacing, margin) for k in range(3)]
    # one (n_samples, N) stack serves every t; it is filled and paired a row
    # at a time, so no other array as large as the stack is formed
    samples = np.empty((n_samples, windows[0].size))
    q = bump_self_pairing(spacing, margin)
    rows = []
    for t in t_grid:
        shift = shift_amount(t)  # ValueError for t <= 0
        slope = LogScalar.one().add(phi_gate(t).neg())
        l2_lower = abs(slope.to_real()) * q  # witness F = b_t, L2 both sides
        log_upper = slope.logmag - delta * (shift - 1.0)
        for row, coeffs in zip(samples, rng.normal(size=(n_samples, 3))):
            row[:] = sum(a * w for a, w in zip(coeffs, windows))
        pairings = np.array([np.trapezoid(row * windows[0], dx=spacing) for row in samples])
        norms = grid_sobolev_norms(samples, 1, delta, -2.0 * (1.0 + margin), spacing)
        # |c_t <f, b_t>| sqrt(q) / ||f||_{1,delta} over the bound; c_t cancels
        worst = float(np.max(np.log(np.abs(pairings)) - np.log(norms)))
        worst += 0.5 * math.log(q) + delta * margin
        rows.append(DichotomyRow(t, l2_lower, log_upper, worst))
    return rows
