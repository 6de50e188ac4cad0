"""Quantitative probes for linear operators between levels of a scale:
truncation operator norms under general inner products, finite-difference
validation of analytic differentials, and the level-dependent norm
dichotomy of the projection differential.
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
    bump_window_gram,
    phi_gate,
    shift_amount,
)
from .scale_core import LogScalar

__all__ = [
    "OperatorHandle",
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


def finite_diff_differential(
    handle,
    points: Sequence,
    tangents: Sequence,
    level: int = 0,
    steps: Sequence[float] = DEFAULT_FD_STEPS,
) -> List[DiffReport]:
    """Compare the analytic differential at each base point, applied to its
    tangent, with central finite differences of the map along that tangent,
    in the level-i codomain norm: one report per point.  The handle is a
    gallery ScMapHandle: a sequence map's takes P points at once, as (P,)
    parameter and (P, n) row stacks, a grid map's a list of one.

    Each mismatch reported is the best over the step sweep, taking plain
    second-order central differences and one Richardson extrapolation step
    at each h.  The map is evaluated in one handle.eval call at +h, -h,
    +h/2 and -h/2 for each h in turn, at all P points, and returns one
    (P, width) stack of rows per signed step; each step's two centrals are
    formed as its stacks are read, so a grid sweep holds a few rows at a
    time.  Centrals, Richardson rows and errors are explicit in-order
    elementwise sums, never a matrix product (BLAS may fuse multiply-adds
    and change bits), and each step's 2P error rows are normed in one call.
    Each report has the bits of a call with its point alone.
    """
    sweep = handle.eval(points, tangents, [s for h in steps for s in (h, -h, h / 2.0, -h / 2.0)])
    # the scales are the norms on the analytic values' own windows: zeros
    # padded past a grid's edge would change its trapezoid end weights and
    # gradients
    exact, exact_norms = sweep.exact(level)
    scales = [max(s, 1.0) for s in exact_norms.tolist()]
    n_points = len(scales)

    rows = iter(sweep.rows)

    def central(s: float) -> np.ndarray:
        return (0.5 / s) * next(rows) + (-0.5 / s) * next(rows)

    norms_by_step = []  # per step, the P plain then the P Richardson error norms
    errors = np.empty((2 * n_points, exact.shape[1]))
    for h in steps:
        fd = central(h)
        rich = (4.0 / 3.0) * central(h / 2.0) + (-1.0 / 3.0) * fd
        np.subtract(fd, exact, out=errors[:n_points])
        np.subtract(rich, exact, out=errors[n_points:])
        norms_by_step.append(sweep.norms(errors, level).tolist())

    reports = []
    for p, scale in enumerate(scales):
        pairs = tuple((h, min(e[p], e[n_points + p]) / scale) for h, e in zip(steps, norms_by_step))
        best_step, mismatch = min(pairs, key=lambda q: q[1])
        # convergence-order estimate from the raw central-difference errors
        # at the two largest steps (before roundoff takes over)
        order = float("nan")
        raw = [e[p] / scale for e in norms_by_step[:2]]
        if len(raw) == 2 and raw[0] > 0 and raw[1] > 0 and steps[0] != steps[1]:
            order = math.log(raw[1] / raw[0]) / math.log(steps[1] / steps[0])
        reports.append(DiffReport(handle.name, level, mismatch, best_step, order, pairs))
    return reports


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
    window, <f, b_t> does not depend on t, and t enters only through scalars:
    <f, b_t> = a P[:, 0] and that norm squared is a G a, for cached Gram matrices.
    """
    if delta <= 0:
        raise ValueError("the cross-level dichotomy needs delta > 0")
    rng = np.random.default_rng(seed)
    pair = bump_window_gram(3, 0, 0.0, spacing, margin)  # P: L2, unweighted
    gram = bump_window_gram(3, 1, delta, spacing, margin)  # G: first order, weighted
    q = bump_self_pairing(spacing, margin)
    rows = []
    for t in t_grid:
        shift = shift_amount(t)  # ValueError for t <= 0
        slope = LogScalar.one().add(phi_gate(t).neg())
        l2_lower = abs(slope.to_real()) * q  # witness F = b_t, L2 both sides
        log_upper = slope.logmag - delta * (shift - 1.0)
        coeffs = rng.normal(size=(n_samples, 3))
        with np.errstate(all="ignore"):  # a 0 pairing logs as -inf; an overflow raises
            norms = np.sqrt(np.einsum("si,ij,sj->s", coeffs, gram, coeffs))
            # |c_t <f, b_t>| sqrt(q) / ||f||_{1,delta} over the bound; c_t cancels
            ratios = np.log(np.abs(coeffs @ pair[:, 0])) - np.log(norms)
        if not np.isfinite(norms).all():
            where = f"delta={delta!r} is not finite on [{-2.0 * (1.0 + margin)!r}, 0]"
            raise OverflowError(f"weighted Sobolev norm with {where}")
        worst = float(np.max(ratios)) + 0.5 * math.log(q) + delta * margin
        rows.append(DichotomyRow(t, l2_lower, log_upper, worst))
    return rows
