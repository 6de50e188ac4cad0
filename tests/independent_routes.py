"""Independent routes the tests check the library against: one vector, one
point or one dense sample at a time, with none of the library's stacking."""

import math

import numpy as np

from sclab.bump_profiles import DEFAULT_MARGIN, DEFAULT_SPACING, shifted_bump
from sclab.scale_core import GridFunction, grid_combine, grid_l2_inner, grid_sobolev_norm


def level_norm(v, g) -> float:
    """sqrt(v g v) of one coefficient vector under a Gram matrix, with a
    negative rounding residue read as 0."""
    v = np.asarray(v, dtype=float)
    return math.sqrt(max(0.0, float(v @ g @ v)))


def witness_ratio(op, v) -> float:
    """||A v|| / ||v|| under an OperatorHandle's Gram matrices: a lower bound
    for its operator norm, which no top metric singular value may undercut."""
    v = np.asarray(v, dtype=float)
    return level_norm(op.matrix @ v, op.gram_cod) / level_norm(v, op.gram_dom)


def step_derivative_sup(step, order: int) -> float:
    """Sup of |f^(order)| of a smooth step by dense sampling of its
    transition interval (1/2, 1)."""
    xs = np.linspace(0.4, 1.1, 10001)
    return float(np.max(np.abs(step.derivative(xs, order))))


def log_cmp(a, b) -> int:
    """-1, 0 or +1 according to the order of the reals two LogScalars
    represent, read from their signs and log magnitudes."""
    if a.sign != b.sign:
        return -1 if a.sign < b.sign else 1
    if a.sign == 0 or a.logmag == b.logmag:
        return 0
    return (1 if a.logmag > b.logmag else -1) * a.sign


def germ_point(germ, c: float, v):
    """(c, w - B(c, w)) in coefficient coordinates, at one point, through a
    one-row call of germ.B."""
    v = np.asarray(v, dtype=float)
    return c, v - germ.B(np.array([c]), v[None, :])[0]


def moving_bump_ratio(
    c: float,
    level: int,
    delta: float,
    spacing: float = DEFAULT_SPACING,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """||<w, b_c> b_c||_i / ||w||_i at w = b_c / ||b_c||_i, with b_c the
    escaping bump on its own shifted_bump grid: the moving-bump projection's
    ratio along its bad direction, formed from grid functions only.

    Left of 0 the weight exp(delta |x|) is exp(-delta x), so moving a
    window right scales every weighted norm on it by one factor and leaves
    the ratio alone; a window too far left for a float weight is moved to
    end at -1."""
    b = shifted_bump(c, 0, spacing, margin)
    if delta * abs(b.x0) > 300.0:
        b = GridFunction(-1.0 - (b.n_nodes - 1) * spacing, spacing, b.values)
    w = grid_combine([(1.0 / grid_sobolev_norm(b, level, delta), b)])
    image = grid_combine([(grid_l2_inner(w, b), b)])
    return grid_sobolev_norm(image, level, delta) / grid_sobolev_norm(w, level, delta)


def materialize(split, spacing: float = DEFAULT_SPACING, margin: float = DEFAULT_MARGIN):
    """A gallery BumpSplit on the grid: orth + along b_t in one grid_combine,
    and orth itself where along reads 0.0 as a float; a symbolic orth (None)
    cannot be sampled and raises."""
    if split.orth is None:
        raise ValueError("orthogonal part is symbolic; cannot materialize")
    a = split.along.to_real()
    if a == 0.0:
        return split.orth
    return grid_combine([(1.0, split.orth), (a, shifted_bump(split.t, 0, spacing, margin))])
