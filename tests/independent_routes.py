"""Independent routes the tests check the library against: one vector, one
point or one dense sample at a time, with none of the library's stacking."""

import math

import numpy as np

from sclab.bump_profiles import DEFAULT_MARGIN, DEFAULT_SPACING, make_bump, shifted_bump
from sclab.scale_core import (
    GridFunction,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_norm,
    uniform_trapezoid,
)


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


def own_window_pairing(f, g, level: int, delta: float) -> float:
    """sum over j <= level of the trapezoid rule of exp(2 delta |x|) f^(j) g^(j)
    on the overlap of two grid functions' windows, each derivative taken by
    np.gradient on its function's own window.  sclab pairs w f^(j) with
    w g^(j), w = exp(delta |x|), differenced on the overlap: the same rule
    in other arithmetic.  Raises OverflowError, naming delta, where the
    weight or the sum leaves the float range."""
    h = f.spacing
    offset = round((g.x0 - f.x0) / h)
    lo, hi = max(0, offset), min(f.n_nodes, offset + g.n_nodes)
    if hi - lo < 2:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = np.exp(2.0 * delta * np.abs(f.xs()[lo:hi])) if delta else 1.0
        fv, gv, total = f.values, g.values, 0.0
        for j in range(level + 1):
            if j:
                fv = np.gradient(fv, h, edge_order=2)
                gv = np.gradient(gv, h, edge_order=2)
            total += uniform_trapezoid(w2 * fv[lo:hi] * gv[lo - offset : hi - offset], h)
    if not math.isfinite(total):
        raise OverflowError(f"pairing with delta={delta!r} is not finite")
    return total


def own_window_gram(fs, level: int, delta: float) -> np.ndarray:
    """The level Gram matrix of grid functions, one own_window_pairing per
    entry on and above the diagonal, mirrored below it."""
    g = np.zeros((len(fs), len(fs)))
    for p in range(len(fs)):
        for q in range(p, len(fs)):
            g[p, q] = g[q, p] = own_window_pairing(fs[p], fs[q], level, delta)
    return g


def closed_form_atom_gram(level: int, delta: float, spacing: float) -> np.ndarray:
    """The level Gram matrix of the germ atoms b, b(. - 1/2), b(. + 1/2) and
    b' with each j-th derivative in closed form (BumpProfile.derivative)
    sampled on the atom window [-2, 2], and no finite difference: the
    trapezoid rule of exp(2 delta |x|) a_p^(j) a_q^(j), summed over j <= level."""
    bump = make_bump()
    xs = -2.0 + spacing * np.arange(round(4.0 / spacing) + 1)
    w2 = np.exp(2.0 * delta * np.abs(xs))

    def d(u, j):
        return bump.derivative(u, j) if j else bump(u)

    g = np.zeros((4, 4))
    for j in range(level + 1):
        rows = (d(xs, j), d(xs - 0.5, j), d(xs + 0.5, j), d(xs, j + 1))
        g += [[uniform_trapezoid(w2 * u * v, spacing) for v in rows] for u in rows]
    return g
