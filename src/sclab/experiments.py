"""Named, reproducible desk-scale experiments binding the model spaces,
map gallery, operator probes, and germ certification into pass/fail
reports with machine-readable output."""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bump_profiles
from .bump_profiles import bump_self_pairing, log_limit_probe, phi_gate, shifted_bump, step_n
from .gallery import (
    h_family_handle,
    h_transversality_data,
    h_zero_branch,
    phi_value,
    rho_eval,
    rho_k_tangent,
    s_proj_diff,
    s_proj_handle,
    s_proj_row,
    s_tilde_inv,
    seq_rho_k_handle,
)
from .germs import (
    _atoms,
    _norms,
    _scaled,
    certify,
    dW_opnorm_probe,
    make_germ,
    openness_probe,
    replay_certificate,
)
from .operator_probe import (
    DEFAULT_FD_STEPS,
    OperatorHandle,
    finite_diff_differential,
    numerical_rank,
    opnorm_dichotomy,
)
from .scale_core import (
    _MAX_GRID_NODES,
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_l2_inner,
    grid_sobolev_norm,
    seq_norm,
    seq_norms,
    uniform_trapezoid,
)

__all__ = [
    "ExperimentConfig",
    "Check",
    "ExperimentReport",
    "EXPERIMENT_IDS",
    "run",
    "list_experiments",
    "emit",
]


#: trials per row stack in the sequence experiments: large enough to amortise
#: numpy's per-call cost, small enough to leave peak memory flat (one stack
#: of 1000 trials at N = 64 raised peak RSS by about 2 MB)
_SEQ_BLOCK = 100

#: the largest truncation_n: the sequence experiments form N-wide row stacks
#: (seq-tail-bounds takes about 0.07 s at 1024)
_MAX_TRUNCATION = 1024

#: the largest level count: schedule() holds levels + 2 weights
_MAX_LEVELS = 1024

#: absolute slack of germ-continuity's factor-two law ||D_w B|| <= 2 epsilon
_LAW_SLACK = 1e-8

_T_GRIDS = ("blowup_t_grid", "dichotomy_t_grid", "branching_t_grid", "smoothness_t_grid")


def _is_real(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and math.isfinite(x))


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable configuration; every report echoes the
    effective values."""

    spacing: float = 1e-3
    margin: float = 1.0
    levels: int = 4
    weight_step: float = 0.1
    truncation_n: int = 32
    seed: int = 0
    germ_level: int = 1
    tail_delta: float = 0.1
    dichotomy_delta: float = 0.1
    blowup_t_grid: List[float] = field(default_factory=lambda: [0.5, 0.45, 0.4, 0.35, 0.3])
    dichotomy_t_grid: List[float] = field(default_factory=lambda: [0.4, 0.35, 0.3, 0.25])
    branching_t_grid: List[float] = field(default_factory=lambda: [0.3, 0.4, 0.5, 0.6])
    smoothness_t_grid: List[float] = field(
        default_factory=lambda: [0.5, 0.4, 0.3, 0.25, 0.2, 0.15]
    )
    out_dir: Optional[str] = None

    def __post_init__(self):
        for name in ("spacing", "margin", "weight_step", "tail_delta", "dichotomy_delta"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        for name in ("levels", "truncation_n", "seed", "germ_level"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        for name in _T_GRIDS:
            grid = getattr(self, name)
            if not (
                isinstance(grid, (list, tuple))
                and grid
                and all(_is_real(t) and t > 0 for t in grid)
            ):
                raise ValueError(f"{name} must be a non-empty list of parameters t > 0")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a path string")
        if self.out_dir is not None and "\0" in self.out_dir:
            raise ValueError("out_dir must not contain a null byte")
        if self.spacing <= 0 or self.margin <= 0:
            raise ValueError("spacing and margin must be positive")
        # the widest sampled window: the bump's, 2 (1 + margin) long, or the
        # germ atoms' and identity-differential's, 4 long
        span = max(2.0 * (1.0 + self.margin), 4.0) / self.spacing
        if not (math.isfinite(span) and round(span) + 1 <= _MAX_GRID_NODES):
            raise ValueError(f"spacing and margin must keep windows to {_MAX_GRID_NODES} nodes")
        if self.weight_step <= 0:
            raise ValueError("weight_step must be positive")
        if self.dichotomy_delta <= 0:
            raise ValueError("dichotomy_delta must be positive")
        if self.tail_delta < 0:
            raise ValueError("tail_delta must be non-negative")
        if self.truncation_n < 1 or self.levels < 1:
            raise ValueError("truncation and level count must be at least 1")
        if self.truncation_n > _MAX_TRUNCATION:
            raise ValueError(f"truncation_n must be at most {_MAX_TRUNCATION}")
        if self.levels > _MAX_LEVELS:
            raise ValueError(f"levels must be at most {_MAX_LEVELS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.germ_level <= self.levels + 1:
            raise ValueError(f"germ_level must lie in 0..{self.levels + 1}")
        if any(t > 1 for t in self.smoothness_t_grid):
            raise ValueError("smoothness_t_grid must lie in (0, 1]")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError(f"config file {path} nests too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a flat JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**raw)

    def schedule(self) -> WeightSchedule:
        return WeightSchedule.default(self.levels + 2, self.weight_step)

    def to_dict(self) -> dict:
        """The fields by name, as dataclasses.asdict gives them: only the
        t-grids are mutable, and only they are copied."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in _T_GRIDS:
            out[name] = out[name][:]
        return out


@dataclass(frozen=True)
class Check:
    name: str
    claim: str
    claimed: str
    measured: str
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
    description: str
    passed: bool
    checks: List[Check]
    config: dict
    stamp: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "description": self.description,
            "passed": self.passed,
            "checks": [dict(vars(c)) for c in self.checks],  # strings and a bool
            "config": self.config,
            "stamp": self.stamp,
        }


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # np.float64 is a float, but its repr names numpy
    return str(x)


def _check(name: str, claim: str, claimed, measured, passed: bool) -> Check:
    return Check(name, claim, _fmt(claimed), _fmt(measured), bool(passed))


def _at_most(name: str, claim: str, bound: float, measured: float) -> Check:
    """A check that claims its bound and passes where measured <= bound; a
    NaN fails."""
    return _check(name, claim, bound, measured, measured <= bound)


def _at_least(name: str, claim: str, bound: float, measured: float) -> Check:
    """A check that claims its bound and passes where measured >= bound; a
    NaN fails."""
    return _check(name, claim, bound, measured, measured >= bound)


def _stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# sequence-model experiments


def _seq_discontinuity(cfg: ExperimentConfig) -> List[Check]:
    # the diagonal map multiplies mode m by f_m(t): row n - 2 holds e_n and
    # the factors at t = 1/n for n = 2..10, and one more row those at t = 0
    units = np.eye(10)[1:]
    ts = np.append(1.0 / np.arange(2, 11), 0.0)
    factors = step_n(np.arange(1, 11), ts[:, np.newaxis], 0)
    moved = factors[:-1] * units - factors[-1] * units
    gaps = [seq_norms(moved, i) / seq_norms(units, i) - 0.5 for i in range(3)]
    N = cfg.truncation_n
    # the map at 1/n minus the map at 0 is diagonal, and a diagonal operator
    # has norm max |d_m| under every diagonal level metric
    ts = 1.0 / np.array([[2.0], [4.0], [7.0]])
    opnorms = np.abs(step_n(np.arange(1, N + 1), ts, 0) - 1.0).max(axis=1)
    rng = np.random.default_rng(cfg.seed)
    draws = [(rng.normal(size=N), rng.uniform(-0.2, 0.6)) for _ in range(20)]
    xs = np.array([x for x, _ in draws])
    factors = step_n(np.arange(1, N + 1), np.array([[t] for _, t in draws]), 0)
    back = (factors * xs) / factors
    return [
        _at_most(
            "unit-vector gap",
            "the difference of the diagonal map at parameters 1/n and 0 moves "
            "each unit vector e_n by exactly half its norm, on every level",
            1e-12,
            float(np.max(np.abs(gaps))),
        ),
        _at_least(
            "difference operator norm at least 1/2",
            "truncated operator norm of the parameter-1/n minus parameter-0 map "
            "is at least 1/2",
            0.5 - 1e-12,
            float(opnorms.min()),
        ),
        _at_most(
            "difference operator norm at most 1",
            "truncated operator norm of the parameter-1/n minus parameter-0 map "
            "is at most 1",
            1.0 + 1e-12,
            float(opnorms.max()),
        ),
        _at_most(
            "round trip",
            "inverse of the diagonal map recovers the input",
            1e-14,
            float(np.max(seq_norms(back - xs, 0) / seq_norms(xs, 0))),
        ),
    ]


def _blocks(total: int):
    """(start, size) of consecutive blocks of at most _SEQ_BLOCK trials."""
    return [(lo, min(_SEQ_BLOCK, total - lo)) for lo in range(0, total, _SEQ_BLOCK)]


def _running_max(current: float, values) -> float:
    """max(current, *np.asarray(values).flat), keeping the first of equal
    maxima as the sequential builtin max does (so the sign of a zero maximum
    matches) and any NaN, which the builtin drops past its first argument."""
    values = np.asarray(values)
    if not values.size:
        return current
    v = float(values.flat[np.argmax(values)])  # argmax takes a NaN as the maximum
    return current if v <= current or current != current else v


def _single_mode_gap(rng: np.random.Generator, n_modes: int) -> float:
    """Worst relative gap between the level-i norm of a single mode n and
    n^(-3k) times its level-(i+k) norm, i, k < 3, over modes 1..n_modes with
    one random scale each."""
    worst = 0.0
    scales = rng.uniform(0.5, 2.0, size=n_modes)  # one draw per mode
    for lo, size in _blocks(n_modes):
        modes = np.arange(lo + 1, lo + size + 1)
        x = np.zeros((size, n_modes))  # row r: the single mode lo + 1 + r
        x[np.arange(size), modes - 1] = scales[lo : lo + size]
        norms = [seq_norms(x, level) for level in range(5)]
        # Python's int ** int, as the one-mode loop took it
        shrinks = [np.array([n ** (-3 * k) for n in modes.tolist()]) for k in range(3)]
        gaps = np.empty((size, 3, 3))
        for i in range(3):
            for k in range(3):
                lhs, rhs = norms[i], shrinks[k] * norms[i + k]
                gaps[:, i, k] = np.abs(lhs - rhs) / np.maximum(lhs, 1e-300)
        worst = _running_max(worst, gaps)
    return worst


def _tail_bound_gap(rng: np.random.Generator, dim: int, N: int) -> float:
    """Largest ||tail||_i - N^(-3k) ||tail||_{i+k}, i < 2, 1 <= k < 3, over
    the tails from mode N on of 200 random vectors of length dim."""
    worst = -math.inf
    for _, size in _blocks(200):
        tail = rng.normal(size=(size, dim))
        tail[:, : N - 1] = 0.0
        norms = [seq_norms(tail, level) for level in range(4)]
        gaps = [norms[i] - N ** (-3 * k) * norms[i + k] for i in range(2) for k in range(1, 3)]
        worst = _running_max(worst, np.stack(gaps, axis=1))
    return worst


def _diagonal_map_ratio(rng: np.random.Generator, dim: int) -> float:
    """Largest ||rho_0(t, x)||_i / ||x||_i over 1000 random trials (x, t, i).

    Each block draws its trials' x, then their t, then their levels."""
    worst = 0.0
    modes = np.arange(1, dim + 1)
    for _, size in _blocks(1000):
        x = rng.normal(size=(size, dim))
        ts = rng.uniform(-0.5, 1.0, size)
        levels = rng.integers(0, 3, size)
        image = step_n(modes, ts[:, np.newaxis], 0) * x
        worst = _running_max(worst, seq_norms(image, levels) / seq_norms(x, levels))
    return worst


def _seq_tail_bounds(cfg: ExperimentConfig) -> List[Check]:
    N = 16
    e_N = SeqVector.basis(N)
    eq_gaps = [
        abs(seq_norm(e_N, i) - N ** (-3 * k) * seq_norm(e_N, i + k))
        for i in range(2)
        for k in range(1, 3)
    ]
    rng = np.random.default_rng(cfg.seed)  # the three checks draw in list order
    return [
        _at_most(
            "single-mode level scaling",
            "the level-i norm of a single mode n equals n^(-3k) times its "
            "level-(i+k) norm",
            1e-12,
            _single_mode_gap(rng, cfg.truncation_n),
        ),
        _at_most(
            "tail bound with sharp mode",
            "the tail beyond mode N is bounded by N^(-3k) times the higher-level "
            "norm, with equality at the single mode N",
            1e-12,
            _running_max(_tail_bound_gap(rng, cfg.truncation_n, N), eq_gaps),
        ),
        _at_most(
            "diagonal map bounded by two",
            "the diagonal plateau map never more than doubles any level norm",
            2.0 + 1e-12,
            _diagonal_map_ratio(rng, cfg.truncation_n),
        ),
    ]


def _seq_tangent_check(cfg: ExperimentConfig) -> List[Check]:
    rng = np.random.default_rng(cfg.seed)
    base_ts = []
    for n in range(2, 7):
        lo, hi = 1.0 / (n + 1), 1.0 / n
        base_ts.append(lo + 0.35 * (hi - lo))
        base_ts.append(lo + 0.6 * (hi - lo))
    base_ts = base_ts * 2  # 20 base points
    steps = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
    ts = np.array(base_ts)
    worst = 0.0
    for k in (0, 1):
        xs, Ts, Xs = np.empty((20, 10)), np.empty(20), np.empty((20, 10))
        for p in range(20):  # per point: its x, then its tangent's T and X
            xs[p], Ts[p], Xs[p] = rng.normal(size=10), rng.uniform(0.5, 1.5), rng.normal(size=10)
        handle = seq_rho_k_handle(k)
        reps = finite_diff_differential(handle, (ts, xs), (Ts, Xs), level=0, steps=steps)
        worst = _running_max(worst, [rep.mismatch for rep in reps])
    x = SeqVector(rng.normal(size=10))
    X = SeqVector(rng.normal(size=10))
    d0 = rho_k_tangent(0, 0.0, x, 1.0, X)
    gap0 = seq_norm(d0.add(X.scaled(-1.0)), 0)
    d1 = rho_k_tangent(1, 0.0, x, 1.0, X)
    gap1 = seq_norm(d1, 0)
    return [
        _at_most(
            "interior tangent formula",
            "finite differences of the derivative family match the analytic "
            "tangent formula at interior parameters",
            1e-6,
            worst,
        ),
        _at_most(
            "tangent at the limit parameter",
            "at parameter zero the order-0 tangent is the direction itself and "
            "the order-1 tangent vanishes",
            0.0,
            _running_max(gap0, gap1),
        ),
    ]


# ---------------------------------------------------------------------------
# grid-model experiments


def _retract_image_gap(cfg: ExperimentConfig) -> List[Check]:
    rng = np.random.default_rng(cfg.seed)
    h = cfg.spacing
    windows = [bump_profiles.bump_window(k, h, cfg.margin) for k in range(4)]
    gram = bump_profiles.bump_window_gram(4, 0, 0.0, h, cfg.margin)
    worst_orth = worst_pair = worst_dist = worst_ker = 0.0
    for t in (0.3, 0.4, 0.5):
        b = shifted_bump(t, 0, h, cfg.margin)
        # random f = c . (b, b', b'', b''') on b_t's window: the projection is linear, so
        # f's residual along b_t is c . v, v the windows' residuals, and ||f||^2 = c G c^T
        rows = (s_proj_row(t, w.copy(), b.x0, h, cfg.margin) for w in windows)
        v = [uniform_trapezoid(row * b.values, h) for row in rows]
        c = rng.normal(size=(34, 4))
        norms = np.sqrt(np.einsum("ij,jk,ik->i", c, gram, c))
        worst_orth = _running_max(worst_orth, np.abs(c @ v) / np.maximum(norms, 1e-300))
        worst_pair = _running_max(worst_pair, abs(grid_l2_inner(b.scaled(t), b) - t))
        dist = math.hypot(t, grid_sobolev_norm(b.scaled(t), 0, 0.0))
        worst_dist = _running_max(worst_dist, abs(dist - t * math.sqrt(2.0)))
        _, g = s_proj_diff(t, b.zeros_like(), 0.0, b, h, cfg.margin)
        worst_ker = _running_max(worst_ker, grid_sobolev_norm(g, 0, 0.0))
    return [
        _at_most(
            "projection orthogonality",
            "after projection nothing remains along the moving bump",
            1e-10,
            worst_orth,
        ),
        _at_most(
            "missed target pairing",
            "the candidate limit points (t, t*bump) pair to t with the bump",
            1e-6,
            worst_pair,
        ),
        _at_most(
            "missed target distance",
            "the candidate limit points (t, t*bump) sit at distance t*sqrt(2) from the origin",
            1e-8,
            worst_dist,
        ),
        _at_most(
            "kernel witness",
            "the differential at (t, 0) annihilates the bump direction",
            1e-10,
            worst_ker,
        ),
    ]


def _identity_differential(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    # the germs' cached atoms b, b(. - 1/2) and b(. + 1/2) on [-2, 2]
    b0, b1, b2 = _atoms(cfg.spacing)[:3]
    x0 = b0.x0
    T = float(rng.uniform(0.5, 1.5))
    # below the first parameter at which b_t's window reaches x0
    # (bump_reaches) no step has a bump term, and the identity is the whole
    # differential; past it the sweeps would meet b_t off the tangent's nodes
    reach, swept = 1.0 / math.log(1.0 + cfg.margin - x0), max(DEFAULT_FD_STEPS) * T
    checks.append(
        _check(
            "origin sweeps stay off the bump",
            "every finite-difference step at the origin lies below the first "
            "parameter at which the bump reaches the tangent's window",
            reach,
            swept,
            swept < reach,
        )
    )
    if swept < reach:
        c = rng.normal(size=3)
        F = GridFunction(x0, cfg.spacing, c[0] * b0.values + c[1] * b1.values + c[2] * b2.values)
        for name, what, make in (
            ("projection-map", "projection map", s_proj_handle),
            ("branching-family", "branching family", h_family_handle),
        ):
            handle = make(cfg.spacing, cfg.margin, cfg.schedule())
            (r,) = finite_diff_differential(
                handle, [(0.0, F.zeros_like())], [(T, F)], level=0, steps=DEFAULT_FD_STEPS
            )
            checks.append(
                _at_most(
                    f"{name} differential at the origin",
                    f"finite differences of the {what} at (0, 0) reproduce the identity",
                    1e-6,
                    r.mismatch,
                )
            )
    q = bump_self_pairing(cfg.spacing, cfg.margin)
    gram = np.diag([1.0, q])
    b = shifted_bump(0.5, 0, cfg.spacing, cfg.margin)
    ranks = {}
    for t in (0.5, -0.5):
        # the retraction's b-column entry <rho_t(b), b> / q: q where t > 0
        rho = rho_eval(t, b, cfg.spacing, cfg.margin)[1]
        m = np.array([[1.0, 0.0], [0.0, grid_l2_inner(rho, b) / q]])
        ranks[t] = numerical_rank(OperatorHandle(m, gram, gram))
    checks.append(
        _check(
            "retraction differential rank",
            "the truncated retraction differential has rank two for positive "
            "parameters and rank one otherwise",
            "2 then 1",
            f"{ranks[0.5]} then {ranks[-0.5]}",
            ranks[0.5] == 2 and ranks[-0.5] == 1,
        )
    )
    return checks


def _inverse_blowup(cfg: ExperimentConfig) -> List[Check]:
    delta = cfg.tail_delta
    f = AnalyticTailFunction.inverse_square_tail(delta)
    logs = []
    margins = []
    ok_bound = True
    for t in cfg.blowup_t_grid:
        pre = s_tilde_inv(t, 0.0, f, cfg.spacing, cfg.margin)
        lm = pre.y.logmag
        bound = math.fsum(
            [
                math.exp(1.0 / (t * t)),
                -2.0 * delta * math.exp(1.0 / t),
                -2.0 / t,
                -math.log(4.0),
            ]
        )
        logs.append(lm)
        margins.append(lm - bound)
        ok_bound = ok_bound and math.isfinite(lm) and lm >= bound
    return [
        _check(
            "blow-up lower bound",
            "the log of the inverse shear's scalar output dominates the "
            "closed-form lower bound at every sampled parameter",
            "exp(1/t^2) - 2 delta exp(1/t) - 2/t - log 4",
            min(margins),
            ok_bound,
        ),
        _at_least(
            "blow-up growth per step",
            "each step down the parameter grid multiplies the scalar output by "
            "at least ten",
            math.log(10.0),
            float(np.min(np.diff(logs), initial=math.inf)),
        ),
    ]


def _g0_smoothness(cfg: ExperimentConfig) -> List[Check]:
    t_grid = cfg.smoothness_t_grid
    exponents = [(ell, m, n) for ell in range(4) for m in range(4) for n in range(4)]
    logs = [lms for delta in (0.0, 0.2) for lms in log_limit_probe(exponents, delta, t_grid)]
    clamped = {j for lms in logs for j, lm in enumerate(lms) if not lm > bump_profiles._LOG_MIN}
    strictly_dec = all(b < a for lms in logs for a, b in zip(lms, lms[1:]))
    worst_final = max(lms[-1] for lms in logs)
    # a check that reads the clamp _LOG_MIN fails, and names the first t it read there
    decreasing = ("ok" if strictly_dec else "violated", strictly_dec)
    if clamped:
        decreasing = (t_grid[min(clamped)], False)
    collapse = (worst_final, worst_final < -1e3)
    if len(t_grid) - 1 in clamped:
        collapse = (t_grid[-1], False)
    return [
        _check(
            "envelope strictly decreasing",
            "the log of the derivative envelope strictly decreases along the "
            "parameter grid for every exponent combination",
            "strict decrease",
            *decreasing,
        ),
        _check(
            "envelope collapse",
            "the envelope falls below exp(-1000) by the end of the grid",
            -1e3,
            *collapse,
        ),
    ]


def _noncompact_zeroset(cfg: ExperimentConfig) -> List[Check]:
    worst = 0.0
    for n, m in ((2, 5), (3, 7)):
        bn = shifted_bump(1.0 / n, 0, cfg.spacing, cfg.margin)
        bm = shifted_bump(1.0 / m, 0, cfg.spacing, cfg.margin)
        cross = grid_l2_inner(bn, bm)
        dist = math.sqrt(
            grid_sobolev_norm(bn, 0, 0.0) ** 2
            + grid_sobolev_norm(bm, 0, 0.0) ** 2
            - 2.0 * cross
        )
        worst = _running_max(worst, abs(dist - math.sqrt(2.0)))
    return [
        _at_most(
            "mutual distance sqrt(2)",
            "far-separated unit bumps are sqrt(2) apart, so the bounded zero-set "
            "sequence has no convergent subsequence; the squared distance is 2 "
            "(a squared-norm reading of the source constant)",
            1e-8,
            worst,
        )
    ]


def _branching_zeroset(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    worst_rel = -math.inf
    ok = True
    for t in cfg.branching_t_grid:
        for x in (LogScalar.zero(), phi_gate(t)):
            val = phi_value(t, x)
            resid = x.sub(val)
            if resid.is_zero:
                continue
            if x.is_zero:
                ok = False
                continue
            rel = resid.logmag - x.logmag
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= math.log(1e-12)
    checks.append(
        _check(
            "fixed-point residuals",
            "both zero-branch coefficients are fixed points of the scalar family "
            "to log-relative rounding",
            1e-12,
            "0" if worst_rel == -math.inf else repr(math.exp(worst_rel)),
            ok,
        )
    )
    neg_ok = all(h_zero_branch(t)[1].is_zero for t in (-1.0, -0.1, 0.0))
    pos_ok = all(h_zero_branch(t)[1].sign == 1 for t in cfg.branching_t_grid)
    checks.append(
        _check(
            "branch dichotomy",
            "the nontrivial branch vanishes for non-positive parameters and is "
            "strictly positive otherwise",
            "zero for t <= 0, positive for t > 0",
            f"nonpositive-ok={neg_ok}, positive-ok={pos_ok}",
            neg_ok and pos_ok,
        )
    )
    mid_ok = all(
        h_transversality_data(t, cfg.spacing, cfg.margin).midpoint_identity
        for t in cfg.branching_t_grid
    )
    checks.append(
        _check(
            "midpoint identity",
            "the transversality-failure coefficient is exactly half the branch "
            "coefficient in log arithmetic",
            "exact",
            "exact" if mid_ok else "mismatch",
            mid_ok,
        )
    )
    return checks


def _transversality_witness(cfg: ExperimentConfig) -> List[Check]:
    worst = 0.0
    for t in cfg.branching_t_grid:
        data = h_transversality_data(t, cfg.spacing, cfg.margin)
        a, b = data.witness_value, data.witness_value_partial_route
        gap = abs(a.logmag - b.logmag) / max(1.0, abs(a.logmag)) if a.sign == b.sign else math.inf
        worst = _running_max(worst, gap)
    return [
        _at_most(
            "two-route witness agreement",
            "the closed-form witness magnitude and the independent "
            "partial-derivative route agree in log magnitude",
            1e-12,
            worst,
        )
    ]


def _opnorm_dichotomy(cfg: ExperimentConfig) -> List[Check]:
    rows = opnorm_dichotomy(
        cfg.dichotomy_t_grid,
        cfg.dichotomy_delta,
        cfg.spacing,
        cfg.margin,
        seed=cfg.seed,
    )
    # sampled <= bound * (1 + 1e-9), in logs; a -inf (every pairing 0) bounds nothing
    sandwich_ok = all(-math.inf < r.log_sampled_over_bound <= math.log1p(1e-9) for r in rows)
    uppers = [r.log_upper_bound for r in rows]
    # rows follow the configured grid, which runs downward in t
    monotone_ok = all(b < a for a, b in zip(uppers, uppers[1:]))
    monotone = ("ok" if monotone_ok else "violated", monotone_ok)
    # past t ~ 0.00141 the bound is -inf, which bounds nothing: the check
    # fails and names the first such t
    unbounded = [r.t for r in rows if not math.isfinite(r.log_upper_bound)]
    if unbounded:
        monotone = (unbounded[0], False)
    return [
        _at_least(
            "same-level lower bound",
            "the bump witness keeps the unweighted operator norm near one at "
            "every sampled parameter",
            0.999,
            float(np.min([r.l2_lower_bound for r in rows])),
        ),
        _check(
            "cross-level sandwich",
            "every sampled weighted ratio sits below the closed-form upper bound",
            "sampled <= closed form",
            max(r.log_sampled_over_bound for r in rows),
            sandwich_ok,
        ),
        _check(
            "upper bound decreasing",
            "the closed-form cross-level bound strictly decreases as the "
            "parameter decreases",
            "strict decrease",
            *monotone,
        ),
    ]


def _germ_continuity(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    schedule = cfg.schedule()
    for germ_id in ("rank-one", "quadratic"):
        germ = make_germ(germ_id, schedule, cfg.spacing)
        cert = certify(germ, cfg.germ_level, seed=cfg.seed)
        replay_ok = replay_certificate(germ, cert)
        # an uncertified pair leaves nothing to replay
        replay = "ok" if replay_ok else "drift" if cert.all_certified else "uncertified"
        checks.append(
            _check(
                f"{germ_id}: certificate replay",
                "certified moduli re-derive bit-for-bit from the closed form, "
                "and the sampled witness at the recorded seed stays below them",
                "exact replay",
                replay,
                cert.all_certified and replay_ok,
            )
        )
        # one probe call: the certified radii, then 1/2, 1/4 and 1/8 of the
        # epsilon = 0.1 radius where that one is certified
        base = next(p for p in cert.pairs if p.epsilon == 0.1)
        radii = [p.delta for p in cert.pairs if p.delta is not None]
        if base.delta is not None:
            radii += [frac * base.delta for frac in (0.5, 0.25, 0.125)]
        probes = dW_opnorm_probe(germ, cfg.germ_level, radii, seed=cfg.seed + 1)
        # sup ||D_wB|| over a ball is the germ's modulus there, so no probe
        # may exceed the closed form
        bounded = all(op <= germ.modulus(cfg.germ_level, r) for r, op in zip(radii, probes))
        probes = iter(probes)
        # a failed pair reads the last modulus its search found above epsilon
        ops = {p.epsilon: p.modulus if p.delta is None else next(probes) for p in cert.pairs}
        checks.append(
            _at_most(
                f"{germ_id}: factor-two law",
                "inside each certified radius the partial-differential norm "
                "stays below twice the certified modulus",
                _LAW_SLACK,
                _running_max(-math.inf, [op - 2.0 * eps for eps, op in ops.items()]),
            )
        )
        checks.append(
            _check(
                f"{germ_id}: probes below the closed form",
                "every pair is certified, and no probe exceeds the closed-form "
                "modulus at its radius",
                "certified, below",
                f"{'certified' if cert.all_certified else 'uncertified'}, "
                f"{'below' if bounded else 'above'}",
                cert.all_certified and bounded,
            )
        )
        if base.delta is None:
            decay = (f"{germ_id} has no certified radius for epsilon 0.1", False)
        else:
            vals = [ops[0.1], *probes]
            ok = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])) and vals[-1] < 0.05
            decay = (vals[-1], ok)
        checks.append(
            _check(
                f"{germ_id}: probe decay",
                "differential-norm probes decrease as the radius shrinks through "
                "1, 1/2, 1/4, 1/8 of the certified radius, ending below 0.05",
                0.05,
                *decay,
            )
        )
    pseudo = make_germ("moving-bump", schedule, cfg.spacing, cfg.margin)
    radii = (0.5, 0.4, 0.3, 0.2, 0.15)
    moduli = [pseudo.modulus(cfg.germ_level, r) for r in radii]
    # one witness row per radius, where the ratio attains q: c at the top of
    # c_range and w along the bump coordinate at norm 0.999 delta
    g = pseudo.context.gram(cfg.germ_level)
    c = np.array([pseudo.c_range(r)[1] for r in radii])
    w = _scaled(np.eye(len(g))[-1], 0.999 * np.array(radii), g)
    ratios = (_norms(pseudo.B(c, w), g) / _norms(w, g)).tolist()
    attained = all(abs(r - m) <= 4 * math.ulp(m) for r, m in zip(ratios, moduli))
    flagged = attained and all(m >= 0.9 for m in moduli)
    cert = certify(pseudo, cfg.germ_level, seed=cfg.seed)
    checks.append(
        _check(
            "moving-bump: non-contraction flag",
            "the projection pseudo-germ keeps contraction modulus near one at "
            "every radius and certification fails",
            ">= 0.9 and no certificate",
            min(ratios),
            flagged and not cert.all_certified,
        )
    )
    return checks


def _germ_openness(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    schedule = cfg.schedule()
    for germ_id in ("rank-one", "quadratic"):
        germ = make_germ(germ_id, schedule, cfg.spacing)
        cert = certify(germ, cfg.germ_level, epsilons=(0.1,), seed=cfg.seed)
        radius = cert.pairs[0].delta
        ok = radius is not None
        report = None
        if ok:
            (report,) = openness_probe(germ, cfg.germ_level, [radius], seed=cfg.seed)
            ok = report.passed
        checks.append(
            _check(
                f"{germ_id}: openness at certified radius",
                "the full differential stays uniformly invertible on the "
                "certified contraction ball",
                "condition number within factor 2 of the origin",
                "n/a" if report is None else report.worst_cond,
                bool(ok),
            )
        )
    pseudo = make_germ("moving-bump", schedule, cfg.spacing, cfg.margin)
    reports = openness_probe(pseudo, cfg.germ_level, (0.3, 0.2, 0.15), seed=cfg.seed)
    fails = [not rep.passed for rep in reports]
    checks.append(
        _check(
            "moving-bump: openness failure",
            "the projection pseudo-germ loses differential invertibility at "
            "every radius reaching positive parameters",
            "failure at every radius",
            f"{sum(fails)}/{len(fails)} radii failed",
            all(fails),
        )
    )
    return checks


EXPERIMENTS: Dict[str, Tuple[str, Callable[[ExperimentConfig], List[Check]]]] = {
    "retract-image-gap": (
        "The projection map's image misses the line of bump multiples",
        _retract_image_gap,
    ),
    "identity-differential": (
        "Differentials at the origin reproduce the identity under finite differences",
        _identity_differential,
    ),
    "inverse-blowup": (
        "The inverse shear's scalar output blows up double-exponentially",
        _inverse_blowup,
    ),
    "g0-smoothness": (
        "Log-domain envelopes for the gated bump path collapse to zero",
        _g0_smoothness,
    ),
    "noncompact-zeroset": (
        "Far-separated unit bumps stay sqrt(2) apart: the zero set is noncompact",
        _noncompact_zeroset,
    ),
    "branching-zeroset": (
        "The branching family has exactly the two expected zero branches",
        _branching_zeroset,
    ),
    "transversality-witness": (
        "Two independent routes agree on the transversality-failure witness",
        _transversality_witness,
    ),
    "opnorm-dichotomy": (
        "Operator norms stay unit-size same-level but vanish cross-level",
        _opnorm_dichotomy,
    ),
    "germ-continuity": (
        "Instance germs certify contraction and obey the factor-two law",
        _germ_continuity,
    ),
    "germ-openness": (
        "Invertibility of the differential is open for germs, not for the projection",
        _germ_openness,
    ),
    "seq-discontinuity": (
        "The diagonal sequence diffeomorphism has a unit-size differential jump",
        _seq_discontinuity,
    ),
    "seq-tail-bounds": (
        "Mode and tail norms scale across levels exactly as claimed",
        _seq_tail_bounds,
    ),
    "seq-tangent-check": (
        "The derivative family's tangent formula survives finite differences",
        _seq_tangent_check,
    ),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)


def run(experiment_id: str, config: Optional[ExperimentConfig] = None) -> ExperimentReport:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    config = config or ExperimentConfig()
    description, fn = EXPERIMENTS[experiment_id]
    try:
        checks = fn(config)
    except Exception as exc:  # a raising experiment reports, it does not crash
        checks = [
            _check(
                "error",
                "the experiment runs to completion without raising",
                "no exception",
                f"{type(exc).__name__}: {exc}",
                False,
            )
        ]
    passed = all(c.passed for c in checks)
    return ExperimentReport(
        experiment=experiment_id,
        description=description,
        passed=passed,
        checks=checks,
        config=config.to_dict(),
        stamp=_stamp(),
    )


def list_experiments() -> List[Tuple[str, str]]:
    return [(eid, desc) for eid, (desc, _) in EXPERIMENTS.items()]


def emit(report: ExperimentReport, fmt: str = "json") -> str:
    """Render a report; byte-stable for fixed report content."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "check", "claimed", "measured", "pass"])
        for c in report.checks:
            writer.writerow(
                [report.experiment, c.name, c.claimed, c.measured, str(c.passed).lower()]
            )
        return buf.getvalue()
    if fmt == "text":
        lines = [f"{report.experiment}: {report.description}"]
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: claimed {c.claimed}, measured {c.measured}")
        lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use json, csv, or text")
