"""Named, reproducible desk-scale experiments binding the model spaces,
map gallery, operator probes, and germ certification into pass/fail
reports with machine-readable output."""

from __future__ import annotations

import csv
import io
import json
import math
import platform
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bump_profiles
from .bump_profiles import bump_self_pairing, log_limit_probe, phi_gate, shifted_bump, step_n
from .gallery import (
    h_family_handle,
    h_transversality_data,
    h_zero_branch,
    phi_value,
    rho_k_tangent,
    s_proj,
    s_proj_diff,
    s_proj_handle,
    s_tilde_inv,
    seq_diffeo,
    seq_diffeo_inv,
    seq_rho_k_handle,
)
from .germs import (
    certify,
    contraction_modulus,
    germ_continuity_report,
    make_germ,
    make_moving_bump_pseudo_germ,
    openness_probe,
    radius_shrink_probes,
    replay_certificate,
)
from .operator_probe import (
    OperatorHandle,
    finite_diff_differential,
    numerical_rank,
    opnorm_dichotomy,
    truncation_opnorm,
)
from .scale_core import (
    _MAX_GRID_NODES,
    AnalyticTailFunction,
    GridFunction,
    LogScalar,
    SeqVector,
    WeightSchedule,
    grid_combine,
    grid_l2_inner,
    grid_sobolev_norm,
    seq_norm,
    seq_norms,
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

#: the largest truncation_n: seq-discontinuity builds N x N matrices
_MAX_TRUNCATION = 1024

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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.germ_level <= self.levels + 1:
            raise ValueError(f"germ_level must lie in 0..{self.levels + 1}")
        if any(t > 1 for t in self.smoothness_t_grid):
            raise ValueError("smoothness_t_grid must lie in (0, 1]")

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
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
        return asdict(self)


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
            "checks": [asdict(c) for c in self.checks],
            "config": self.config,
            "stamp": self.stamp,
        }


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))  # np.float64 is a float, but its repr names numpy
    return str(x)


def _check(name: str, claim: str, claimed, measured, passed: bool) -> Check:
    return Check(name, claim, _fmt(claimed), _fmt(measured), bool(passed))


def _stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# sequence-model experiments


def _seq_discontinuity(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    worst = 0.0
    for n in range(2, 11):
        t = 1.0 / n
        for i in range(3):
            e_n = SeqVector.basis(n)
            moved = seq_diffeo(t, e_n).add(seq_diffeo(0.0, e_n).scaled(-1.0))
            ratio = seq_norm(moved, i) / seq_norm(e_n, i)
            worst = max(worst, abs(ratio - 0.5))
    checks.append(
        _check(
            "unit-vector gap",
            "the difference of the diagonal map at parameters 1/n and 0 moves "
            "each unit vector e_n by exactly half its norm, on every level",
            0.0,
            worst,
            worst <= 1e-12,
        )
    )
    N = cfg.truncation_n
    ok_opnorm = True
    worst_op = 0.0
    for n in (2, 4, 7):
        t = 1.0 / n
        diag = step_n(np.arange(1, N + 1), t, 0) - 1.0
        for i in range(3):
            gram = np.diag(np.arange(1, N + 1, dtype=float) ** (6 * i))
            op = OperatorHandle(np.diag(diag), gram, gram)
            nrm = truncation_opnorm(op)
            worst_op = max(worst_op, nrm)
            ok_opnorm = ok_opnorm and 0.5 - 1e-12 <= nrm <= 1.0 + 1e-12
    checks.append(
        _check(
            "difference operator norm",
            "truncated operator norm of the parameter-1/n minus parameter-0 map "
            "lies in [1/2, 1]",
            "[0.5, 1]",
            worst_op,
            ok_opnorm,
        )
    )
    rng = np.random.default_rng(cfg.seed)
    worst_rt = 0.0
    for _ in range(20):
        x = SeqVector(rng.normal(size=N))
        t = float(rng.uniform(-0.2, 0.6))
        back = seq_diffeo_inv(t, seq_diffeo(t, x))
        num = seq_norm(back.add(x.scaled(-1.0)), 0)
        worst_rt = max(worst_rt, num / seq_norm(x, 0))
    checks.append(
        _check(
            "round trip",
            "inverse of the diagonal map recovers the input",
            0.0,
            worst_rt,
            worst_rt <= 1e-14,
        )
    )
    return checks


def _blocks(total: int):
    """(start, size) of consecutive blocks of at most _SEQ_BLOCK trials."""
    return [(lo, min(_SEQ_BLOCK, total - lo)) for lo in range(0, total, _SEQ_BLOCK)]


def _running_max(current: float, values: np.ndarray) -> float:
    """max(current, *values.flat), keeping the first of equal maxima as the
    sequential builtin max does (so the sign of a zero maximum matches)."""
    if not values.size:
        return current
    return max(current, float(values.flat[np.argmax(values)]))


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
        gaps = np.empty((size, 3, 3))
        for i in range(3):
            for k in range(3):
                # Python's int ** int, as the one-mode loop took it
                shrink = np.array([n ** (-3 * k) for n in modes.tolist()])
                lhs, rhs = norms[i], shrink * norms[i + k]
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
        ratios = np.empty(size)
        for i in range(3):
            at = levels == i
            ratios[at] = seq_norms(image[at], i) / seq_norms(x[at], i)
        worst = _running_max(worst, ratios)
    return worst


def _seq_tail_bounds(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    worst = _single_mode_gap(rng, cfg.truncation_n)
    checks.append(
        _check(
            "single-mode level scaling",
            "the level-i norm of a single mode n equals n^(-3k) times its "
            "level-(i+k) norm",
            0.0,
            worst,
            worst <= 1e-12,
        )
    )
    N = 16
    worst_gap = _tail_bound_gap(rng, cfg.truncation_n, N)
    eq_gap = math.inf
    for i in range(2):
        for k in range(1, 3):
            e_N = SeqVector.basis(N)
            lhs = seq_norm(e_N, i)
            rhs = N ** (-3 * k) * seq_norm(e_N, i + k)
            eq_gap = min(eq_gap, abs(lhs - rhs))
    checks.append(
        _check(
            "tail bound with sharp mode",
            "the tail beyond mode N is bounded by N^(-3k) times the higher-level "
            "norm, with equality at the single mode N",
            0.0,
            max(worst_gap, eq_gap),
            worst_gap <= 1e-12 and eq_gap <= 1e-12,
        )
    )
    worst_ratio = _diagonal_map_ratio(rng, cfg.truncation_n)
    checks.append(
        _check(
            "diagonal map bounded by two",
            "the diagonal plateau map never more than doubles any level norm",
            2.0,
            worst_ratio,
            worst_ratio <= 2.0 + 1e-12,
        )
    )
    return checks


def _seq_tangent_check(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    base_ts = []
    for n in range(2, 7):
        lo, hi = 1.0 / (n + 1), 1.0 / n
        base_ts.append(lo + 0.35 * (hi - lo))
        base_ts.append(lo + 0.6 * (hi - lo))
    base_ts = base_ts * 2  # 20 base points
    steps = (1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
    worst = 0.0
    for k in (0, 1):
        handle = seq_rho_k_handle(k)
        for t in base_ts:
            x = SeqVector(rng.normal(size=10))
            tan = (float(rng.uniform(0.5, 1.5)), SeqVector(rng.normal(size=10)))
            rep = finite_diff_differential(handle, (t, x), tan, level=0, steps=steps)
            worst = max(worst, rep.mismatch)
    checks.append(
        _check(
            "interior tangent formula",
            "finite differences of the derivative family match the analytic "
            "tangent formula at interior parameters",
            1e-6,
            worst,
            worst <= 1e-6,
        )
    )
    x = SeqVector(rng.normal(size=10))
    X = SeqVector(rng.normal(size=10))
    d0 = rho_k_tangent(0, 0.0, x, 1.0, X)
    gap0 = seq_norm(d0.add(X.scaled(-1.0)), 0)
    d1 = rho_k_tangent(1, 0.0, x, 1.0, X)
    gap1 = seq_norm(d1, 0)
    checks.append(
        _check(
            "tangent at the limit parameter",
            "at parameter zero the order-0 tangent is the direction itself and "
            "the order-1 tangent vanishes",
            0.0,
            max(gap0, gap1),
            gap0 == 0.0 and gap1 == 0.0,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# grid-model experiments


def _retract_image_gap(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    worst_orth = 0.0
    for t in (0.3, 0.4, 0.5):
        # random combinations of the bump and its first three derivatives
        bumps = [shifted_bump(t, k, cfg.spacing, cfg.margin) for k in range(4)]
        b = bumps[0]
        for _ in range(34):
            f = grid_combine(list(zip(rng.normal(size=4), bumps)))
            _, g = s_proj(t, f, cfg.spacing, cfg.margin)
            resid = abs(grid_l2_inner(g, b))
            worst_orth = max(worst_orth, resid / max(grid_sobolev_norm(f, 0, 0.0), 1e-300))
    checks.append(
        _check(
            "projection orthogonality",
            "after projection nothing remains along the moving bump",
            1e-10,
            worst_orth,
            worst_orth <= 1e-10,
        )
    )
    worst_pair = 0.0
    worst_dist = 0.0
    for t in (0.3, 0.4, 0.5):
        b = shifted_bump(t, 0, cfg.spacing, cfg.margin)
        worst_pair = max(worst_pair, abs(grid_l2_inner(b.scaled(t), b) - t))
        dist = math.hypot(t, grid_sobolev_norm(b.scaled(t), 0, 0.0))
        worst_dist = max(worst_dist, abs(dist - t * math.sqrt(2.0)))
    checks.append(
        _check(
            "missed target line",
            "the candidate limit points (t, t*bump) pair to t with the bump and "
            "sit at distance t*sqrt(2) from the origin, yet the projection image "
            "contains nothing along the bump",
            0.0,
            max(worst_pair, worst_dist),
            worst_pair <= 1e-6 and worst_dist <= 1e-8,
        )
    )
    worst_ker = 0.0
    for t in (0.3, 0.4, 0.5):
        b = shifted_bump(t, 0, cfg.spacing, cfg.margin)
        _, g = s_proj_diff(t, b.zeros_like(), 0.0, b, cfg.spacing, cfg.margin)
        worst_ker = max(worst_ker, grid_sobolev_norm(g, 0, 0.0))
    checks.append(
        _check(
            "kernel witness",
            "the differential at (t, 0) annihilates the bump direction",
            0.0,
            worst_ker,
            worst_ker <= 1e-10,
        )
    )
    return checks


def _identity_differential(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    rng = np.random.default_rng(cfg.seed)
    x0, h = -2.0, cfg.spacing
    n = round(4.0 / h) + 1
    xs = x0 + h * np.arange(n)
    bump = bump_profiles.make_bump()
    b0, b1, b2 = bump(xs), bump(xs - 0.5), bump(xs + 0.5)
    zero = GridFunction(x0, h, np.zeros(n))

    def direction() -> GridFunction:
        c = rng.normal(size=3)
        return GridFunction(x0, h, c[0] * b0 + c[1] * b1 + c[2] * b2)

    worst_proj = 0.0
    worst_branch = 0.0
    proj = s_proj_handle(cfg.spacing, cfg.margin)
    fam = h_family_handle(cfg.spacing, cfg.margin)
    for _ in range(10):
        tan = (float(rng.uniform(0.5, 1.5)), direction())
        rp = finite_diff_differential(proj, (0.0, zero), tan, level=0)
        worst_proj = max(worst_proj, rp.mismatch)
        rb = finite_diff_differential(fam, (0.0, zero), tan, level=0)
        worst_branch = max(worst_branch, rb.mismatch)
    checks.append(
        _check(
            "projection-map differential at the origin",
            "finite differences of the projection map at (0, 0) reproduce the "
            "identity",
            1e-6,
            worst_proj,
            worst_proj <= 1e-6,
        )
    )
    checks.append(
        _check(
            "branching-family differential at the origin",
            "finite differences of the branching family at (0, 0) reproduce the "
            "identity",
            1e-6,
            worst_branch,
            worst_branch <= 1e-6,
        )
    )
    q = bump_self_pairing(cfg.spacing, cfg.margin)
    gram = np.diag([1.0, q])
    ranks = {}
    for t in (0.5, -0.5):
        m = np.array([[1.0, 0.0], [0.0, q if t > 0 else 0.0]])
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
    checks = []
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
    checks.append(
        _check(
            "blow-up lower bound",
            "the log of the inverse shear's scalar output dominates the "
            "closed-form lower bound at every sampled parameter",
            "exp(1/t^2) - 2 delta exp(1/t) - 2/t - log 4",
            min(margins),
            ok_bound,
        )
    )
    increments = [logs[i + 1] - logs[i] for i in range(len(logs) - 1)]
    min_inc = min(increments) if increments else math.inf
    checks.append(
        _check(
            "blow-up growth per step",
            "each step down the parameter grid multiplies the scalar output by "
            "at least ten",
            math.log(10.0),
            min_inc,
            min_inc >= math.log(10.0),
        )
    )
    return checks


def _g0_smoothness(cfg: ExperimentConfig) -> List[Check]:
    t_grid = cfg.smoothness_t_grid
    strictly_dec = True
    final_ok = True
    worst_final = -math.inf
    for ell in range(4):
        for m in range(4):
            for n in range(4):
                for delta in (0.0, 0.2):
                    vals = log_limit_probe(ell, m, n, delta, t_grid)
                    lms = [v.logmag for v in vals]
                    strictly_dec = strictly_dec and all(
                        b < a for a, b in zip(lms, lms[1:])
                    )
                    worst_final = max(worst_final, lms[-1])
                    final_ok = final_ok and lms[-1] < -1e3
    return [
        _check(
            "envelope strictly decreasing",
            "the log of the derivative envelope strictly decreases along the "
            "parameter grid for every exponent combination",
            "strict decrease",
            "ok" if strictly_dec else "violated",
            strictly_dec,
        ),
        _check(
            "envelope collapse",
            "the envelope falls below exp(-1000) by the end of the grid",
            -1e3,
            worst_final,
            final_ok,
        ),
    ]


def _noncompact_zeroset(cfg: ExperimentConfig) -> List[Check]:
    checks = []
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
        worst = max(worst, abs(dist - math.sqrt(2.0)))
    checks.append(
        _check(
            "mutual distance sqrt(2)",
            "far-separated unit bumps are sqrt(2) apart, so the bounded zero-set "
            "sequence has no convergent subsequence; the squared distance is 2 "
            "(a squared-norm reading of the source constant)",
            math.sqrt(2.0),
            worst,
            worst <= 1e-8,
        )
    )
    return checks


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
    ok = True
    for t in cfg.branching_t_grid:
        data = h_transversality_data(t, cfg.spacing, cfg.margin)
        a, b = data.witness_value, data.witness_value_partial_route
        tol = 1e-12 * max(1.0, abs(a.logmag))
        gap = abs(a.logmag - b.logmag)
        worst = max(worst, gap / max(1.0, abs(a.logmag)))
        ok = ok and a.sign == b.sign and gap <= tol
    return [
        _check(
            "two-route witness agreement",
            "the closed-form witness magnitude and the independent "
            "partial-derivative route agree in log magnitude",
            1e-12,
            worst,
            ok,
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
    lower_ok = all(r.l2_lower_bound >= 0.999 for r in rows)
    # sampled <= bound * (1 + 1e-9), in logs
    sandwich_ok = all(r.log_sampled_over_bound <= math.log1p(1e-9) for r in rows)
    uppers = [r.log_upper_bound for r in rows]
    # rows follow the configured grid, which runs downward in t
    monotone_ok = all(b < a for a, b in zip(uppers, uppers[1:]))
    return [
        _check(
            "same-level lower bound",
            "the bump witness keeps the unweighted operator norm near one at "
            "every sampled parameter",
            0.999,
            min(r.l2_lower_bound for r in rows),
            lower_ok,
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
            "ok" if monotone_ok else "violated",
            monotone_ok,
        ),
    ]


def _germ_continuity(cfg: ExperimentConfig) -> List[Check]:
    checks = []
    schedule = cfg.schedule()
    for germ_id in ("rank-one", "quadratic"):
        germ = make_germ(germ_id, schedule, cfg.spacing)
        report = germ_continuity_report(germ, cfg.germ_level, seed=cfg.seed)
        replay_ok = replay_certificate(germ, report.certificate)
        checks.append(
            _check(
                f"{germ_id}: certificate replay",
                "contraction certificates replay bit-for-bit with the recorded "
                "seeds",
                "exact replay",
                "ok" if replay_ok else "drift",
                report.contracting and replay_ok,
            )
        )
        worst_excess = max(
            (r.dw_opnorm - 2.0 * r.epsilon for r in report.rows), default=math.inf
        )
        checks.append(
            _check(
                f"{germ_id}: factor-two law",
                "inside each certified radius the partial-differential norm "
                "stays below twice the certified modulus",
                1e-8,
                worst_excess,
                report.two_epsilon_law_ok,
            )
        )
        # the epsilon = 0.1 row probed its certified radius with this seed
        base = next(r for r in report.rows if r.epsilon == 0.1)
        probes = radius_shrink_probes(
            germ, cfg.germ_level, base.delta, (0.5, 0.25, 0.125), seed=cfg.seed + 1
        )
        vals = [base.dw_opnorm] + [p for _, p in probes]
        shrink_ok = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])) and vals[-1] < 0.05
        checks.append(
            _check(
                f"{germ_id}: probe decay",
                "differential-norm probes decrease as the radius shrinks through "
                "1, 1/2, 1/4, 1/8 of the certified radius, ending below 0.05",
                0.05,
                vals[-1],
                shrink_ok,
            )
        )
    pseudo = make_moving_bump_pseudo_germ(schedule, cfg.spacing, cfg.margin)
    moduli = [
        contraction_modulus(pseudo, cfg.germ_level, r, seed=cfg.seed)
        for r in (0.5, 0.4, 0.3, 0.2, 0.15)
    ]
    flagged = all(m >= 0.9 for m in moduli)
    cert = certify(pseudo, cfg.germ_level, seed=cfg.seed)
    checks.append(
        _check(
            "moving-bump: non-contraction flag",
            "the projection pseudo-germ keeps contraction modulus near one at "
            "every radius and certification fails",
            ">= 0.9 and no certificate",
            min(moduli),
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
            report = openness_probe(germ, cfg.germ_level, radius, seed=cfg.seed)
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
    pseudo = make_moving_bump_pseudo_germ(schedule, cfg.spacing, cfg.margin)
    fails = []
    for radius in (0.3, 0.2, 0.15):
        rep = openness_probe(pseudo, cfg.germ_level, radius, seed=cfg.seed)
        fails.append(not rep.passed)
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
