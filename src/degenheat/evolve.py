"""Mild solutions of  d_t u = w^{-1} div(w grad u) + u^p  by Picard iteration.

The mild solution is the fixed point of the Duhamel map

    u(t) = S(t) u0 + integral_0^t S(t-s) u(s)^p ds,

discretized with a product-trapezoid rule over a geometric master time grid
(fine near s = 0, log-uniform up to the horizon).  A Horner-style march
composes the semigroup increments exactly:

    z(tau_m) = S(d_m)[z(tau_{m-1}) + (d_m/2) g_{m-1}] + (d_m/2) g_m,

with u = S(t) u0 + z, g_k = u(tau_k)^p and d_m the m-th time increment.
The march is causal and its only implicit term, (d_m/2) g_m, is pointwise,
so the system is lower-triangular: one forward pass solves it, master by
master, with a pointwise Picard iteration for the implicit term.  Those
iterates rise monotonically to the fixed point (positive kernel, monotone
nonlinearity); the monotonicity is still asserted on every iterate.

Numerical blow-up is an observable proxy: the first master whose iterate
exceeds the configured threshold is the escape time and ends the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from .constants import FittedConstants
from .kernel import KernelSuite, _implicit_step
from .lorentz import INF, LorentzIndex, lorentz_norm, weighted_lp_norm
from .weights import GridFunction

__all__ = [
    "EvolveConfig",
    "Outcome",
    "Trajectory",
    "PicardRun",
    "picard_iterate",
    "solve_local",
    "solve_global_small",
    "stability_check",
    "split_step_reference",
    "calibrate_delta",
    "GlobalRun",
    "SmallnessError",
    "PicardInvariantError",
    "LocalBoundError",
    "master_times",
    "last_quarter_slope",
]


class PicardInvariantError(AssertionError):
    """Monotonicity of the Picard iterates failed beyond tolerance."""


class LocalBoundError(AssertionError):
    """The local sup bound 2*c** ||u0||_inf was violated on the local window."""


class SmallnessError(ValueError):
    """Initial data fail the smallness gate; carries the measured norms."""

    def __init__(self, message: str, measured: dict[str, float]):
        super().__init__(message)
        self.measured = measured


class Outcome(Enum):
    CONVERGED = "converged"
    THRESHOLD_EXCEEDED = "threshold_exceeded"
    ITERATION_BUDGET_EXHAUSTED = "iteration_budget_exhausted"


@dataclass(frozen=True)
class EvolveConfig:
    p: float
    horizon: float = 256.0
    duhamel_steps: int = 112
    picard_tol: float = 1e-6
    blowup_threshold: float | None = None
    max_picard: int = 60
    substeps: int = 4
    ladder_t0: float = 0.25
    record_q: tuple[float, ...] = ()
    smallness_delta: float = 0.1

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError(f"nonlinearity exponent must satisfy p > 1, got {self.p}")
        for name in ("horizon", "duhamel_steps", "max_picard", "substeps", "picard_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.blowup_threshold is not None and not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive when given")

    @property
    def resolved_octaves(self) -> int:
        """Octaves below the horizon the master grid covers.

        Derived so the earliest master time sits near horizon/2^14 for the
        default horizon and never above ~0.016 for longer ones: the early
        initial layer must stay resolved however far the ladder extends.
        """
        return max(14, int(math.ceil(math.log2(self.horizon / 0.015625))))


def master_times(cfg: EvolveConfig) -> np.ndarray:
    """Geometric master grid from horizon*2^-octaves up to the horizon.

    duhamel_steps is the quadrature resolution in s for the default span of
    14 octaves; the grid places duhamel_steps/14 points per octave, so
    ladder times t0*2^k dividing the horizon land exactly on grid points.
    """
    ppo = max(2, round(cfg.duhamel_steps / 14))
    total = cfg.resolved_octaves * ppo
    j = np.arange(total + 1)
    times = cfg.horizon * 2.0 ** ((j - total) / ppo)
    return np.concatenate(([0.0], times))


@dataclass(frozen=True)
class Trajectory:
    """Time series of a mild solution: norms per solved time plus outcome."""

    times: np.ndarray
    sup: np.ndarray
    strong: dict[float, np.ndarray]
    weak: dict[float, np.ndarray]
    outcome: Outcome
    escape_time: float | None = None
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.times.size and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("trajectory times must be strictly increasing")
        if np.any(self.sup < 0.0):
            raise ValueError("trajectory norms must be nonnegative")
        if self.escape_time is not None and not self.escape_time > 0.0:
            raise ValueError("escape time must be positive when present")


@dataclass(frozen=True)
class PicardRun:
    """The masters solved before the run stopped, with their fields.

    ``iterations`` counts the pointwise iterations at each master after
    t = 0 that the run reached, the master it stopped at included.
    ``n_sweeps`` (one causal pass) and ``sup_diffs`` (empty) are kept for
    the benchmark harness under ``perfbench/``, which reads them.
    """

    masters: np.ndarray
    fields: np.ndarray = field(repr=False)  # (solved masters, mesh size)
    linear: np.ndarray = field(repr=False)  # S(t) u0 at the solved masters
    trajectory: Trajectory
    iterations: tuple[int, ...]
    outcome: Outcome
    escape_time: float | None
    n_sweeps: int = 1
    sup_diffs: tuple[float, ...] = ()


def picard_iterate(u0: GridFunction, cfg: EvolveConfig, suite: KernelSuite) -> PicardRun:
    """Solve the discrete Duhamel system on [0, horizon] by forward substitution.

    Master by master: one two-column propagate gives the linear part L and
    b = S(d_m)[z_{m-1} + (d_m/2) g_{m-1}], then the pointwise iteration
    z <- b + (d_m/2) min(L + z, cap)^p, started from z = b, rises to the
    fixed point; it converges when a step is below ``picard_tol``.  The run
    stops at the first iterate over the threshold (that master is the escape
    time) or when an iteration takes ``max_picard`` steps.
    """
    if np.any(u0.values < 0.0):
        raise ValueError("initial data must be nonnegative")
    masters = master_times(cfg)
    u0_full = suite.extend(u0.values)
    sup0 = float(np.max(u0_full))
    threshold = cfg.blowup_threshold if cfg.blowup_threshold is not None else 1e6 * max(sup0, 1e-12)
    cap = 10.0 * threshold
    with np.errstate(over="ignore"):
        g = np.minimum(u0_full, cap) ** cfg.p
    if not (math.isfinite(threshold) and np.all(np.isfinite(g))):
        raise FloatingPointError(
            f"u0^p or the escape threshold overflows: sup u0 = {sup0:g}, p = {cfg.p:g}"
        )

    fields = np.empty((masters.size, u0_full.size))
    linear = np.empty_like(fields)
    fields[0] = linear[0] = u0_full
    z = np.zeros_like(u0_full)
    iterations: list[int] = []
    outcome = Outcome.CONVERGED
    escape_time: float | None = None
    solved = masters.size
    for m in range(1, masters.size):
        dm = masters[m] - masters[m - 1]
        half = 0.5 * dm
        lin, b = suite.propagate(np.column_stack((linear[m - 1], z + half * g)), dm, cfg.substeps).T
        z = b
        for k in range(1, cfg.max_picard + 1):
            new = b + half * np.minimum(lin + z, cap) ** cfg.p
            step = new - z
            if np.min(step) < -cfg.picard_tol:
                raise PicardInvariantError(
                    f"Picard iterates lost monotonicity at t = {masters[m]:g}: step {np.min(step):g}"
                )
            z = new
            if np.max(lin + z) > threshold:
                outcome = Outcome.THRESHOLD_EXCEEDED
                escape_time = float(masters[m])
                break
            if np.max(step) < cfg.picard_tol:
                break
        else:
            outcome = Outcome.ITERATION_BUDGET_EXHAUSTED
        iterations.append(k)
        if outcome is not Outcome.CONVERGED:
            solved = m
            break
        linear[m] = lin
        fields[m] = lin + z
        g = np.minimum(fields[m], cap) ** cfg.p

    masters, fields, linear = masters[:solved], fields[:solved], linear[:solved]
    trajectory = _build_trajectory(u0.grid, suite, masters, fields, cfg, outcome, escape_time)
    return PicardRun(
        masters=masters,
        fields=fields,
        linear=linear,
        trajectory=trajectory,
        iterations=tuple(iterations),
        outcome=outcome,
        escape_time=escape_time,
    )


def _build_trajectory(
    grid,
    suite: KernelSuite,
    masters: np.ndarray,
    fields: np.ndarray,
    cfg: EvolveConfig,
    outcome: Outcome,
    escape_time: float | None,
) -> Trajectory:
    rec = masters > 0.0
    times = masters[rec]
    sup = np.array([float(np.max(np.abs(fields[i]))) for i in np.flatnonzero(rec)])
    strong: dict[float, np.ndarray] = {}
    weak: dict[float, np.ndarray] = {}
    funcs = [GridFunction(grid, suite.restrict(np.clip(fields[i], 0.0, None)))
             for i in np.flatnonzero(rec)]
    for q in cfg.record_q:
        strong[q] = np.array([weighted_lp_norm(f, q) for f in funcs])
        weak[q] = np.array(
            [f.sup() if q == INF else lorentz_norm(f, LorentzIndex(q, INF)) for f in funcs]
        )
    on_ladder = times >= cfg.ladder_t0
    log2_step = np.log2(np.maximum(times, 1e-300) / cfg.ladder_t0)
    on_ladder &= np.abs(log2_step - np.round(log2_step)) < 1e-9
    snapshots = {
        float(times[i]): funcs[i].values for i in np.flatnonzero(on_ladder)
    }
    return Trajectory(
        times=times,
        sup=sup,
        strong=strong,
        weak=weak,
        outcome=outcome,
        escape_time=escape_time,
        snapshots=snapshots,
    )


# ---------------------------------------------------------------------------
# independent split-step reference integrator
# ---------------------------------------------------------------------------


def split_step_reference(
    u0: GridFunction,
    p: float,
    times: list[float],
    suite: KernelSuite,
    dt: float,
) -> dict[float, np.ndarray]:
    """Lie-split march: implicit diffusion step then exact reaction flow.

    Independent time discretization (uniform steps, pointwise reaction
    solve) used as the oracle for the Picard route.  Returns half-grid
    values at each requested time.
    """
    times = sorted(float(t) for t in times)
    v = suite.extend(u0.values)
    root = np.sqrt(suite.mesh.masses)
    out: dict[float, np.ndarray] = {}
    now = 0.0
    for t in times:
        seg = t - now
        nsteps = max(1, int(math.ceil(seg / dt)))
        h = seg / nsteps
        step = _implicit_step(suite.mesh, h)  # factored once per segment
        for _ in range(nsteps):
            # the step acts on M^{1/2} v, the reaction flow on raw values
            v = _reaction_flow(np.asarray_chkfinite(step(v * root) / root), p, h)
        now = t
        out[t] = suite.restrict(v)
    return out


def _reaction_flow(v: np.ndarray, p: float, dt: float) -> np.ndarray:
    """Exact solution of dv/dt = v^p over one step (nonnegative data)."""
    v = np.clip(v, 0.0, None)
    pos = v > 0.0
    out = v.copy()
    with np.errstate(over="ignore"):  # tiny v overflows v^(1-p); the flow limit is 0
        arg = v[pos] ** (1.0 - p) - (p - 1.0) * dt
        if np.any(arg <= 0.0):
            raise FloatingPointError("reaction flow blew up within a single split step")
        out[pos] = arg ** (-1.0 / (p - 1.0))
    return out


# ---------------------------------------------------------------------------
# local and global solves
# ---------------------------------------------------------------------------


def solve_local(
    u0: GridFunction,
    p: float,
    suite: KernelSuite,
    cfg: EvolveConfig,
    constants: FittedConstants,
) -> PicardRun:
    """Picard solve on the horizon from the fitted local-existence rule.

    The window T solves growth * T * 2^p * (coef * ||u0||_inf)^(p-1) = 1 and
    the run must stay below 2 * coef * ||u0||_inf in sup norm.
    """
    coef = constants.local_bound_coef or 1.0
    growth = constants.picard_growth_coef or max(1.0, constants.strong_smoothing_coef or 1.0)
    sup0 = u0.sup()
    if sup0 == 0.0:
        run = picard_iterate(u0, replace(cfg, p=p), suite)
        return run
    horizon = 1.0 / (growth * 2.0**p * (coef * sup0) ** (p - 1.0))
    run = picard_iterate(u0, replace(cfg, p=p, horizon=horizon), suite)
    bound = 2.0 * coef * sup0
    worst = float(np.max(run.trajectory.sup))
    if worst > bound * (1.0 + 1e-6):
        raise LocalBoundError(
            f"local sup bound violated: sup {worst:g} exceeds 2*coef*||u0|| = {bound:g}"
        )
    return run


@dataclass(frozen=True)
class GlobalRun:
    run: PicardRun
    times: np.ndarray
    sup: np.ndarray
    norm_series: dict[tuple[float, str], np.ndarray]
    functionals: dict[tuple[float, str], np.ndarray]
    functional_slopes: dict[tuple[float, str], float]
    accepted: bool
    measured_smallness: float
    rescale_lambda: float
    delta_used: float
    decay_slope: float


# a decay functional counts as bounded when its late log-log slope is this flat
_FUNCTIONAL_SLOPE_TOL = 0.05
# calibrate_delta tries delta0, delta0/2, ..., delta0/2^_MAX_HALVINGS
_MAX_HALVINGS = 6


def last_quarter_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Log-log slope over the last quarter of the log-time range."""
    good = (times > 0.0) & (values > 0.0) & np.isfinite(values)
    ts, vs = times[good], values[good]
    if ts.size < 3:
        return math.nan
    lo = math.exp(math.log(ts[0]) + 0.75 * (math.log(ts[-1]) - math.log(ts[0])))
    mask = ts >= lo
    if int(np.sum(mask)) < 3:
        mask = np.zeros(ts.size, dtype=bool)
        mask[-3:] = True
    sl = np.polyfit(np.log(ts[mask]), np.log(vs[mask]), 1)[0]
    return float(sl)


def solve_global_small(
    u0: GridFunction,
    p: float,
    r: float,
    suite: KernelSuite,
    cfg: EvolveConfig,
    u0_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> GlobalRun:
    """Global small-data solve with decay-functional bookkeeping.

    r = r_star runs the weak-norm route gated by ||u0||_{r*,inf} < delta;
    1 <= r < r_star first rescales the data so the L^r(w) norm equals the
    sup norm (the strong-route normalization), evolves, and maps the records
    back through the scaling.
    """
    spec = suite.spec
    na = spec.dimension + spec.alpha
    r_star = 0.5 * na * (p - 1.0)
    if not r_star > 1.0:
        raise ValueError(f"global route needs p above the threshold exponent (r* = {r_star:g} <= 1)")
    if not 1.0 <= r <= r_star:
        raise ValueError(f"route index must satisfy 1 <= r <= r* = {r_star:g}, got {r}")

    weak_norm = lorentz_norm(u0, LorentzIndex(r_star, INF))
    sup0 = u0.sup()
    lam = 1.0
    data = u0
    if r == r_star:
        measured = weak_norm
        if measured >= cfg.smallness_delta:
            raise SmallnessError(
                f"weak-norm smallness unmet: measured {measured:g} >= delta {cfg.smallness_delta:g}",
                {"weak_rstar": measured, "sup": sup0},
            )
        qs = sorted({r_star, 2.0 * r_star, INF} | set(cfg.record_q))
        kind = "weak"
        base = r_star
    else:
        strong0 = weighted_lp_norm(u0, r)
        measured = strong0 ** (r / r_star) * sup0 ** (1.0 - r / r_star)
        if measured >= cfg.smallness_delta:
            raise SmallnessError(
                f"strong-route smallness unmet: measured {measured:g} >= delta {cfg.smallness_delta:g}",
                {"strong_r": strong0, "sup": sup0, "product": measured},
            )
        lam = _balance_rescale(u0, r, na, r_star, u0_fn)
        beta = na / r_star
        grid = u0.grid
        if u0_fn is not None:
            data = grid.function(lam**beta * np.asarray(u0_fn(lam * grid.nodes), dtype=float))
        else:
            data = grid.function(lam**beta * np.interp(lam * grid.nodes, grid.nodes, u0.values, right=0.0))
        qs = sorted({r, 2.0 * r, r_star, INF} | set(cfg.record_q))
        kind = "strong"
        base = r

    run_cfg = replace(cfg, p=p, record_q=tuple(q for q in qs if q != INF))
    run = picard_iterate(data, run_cfg, suite)
    traj = run.trajectory

    # map the records back through u(x,t) = lam^{-beta} u_lam(x/lam, t/lam^2)
    beta = na / r_star
    times = traj.times * lam**2
    sup = traj.sup * lam ** (-beta)
    series: dict[tuple[float, str], np.ndarray] = {(INF, "sup"): sup}
    for q in qs:
        if q == INF:
            continue
        factor = lam ** (-beta + na / q)
        series[(q, "strong")] = traj.strong[q] * factor
        series[(q, "weak")] = traj.weak[q] * factor

    functionals: dict[tuple[float, str], np.ndarray] = {}
    slopes: dict[tuple[float, str], float] = {}
    for q in qs:
        expo = 0.5 * na * (1.0 / base - (0.0 if q == INF else 1.0 / q))
        if q == INF:
            vals = (1.0 + times) ** expo * sup
            key = (INF, kind)
        else:
            vals = (1.0 + times) ** expo * series[(q, kind)]
            key = (q, kind)
        functionals[key] = vals
        if np.all(vals == 0.0):  # trivial data: identically zero is flat
            slopes[key] = 0.0
        else:
            slopes[key] = last_quarter_slope(times, vals)

    accepted = run.outcome is Outcome.CONVERGED and all(
        np.isfinite(s) and abs(s) <= _FUNCTIONAL_SLOPE_TOL for s in slopes.values()
    )
    decay = last_quarter_slope(1.0 + times, sup)
    return GlobalRun(
        run=run,
        times=times,
        sup=sup,
        norm_series=series,
        functionals=functionals,
        functional_slopes=slopes,
        accepted=accepted,
        measured_smallness=measured,
        rescale_lambda=lam,
        delta_used=cfg.smallness_delta,
        decay_slope=decay,
    )


def _balance_rescale(
    u0: GridFunction,
    r: float,
    na: float,
    r_star: float,
    u0_fn: Callable[[np.ndarray], np.ndarray] | None,
) -> float:
    """Bisection on lambda until ||u0_lam||_{L^r(w)} = ||u0_lam||_inf (1e-6 rel)."""
    grid = u0.grid
    beta = na / r_star

    def scaled(lam: float) -> GridFunction:
        if u0_fn is not None:
            vals = np.asarray(u0_fn(lam * grid.nodes), dtype=float)
        else:
            vals = np.interp(lam * grid.nodes, grid.nodes, u0.values, right=0.0)
        return grid.function(lam**beta * vals)

    def gap(lam: float) -> float:
        f = scaled(lam)
        return weighted_lp_norm(f, r) - f.sup()

    # ratio ||.||_r / ||.||_inf is strictly decreasing in lambda for r < r*
    lo, hi = 1e-6, 1e6
    if gap(lo) < 0.0 or gap(hi) > 0.0:
        raise ValueError("could not bracket the norm-balancing rescale factor")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        f = scaled(mid)
        g = weighted_lp_norm(f, r) - f.sup()
        if abs(g) <= 1e-6 * max(f.sup(), 1e-300):
            return mid
        if g > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def stability_check(
    u01: GridFunction,
    u02: GridFunction,
    p: float,
    sigma: float,
    suite: KernelSuite,
    cfg: EvolveConfig,
) -> float:
    """Empirical sup-norm Lipschitz ratio of solutions over data on [0, sigma]."""
    gap0 = float(np.max(np.abs(u01.values - u02.values)))
    if gap0 == 0.0:
        return 0.0
    run_cfg = replace(cfg, p=p, horizon=sigma, record_q=())
    r1 = picard_iterate(u01, run_cfg, suite)
    r2 = picard_iterate(u02, run_cfg, suite)
    k = min(r1.masters.size, r2.masters.size)  # the common solved prefix
    diff = np.max(np.abs(r1.fields[:k] - r2.fields[:k]), axis=1)
    return float(np.max(diff)) / gap0


def calibrate_delta(
    profile: Callable[[float], tuple[GridFunction, Callable[[np.ndarray], np.ndarray] | None]],
    p: float,
    r: float,
    suite: KernelSuite,
    cfg: EvolveConfig,
    delta0: float,
) -> tuple[float, GlobalRun]:
    """Search downward (halving) for an amplitude whose global run is accepted.

    Mirrors the existential smallness constant constructively: the accepted
    amplitude and its measured smallness level are reported, never assumed.
    """
    delta = delta0
    gate_free = replace(cfg, smallness_delta=math.inf)
    last_exc: Exception | None = None
    for _ in range(_MAX_HALVINGS + 1):
        try:
            u0, fn = profile(delta)
            run = solve_global_small(u0, p, r, suite, gate_free, u0_fn=fn)
        except (ValueError, FloatingPointError) as exc:
            last_exc = exc
            run = None
        if run is not None and run.accepted:
            return delta, run
        delta *= 0.5
    raise RuntimeError(
        f"no accepted amplitude found down to {delta * 2:g}"
        + (f" (last error: {last_exc})" if last_exc else "")
    )
