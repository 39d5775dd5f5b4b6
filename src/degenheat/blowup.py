"""Blow-up/global dichotomy machinery around the threshold exponent.

The threshold is p*(alpha) = 1 + 2/(n + alpha); below or at it no positive
global solution survives, above it small data decay globally.  Nonexistence
is certified two ways and both are reported: the necessary-condition series
t^{1/(p-1)} ||S(t) u0||_inf crossing its iteration-product cap (robust to
threshold choice), and the threshold escape of the numerical evolution (the
observable).  At the threshold exponent the certificate is logarithmic
growth of the core mass integral.

The classifier exhibits blow-up for the tested data only; nonexistence for
every positive datum is a statement about the continuum problem that a
single run cannot certify (noted in every report footer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import g17
from .evolve import (
    EvolveConfig,
    Outcome,
    SmallnessError,
    calibrate_delta,
    picard_iterate,
    solve_global_small,
)
from .kernel import KernelSuite
from .profiles import build_initial_data, corollary_profile
from .semigroup import heat_core_lower
from .weights import GridFunction, WeightSpec, fujita_exponent, route_index

__all__ = [
    "is_critical",
    "log_ak",
    "ak_value",
    "kaplan_cstar_log_bound",
    "KaplanReport",
    "kaplan_bound_series",
    "EscapeEvidence",
    "subcritical_escape",
    "LogGrowthFit",
    "critical_log_growth",
    "CellOutcome",
    "classify",
    "DichotomyReport",
    "sweep_dichotomy",
    "fmt",
    "REPORT_FOOTER",
]

REPORT_FOOTER = (
    "note: blow-up cells certify nonexistence for the tested data only; "
    "nonexistence for all positive data is a continuum statement beyond any single run"
)


def is_critical(p: float, p_star: float) -> bool:
    """p is the threshold exponent, to 1e-12 relative: the critical cell."""
    return abs(p - p_star) <= 1e-12 * p_star


# ---------------------------------------------------------------------------
# iteration-product combinatorics
# ---------------------------------------------------------------------------


def log_ak(p: float, k: int) -> float:
    """log of the k-th iteration-product coefficient, summed in log space.

    A_k = prod_{j=1}^{k-1} ((p-1)/(p^{j+1}-1))^{p^{k-j-1}}; the direct
    product underflows long before k = 30, the log sum does not.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if k < 2:
        raise ValueError(f"iteration index starts at k = 2, got {k}")
    total = 0.0
    for j in range(1, k):
        total += p ** (k - j - 1) * math.log((p - 1.0) / (p ** (j + 1) - 1.0))
    return total


def ak_value(p: float, k: int) -> float:
    return math.exp(log_ak(p, k))


def kaplan_cstar_log_bound(p: float, terms: int = 60) -> float:
    """Upper bound for log of the series cap: (1 + log p) * sum_{j>=2} j p^-j.

    The sum is truncated at ``terms`` and closed with the exact geometric
    tail sum_{j>J} j x^j = x^{J+1} ((J+1) - J x) / (1-x)^2, so the returned
    value dominates every truncation.
    """
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    x = 1.0 / p
    partial = sum(j * x**j for j in range(2, terms + 1))
    tail = x ** (terms + 1) * ((terms + 1) - terms * x) / (1.0 - x) ** 2
    return (1.0 + math.log(p)) * (partial + tail)


@dataclass(frozen=True)
class KaplanReport:
    times: np.ndarray
    series: np.ndarray
    cstar_cap: float
    below_cap: bool
    crossing_time: float | None


def kaplan_bound_series(
    u0: GridFunction,
    p: float,
    times: list[float],
    suite: KernelSuite,
) -> KaplanReport:
    """Necessary-condition series t^{1/(p-1)} ||S(t) u0||_inf with its cap.

    Any solution living past the sampled times must keep the series below
    the cap; the first observed crossing is the contradiction witness.
    """
    if u0.sup() == 0.0:
        raise ValueError("the necessary-condition series is vacuous for zero data")
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    ts = np.array(sorted(float(t) for t in times))
    evolved = suite.propagate_ladder(suite.extend(u0.values), list(ts))
    # compared in logs: near p = 1 both the series and the cap overflow
    log_cap = kaplan_cstar_log_bound(p)
    with np.errstate(divide="ignore"):
        log_series = np.log(ts) / (p - 1.0) + np.log([float(np.max(evolved[t])) for t in ts])
    over = np.flatnonzero(log_series > log_cap)
    with np.errstate(over="ignore"):
        series, cap = np.exp(log_series), float(np.exp(log_cap))
    crossing = float(ts[over[0]]) if over.size else None
    return KaplanReport(
        times=ts,
        series=series,
        cstar_cap=cap,
        below_cap=not over.size,
        crossing_time=crossing,
    )


# ---------------------------------------------------------------------------
# regime certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeEvidence:
    exponent_margin: float
    kaplan: KaplanReport
    core_coef: float
    crossing_time: float | None

    @property
    def certified(self) -> bool:
        return self.crossing_time is not None


def subcritical_escape(
    u0: GridFunction,
    p: float,
    spec: WeightSpec,
    suite: KernelSuite,
    times: list[float] | None = None,
) -> EscapeEvidence:
    """Witness that the series outgrows its cap in the strictly subcritical regime.

    The growth exponent 1/(p-1) - (n+alpha)/2 is positive exactly below the
    threshold exponent, so the core lower bound forces the series across the
    cap; the observed crossing time is recorded, never asserted a priori.
    """
    p_star = fujita_exponent(spec.mass_exponent)
    if p >= p_star:
        raise ValueError(f"subcritical certificate requires p < p* = {p_star:g}, got {p}")
    if np.any(u0.values < 0.0) or u0.sup() == 0.0:
        raise ValueError("need nonnegative, nonzero initial data")
    margin = 1.0 / (p - 1.0) - 0.5 * spec.mass_exponent
    if times is None:
        top = min(suite.grid.radius**2 / 36.0, 256.0)
        times = [top * 2.0 ** (-k) for k in range(11)][::-1]
    report = kaplan_bound_series(u0, p, times, suite)
    core = heat_core_lower(suite, u0, times[len(times) // 2])
    return EscapeEvidence(
        exponent_margin=margin,
        kaplan=report,
        core_coef=core.empirical_coef,
        crossing_time=report.crossing_time,
    )


_LOG_GROWTH_MIN_TIME = 3.0


@dataclass(frozen=True)
class LogGrowthFit:
    slope: float
    intercept: float
    times: np.ndarray
    core_integrals: np.ndarray
    threshold_escape: float | None
    inconclusive_reason: str | None = None

    @property
    def conclusive(self) -> bool:
        return self.inconclusive_reason is None


def critical_log_growth(
    u0: GridFunction,
    suite: KernelSuite,
    cfg: EvolveConfig,
) -> LogGrowthFit:
    """At the threshold exponent, fit the core mass integral against log t.

    Evolves the data, computes I(t) = integral of u(t) w over {|x| <= sqrt t}
    at the recorded times past the initial layer (``_LOG_GROWTH_MIN_TIME``),
    and regresses I against log t; a positive slope is the logarithmic-growth
    certificate.
    """
    p_star = fujita_exponent(suite.spec.mass_exponent)
    if not is_critical(cfg.p, p_star):
        raise ValueError(
            f"log-growth certificate requires p = p* = {p_star!r} exactly, got {cfg.p!r}"
        )
    if u0.sup() == 0.0:
        raise ValueError("the core integral is vacuous for zero data")
    run = picard_iterate(u0, cfg, suite)
    grid = u0.grid
    times = run.times
    usable = times > _LOG_GROWTH_MIN_TIME
    if int(np.sum(usable)) < 3:
        return LogGrowthFit(
            slope=math.nan,
            intercept=math.nan,
            times=times[usable],
            core_integrals=np.empty(0),
            threshold_escape=run.escape_time,
            inconclusive_reason=f"fewer than 3 converged records past t = {_LOG_GROWTH_MIN_TIME:g}",
        )
    core_vals = []
    for t, f in zip(times[usable], run.fields[1:][usable]):
        field = suite.restrict(f)
        sel = grid.nodes <= math.sqrt(t)
        core_vals.append(float(np.sum(field[sel] * grid.measures[sel])))
    core = np.array(core_vals)
    slope, intercept = np.polyfit(np.log(times[usable]), core, 1)
    return LogGrowthFit(
        slope=float(slope),
        intercept=float(intercept),
        times=times[usable],
        core_integrals=core,
        threshold_escape=run.escape_time,
    )


# ---------------------------------------------------------------------------
# classifier and sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellOutcome:
    p: float
    alpha: float
    kind: str  # "blowup" | "global" | "inconclusive"
    escape_time: float | None = None
    decay_slope: float | None = None
    log_slope: float | None = None
    kaplan_crossing: float | None = None
    reason: str | None = None
    smallness: float | None = None  # measured smallness level of a global cell


def classify(
    spec: WeightSpec,
    p: float,
    u0: GridFunction,
    cfg: EvolveConfig,
    suite: KernelSuite,
    u0_fn=None,
) -> CellOutcome:
    """Place one (p, data) cell on the blow-up/global map.

    p <= p*: evolve and certify nonexistence by threshold escape, the series
    crossing, or (at p = p* exactly) positive core-mass log growth.
    p > p*: gate on the smallness level and run the global small-data route;
    every failure mode is an outcome, never an exception.
    """
    p_star = fujita_exponent(spec.mass_exponent)
    alpha = spec.alpha

    if is_critical(p, p_star):
        fit = critical_log_growth(u0, suite, replace(cfg, p=p_star))
        if not fit.conclusive:
            return CellOutcome(p=p, alpha=alpha, kind="inconclusive", reason=fit.inconclusive_reason,
                               escape_time=fit.threshold_escape)
        if fit.slope > 0.0:
            return CellOutcome(
                p=p, alpha=alpha, kind="blowup",
                escape_time=fit.threshold_escape, log_slope=fit.slope,
            )
        return CellOutcome(p=p, alpha=alpha, kind="inconclusive",
                           reason=f"core-mass log slope {fit.slope:g} not positive",
                           log_slope=fit.slope)

    if p < p_star:
        ladder = [cfg.ladder_t0 * 2.0**k for k in range(11) if cfg.ladder_t0 * 2.0**k <= cfg.horizon]
        run = picard_iterate(u0, replace(cfg, p=p), suite)
        crossing = kaplan_bound_series(u0, p, ladder, suite).crossing_time
        if run.outcome is Outcome.THRESHOLD_EXCEEDED or crossing is not None:
            return CellOutcome(
                p=p, alpha=alpha, kind="blowup",
                escape_time=run.escape_time, kaplan_crossing=crossing,
            )
        return CellOutcome(p=p, alpha=alpha, kind="inconclusive",
                           reason="no escape within horizon", kaplan_crossing=crossing)

    # supercritical: small data decay globally
    r_star = route_index(spec.mass_exponent, p)
    try:
        run = solve_global_small(u0, p, r_star, suite, replace(cfg, p=p), u0_fn=u0_fn)
    except SmallnessError as exc:
        return CellOutcome(p=p, alpha=alpha, kind="inconclusive",
                           reason=f"smallness unmet: {exc.measured}")
    if run.accepted:
        return CellOutcome(p=p, alpha=alpha, kind="global", decay_slope=run.decay_slope,
                           smallness=run.measured_smallness)
    return CellOutcome(p=p, alpha=alpha, kind="inconclusive",
                       reason="decay functionals not established",
                       decay_slope=run.decay_slope)


@dataclass(frozen=True)
class DichotomyReport:
    n: int
    p_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    cells: tuple[CellOutcome, ...]
    footer: str = REPORT_FOOTER

    def __post_init__(self) -> None:
        want = len(self.p_values) * len(self.alpha_values)
        if len(self.cells) != want:
            raise ValueError(f"report must populate every cell: {len(self.cells)} of {want}")
        for c in self.cells:
            if c.escape_time is not None and not c.escape_time > 0.0:
                raise ValueError("escape times must be positive when present")

    def p_star_curve(self) -> list[tuple[float, float]]:
        return [(a, fujita_exponent(self.n + a)) for a in self.alpha_values]


def run_cell(
    spec: WeightSpec,
    suite: KernelSuite,
    p: float,
    cfg: EvolveConfig,
    sub_u0: GridFunction,
    delta0: float,
    super_horizon: float,
) -> CellOutcome:
    """One sweep cell: bump data at and below the threshold, calibrated
    critical-tail amplitude above it.

    Global cells run on an extended ladder: the marginal-tail profile
    approaches its decay rate through a slow algebraic transient, so the
    slope needs more octaves than escape detection does.
    """
    p_star = fujita_exponent(spec.mass_exponent)
    if p < p_star or is_critical(p, p_star):
        return classify(spec, p, sub_u0, cfg, suite)

    def profile(delta: float):
        fn = corollary_profile(delta, p)
        return suite.grid.function(fn), fn

    try:
        delta, grun = calibrate_delta(
            profile, p, route_index(spec.mass_exponent, p), suite,
            replace(cfg, horizon=super_horizon), delta0,
        )
    except RuntimeError as exc:
        return CellOutcome(p=p, alpha=spec.alpha, kind="inconclusive", reason=str(exc))
    return CellOutcome(
        p=p, alpha=spec.alpha, kind="global", decay_slope=grun.decay_slope,
        smallness=grun.measured_smallness,
    )


def sweep_dichotomy(
    suites: list[KernelSuite],
    p_values: list[float],
    cfg: EvolveConfig,
    sub_u0: str,
    delta0: float,
    super_horizon: float,
) -> DichotomyReport:
    """Populate the (p, alpha) outcome map, one suite per alpha, cell by cell.

    ``sub_u0`` is the initial-data descriptor of the cells at and below the
    threshold; the cells above it calibrate the critical-tail profile.
    """
    cells = []
    for suite in suites:
        u0, _ = build_initial_data(suite.grid, sub_u0)
        for p in p_values:
            cells.append(run_cell(suite.spec, suite, p, cfg, u0, delta0, super_horizon))
    return DichotomyReport(
        n=suites[0].spec.dimension,
        p_values=tuple(p_values),
        alpha_values=tuple(s.spec.alpha for s in suites),
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def fmt(x: float | None) -> str:
    """A CSV cell: the float format of every output (``g17``), empty for a
    missing value (None or nan)."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return g17(x)


def dichotomy_csv_lines(report: DichotomyReport) -> list[str]:
    lines = ["p,alpha,outcome,escape_time,decay_slope,log_slope,kaplan_crossing,reason"]
    for c in report.cells:
        reason = (c.reason or "").replace(",", ";")
        lines.append(
            f"{fmt(c.p)},{fmt(c.alpha)},{c.kind},{fmt(c.escape_time)},"
            f"{fmt(c.decay_slope)},{fmt(c.log_slope)},{fmt(c.kaplan_crossing)},{reason}"
        )
    lines.append(f"# {report.footer}")
    return lines


_CELL_COLORS = {"blowup": "#c0392b", "global": "#2471a3", "inconclusive": "#b2babb"}


def dichotomy_svg(report: DichotomyReport, width: int = 640, height: int = 480) -> str:
    """Phase-diagram rendering with the threshold curve overlaid (best effort)."""
    ps = sorted(report.p_values)
    als = sorted(report.alpha_values)
    pad = 60
    w_cell = (width - 2 * pad) / max(len(ps), 1)
    h_cell = (height - 2 * pad) / max(len(als), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    lookup = {(c.p, c.alpha): c for c in report.cells}
    for i, p in enumerate(ps):
        for j, a in enumerate(als):
            cell = lookup[(p, a)]
            x = pad + i * w_cell
            y = height - pad - (j + 1) * h_cell
            color = _CELL_COLORS[cell.kind]
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w_cell:.2f}" height="{h_cell:.2f}" '
                f'fill="{color}" stroke="black" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{x + w_cell / 2:.2f}" y="{y + h_cell / 2:.2f}" font-size="11" '
                f'text-anchor="middle" fill="white">{cell.kind}</text>'
            )
    # threshold curve p*(alpha) in the same cell coordinates
    if len(ps) > 1:
        p_lo, p_hi = ps[0], ps[-1]
        pts = []
        samples = 64
        a_lo, a_hi = (als[0], als[-1]) if len(als) > 1 else (als[0] - 0.5, als[0] + 0.5)
        for k in range(samples + 1):
            a = a_lo + (a_hi - a_lo) * k / samples
            pstar = fujita_exponent(report.n + a)
            if p_lo <= pstar <= p_hi:
                fx = pad + (pstar - p_lo) / (p_hi - p_lo) * (width - 2 * pad)
                fy = height - pad - ((a - a_lo) / max(a_hi - a_lo, 1e-12) + 0.5 / max(len(als), 1)) * (
                    height - 2 * pad
                ) * (len(als) / max(len(als), 1))
                pts.append(f"{fx:.2f},{fy:.2f}")
        if len(pts) >= 2:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="black" '
                f'stroke-width="2" stroke-dasharray="6,3"/>'
            )
    for i, p in enumerate(ps):
        x = pad + (i + 0.5) * w_cell
        parts.append(
            f'<text x="{x:.2f}" y="{height - pad + 18}" font-size="12" text-anchor="middle">p={p:g}</text>'
        )
    for j, a in enumerate(als):
        y = height - pad - (j + 0.5) * h_cell
        parts.append(
            f'<text x="{pad - 8}" y="{y:.2f}" font-size="12" text-anchor="end">a={a:g}</text>'
        )
    parts.append(
        f'<text x="{pad}" y="{height - 12}" font-size="10">{report.footer}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
