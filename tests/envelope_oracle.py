"""Coverage bisection: the slow route ``fit_envelope_constants`` replaced.

Each bisection step re-evaluates an envelope over every Gaussian-core entry
and counts the entries it covers; 48 geometric halvings of a fixed window
find the tightest constant reaching the target coverage.  Kept here as the
oracle the order-statistic fit is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from degenheat.kernel import KernelTable, _comparison_entries, _min_branch
from degenheat.weights import _ball_masses

# search windows of the upper and lower constants
UPPER_WINDOW = (1e-3, 1e6)
LOWER_WINDOW = (1e-12, 1e3)


@dataclass(frozen=True)
class FitData:
    """Precomputed per-table arrays shared by every bisection step."""

    t: float
    vals: np.ndarray
    d_up2: np.ndarray
    d_low2: np.ndarray
    flat_exponent: float  # t^{-(n+alpha)/2}
    mb_prod: np.ndarray | None  # min-branch prefactor product per entry ("minbranch")
    ball_prod: np.ndarray | None  # sqrt(w(B(x)) w(B(y))) per entry ("sandwich")


def fit_data(tb: KernelTable, kind: str) -> FitData:
    """Fit arrays for one table, with only the prefactor ``kind`` reads."""
    rows, cols, d_up, d_low = _comparison_entries(tb)
    n, a = tb.spec.dimension, tb.spec.alpha
    mb_prod = ball_prod = None
    if kind == "minbranch":
        mb = np.array([_min_branch(tb.spec, abs(p), tb.t) for p in tb.points])
        mb_prod = mb[rows] * mb[cols]
    else:
        wb = _ball_masses(tb.spec, tb.points, math.sqrt(tb.t))
        ball_prod = np.sqrt(wb[rows] * wb[cols])
    return FitData(
        t=tb.t,
        vals=tb.matrix[rows, cols],
        d_up2=d_up**2,
        d_low2=d_low**2,
        flat_exponent=tb.t ** (-(n + a) / 2.0),
        mb_prod=mb_prod,
        ball_prod=ball_prod,
    )


def coverage_upper(data: list[FitData], const: float, kind: str) -> float:
    tot = 0
    ok = 0
    for d in data:
        pref = const * d.flat_exponent if kind == "minbranch" else const / d.ball_prod
        env = pref * np.exp(-d.d_up2 / (const * d.t))
        tot += d.vals.size
        ok += int(np.sum(d.vals <= env))
    return ok / tot


def coverage_lower(data: list[FitData], const: float, kind: str) -> float:
    tot = 0
    ok = 0
    for d in data:
        pref = const * d.mb_prod if kind == "minbranch" else const / d.ball_prod
        env = pref * np.exp(-d.d_low2 / (const * d.t))
        tot += d.vals.size
        ok += int(np.sum(env <= d.vals))
    return ok / tot


def bisect_constant(cov, target: float, lo: float, hi: float, increase_helps: bool, iters: int = 48):
    """Smallest (or largest) constant reaching the target coverage."""
    f_lo, f_hi = cov(lo), cov(hi)
    if increase_helps:
        if f_hi < target:
            return None, f_hi
        if f_lo >= target:
            return lo, f_lo
    else:
        if f_lo < target:
            return None, f_lo
        if f_hi >= target:
            return hi, f_hi
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if (cov(mid) >= target) == increase_helps:
            hi = mid
        else:
            lo = mid
    pick = hi if increase_helps else lo
    return pick, cov(pick)


def bisect_fit(tables: list[KernelTable], target: float, kind: str):
    """(lower, upper) constants and their coverages, as the bisection fit found them."""
    data = [fit_data(tb, kind) for tb in tables]
    up, up_cov = bisect_constant(
        lambda c: coverage_upper(data, c, kind), target, *UPPER_WINDOW, True
    )
    low, low_cov = bisect_constant(
        lambda c: coverage_lower(data, c, kind), target, *LOWER_WINDOW, False
    )
    return data, (low, up), (low_cov, up_cov)
