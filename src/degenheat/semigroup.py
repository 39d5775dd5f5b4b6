"""The weighted heat semigroup: application, decay regressions, core bound.

The operator takes nodal data phi on the half grid, extends it evenly onto
the solver mesh where needed, and integrates it against a kernel table:
(S(t) phi)(x_i) = sum_j K[i,j] phi(x_j) m_j.  Mass is preserved to solver
tolerance, sign and pointwise order are preserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import FittedConstants
from .kernel import KernelSuite, KernelTable, loglog_slope
from .lorentz import INF, LorentzIndex, lorentz_norm, weighted_lp_norm
from .weights import GridFunction

__all__ = [
    "apply_semigroup",
    "DecayFit",
    "decay_rates",
    "HeatCoreBound",
    "heat_core_lower",
    "evolved_norm",
    "fit_smoothing_constants",
    "weak_critical_probe",
]


def weak_critical_probe(grid, q: float) -> GridFunction:
    """Scale-critical tail |x|^{-(n+alpha)/q}: exactly weak-L^q, so the
    evolved sup decays at the sharp weak-smoothing rate.

    The value at the singular node is clamped to its nearest neighbor; the
    cell there carries negligible mass, an honest cap would otherwise plant
    a spurious point mass.
    """
    na = grid.spec.dimension + grid.spec.alpha
    with np.errstate(divide="ignore"):
        vals = np.abs(grid.nodes) ** (-na / q)
    vals[0] = vals[1]
    return grid.function(vals)


def apply_semigroup(table: KernelTable, phi: GridFunction) -> GridFunction:
    """Integrate phi against the kernel at the table's time."""
    if phi.grid is not table.grid and not np.array_equal(phi.grid.nodes, table.grid.nodes):
        raise ValueError("kernel table and function live on different grids")
    mesh = table.mesh
    return GridFunction(phi.grid, mesh.restrict(table.apply(mesh.extend(phi.values))))


def evolved_norm(table: KernelTable, phi: GridFunction, q: float, kind: str) -> float:
    """Norm of S(t)phi over the physical measure: kind 'strong' or 'weak'."""
    out = apply_semigroup(table, phi)
    if kind == "strong":
        return weighted_lp_norm(out, q)
    if kind == "weak":
        return lorentz_norm(out, LorentzIndex(q, INF))
    raise ValueError(f"norm kind must be 'strong' or 'weak', got {kind!r}")


@dataclass(frozen=True)
class DecayFit:
    q: float
    r: float
    kind: str
    slope: float
    intercept: float
    predicted: float
    times: tuple[float, ...]
    norms: tuple[float, ...]

    @property
    def relative_error(self) -> float:
        if self.predicted == 0.0:
            return abs(self.slope)
        return abs(self.slope - self.predicted) / abs(self.predicted)


def decay_rates(
    suite: KernelSuite,
    phi: GridFunction,
    times: list[float],
    q: float,
    r: float,
    kind: str = "strong",
) -> DecayFit:
    """Log-log regression of the r-norm of S(t)phi against t.

    ``q`` indexes the data norm the smoothing estimate starts from, which
    fixes the predicted slope -(n+alpha)/2 * (1/q - 1/r).  Weak-norm
    regressions reject q = 1: the weak-type smoothing constant diverges as
    q -> 1, so no rate is claimed at that endpoint.
    """
    if kind not in ("strong", "weak"):
        raise ValueError(f"norm kind must be 'strong' or 'weak', got {kind!r}")
    if kind == "weak" and not q > 1.0:
        raise ValueError(
            "weak-norm regression requires q > 1: the weak smoothing constant "
            "blows up at the q = 1 endpoint"
        )
    if not (1.0 <= q <= INF):
        raise ValueError(f"data exponent q must lie in [1, inf], got {q}")
    if len(times) < 3:
        raise ValueError("need at least 3 times to regress a slope")
    spec = suite.spec
    pred = -(spec.dimension + spec.alpha) / 2.0 * (
        (0.0 if q == INF else 1.0 / q) - (0.0 if r == INF else 1.0 / r)
    )
    ts = sorted(float(t) for t in times)
    norms = [evolved_norm(suite.table(t), phi, r, kind) for t in ts]
    slope, intercept = loglog_slope(np.array(ts), np.array(norms))
    return DecayFit(
        q=q, r=r, kind=kind, slope=slope, intercept=intercept, predicted=pred,
        times=tuple(ts), norms=tuple(norms),
    )


@dataclass(frozen=True)
class HeatCoreBound:
    t: float
    empirical_coef: float
    core_mass: float
    skipped: bool = False


def heat_core_lower(suite: KernelSuite, phi: GridFunction, t: float) -> HeatCoreBound:
    """On-core lower bound: min over |x| <= sqrt(t) of S(t)phi against the
    core mass t^{-(n+alpha)/2} * integral of phi*w over {|y| <= sqrt(t)}.

    Vacuous (skipped) when phi carries no weighted mass on the core.
    """
    if np.any(phi.values < 0.0):
        raise ValueError("core lower bound applies to nonnegative data")
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    grid = phi.grid
    rt = math.sqrt(t)
    core = grid.nodes <= rt
    mass = float(np.sum(phi.values[core] * grid.measures[core]))
    if mass <= 0.0:
        return HeatCoreBound(t=t, empirical_coef=math.nan, core_mass=0.0, skipped=True)
    spec = suite.spec
    out = suite.restrict(suite.propagate(suite.extend(phi.values), t, 128))
    floor = t ** (-(spec.dimension + spec.alpha) / 2.0) * mass
    coef = float(np.min(out[core]) / floor)
    return HeatCoreBound(t=t, empirical_coef=coef, core_mass=mass)


def fit_smoothing_constants(
    suite: KernelSuite,
    probes: list[GridFunction],
    times: list[float],
    r_star: float,
    constants: FittedConstants | None = None,
) -> FittedConstants:
    """Fit the strong and weak smoothing prefactors on probe data.

    strong: sup_t ||S(t)phi||_inf / ||phi||_inf  (contraction, so near 1),
    weak:   sup over t, q of t^{(n+alpha)/2 (1/r*-1/q)} ||S(t)phi||_{q,inf}
            / ||phi||_{r*,inf}.
    The local-horizon rule uses the max of the two.
    """
    rec = constants if constants is not None else FittedConstants()
    spec = suite.spec
    na2 = (spec.dimension + spec.alpha) / 2.0
    strong = 0.0
    weak = 0.0
    qs = [r_star, 2.0 * r_star, INF]
    for phi in probes:
        sup0 = phi.sup()
        weak0 = lorentz_norm(phi, LorentzIndex(r_star, INF))
        for t in times:
            table = suite.table(t)
            out = apply_semigroup(table, phi)
            if sup0 > 0.0:
                strong = max(strong, out.sup() / sup0)
            if weak0 > 0.0:
                for q in qs:
                    expo = na2 * (1.0 / r_star - (0.0 if q == INF else 1.0 / q))
                    val = lorentz_norm(out, LorentzIndex(q, INF)) if q != INF else out.sup()
                    weak = max(weak, t**expo * val / weak0)
    rec.strong_smoothing_coef = strong
    rec.weak_smoothing_coef = weak
    rec.local_bound_coef = max(strong, weak)
    return rec
