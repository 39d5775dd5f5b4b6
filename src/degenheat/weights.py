"""Power weights, weighted ball masses, and singularity-graded 1-D grids.

Two weight families are supported:

* ``axis``   -- w(x) = |x_1|^a with 0 <= a < 1 (singular along the hyperplane
  x_1 = 0; the grid carries the x_1 coordinate, transverse directions are
  handled analytically downstream),
* ``radial`` -- w(x) = |x|^b with 0 <= b < n (point singularity at the
  origin; the grid carries the radius and all angular content is folded
  into the reduced 1-D weight).

Grid functions are nodal values on [0, R]; for the axis case they represent
even functions of x_1 (even extension to [-R, R] is applied wherever the
physical measure is needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "WeightCase",
    "WeightSpec",
    "Grid",
    "GridError",
    "GridFunction",
    "BallEnvelope",
    "BallFit",
    "weight_at",
    "ball_mass",
    "ball_mass_bounds",
    "fit_ball_constants",
    "make_grid",
    "fujita_exponent",
    "route_index",
]


class WeightCase(Enum):
    AXIS_POWER = "axis"
    RADIAL_POWER = "radial"


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n (equals n * omega_n)."""
    return n * unit_ball_volume(n)


@dataclass(frozen=True)
class WeightSpec:
    """A power weight: which family, its exponent, and the ambient dimension."""

    case: WeightCase
    exponent: float
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1 or int(self.dimension) != self.dimension:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension}")
        a = float(self.exponent)
        if not math.isfinite(a) or a < 0.0:
            raise ValueError(f"exponent must be a finite nonnegative real, got {a}")
        if self.case is WeightCase.AXIS_POWER and not a < 1.0:
            raise ValueError(f"axis-power weights require exponent a < 1, got {a:g}")
        if self.case is WeightCase.RADIAL_POWER and not a < self.dimension:
            raise ValueError(
                f"radial-power weights require exponent b < n = {self.dimension}, got {a:g}"
            )

    @property
    def alpha(self) -> float:
        """The homogeneity exponent of the weight (a or b)."""
        return float(self.exponent)

    @property
    def mass_exponent(self) -> float:
        """The homogeneous dimension n + alpha: ball masses centered at 0 scale
        like r**(n+alpha), and every exponent of the dichotomy is a function of it."""
        return self.dimension + self.alpha

    def smoothing_rate(self, q: float, r: float) -> float:
        """Exponent of t in the L^q -> L^r smoothing bound of the semigroup,
        -(n+alpha)/2 (1/q - 1/r), with 1/inf = 0.  At q = 1, r = inf it is the
        on-diagonal decay t^{-(n+alpha)/2} of the kernel."""
        return -(0.5 * self.mass_exponent * (1.0 / q - 1.0 / r))

    # --- reduced 1-D weight on the half-line ------------------------------
    # axis:   m(x) = x^a                       (transverse dims handled elsewhere)
    # radial: m(r) = sigma_{n-1} * r^(n-1+b)   (angular content folded in)

    def reduced_weight(self, x: np.ndarray | float) -> np.ndarray | float:
        x = np.abs(x)
        if self.case is WeightCase.AXIS_POWER:
            return x ** self.exponent
        return unit_sphere_area(self.dimension) * x ** (self.dimension - 1 + self.exponent)

    def reduced_primitive(self, x: np.ndarray | float) -> np.ndarray | float:
        """Exact antiderivative of the reduced weight, vanishing at 0."""
        x = np.asarray(x, dtype=float)
        if self.case is WeightCase.AXIS_POWER:
            q = self.exponent + 1.0
            return x ** q / q
        q = self.mass_exponent
        return unit_sphere_area(self.dimension) * x ** q / q

    @property
    def even_factor(self) -> float:
        """Physical measure per unit of reduced half-line measure.

        The axis grid covers only x_1 >= 0 of an even geometry, so every
        half-line mass counts twice; the radial reduced weight already
        includes the full sphere.
        """
        return 2.0 if self.case is WeightCase.AXIS_POWER else 1.0

    def inverse_reduced_integral(self, lo: float, hi: float) -> float:
        """Integral of 1/(reduced weight) over [lo, hi], 0 <= lo < hi.

        Finite across lo = 0 exactly when the reduced weight's power is
        below 1 (always in the axis case since a < 1); +inf otherwise.
        """
        if self.case is WeightCase.AXIS_POWER:
            power = self.exponent
            scale = 1.0
        else:
            power = self.dimension - 1 + self.exponent
            scale = unit_sphere_area(self.dimension)
        kappa = 1.0 - power
        if lo == 0.0 and kappa <= 0.0:
            return math.inf
        if abs(kappa) < 1e-14:
            return math.log(hi / lo) / scale
        return (hi**kappa - lo**kappa) / (kappa * scale)


def fujita_exponent(mass_exponent: float) -> float:
    """The threshold p* = 1 + 2/(n+alpha): every positive solution blows up for
    p <= p*, small data stay global above it (Fujita's 1 + 2/n at alpha = 0)."""
    return 1.0 + 2.0 / mass_exponent


def route_index(mass_exponent: float, p: float) -> float:
    """The route index r* = (n+alpha)(p-1)/2, whose norm the scaling of the
    equation leaves invariant; it exceeds 1 exactly when p > p*."""
    return 0.5 * mass_exponent * (p - 1.0)


def weight_at(spec: WeightSpec, point: Sequence[float]) -> float:
    """Evaluate the weight at a point of R^n."""
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != (spec.dimension,):
        raise ValueError(
            f"point has dimension {p.shape}, expected ({spec.dimension},)"
        )
    if spec.case is WeightCase.AXIS_POWER:
        return float(abs(p[0]) ** spec.exponent)
    return float(np.linalg.norm(p) ** spec.exponent)


def _reduced_center(spec: WeightSpec, center: Sequence[float] | float) -> float:
    """Collapse a center to the coordinate the ball mass actually depends on.

    Axis balls may be translated freely in x_2..x_n, so only |x_1| matters;
    radial balls depend on the distance from the origin.  Scalars are taken
    as the already-reduced coordinate.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if not np.all(np.isfinite(c)):
        raise ValueError(f"ball center must be finite, got {center}")
    if c.size == 1:
        return float(abs(c[0]))
    if c.shape != (spec.dimension,):
        raise ValueError(f"center has shape {c.shape}, expected ({spec.dimension},) or scalar")
    if spec.case is WeightCase.AXIS_POWER:
        return float(abs(c[0]))
    return float(np.linalg.norm(c))


def _check_radii(r: np.ndarray | float) -> None:
    r = np.atleast_1d(np.asarray(r, dtype=float))
    bad = ~((r > 0.0) & (r < math.inf))
    if np.any(bad):
        raise ValueError(f"ball radius must be positive and finite, got {r[bad][0]}")


def _signed_interval_mass(expo: float, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Integral of |y|^expo over [c - r, c + r] (1-D arrays, c >= 0, r > 0).

    Where r < c/2 it is (c - r)^q expm1(2q atanh(r/c)) / q with q = expo + 1,
    which does not cancel as r/c -> 0; elsewhere the difference of the odd
    primitive.  Powers |y|^q are taken as |y|^expo |y|, so the rounding of q
    costs no eps |log y|, and (c - r)^q never overflows ahead of the expm1.
    """
    q = expo + 1.0

    def prim(y: np.ndarray) -> np.ndarray:
        return np.copysign(np.abs(y) ** expo * np.abs(y) / q, y)

    near = r < 0.5 * c
    out = np.empty(c.shape)
    gap, ratio = c[near] - r[near], r[near] / c[near]
    out[near] = gap**expo * (gap * np.expm1(2.0 * q * np.arctanh(ratio))) / q
    out[~near] = prim(c[~near] + r[~near]) - prim(c[~near] - r[~near])
    return out


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], by Newton's method.

    Numpy arithmetic only: ``special.roots_legendre`` takes an eigenvalue
    route whose LAPACK code adds about 0.4 MB of resident memory to every
    process that imports the package.
    """
    x = -np.cos(math.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(m), x
        for k in range(2, m + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# Node count of the fixed Gauss rules for off-center balls (n >= 2).
_GAUSS_NODES = 64
# Gauss-Legendre on [0, pi].
_LEG_X, _LEG_W = _gauss_legendre(_GAUSS_NODES)
_THETA = 0.5 * math.pi * (_LEG_X + 1.0)
_THETA_W = 0.5 * math.pi * _LEG_W


def _axis_rule(n: int, a: float, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Axis ball masses for n >= 2 and c > 0 (1-D arrays).

    With y_1 = c - r cos(theta) the slab integral of |y_1|^a against the
    (n-1)-ball cross-section becomes omega_{n-1} r^(n+a) times
    int_0^pi |c/r - cos(theta)|^a sin^n(theta) dtheta.  For c >= r the
    integrand is smooth: Gauss-Legendre.  For c < r it has a |theta -
    theta0|^a kink at theta0 = arccos(c/r); each side of it takes a
    Gauss-Jacobi rule whose weight is that power, applied to the smooth rest.
    """
    u = c / r
    integral = np.empty(c.shape)
    outer = u >= 1.0
    integral[outer] = np.sum(
        np.abs(u[outer, None] - np.cos(_THETA)) ** a * np.sin(_THETA) ** n * _THETA_W, axis=-1
    )
    th0 = np.arccos(u[~outer])[:, None]
    split = 0.0
    for lo, hi, (x, w) in (
        (0.0, th0, special.roots_jacobi(_GAUSS_NODES, a, 0.0)),
        (th0, math.pi, special.roots_jacobi(_GAUSS_NODES, 0.0, a)),
    ):
        half = 0.5 * (hi - lo)
        th = lo + half * (x + 1.0)
        # |cos(th0) - cos(th)| / |th - th0|, free of cancellation
        ratio = 2.0 * np.abs(np.sin(0.5 * (th + th0)) * np.sin(0.5 * (th - th0))) / np.abs(th - th0)
        split = split + half[:, 0] ** (a + 1.0) * np.sum(ratio**a * np.sin(th) ** n * w, axis=-1)
    integral[~outer] = split
    return unit_ball_volume(n - 1) * r ** (n + a) * integral


def _radial_rule(n: int, b: float, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Radial ball masses for n >= 2 and c > 0 (1-D arrays).

    The ball holds the whole sphere of radius s about the origin for
    s < r - c and the cap of it with cos(angle to the center) > (s^2 + c^2 -
    r^2) / (2 s c) for |c - r| < s < c + r.  The shell integral is taken in
    theta with s = mid - half cos(theta), which removes the square-root ends
    of the cap fraction, by Gauss-Legendre.
    """
    k = n - 1 + b
    # in units of mid = max(c, r), so that no square under- or overflows
    mid = np.maximum(c, r)
    cn, rn = (c / mid)[:, None], (r / mid)[:, None]
    h = np.minimum(cn, rn)
    s = 1.0 - h * np.cos(_THETA)
    # 1 - cos^2 of the cap angle, in Heron's form (free of cancellation)
    sin2 = (h / cn * np.sin(_THETA)) ** 2 * ((1.0 + h + s) / (2.0 * s)) * ((1.0 - h + s) / (2.0 * s))
    half_cap = 0.5 * special.betainc((n - 1) / 2.0, 0.5, np.minimum(sin2, 1.0))
    cap = np.where(s * s + cn * cn >= rn * rn, half_cap, 1.0 - half_cap)
    shell = h[:, 0] * np.sum(s**k * cap * np.sin(_THETA) * _THETA_W, axis=-1)
    inner = np.maximum(rn[:, 0] - cn[:, 0], 0.0) ** (k + 1.0) / (k + 1.0)
    return unit_sphere_area(n) * mid ** (k + 1.0) * (inner + shell)


def _ball_masses(spec: WeightSpec, centers: np.ndarray | float, radii: np.ndarray | float) -> np.ndarray:
    """Weighted measures of the balls B(c, r), centers broadcast against radii.

    ``centers`` are reduced coordinates (|x_1| for axis weights, |x| for
    radial ones).  Closed forms for c = 0 (both families) and for n = 1 at
    any center; otherwise the fixed Gauss rules of ``_axis_rule`` and
    ``_radial_rule``.
    """
    c, r = np.broadcast_arrays(np.abs(np.asarray(centers, dtype=float)), np.asarray(radii, dtype=float))
    shape = c.shape
    # always 1-D: numpy computes powers of 0-d arrays by another route than
    # of arrays, which would make a lone ball differ in the last bit
    c, r = c.ravel(), r.ravel()
    if not np.all(np.isfinite(c)):
        raise ValueError(f"ball center must be finite, got {c[~np.isfinite(c)][0]}")
    _check_radii(r)
    n = spec.dimension
    a = spec.exponent
    na = spec.mass_exponent
    at0 = c == 0.0

    if spec.case is WeightCase.AXIS_POWER:
        if n == 1:
            return _signed_interval_mass(a, c, r).reshape(shape)
        out = unit_ball_volume(n - 1) * special.beta((a + 1.0) / 2.0, (n + 1.0) / 2.0) * r**na
        rule = _axis_rule
    else:
        out = unit_sphere_area(n) / na * r**na
        if n == 1:
            return np.where(at0, out, _signed_interval_mass(a, c, r)).reshape(shape)
        rule = _radial_rule
    off = ~at0
    if np.any(off):
        out[off] = rule(n, a, c[off], r[off])
    return out.reshape(shape)


def ball_mass(spec: WeightSpec, center: Sequence[float] | float, r: float) -> float:
    """Weighted measure of the Euclidean ball B(center, r).

    Closed form for balls whose reduced center is 0 (both families) and for
    n = 1 at any center; otherwise a fixed 64-node Gauss rule, within about
    1e-13 relative of a 30-digit reference (``_ball_masses``).
    """
    return float(_ball_masses(spec, _reduced_center(spec, center), r))


@dataclass(frozen=True)
class BallEnvelope:
    lower: float
    upper: float
    branch: str


def ball_mass_bounds(
    spec: WeightSpec,
    center: Sequence[float] | float,
    r: float,
    constants: tuple[float, float] = (1.0, 1.0),
) -> BallEnvelope:
    """Two-sided power envelope for the ball mass.

    Lower envelope C * r^(n+alpha); upper envelope C' * r^n |c|^alpha on the
    branch r <= |c| and C' * r^(n+alpha) on the branch r >= |c|, where |c| is
    the reduced center coordinate.  ``constants`` defaults to unit prefactors.
    """
    _check_radii(r)
    low_c, up_c = constants
    c = _reduced_center(spec, center)
    coord = "|x1|" if spec.case is WeightCase.AXIS_POWER else "|x|"
    lower = low_c * r**spec.mass_exponent
    if r >= c:
        return BallEnvelope(lower, up_c * r**spec.mass_exponent, f"r >= {coord}")
    return BallEnvelope(lower, up_c * r**spec.dimension * c**spec.exponent, f"r <= {coord}")


@dataclass(frozen=True)
class BallFit:
    """Tightest envelope prefactors over a randomized (center, radius) sample."""

    lower_coef: float
    upper_coef: float
    sample_count: int


def fit_ball_constants(
    spec: WeightSpec,
    n_samples: int = 100,
    rng: np.random.Generator | None = None,
    center_scale: float = 4.0,
    radius_range: tuple[float, float] = (0.05, 8.0),
) -> BallFit:
    """Fit the tightest (lower, upper) envelope prefactors on random samples.

    The shape of the envelopes is fixed by the two-branch rule; only the
    prefactors are free, so the tight fit is a min/max of mass-to-shape
    ratios and envelope ordering holds on the sample by construction.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    lo_r, hi_r = radius_range
    draws = [
        (center_scale * abs(rng.standard_normal()), math.exp(rng.uniform(math.log(lo_r), math.log(hi_r))))
        for _ in range(n_samples)
    ]
    c, r = np.array(draws, dtype=float).reshape(-1, 2).T
    mass = _ball_masses(spec, c, r)
    flat = r**spec.mass_exponent
    shape = np.where(r >= c, flat, r**spec.dimension * c**spec.exponent)
    return BallFit(
        lower_coef=float(np.min(mass / flat, initial=math.inf)),
        upper_coef=float(np.max(mass / shape, initial=0.0)),
        sample_count=n_samples,
    )


@dataclass(frozen=True)
class Grid:
    """Singularity-graded half-line mesh with exact per-cell reduced masses.

    ``nodes`` are the degrees of freedom in [0, R]; each node owns the cell
    between consecutive ``cell_bounds`` midpoints and ``cell_mass[i]`` is the
    exact integral of the reduced 1-D weight over that cell.
    """

    spec: WeightSpec
    radius: float
    grading: float
    nodes: np.ndarray
    cell_bounds: np.ndarray
    cell_mass: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if not np.all(np.diff(self.cell_bounds) > 0.0):
            raise ValueError("grid cell bounds must be strictly increasing")
        if not np.all(self.cell_mass > 0.0):
            raise ValueError("cell masses must be strictly positive")
        total = float(self.spec.reduced_primitive(self.radius))
        err = abs(float(np.sum(self.cell_mass)) - total)
        if err > 1e-12 * total:
            raise ValueError(f"cell masses do not telescope to the domain mass (err={err:g})")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def measures(self) -> np.ndarray:
        """Per-node physical weighted measure (even extension for axis grids)."""
        return self.spec.even_factor * self.cell_mass

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.measures))

    def function(self, values: np.ndarray | Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        if callable(values):
            values = np.asarray(values(self.nodes), dtype=float)
        return GridFunction(self, np.asarray(values, dtype=float))

    def constant(self, value: float) -> "GridFunction":
        return self.function(np.full(self.n_nodes, float(value)))


class GridError(ValueError):
    """A grid ``make_grid`` cannot build; ``param`` names the argument to blame."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


def make_grid(spec: WeightSpec, radius: float, cells: int, grading: float = 2.0) -> Grid:
    """Build the graded half-line grid with nodes at R*(k/N)^grading.

    Grading >= 1 concentrates nodes near the singular point 0, which restores
    second-order quadrature accuracy against weights whose derivative blows
    up there.
    """
    if not radius > 0.0:
        raise GridError("radius", f"radius must be positive, got {radius}")
    if cells < 16:
        raise GridError("cells", f"need at least 16 cells, got {cells}")
    if not grading >= 1.0:
        raise GridError("grading", f"grading exponent must be >= 1, got {grading}")
    k = np.arange(cells + 1, dtype=float)
    unit_nodes = (k / cells) ** grading
    if not np.all(np.diff(unit_nodes) > 0.0):
        raise GridError("grading", f"grading {grading:g} makes nodes coincide on {cells} cells")
    nodes = radius * unit_nodes
    bounds = np.empty(cells + 2, dtype=float)
    bounds[0] = 0.0
    bounds[-1] = radius
    # near the top of the float range the midpoints and masses overflow; Grid
    # then refuses the bounds or the masses, and the radius is blamed
    with np.errstate(over="ignore", invalid="ignore"):
        bounds[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        cell_mass = np.diff(np.asarray(spec.reduced_primitive(bounds)))
        try:
            return Grid(spec, float(radius), float(grading), nodes, bounds, cell_mass)
        except ValueError as exc:  # the float range cannot hold these cells
            raise GridError("radius", f"radius {radius:g} with grading {grading:g}: {exc}") from exc


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a grid; piecewise constant on cells for all measures."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.n_nodes},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", v)

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def weighted_integral(self) -> float:
        """Integral of the function against the physical weighted measure."""
        return float(np.sum(self.values * self.grid.measures))

    def scaled(self, factor: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(factor))
