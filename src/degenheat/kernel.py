"""Numerical fundamental solution of  d_t u = w^{-1} div(w grad u).

No closed form exists for these weights, so the kernel is the discrete
fundamental solution of an unconditionally stable implicit scheme in
conservative flux form on the graded mesh:

* axis case: the 1-D operator |x|^{-a} d_x(|x|^a d_x .) on the mirrored mesh
  [-R, R]; the n-D kernel is this table times a classical (n-1)-dimensional
  Gaussian and is never materialized,
* radial case: r^{-(n-1)-b} d_r(r^{n-1+b} d_r .) on [0, R], acting on radial
  profiles.

Fluxes use the exact face value of the weight, so the discrete weighted mass
is conserved to solver tolerance and the unit row/column mass property holds
by construction.  Zero-flux truncation at R; no condition is imposed at the
singular point, where the vanishing face weight encodes the degeneracy.

The generator is A = -M^{-1} L with L symmetric tridiagonal and M the
diagonal of cell masses, so S = M^{1/2} (-A) M^{-1/2} is symmetric
tridiagonal and positive semidefinite (``_symmetric_generator``), and
I - dt A = M^{-1/2} (I + dt S) M^{1/2}.  Every ``propagate`` call scales its
input once to y = M^{1/2} v, factors I + dt S once as L D L^T with LAPACK
``dpttrf``, takes each step as one in-place ``dpttrs`` solve over all
right-hand-side columns, and scales back once.  I + dt S is an M-matrix, so
each update of the substitutions adds terms of one sign: nonnegative input
stays exactly nonnegative, and no pivoting is needed.

Kernel tables take the same steps in closed form.  With
S = V diag(lam) V^T from LAPACK ``dstemr`` (MRRR, Dhillon-Parlett), the
table after ``steps`` steps of size dt is

    K(t) = W diag((1 + dt lam)^{-steps}) W^T,    W = M^{-1/2} V.

A ``KernelSuite`` computes W once, on its first table build, and checks
every table it builds against ``propagate`` on a probe vector.

The fitted envelope constants are order statistics of per-entry thresholds,
each the solution of a Lambert-W equation (``fit_envelope_constants``).
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import struct
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpttrf, dpttrs, dstemr

from .lorentz import INF, LorentzIndex, StepFunction, lorentz_norm, weighted_lp_norm
from .weights import Grid, GridError, WeightCase, WeightSpec, _ball_masses

__all__ = [
    "SolverMesh",
    "KernelTable",
    "KernelSuite",
    "build_kernel",
    "kernel_bounds",
    "verify_kernel",
    "KernelVerification",
    "EnvelopeFit",
    "SlopeFit",
    "KernelInvariantError",
    "EnvelopeFitError",
]


class KernelInvariantError(AssertionError):
    """A structural kernel invariant (positivity/symmetry/mass) failed."""


class EnvelopeFitError(RuntimeError):
    """No constants bracket the requested share of kernel entries."""


@dataclass(frozen=True)
class SolverMesh:
    """Mesh the stepper works on: mirrored [-R, R] for axis, [0, R] radial."""

    points: np.ndarray
    masses: np.ndarray
    lower: np.ndarray  # subdiagonal coefficients of the generator
    upper: np.ndarray  # superdiagonal coefficients of the generator
    center: int  # index of the node mirroring grid node 0

    @property
    def size(self) -> int:
        return int(self.points.size)

    def extend(self, half_values: np.ndarray) -> np.ndarray:
        """Embed half-grid nodal values into the solver mesh (evenly, if mirrored)."""
        if self.center == 0:
            return np.asarray(half_values, dtype=float).copy()
        return np.concatenate((half_values[:0:-1], half_values))

    def restrict(self, full_values: np.ndarray) -> np.ndarray:
        """Values at the half-grid nodes (right half of a mirrored mesh)."""
        return full_values[self.center :].copy()


def solver_mesh(grid: Grid) -> SolverMesh:
    spec = grid.spec
    nodes = grid.nodes
    bounds = grid.cell_bounds
    if spec.case is WeightCase.AXIS_POWER:
        points = np.concatenate((-nodes[:0:-1], nodes))
        masses = np.concatenate((grid.cell_mass[:0:-1], [2.0 * grid.cell_mass[0]], grid.cell_mass[1:]))
        faces = np.concatenate((-bounds[-2:0:-1], bounds[1:-1]))
        center = nodes.size - 1
    else:
        points = nodes.copy()
        masses = grid.cell_mass.copy()
        faces = bounds[1:-1].copy()
        center = 0
    # face conductance: exact two-point transmissibility (the harmonic mean
    # of the weight between nodes) keeps the singular constant-flux mode
    # exact and restores second-order self-convergence near the degeneracy;
    # where 1/w is non-integrable at r = 0 (radial, n+b >= 2) fall back to
    # the face-value form, which is consistent for the even local modes
    h = np.diff(points)
    cond = np.empty(h.size)
    for i in range(h.size):
        lo, hi = sorted((abs(points[i]), abs(points[i + 1])))
        inv = spec.inverse_reduced_integral(lo, hi)
        if math.isinf(inv):
            cond[i] = float(spec.reduced_weight(abs(faces[i]))) / h[i]
        else:
            cond[i] = 1.0 / inv
    upper = np.zeros(points.size)
    lower = np.zeros(points.size)
    # on a steep grading the cells at the singular point are so small that
    # the rates, or their products in the symmetric form, overflow; the rates
    # are positive, so an infinite one makes its product infinite too
    with np.errstate(over="ignore"):
        upper[:-1] = cond / masses[:-1]
        lower[1:] = cond / masses[1:]
        coupling = upper[:-1] * lower[1:]
    if not np.all(np.isfinite(coupling)):
        raise GridError("grading", f"radius {grid.radius:g} with grading {grid.grading:g} on "
                        f"{nodes.size - 1} cells makes the generator's rates overflow")
    return SolverMesh(points=points, masses=masses, lower=lower, upper=upper, center=center)


def propagate(mesh: SolverMesh, values: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Apply the implicit semigroup over time t with the given step count.

    The values are scaled once to y = M^{1/2} v, I + (t/steps) S is factored
    once (``dpttrf``), each step is one ``dpttrs`` solve, in place, on all
    columns at once, and the result is scaled back once.
    """
    if t == 0.0 or steps == 0:
        return np.asarray(values, dtype=float).copy()
    step = _implicit_step(mesh, t / steps)
    root = np.sqrt(mesh.masses)
    # scaling the transpose leaves the result Fortran-ordered, as dpttrs
    # needs to solve in place
    out = (np.asarray_chkfinite(values, dtype=float).T * root).T
    for _ in range(steps):
        out = step(out)
    return np.asarray_chkfinite((out.T / root).T)


def _symmetric_generator(mesh: SolverMesh) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of S = M^{1/2} (-A) M^{-1/2}: upper + lower
    and -cond_i / sqrt(m_i m_{i+1}) = -sqrt(upper_i lower_{i+1})."""
    return mesh.upper + mesh.lower, -np.sqrt(mesh.upper[:-1] * mesh.lower[1:])


def _implicit_step(mesh: SolverMesh, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """One implicit step of size dt in the variables y = M^{1/2} v: I + dt S
    is factored here (``dpttrf``), and the returned function solves it
    (``dpttrs``) in place on a float64 Fortran-ordered array, returning the
    result."""
    if dt < 0.0:
        raise ValueError(f"propagation time must be nonnegative, got a step of {dt}")
    diag, off = _symmetric_generator(mesh)
    d, e, info = dpttrf(1.0 + dt * diag, dt * off, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise LinAlgError(f"implicit step matrix is not positive definite (dpttrf info={info})")

    def step(values: np.ndarray) -> np.ndarray:
        return dpttrs(d, e, values, overwrite_b=True)[0]

    return step


# rows within this many sqrt(t) of the zero-flux wall are boundary-affected
_INTERIOR_MARGIN = 6.0


@dataclass(frozen=True)
class KernelTable:
    """Discretized fundamental solution at one time, with quadrature masses."""

    spec: WeightSpec
    grid: Grid
    t: float
    steps: int
    mesh: SolverMesh = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        k = self.matrix
        neg = float(np.min(k))
        if neg < -1e-10:
            raise KernelInvariantError(f"kernel entries dip to {neg:g} (discretization bug)")
        scale = float(np.max(k))
        asym = float(np.max(np.abs(k - k.T)))
        if asym > 1e-8 * scale:
            raise KernelInvariantError(f"kernel asymmetry {asym:g} exceeds 1e-8 relative")

    @property
    def points(self) -> np.ndarray:
        return self.mesh.points

    @property
    def masses(self) -> np.ndarray:
        return self.mesh.masses

    @property
    def size(self) -> int:
        return self.mesh.size

    def row_masses(self) -> np.ndarray:
        return self.matrix @ self.masses

    def k1_max_error(self, interior_only: bool = False) -> float:
        rm = self.row_masses()
        if interior_only:
            rm = rm[self.interior_mask()]
        return float(np.max(np.abs(rm - 1.0)))

    def interior_mask(self) -> np.ndarray:
        """Rows far enough from the truncation boundary that reflections are tiny."""
        margin = _INTERIOR_MARGIN * math.sqrt(self.t)
        return np.abs(self.points) <= self.grid.radius - margin

    def apply(self, full_values: np.ndarray) -> np.ndarray:
        return self.matrix @ (np.asarray(full_values, dtype=float) * self.masses)

    def row_step_function(self, i: int) -> StepFunction:
        """Row i as a step function against the mesh quadrature masses."""
        return StepFunction(self.matrix[i], self.masses, self.spec.dimension)


def build_kernel(spec: WeightSpec, grid: Grid, t: float, steps: int) -> KernelTable:
    """The kernel table at time t after ``steps`` implicit steps."""
    return KernelSuite(spec, grid, steps=steps).table(t)


def _min_branch(spec: WeightSpec, coord: float, t: float) -> float:
    """min(t^{-n/4} |z|^{-alpha/2}, t^{-(n+alpha)/4}) with the 0-center limit."""
    a = spec.alpha
    flat = t ** (-spec.mass_exponent / 4.0)
    if coord == 0.0 or a == 0.0:
        return flat
    return min(t ** (-spec.dimension / 4.0) * coord ** (-a / 2.0), flat)


def kernel_bounds(
    spec: WeightSpec,
    x: np.ndarray | float,
    y: np.ndarray | float,
    t: float,
    constants: tuple[float, float],
) -> tuple[float, float]:
    """Two-sided min-branch envelope for the kernel at points x, y.

    ``constants`` = (lower, upper) prefactors; each also sets its own
    Gaussian time scale, so the lower bound weakens and the upper bound
    strengthens as its constant decreases.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    d, big_d = constants
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    dist2 = float(np.sum((xv - yv) ** 2))
    if spec.case is WeightCase.AXIS_POWER:
        cx, cy = abs(float(xv[0])), abs(float(yv[0]))
    else:
        cx, cy = float(np.linalg.norm(xv)), float(np.linalg.norm(yv))
    lower = d * _min_branch(spec, cx, t) * _min_branch(spec, cy, t) * math.exp(-dist2 / (d * t))
    upper = big_d * t ** spec.smoothing_rate(1.0, INF) * math.exp(-dist2 / (big_d * t))
    return lower, upper


# ---------------------------------------------------------------------------
# envelope fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeFit:
    lower: float
    upper: float
    lower_coverage: float
    upper_coverage: float
    entries: int


_DIST_CUT = 4.0  # Gaussian-core entries: |x - y| <= _DIST_CUT sqrt(t)


def _comparison_entries(table: KernelTable):
    """Indices and distances of the Gaussian-core entries used by the fits.

    For radial tables the entries are angular averages, so the upper envelope
    is evaluated at the closest approach |r - rho| and the lower envelope at
    the farthest point r + rho; for axis tables the literal distance works on
    both sides.  Near-axis/low-t lower-bound quality is grid limited, hence
    coverage is reported instead of asserted at 100%.
    """
    pts = table.points
    inter = np.flatnonzero(table.interior_mask())
    xi = pts[inter]
    core = np.abs(xi[:, None] - xi[None, :]) <= _DIST_CUT * math.sqrt(table.t)
    ii, jj = np.nonzero(core)
    rows = inter[ii]
    cols = inter[jj]
    d_up = np.abs(pts[rows] - pts[cols])
    if table.spec.case is WeightCase.AXIS_POWER:
        return rows, cols, d_up, d_up
    return rows, cols, d_up, np.abs(pts[rows]) + np.abs(pts[cols])


# Newton steps for W(z) in _thresholds.  From log1p(z) >= W(z) the iterates
# reach W(z) to about an ulp within 8 steps for every z in [1e-300, 1e300]
_LAMBERT_STEPS = 8


def _thresholds(vals: np.ndarray, pref: np.ndarray | float, k: np.ndarray) -> np.ndarray:
    """The constant c at which the envelope c pref exp(-k/c) meets each entry.

    The envelope increases with c: an upper envelope with constant C covers
    the entry exactly when C >= c, a lower one exactly when C <= c.  With
    x = k/c, x e^x = z = k pref / val, so x = W(z) (Lambert W), by Newton's
    method on x + log x = log z.  k = 0 gives c = val/pref; a zero entry or a
    non-finite z gives c = 0 (covered by every upper envelope, by no lower).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = k * pref
        z /= vals
        x = np.log1p(z)
        step = np.empty_like(z)
        for _ in range(_LAMBERT_STEPS):
            # x <- x (1 + log(z/x)) / (1 + x), in place
            np.divide(z, x, out=step)
            np.log(step, out=step)
            step += 1.0
            step *= x
            x += 1.0
            np.divide(step, x, out=x)
        c = np.divide(k, x, out=x)
        np.divide(vals, pref, out=c, where=~(z > 0.0))
    c[~((vals > 0.0) & np.isfinite(z))] = 0.0
    return c


def _table_thresholds(tb: KernelTable, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower thresholds of one table's Gaussian-core entries: the
    prefactors are t^{-(n+alpha)/2} (upper) and the min-branch product (lower)
    for "minbranch", 1/sqrt(w(B(x)) w(B(y))), B of radius sqrt(t), for both
    sides of "sandwich"."""
    rows, cols, d_up, d_low = _comparison_entries(tb)
    vals = tb.matrix[rows, cols]
    if kind == "minbranch":
        mb = np.array([_min_branch(tb.spec, abs(p), tb.t) for p in tb.points])
        pref_up = tb.t ** tb.spec.smoothing_rate(1.0, INF)
        pref_low = mb[rows] * mb[cols]
    else:
        wb = _ball_masses(tb.spec, tb.points, math.sqrt(tb.t))
        pref_up = pref_low = 1.0 / np.sqrt(wb[rows] * wb[cols])
    del rows, cols
    return _thresholds(vals, pref_up, d_up**2 / tb.t), _thresholds(vals, pref_low, d_low**2 / tb.t)


def fit_envelope_constants(
    tables: list[KernelTable],
    coverage_target: float = 0.99,
    kind: str = "minbranch",
) -> EnvelopeFit:
    """Fit the tightest envelope constants bracketing >= coverage of entries.

    kind = "minbranch" fits the explicit min-branch envelope; kind =
    "sandwich" fits the ball-mass-prefactor sandwich.  Each constant is an
    order statistic of the per-entry thresholds (``_thresholds``): with N
    entries and need = ceil(coverage N), the upper constant is the need-th
    smallest upper threshold and the lower one the need-th largest lower
    threshold.  A coverage is the share of thresholds on the covered side.
    """
    ups, lows = map(list, zip(*(_table_thresholds(tb, kind) for tb in tables)))
    entries = sum(up.size for up in ups)
    need = math.ceil(coverage_target * entries)
    # one side at a time, so that only one concatenation is alive
    c = np.concatenate(ups)
    del ups
    c.partition(need - 1)
    upper = float(c[need - 1])
    up_cov = float(np.mean(c <= upper if math.isfinite(upper) else np.isfinite(c)))
    del c
    c = np.concatenate(lows)
    del lows
    c.partition(entries - need)
    lower = float(c[entries - need])
    low_cov = float(np.mean(c >= lower if lower > 0.0 else c > 0.0))
    if not (math.isfinite(upper) and lower > 0.0):
        raise EnvelopeFitError(
            f"no {kind} constants bracket {coverage_target:.0%} of kernel entries "
            f"(upper coverage {up_cov:.4f}, lower coverage {low_cov:.4f})"
        )
    return EnvelopeFit(lower, upper, low_cov, up_cov, entries)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def loglog_slope(ts: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    lx = np.log(np.asarray(ts, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class SlopeFit:
    """Log-log regression of an L^r-type norm against time, beside the slope
    the L^q -> L^r smoothing rate predicts for it."""

    label: str
    q: float
    r: float
    slope: float
    intercept: float
    predicted: float
    times: tuple[float, ...]
    norms: tuple[float, ...]

    @classmethod
    def regress(cls, label: str, spec: WeightSpec, q: float, r: float, times, norms) -> "SlopeFit":
        slope, intercept = loglog_slope(np.array(times), np.array(norms))
        return cls(label, q, r, slope, intercept, spec.smoothing_rate(q, r), tuple(times), tuple(norms))

    @property
    def relative_error(self) -> float:
        if self.predicted == 0.0:
            return abs(self.slope)
        return abs(self.slope - self.predicted) / abs(self.predicted)


@dataclass(frozen=True)
class KernelVerification:
    times: tuple[float, ...]
    k1_errors: dict[float, float]
    k2_errors: dict[float, float]
    sandwich: EnvelopeFit
    minbranch: EnvelopeFit
    norm_slopes: tuple[SlopeFit, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def composition_error(t_table: KernelTable, half_table: KernelTable) -> float:
    """Weighted-L1 row error of K(t) against K(t/2) composed with itself."""
    m = half_table.masses
    comp = (half_table.matrix * m[None, :]) @ half_table.matrix
    diff = np.abs(t_table.matrix - comp) * m[None, :]
    rows = diff.sum(axis=1)
    return float(np.max(rows[t_table.interior_mask()]))


# strong-norm exponents of the row-decay regressions
_SLOPE_RS = (2.0, INF)
# share of Gaussian-core entries each fitted envelope must cover
_COVERAGE_TARGET = 0.99


def _verification_times(times) -> list[float]:
    """The times sorted; a ValueError unless 4 or more, geometrically spaced."""
    times = sorted(float(t) for t in times)
    if len(times) < 4:
        raise ValueError(f"kernel verification needs at least 4 times, got {len(times)}")
    ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
    if max(ratios) - min(ratios) > 1e-9 * max(ratios):
        raise ValueError("kernel verification times must be geometrically spaced")
    return times


def verify_kernel(
    spec: WeightSpec,
    grid: Grid,
    times: list[float],
    steps: int = 256,
    suite: "KernelSuite | None" = None,
) -> KernelVerification:
    """Build tables at the given geometric times and verify the kernel laws.

    Checks: unit row mass, self-composition across a time halving, fitted
    two-sided envelopes (both the ball-mass sandwich and the explicit
    min-branch form), and log-log decay slopes of strong and (r,1) norms of
    kernel rows seeded at the singular point.
    """
    times = _verification_times(times)
    suite = suite if suite is not None else KernelSuite(spec, grid, steps=steps)
    failures: list[str] = []
    k1: dict[float, float] = {}
    k2: dict[float, float] = {}
    tables = []
    for t in times:
        tb = suite.table(t)
        tables.append(tb)
        k1[t] = tb.k1_max_error(interior_only=True)
        k2[t] = composition_error(tb, suite.table(t / 2.0))

    fits: dict[str, EnvelopeFit] = {}
    for kind in ("sandwich", "minbranch"):
        try:
            fits[kind] = fit_envelope_constants(tables, _COVERAGE_TARGET, kind=kind)
        except EnvelopeFitError as exc:
            failures.append(str(exc))
            fits[kind] = EnvelopeFit(math.nan, math.nan, 0.0, 0.0, 0)

    rows = [tb.row_step_function(suite.mesh.center) for tb in tables]
    slopes: list[SlopeFit] = []
    for r in _SLOPE_RS:
        strong = [weighted_lp_norm(row, r) for row in rows]
        slopes.append(SlopeFit.regress(f"row_strong_r={r:g}", spec, 1.0, r, times, strong))
        if r != INF:
            weak1 = [lorentz_norm(row, LorentzIndex(r, 1.0)) for row in rows]
            slopes.append(SlopeFit.regress(f"row_lorentz1_r={r:g}", spec, 1.0, r, times, weak1))

    return KernelVerification(
        times=tuple(times),
        k1_errors=k1,
        k2_errors=k2,
        sandwich=fits["sandwich"],
        minbranch=fits["minbranch"],
        norm_slopes=tuple(slopes),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# suite: shared tables, direct propagation, optional binary cache
# ---------------------------------------------------------------------------


def _spectrum(mesh: SolverMesh) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam of -A, ascending, and the scaled eigenvectors W = M^{-1/2} V.

    V holds the orthonormal eigenvectors of the symmetric tridiagonal
    S = M^{1/2} (-A) M^{-1/2} (``_symmetric_generator``).
    """
    diag, off = _symmetric_generator(mesh)
    # dstemr takes e with n entries, the last unused
    _found, lam, v, info = dstemr(diag, np.append(off, 0.0), 0, 0.0, 0.0, 0, 0)
    if info != 0:
        raise LinAlgError(f"tridiagonal eigensolver failed (dstemr info={info})")
    # -A conserves mass, so its least eigenvalue is exactly 0.  dstemr finds it
    # only to about eps * max(lam), measured up to 1.6e-10 on steeply graded
    # meshes, which would move a table at time t by t * |lam[0]| of its max
    lam[0] = 0.0
    v /= np.sqrt(mesh.masses)[:, None]
    return lam, v


def _table_matrix(lam: np.ndarray, w: np.ndarray, t: float, steps: int) -> np.ndarray:
    """W diag((1 + (t/steps) lam)^{-steps}) W^T, in Fortran order."""
    g = (1.0 + (t / steps) * lam) ** -steps
    # the transpose of a C-ordered product, so Fortran-ordered like a loaded table
    return (w @ (w * g).T).T


# a built table must reproduce propagate on the probe vector to this share of
# the result's max.  Measured gaps: <= 9e-12 on the desk meshes (R 16 and 32,
# 256-512 cells, t 0.125-4); on the wide sweep grid 7e-13 with dstemr but
# 1.8e-5 (t = 1) and 1.2e-3 (t = 64) with scipy's default eigh_tridiagonal
_PROBE_RTOL = 1e-6


def _probe_vector(size: int) -> np.ndarray:
    """A fixed positive vector; pseudo-random, so it weighs every eigenvector."""
    return np.random.default_rng(0).uniform(0.5, 1.5, size)


_log = logging.getLogger(__name__)

# file layout: magic, header, grid digest, then points, masses and the
# row-major matrix as little-endian float64, then the SHA-256 of those arrays
_CACHE_MAGIC = b"DHKT0003"
_CACHE_HEADER = struct.Struct("<Bqdddqq")  # case, n, exponent, R, t, steps, size
_CACHE_PREFIX = len(_CACHE_MAGIC) + _CACHE_HEADER.size + 32


def _grid_digest(grid: Grid) -> bytes:
    h = hashlib.sha256()
    h.update(grid.nodes.tobytes())
    h.update(struct.pack("<d", grid.radius))
    return h.digest()


class KernelSuite:
    """Provider of kernel tables and direct semigroup propagation.

    Tables share one grid and step policy and are cached in memory (and
    optionally on disk).  The first table built computes the spectrum of the
    generator, which every later build reuses; a suite whose tables all come
    from the cache never computes it.  ``propagate`` steps raw mesh vectors
    with the same implicit steps the tables are built from, so table
    application and direct stepping agree to roundoff.
    """

    def __init__(
        self,
        spec: WeightSpec,
        grid: Grid,
        steps: int = 256,
        cache_dir: str | Path | None = None,
    ) -> None:
        if grid.spec != spec:
            raise ValueError("grid was built for a different weight spec")
        self.spec = spec
        self.grid = grid
        self.steps = int(steps)
        self.mesh = solver_mesh(grid)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._tables: dict[float, KernelTable] = {}
        self._eigen: tuple[np.ndarray, np.ndarray] | None = None

    # -- tables ------------------------------------------------------------

    def table(self, t: float) -> KernelTable:
        t = float(t)
        if t not in self._tables:
            table = self._load_cached(t)
            if table is None:
                table = self._build(t)
                self._store_cached(table)
            self._tables[t] = table
        return self._tables[t]

    def _build(self, t: float) -> KernelTable:
        """The table at time t from the spectrum, checked on the probe vector."""
        if not t > 0.0:
            raise ValueError(f"kernel time must be positive, got {t}")
        if self.steps < 1:
            raise ValueError(f"step count must be positive, got {self.steps}")
        if self._eigen is None:
            self._eigen = _spectrum(self.mesh)
        matrix = _table_matrix(*self._eigen, t, self.steps)
        # roundoff may leave harmless negative dust; the constructor
        # rejects anything beyond -1e-10 before we clip
        table = KernelTable(
            spec=self.spec, grid=self.grid, t=t, steps=self.steps, mesh=self.mesh, matrix=matrix
        )
        np.clip(table.matrix, 0.0, None, out=table.matrix)
        probe = _probe_vector(self.mesh.size)
        want = propagate(self.mesh, probe, t, self.steps)
        gap = float(np.max(np.abs(table.apply(probe) - want)))
        if not gap <= _PROBE_RTOL * float(np.max(want)):
            raise KernelInvariantError(
                f"kernel table at t={t:g} misses the stepped probe by {gap:g} "
                f"(bound {_PROBE_RTOL:g} of its max)"
            )
        return table

    # -- direct propagation -------------------------------------------------

    def propagate(self, full_values: np.ndarray, tau: float, substeps: int) -> np.ndarray:
        return propagate(self.mesh, full_values, tau, substeps)

    def propagate_ladder(
        self, full_values: np.ndarray, times: list[float], substeps: int = 16
    ) -> dict[float, np.ndarray]:
        """March one vector through ascending times, reusing each increment."""
        out: dict[float, np.ndarray] = {}
        cur = np.asarray(full_values, dtype=float)
        now = 0.0
        for t in sorted(float(t) for t in times):
            cur = propagate(self.mesh, cur, t - now, substeps)
            out[t] = cur
            now = t
        return out

    def extend(self, f_values: np.ndarray) -> np.ndarray:
        return self.mesh.extend(f_values)

    def restrict(self, full_values: np.ndarray) -> np.ndarray:
        return self.mesh.restrict(full_values)

    # -- binary cache --------------------------------------------------------

    def _cache_path(self, t: float) -> Path | None:
        if self.cache_dir is None:
            return None
        key = hashlib.sha256()
        key.update(_CACHE_MAGIC)
        key.update(self.spec.case.value.encode())
        key.update(struct.pack("<dqd", self.spec.exponent, self.spec.dimension, self.grid.radius))
        key.update(_grid_digest(self.grid))
        key.update(struct.pack("<dq", t, self.steps))
        return self.cache_dir / f"kernel_{key.hexdigest()[:24]}.bin"

    def _store_cached(self, table: KernelTable) -> None:
        path = self._cache_path(table.t)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        header = _CACHE_MAGIC + _CACHE_HEADER.pack(
            0 if self.spec.case is WeightCase.AXIS_POWER else 1,
            self.spec.dimension,
            self.spec.exponent,
            self.grid.radius,
            table.t,
            self.steps,
            table.size,
        )
        # write aside and rename, so a reader never sees a partial file
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(_grid_digest(self.grid))
                payload = hashlib.sha256()
                for arr in (table.points, table.masses, table.matrix):
                    chunk = np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    payload.update(chunk)
                    fh.write(chunk)
                fh.write(payload.digest())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _load_cached(self, t: float) -> KernelTable | None:
        """The cached table at time t, or None (a miss) unless the file is
        whole, its payload matches its checksum, and it was written for this
        suite's spec, grid, mesh and steps.  Each miss is logged with its
        reason at INFO."""
        path = self._cache_path(t)
        if path is None:
            return None
        if not path.exists():
            return _miss(path, "absent")
        data = path.read_bytes()
        if not data.startswith(_CACHE_MAGIC):
            return _miss(path, "magic")
        if len(data) < _CACHE_PREFIX:
            return _miss(path, "size")
        case_code, dim, expo, radius, tt, steps, size = _CACHE_HEADER.unpack_from(
            data, len(_CACHE_MAGIC)
        )
        want_case = 0 if self.spec.case is WeightCase.AXIS_POWER else 1
        m = self.mesh.size
        if (
            case_code != want_case
            or dim != self.spec.dimension
            or expo != self.spec.exponent
            or radius != self.grid.radius
            or tt != t
            or steps != self.steps
            or size != m
        ):
            return _miss(path, "header")
        if len(data) != _CACHE_PREFIX + 8 * m * (m + 2) + 32:
            return _miss(path, "size")
        if data[_CACHE_PREFIX - 32 : _CACHE_PREFIX] != _grid_digest(self.grid):
            return _miss(path, "grid digest")
        body = memoryview(data)[_CACHE_PREFIX:-32]
        if hashlib.sha256(body).digest() != data[-32:]:
            return _miss(path, "checksum")
        arrays = np.frombuffer(body, dtype="<f8")
        if not (
            np.array_equal(arrays[:m], self.mesh.points)
            and np.array_equal(arrays[m : 2 * m], self.mesh.masses)
        ):
            return _miss(path, "mesh")
        # Fortran order, as a built table, so later sums over the table add
        # in the same order whether it was built or loaded
        matrix = arrays[2 * m :].reshape(m, m).copy(order="F")
        return KernelTable(
            spec=self.spec, grid=self.grid, t=t, steps=steps, mesh=self.mesh, matrix=matrix
        )


def _miss(path: Path, reason: str) -> None:
    _log.info("kernel cache miss (%s): %s", reason, path)
    return None
