import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded
from scipy.special import i0e, lambertw

from degenheat import kernel
from degenheat.kernel import (
    EnvelopeFitError,
    KernelInvariantError,
    KernelSuite,
    KernelTable,
    SolverMesh,
    build_kernel,
    composition_error,
    fit_envelope_constants,
    kernel_bounds,
    propagate,
    solver_mesh,
    verify_kernel,
)
from degenheat.weights import WeightCase, WeightSpec, make_grid
from envelope_oracle import bisect_fit, coverage_lower, coverage_upper

AX, RAD = WeightCase.AXIS_POWER, WeightCase.RADIAL_POWER
EPS = np.finfo(float).eps

DESK_SPECS = [
    WeightSpec(AX, 0.0, 1),
    WeightSpec(AX, 0.5, 1),
    WeightSpec(RAD, 0.0, 2),
    WeightSpec(RAD, 1.0, 2),
]


@pytest.fixture(scope="module")
def suites():
    return {
        spec: KernelSuite(spec, make_grid(spec, 16.0, 192, 2.0), steps=256)
        for spec in DESK_SPECS
    }


class TestStructure:
    @pytest.mark.parametrize("spec", DESK_SPECS, ids=str)
    def test_row_mass_symmetry_positivity(self, suites, spec):
        tb = suites[spec].table(1.0)
        assert tb.k1_max_error() < 1e-3
        assert np.min(tb.matrix) >= 0.0
        scale = np.max(tb.matrix)
        assert np.max(np.abs(tb.matrix - tb.matrix.T)) <= 1e-8 * scale

    @pytest.mark.parametrize("spec", DESK_SPECS, ids=str)
    def test_composition_identity(self, suites, spec):
        suite = suites[spec]
        for t in (0.5, 1.0):
            assert composition_error(suite.table(t), suite.table(t / 2)) < 2e-3

    def test_negative_entries_rejected(self, suites):
        tb = suites[DESK_SPECS[0]].table(1.0)
        bad = tb.matrix.copy()
        bad[3, 5] = -1e-6
        with pytest.raises(KernelInvariantError):
            KernelTable(tb.spec, tb.grid, tb.t, tb.steps, tb.mesh, bad)

    def test_asymmetry_rejected(self, suites):
        tb = suites[DESK_SPECS[0]].table(1.0)
        bad = tb.matrix.copy()
        bad[3, 5] *= 1.5
        with pytest.raises(KernelInvariantError):
            KernelTable(tb.spec, tb.grid, tb.t, tb.steps, tb.mesh, bad)


class TestClassicalOracle:
    def test_matches_gaussian_when_unweighted(self, suites):
        suite = suites[WeightSpec(AX, 0.0, 1)]
        for t in (0.25, 1.0):
            tb = suite.table(t)
            pts = tb.points
            gauss = (4.0 * math.pi * t) ** -0.5 * np.exp(
                -((pts[:, None] - pts[None, :]) ** 2) / (4.0 * t)
            )
            mask = tb.interior_mask()
            err = np.abs(tb.matrix[mask] - gauss[mask]) @ tb.masses
            assert err.max() < 0.01

    def test_radial_matches_angular_averaged_gaussian(self, suites):
        # 2-D classical kernel averaged over the angle has the closed form
        # (4 pi t)^-1 exp(-(r-s)^2/4t) i0e(rs/2t)
        suite = suites[WeightSpec(RAD, 0.0, 2)]
        t = 0.5
        tb = suite.table(t)
        r = tb.points
        exact = (
            (4.0 * math.pi * t) ** -1
            * np.exp(-((r[:, None] - r[None, :]) ** 2) / (4.0 * t))
            * i0e(np.outer(r, r) / (2.0 * t))
        )
        mask = tb.interior_mask()
        err = np.abs(tb.matrix[mask] - exact[mask]) @ tb.masses
        assert err.max() < 0.01


class TestRefinement:
    @pytest.mark.parametrize(
        "spec", [WeightSpec(AX, 0.5, 1), WeightSpec(RAD, 1.0, 2)], ids=str
    )
    def test_second_order_self_convergence(self, spec):
        tabs = {
            n: build_kernel(spec, make_grid(spec, 12.0, n, 2.0), 1.0, 768)
            for n in (64, 128, 256)
        }

        def diff(coarse, fine):
            sel = np.searchsorted(fine.points, coarse.points)
            sub = fine.matrix[np.ix_(sel, sel)]
            mask = coarse.interior_mask()
            return (np.abs(coarse.matrix[mask] - sub[mask]) @ coarse.masses).max()

        d1 = diff(tabs[64], tabs[128])
        d2 = diff(tabs[128], tabs[256])
        assert 3.0 < d1 / d2 < 5.0


class TestBoundsFormula:
    def test_unweighted_envelopes_share_shape(self):
        spec = WeightSpec(AX, 0.0, 1)
        lo, hi = kernel_bounds(spec, 0.3, 0.8, 2.0, constants=(1.0, 1.0))
        expect = 2.0**-0.5 * math.exp(-0.25 / 2.0)
        assert lo == pytest.approx(expect, rel=1e-12)
        assert hi == pytest.approx(expect, rel=1e-12)

    def test_on_diagonal_branch_arithmetic(self):
        # x = y with |x1| >= sqrt(t): both min branches pick the axis factor
        spec = WeightSpec(AX, 0.5, 1)
        t, x = 0.5, 2.0
        lo, _ = kernel_bounds(spec, x, x, t, constants=(1.0, 1.0))
        assert lo == pytest.approx(t ** (-0.5) * x ** (-0.5), rel=1e-12)

    def test_gaussian_factor_at_unit_argument(self):
        spec = WeightSpec(AX, 0.5, 1)
        t = 0.7
        x, y = 0.0, math.sqrt(t)
        lo, hi = kernel_bounds(spec, x, y, t, constants=(1.0, 1.0))
        assert hi == pytest.approx(t ** (-0.75) * math.exp(-1.0), rel=1e-12)

    def test_time_must_be_positive(self):
        with pytest.raises(ValueError):
            kernel_bounds(WeightSpec(AX, 0.0, 1), 0.0, 0.0, 0.0, (1.0, 1.0))


class TestEnvelopeFits:
    def test_fitted_constants_bracket(self, suites):
        suite = suites[WeightSpec(AX, 0.5, 1)]
        tables = [suite.table(t) for t in (0.5, 1.0, 2.0)]
        for kind in ("minbranch", "sandwich"):
            fit = fit_envelope_constants(tables, 0.99, kind=kind)
            assert fit.lower > 0.0 and fit.upper > fit.lower
            assert fit.lower_coverage >= 0.99
            assert fit.upper_coverage >= 0.99

    @pytest.fixture(scope="class")
    def oracle_cases(self, suites):
        """The desk suites plus two steep weights, each at times 0.5, 1, 2,
        and the a = 0.5 tables perturbed by 1e-9 so that the mirror entries
        (i, j) and (j, i) no longer tie."""
        extra = [WeightSpec(AX, 0.9, 3), WeightSpec(RAD, 2.5, 3)]
        all_suites = dict(suites)
        for spec in extra:
            all_suites[spec] = KernelSuite(spec, make_grid(spec, 16.0, 192, 2.0), steps=256)
        cases = {
            spec: [all_suites[spec].table(t) for t in (0.5, 1.0, 2.0)] for spec in [*DESK_SPECS, *extra]
        }
        rng = np.random.default_rng(5)
        cases["untied"] = [
            KernelTable(tb.spec, tb.grid, tb.t, tb.steps, tb.mesh,
                        tb.matrix * rng.uniform(1 - 1e-9, 1 + 1e-9, tb.matrix.shape))
            for tb in cases[WeightSpec(AX, 0.5, 1)]
        ]
        return [(label, kind, tables) for label, tables in cases.items() for kind in ("minbranch", "sandwich")]

    def test_matches_bisection_oracle(self, oracle_cases):
        # the 48-halving bisection resolves the upper constant to 7.4e-14 and
        # the lower one to 1.2e-13 relative
        for spec, kind, tables in oracle_cases:
            fit = fit_envelope_constants(tables, 0.99, kind=kind)
            _, (low, up), _ = bisect_fit(tables, 0.99, kind)
            assert fit.lower == pytest.approx(low, rel=2e-13), (spec, kind)
            assert fit.upper == pytest.approx(up, rel=2e-13), (spec, kind)

    def test_constants_are_tight_under_direct_coverage(self, oracle_cases):
        for spec, kind, tables in oracle_cases:
            fit = fit_envelope_constants(tables, 0.99, kind=kind)
            data, _, _ = bisect_fit(tables, 0.99, kind)
            assert coverage_upper(data, fit.upper * (1 + 1e-12), kind) >= 0.99, (spec, kind)
            assert coverage_upper(data, fit.upper * (1 - 1e-12), kind) < 0.99, (spec, kind)
            assert coverage_lower(data, fit.lower * (1 - 1e-12), kind) >= 0.99, (spec, kind)
            assert coverage_lower(data, fit.lower * (1 + 1e-12), kind) < 0.99, (spec, kind)

    @settings(max_examples=200, deadline=None)
    @given(
        log_z=st.floats(-300.0, 300.0),
        log_val=st.floats(-3.0, 3.0),
        log_pref=st.floats(-3.0, 3.0),
    )
    def test_thresholds_solve_lambert_w(self, log_z, log_val, log_pref):
        val, pref = 10.0**log_val, 10.0**log_pref
        k = 10.0**log_z * val / pref
        z = k * pref / val
        c = kernel._thresholds(np.array([val]), pref, np.array([k]))[0]
        assert k / c == pytest.approx(lambertw(z).real, rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        val=st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-300, 1e3)),
        k=st.one_of(st.just(0.0), st.floats(5e-324, 1e300)),
        pref=st.floats(1e-3, 1e300),
    )
    def test_thresholds_never_nan(self, val, k, pref):
        c = kernel._thresholds(np.array([val]), pref, np.array([k]))[0]
        assert c == 0.0 or (math.isfinite(c) and c > 0.0)
        if val == 0.0:
            assert c == 0.0

    def test_impossible_coverage_is_named_failure(self, suites):
        tb = suites[WeightSpec(AX, 0.0, 1)].table(1.0)
        # a hard zero in the Gaussian core defeats every positive lower bound
        broken = tb.matrix.copy()
        c = tb.size // 2
        broken[c, c] = 0.0
        broken[c, :] = broken[:, c] = 0.0
        doctored = KernelTable(tb.spec, tb.grid, tb.t, tb.steps, tb.mesh, broken)
        with pytest.raises(EnvelopeFitError):
            fit_envelope_constants([doctored], coverage_target=0.999999, kind="minbranch")


class TestVerifyKernel:
    def test_report_for_degenerate_axis(self, suites):
        spec = WeightSpec(AX, 0.5, 1)
        suite = suites[spec]
        rep = verify_kernel(spec, suite.grid, [0.5, 1.0, 2.0, 4.0], suite=suite)
        assert rep.ok
        assert max(rep.k1_errors.values()) < 1e-3
        assert max(rep.k2_errors.values()) < 2e-3
        by_label = {s.label: s for s in rep.norm_slopes}
        assert by_label["row_strong_r=inf"].relative_error < 0.05
        assert by_label["row_strong_r=2"].relative_error < 0.05
        assert by_label["row_lorentz1_r=2"].relative_error < 0.05

    def test_needs_four_geometric_times(self, suites):
        spec = WeightSpec(AX, 0.5, 1)
        with pytest.raises(ValueError):
            verify_kernel(spec, suites[spec].grid, [0.5, 1.0, 2.0], suite=suites[spec])
        with pytest.raises(ValueError):
            verify_kernel(spec, suites[spec].grid, [0.5, 1.0, 2.0, 3.0], suite=suites[spec])


def _flip_byte(data: bytes, offset: int) -> bytes:
    flipped = bytearray(data)
    flipped[offset] ^= 0x10
    return bytes(flipped)


class TestSuiteCache:
    def test_roundtrip_binary_cache(self, tmp_path):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 32, 2.0)
        s1 = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path)
        tb = s1.table(0.5)
        files = list(tmp_path.glob("kernel_*.bin"))
        assert len(files) == 1
        s2 = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path)
        tb2 = s2.table(0.5)
        assert np.array_equal(tb.matrix, tb2.matrix)
        assert np.array_equal(tb.points, tb2.points)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],  # truncated
            lambda data: data[:89],  # magic, header and grid digest only
            lambda data: b"XXXX0001" + data[8:],  # foreign magic
            lambda data: b"DHKT0001" + data[8:],  # the format before the checksum
            lambda data: b"DHKT0002" + data[8:],  # tables from banded steps
            lambda data: _flip_byte(data, len(data) // 2),  # one matrix byte
            lambda data: _flip_byte(data, len(data) - 7),  # one checksum byte
        ],
        ids=[
            "truncated",
            "header_only",
            "foreign_magic",
            "old_magic",
            "banded_magic",
            "matrix_bit",
            "checksum_bit",
        ],
    )
    def test_damaged_cache_file_is_rebuilt(self, tmp_path, damage):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 32, 2.0)
        tb = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path).table(0.5)
        (path,) = tmp_path.glob("kernel_*.bin")
        whole = path.read_bytes()
        path.write_bytes(damage(whole))
        tb2 = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path).table(0.5)
        assert np.array_equal(tb.matrix, tb2.matrix)
        assert path.read_bytes() == whole
        assert list(tmp_path.iterdir()) == [path]

    def test_cache_miss_is_logged_with_its_reason(self, tmp_path, caplog):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 32, 2.0)
        KernelSuite(spec, grid, steps=16, cache_dir=tmp_path).table(0.5)
        (path,) = tmp_path.glob("kernel_*.bin")
        data = path.read_bytes()
        path.write_bytes(_flip_byte(data, len(data) // 2))
        with caplog.at_level(logging.INFO, logger="degenheat.kernel"):
            KernelSuite(spec, grid, steps=16, cache_dir=tmp_path).table(0.5)
        (record,) = caplog.records
        assert record.levelno == logging.INFO
        assert "(checksum)" in record.getMessage()
        assert path.name in record.getMessage()

    def test_warm_suite_computes_no_spectrum(self, tmp_path, monkeypatch):
        spec = WeightSpec(RAD, 1.0, 2)
        grid = make_grid(spec, 8.0, 32, 2.0)
        cold = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path)
        built = [cold.table(t) for t in (0.25, 0.5)]

        def no_spectrum(mesh):
            raise AssertionError("a warm suite computed the spectrum")

        monkeypatch.setattr(kernel, "_spectrum", no_spectrum)
        warm = KernelSuite(spec, grid, steps=16, cache_dir=tmp_path)
        for tb in built:
            assert np.array_equal(warm.table(tb.t).matrix, tb.matrix)

    def test_suite_builds_tables_on_its_own_mesh(self, monkeypatch):
        spec = WeightSpec(RAD, 1.0, 2)
        grid = make_grid(spec, 8.0, 32, 2.0)
        calls = []
        monkeypatch.setattr(kernel, "solver_mesh", lambda g: calls.append(g) or solver_mesh(g))
        suite = KernelSuite(spec, grid, steps=16)
        tables = [suite.table(t) for t in (0.25, 0.5)]
        assert len(calls) == 1
        for tb in tables:
            assert tb.mesh is suite.mesh
            assert np.array_equal(tb.matrix, build_kernel(spec, grid, tb.t, 16).matrix)

    def test_cache_key_separates_steps(self, tmp_path):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 32, 2.0)
        KernelSuite(spec, grid, steps=16, cache_dir=tmp_path).table(0.5)
        KernelSuite(spec, grid, steps=32, cache_dir=tmp_path).table(0.5)
        assert len(list(tmp_path.glob("kernel_*.bin"))) == 2

    def test_propagation_matches_table(self):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 64, 2.0)
        suite = KernelSuite(spec, grid, steps=64)
        tb = suite.table(0.5)
        rng = np.random.default_rng(0)
        v = rng.uniform(0.0, 1.0, tb.size)
        via_table = tb.apply(v)
        via_steps = suite.propagate(v, 0.5, 64)
        assert np.max(np.abs(via_table - via_steps)) < 1e-10 * np.max(np.abs(via_steps))


def _banded_reference(mesh, values, t, steps):
    """The stepping route before factorization: one solve_banded per step."""
    dt = t / steps
    ab = np.zeros((3, mesh.size))
    ab[0, 1:] = -dt * mesh.upper[:-1]
    ab[2, :-1] = -dt * mesh.lower[1:]
    ab[1, :] = 1.0 + dt * (mesh.upper + mesh.lower)
    out = np.asarray(values, dtype=float)
    for _ in range(steps):
        out = solve_banded((1, 1), ab, out)
    return out


@st.composite
def _weights(draw):
    """Axis or radial weights, with exponents down to 1e-9 below their bound."""
    n = draw(st.integers(1, 3))
    case = draw(st.sampled_from([AX, RAD]))
    bound = 1.0 if case is AX else float(n)
    gap = draw(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, bound)))
    return WeightSpec(case, max(bound - gap, 0.0), n)


def _oracle_apply(mesh, values, t, steps):
    """``_dense_oracle`` applied to masses * values, as propagate applies it."""
    return _dense_oracle(mesh, t, steps) @ (mesh.masses * values.T).T


def _step_row_sums(mesh, dt):
    """Row sums of |I - dt A|.  The L D L^T factors of the M-matrix I + dt S
    satisfy |L| D |L^T| = |I + dt S|, so each step solves exactly with a
    matrix within a few eps of I - dt A, entry by entry: its error is at
    most a few eps times these row sums times max |v|."""
    return 1.0 + 2.0 * dt * (mesh.upper + mesh.lower)


# rounding allowance, in eps times the scales built from _step_row_sums.
# Worst ratios over 2100 draws (600 from these strategies, 1500 weighted to
# a -> bound, R = 1 and grading 4): 2.5 against the oracle and 0.77 for the
# mass.  The pivoted LU of I - dt A this route replaced reached 1.7e4 and 1.0e4
_ROUNDING_ULPS = 8.0


class TestFactoredPropagation:
    @given(
        spec=_weights(),
        radius=st.floats(1.0, 64.0),
        cells=st.integers(16, 48),
        grading=st.floats(1.0, 4.0),
        t=st.floats(1e-4, 50.0),
        steps=st.integers(1, 12),
        columns=st.sampled_from([0, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_long_double_oracle(self, spec, radius, cells, grading, t, steps, columns, seed):
        # the kernel is positive with unit row mass, so it carries each
        # step's error forward without growth; the error is spread by at
        # least one step.  On stiff meshes (R = 1, grading 4) the bound
        # reaches 1e-8 of the max, elsewhere it is near eps
        mesh = solver_mesh(make_grid(spec, radius, cells, grading))
        rng = np.random.default_rng(seed)
        shape = (mesh.size,) if columns == 0 else (mesh.size, columns)
        values = rng.uniform(0.0, 2.0, shape)
        got = propagate(mesh, values, t, steps)
        want = _oracle_apply(mesh, values, t, steps)
        assert got.shape == want.shape
        spread = _oracle_apply(mesh, _step_row_sums(mesh, t / steps), t / steps, 1)
        bound = _ROUNDING_ULPS * EPS * steps * np.max(spread) * np.max(values)
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("t, steps", [(11.56, 10), (25.5, 2)])
    def test_accurate_at_the_exponent_bound(self, t, steps):
        # a -> 1 on a short, steeply graded mesh: the pivoted LU of I - dt A
        # missed the oracle here by 7.7e-7 and 6.5e-7 of the max
        spec = WeightSpec(AX, 1.0 - 1e-9, 1)
        mesh = solver_mesh(make_grid(spec, 1.0, 48, 4.0))
        values = kernel._probe_vector(mesh.size)
        got = propagate(mesh, values, t, steps)
        want = _oracle_apply(mesh, values, t, steps)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)

    @given(
        spec=_weights(),
        radius=st.floats(1.0, 64.0),
        cells=st.integers(16, 48),
        grading=st.floats(1.0, 4.0),
        t=st.floats(1e-4, 50.0),
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_positive_and_mass_conserving(self, spec, radius, cells, grading, t, steps, seed):
        mesh = solver_mesh(make_grid(spec, radius, cells, grading))
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 2.0, (mesh.size, 2))
        values[rng.random(values.shape) < 0.3] = 0.0
        out = propagate(mesh, values, t, steps)
        # exactly: every update of the L D L^T substitutions adds terms of one sign
        assert np.all(out >= 0.0)
        # each step moves the mass by at most a few eps of masses @ |I - dt A| |v|;
        # on stiff meshes (R = 1, grading 4) that reaches 1e-8 relative
        drift = np.abs(mesh.masses @ out - mesh.masses @ values)
        scale = mesh.masses @ _step_row_sums(mesh, t / steps)
        assert np.all(drift <= _ROUNDING_ULPS * EPS * steps * scale * np.max(values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, bad):
        spec = WeightSpec(AX, 0.5, 1)
        mesh = solver_mesh(make_grid(spec, 8.0, 16, 2.0))
        values = np.ones(mesh.size)
        values[3] = bad
        with pytest.raises(ValueError):
            propagate(mesh, values, 1.0, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, bad):
        spec = WeightSpec(RAD, 1.0, 2)
        mesh = solver_mesh(make_grid(spec, 8.0, 16, 2.0))
        with pytest.raises(ValueError):
            propagate(mesh, np.ones(mesh.size), bad, 4)

    def test_negative_time_rejected(self):
        spec = WeightSpec(AX, 0.5, 1)
        mesh = solver_mesh(make_grid(spec, 8.0, 16, 2.0))
        with pytest.raises(ValueError, match="nonnegative"):
            propagate(mesh, np.ones(mesh.size), -1.0, 4)

    @pytest.mark.parametrize("t, steps", [(0.0, 4), (1.0, 0)])
    def test_no_step_returns_copy(self, t, steps):
        spec = WeightSpec(AX, 0.5, 1)
        mesh = solver_mesh(make_grid(spec, 8.0, 16, 2.0))
        values = np.linspace(0.0, 1.0, mesh.size)
        out = propagate(mesh, values, t, steps)
        assert out is not values
        assert np.array_equal(out, values)
        out[0] = 5.0
        assert values[0] == 0.0

    def test_singular_step_matrix_raises(self):
        # a generator whose first row makes I - A start with a zero pivot
        mesh = SolverMesh(
            points=np.arange(3.0),
            masses=np.ones(3),
            lower=np.zeros(3),
            upper=np.array([-1.0, 0.0, 0.0]),
            center=0,
        )
        with pytest.raises(LinAlgError):
            propagate(mesh, np.ones(3), 1.0, 1)


def _dense_oracle(mesh, t, steps):
    """M^{-1/2} (I + dt S)^{-steps} M^{-1/2}, S = M^{1/2} (-A) M^{-1/2} symmetrised.

    Dense elimination in long double: on steeply graded meshes dt * max(lam)
    reaches 1e14, and the same solves in float64 (np.linalg.solve) miss a
    long-double reference by up to 3e-8 of the max.  S is positive
    semidefinite, so I + dt S needs no pivoting.
    """
    ld = np.longdouble
    upper, lower, masses = (np.asarray(x, dtype=ld) for x in (mesh.upper, mesh.lower, mesh.masses))
    n = masses.size
    root = np.sqrt(masses)
    minus_a = np.diag(upper + lower) - np.diag(upper[:-1], 1) - np.diag(lower[1:], -1)
    s = root[:, None] * minus_a / root[None, :]
    lu = np.eye(n, dtype=ld) + ld(t) / steps * (s + s.T) / 2
    for k in range(n - 1):
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    x = np.eye(n, dtype=ld)
    for _ in range(steps):
        for k in range(1, n):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
    return (x / root[:, None] / root[None, :]).astype(float)


class TestSpectralTables:
    @given(
        spec=_weights(),
        radius=st.floats(1.0, 64.0),
        cells=st.integers(16, 48),
        grading=st.floats(1.0, 4.0),
        t=st.floats(1e-4, 50.0),
        steps=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, spec, radius, cells, grading, t, steps):
        # the spectral product itself, not a suite's table: near a -> 1 on
        # steeply graded meshes the table's absolute positivity check sees
        # roundoff of a max near 1e12
        mesh = solver_mesh(make_grid(spec, radius, cells, grading))
        got = kernel._table_matrix(*kernel._spectrum(mesh), t, steps)
        want = _dense_oracle(mesh, t, steps)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(want)

    def test_agrees_with_banded_route_on_desk_meshes(self, tmp_path):
        # the meshes of acceptance test c02 and of the kernel-verify benchmark
        for spec in DESK_SPECS:
            grid = make_grid(spec, 16.0, 256, 2.0)
            built = KernelSuite(spec, grid, steps=256, cache_dir=tmp_path).table(0.25)
            want = _banded_reference(built.mesh, np.diag(1.0 / built.masses), 0.25, 256)
            assert np.max(np.abs(built.matrix - want)) <= 1e-10 * np.max(want), spec
            loaded = KernelSuite(spec, grid, steps=256, cache_dir=tmp_path).table(0.25)
            assert np.array_equal(loaded.matrix, built.matrix)
            assert built.matrix.flags.f_contiguous and loaded.matrix.flags.f_contiguous

    def test_perturbed_spectrum_fails_probe_check(self, monkeypatch):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 8.0, 32, 2.0)
        exact = kernel._spectrum

        def perturbed(mesh):
            lam, w = exact(mesh)
            return lam * (1.0 + 1e-4), w

        monkeypatch.setattr(kernel, "_spectrum", perturbed)
        with pytest.raises(KernelInvariantError, match=r"t=0\.5 .* by \d"):
            KernelSuite(spec, grid, steps=16).table(0.5)
