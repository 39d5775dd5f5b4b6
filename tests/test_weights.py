import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from degenheat.weights import (
    GridError,
    WeightCase,
    WeightSpec,
    _ball_masses,
    ball_mass,
    ball_mass_bounds,
    fit_ball_constants,
    make_grid,
    unit_ball_volume,
    weight_at,
)

AX, RAD = WeightCase.AXIS_POWER, WeightCase.RADIAL_POWER


class TestWeightSpec:
    def test_axis_exponent_range(self):
        WeightSpec(AX, 0.0, 1)
        WeightSpec(AX, 0.99, 3)
        with pytest.raises(ValueError):
            WeightSpec(AX, 1.0, 1)
        with pytest.raises(ValueError):
            WeightSpec(AX, -0.1, 1)

    def test_radial_exponent_range(self):
        WeightSpec(RAD, 1.0, 2)
        with pytest.raises(ValueError):
            WeightSpec(RAD, 2.0, 2)


class TestWeightAt:
    def test_axis_square_root(self):
        assert weight_at(WeightSpec(AX, 0.5, 2), (4.0, 0.0)) == pytest.approx(2.0)

    def test_zero_exponent_is_unweighted(self):
        assert weight_at(WeightSpec(AX, 0.0, 3), (7.0, -1.0, 2.0)) == 1.0

    def test_radial_norm(self):
        assert weight_at(WeightSpec(RAD, 1.0, 2), (0.0, 3.0)) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weight_at(WeightSpec(AX, 0.5, 2), (1.0,))


class TestBallMass:
    def test_axis_centered_half_power(self):
        # integral of |x|^(1/2) over [-1, 1]
        spec = WeightSpec(AX, 0.5, 1)
        assert ball_mass(spec, 0.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_radial_centered_two_d(self):
        spec = WeightSpec(RAD, 1.0, 2)
        assert ball_mass(spec, 0.0, 1.0) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

    def test_unweighted_is_lebesgue(self):
        spec = WeightSpec(AX, 0.0, 1)
        assert ball_mass(spec, 3.7, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_axis_offcenter_matches_quadrature(self):
        spec = WeightSpec(AX, 0.5, 1)
        got = ball_mass(spec, 0.3, 1.0)
        ref, _ = integrate.quad(lambda y: abs(y) ** 0.5, -0.7, 1.3, points=[0.0])
        assert got == pytest.approx(ref, rel=1e-10)

    def test_axis_two_d_matches_double_quadrature(self):
        spec = WeightSpec(AX, 0.5, 2)
        c, r = 0.4, 1.0
        got = ball_mass(spec, (c, 5.0), r)
        ref, _ = integrate.dblquad(
            lambda y2, y1: abs(y1) ** 0.5,
            c - r, c + r,
            lambda y1: -math.sqrt(max(r**2 - (y1 - c) ** 2, 0.0)),
            lambda y1: math.sqrt(max(r**2 - (y1 - c) ** 2, 0.0)),
        )
        assert got == pytest.approx(ref, rel=1e-6)

    def test_radial_offcenter_matches_double_quadrature(self):
        spec = WeightSpec(RAD, 1.0, 2)
        rho, r = 1.5, 0.8
        got = ball_mass(spec, (rho, 0.0), r)
        ref, _ = integrate.dblquad(
            lambda y2, y1: math.hypot(y1, y2),
            rho - r, rho + r,
            lambda y1: -math.sqrt(max(r**2 - (y1 - rho) ** 2, 0.0)),
            lambda y1: math.sqrt(max(r**2 - (y1 - rho) ** 2, 0.0)),
        )
        assert got == pytest.approx(ref, rel=1e-6)

    def test_axis_translation_in_transverse_coordinates(self):
        spec = WeightSpec(AX, 0.5, 2)
        a = ball_mass(spec, (0.4, 0.0), 1.0)
        b = ball_mass(spec, (0.4, 17.3), 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    @given(
        lam=st.floats(0.1, 10.0),
        r=st.floats(0.05, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scaling_law_at_origin(self, lam, r):
        spec = WeightSpec(RAD, 1.0, 2)
        big = ball_mass(spec, 0.0, lam * r)
        small = ball_mass(spec, 0.0, r)
        assert big == pytest.approx(lam**spec.mass_exponent * small, rel=1e-10)

    def test_strictly_increasing_in_radius(self):
        spec = WeightSpec(AX, 0.5, 1)
        radii = np.linspace(0.1, 4.0, 30)
        masses = [ball_mass(spec, 0.7, float(r)) for r in radii]
        assert np.all(np.diff(masses) > 0.0)


def _mp_radial_mass(n: int, b: float, c: float, r: float):
    """30-digit radial ball mass by tanh-sinh quadrature over the shell radius s.

    The cap fraction of S^{n-1} is arccos(cos)/pi for n = 2 and (1 - cos)/2
    for n = 3; the sphere is whole inside s < r - c.
    """
    with mp.workdps(30):
        c, r, b = mp.mpf(c), mp.mpf(r), mp.mpf(b)
        k = n - 1 + b
        frac = {2: lambda cv: mp.acos(cv) / mp.pi, 3: lambda cv: (1 - cv) / 2}[n]

        def shell(s):
            cv = (s * s + c * c - r * r) / (2 * s * c)
            return s**k * frac(max(-1, min(1, cv)))

        inner = max(r - c, 0) ** (k + 1) / (k + 1)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return area * (inner + mp.quad(shell, [abs(c - r), c + r]))


def _mp_axis_mass(n: int, a: float, c: float, r: float):
    """30-digit axis ball mass: |y|^a against the (n-1)-ball slab, split at 0."""
    with mp.workdps(30):
        c, r, a = mp.mpf(c), mp.mpf(r), mp.mpf(a)
        omega = mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2 + 1)

        def slab(y):
            return abs(y) ** a * omega * (r * r - (y - c) ** 2) ** (mp.mpf(n - 1) / 2)

        pts = [c - r] + ([mp.mpf(0)] if c - r < 0 < c + r else []) + [c + r]
        return mp.quad(slab, pts)


ORACLE_RADIUS = 1.3
NEAR_ONE = (1.0 - 1e-6, 1.0, 1.0 + 1e-6)


def _spec_id(spec: WeightSpec) -> str:
    return f"{spec.case.value}-{spec.exponent:g}-n{spec.dimension}"


class TestBallMassGaussRules:
    @pytest.mark.parametrize(
        "n,b", [(n, b) for n in (2, 3) for b in (0.0, 0.5, 1.0, n - 0.001)]
    )
    def test_radial_matches_mpmath(self, n, b):
        spec = WeightSpec(RAD, b, n)
        for ratio in (1e-6, 0.3, *NEAR_ONE, 2.0, 10.0):
            c = ratio * ORACLE_RADIUS
            ref = _mp_radial_mass(n, b, c, ORACLE_RADIUS)
            got = ball_mass(spec, c, ORACLE_RADIUS)
            assert abs(got - ref) <= 1e-12 * ref, (ratio, got, ref)

    @pytest.mark.parametrize(
        "n,a", [(n, a) for n in (2, 3, 4) for a in (0.0, 1e-9, 0.5, 0.999)]
    )
    def test_axis_matches_mpmath(self, n, a):
        spec = WeightSpec(AX, a, n)
        for ratio in (0.0, 1e-6, 0.3, *NEAR_ONE, 2.0, 10.0):
            c = ratio * ORACLE_RADIUS
            ref = _mp_axis_mass(n, a, c, ORACLE_RADIUS)
            got = ball_mass(spec, c, ORACLE_RADIUS)
            assert abs(got - ref) <= 1e-12 * ref, (ratio, got, ref)

    @given(
        case=st.sampled_from([AX, RAD]),
        a=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
        log_gap=st.floats(-15.0, 300.0),
        log_r=st.floats(-300.0, 0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_n1_interval_mass_matches_mpmath(self, case, a, log_gap, log_r):
        # c/r = 1 + 10^log_gap runs from 1 + 1e-15 to 1e300; c + r is exact
        # in mpmath only with more than log10(c/r) + 17 digits
        r = 10.0**log_r
        c = (1.0 + 10.0**log_gap) * r
        with mp.workdps(360):
            q = mp.mpf(a) + 1
            ref = float(((mp.mpf(c) + mp.mpf(r)) ** q - (mp.mpf(c) - mp.mpf(r)) ** q) / q)
        assume(sys.float_info.min <= ref < math.inf)
        got = float(_ball_masses(WeightSpec(case, a, 1), c, r))
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0), (c, r, got, ref)

    @given(
        case=st.sampled_from([AX, RAD]),
        n=st.integers(1, 4),
        r=st.floats(1e-3, 1e3),
        c_over_r=st.one_of(st.just(0.0), st.floats(1e-9, 1e6), st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_unweighted_is_ball_volume_for_any_center(self, case, n, r, c_over_r):
        got = ball_mass(WeightSpec(case, 0.0, n), c_over_r * r, r)
        assert got == pytest.approx(unit_ball_volume(n) * r**n, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [WeightSpec(AX, 0.5, 2), WeightSpec(AX, 0.999, 4), WeightSpec(RAD, 1.0, 2), WeightSpec(RAD, 2.5, 3)],
        ids=_spec_id,
    )
    def test_center_to_zero_meets_closed_form(self, spec):
        r = 0.7
        at_zero = ball_mass(spec, 0.0, r)
        for c in (5e-324, 1e-300, 1e-15, 1e-12, 1e-10):
            assert ball_mass(spec, c, r) == pytest.approx(at_zero, rel=1e-12), c

    @pytest.mark.parametrize(
        "spec",
        [WeightSpec(AX, 0.5, 1), WeightSpec(AX, 0.5, 3), WeightSpec(RAD, 0.5, 1), WeightSpec(RAD, 1.0, 2)],
        ids=_spec_id,
    )
    def test_array_path_matches_scalar_wrapper_bit_for_bit(self, spec):
        rng = np.random.default_rng(11)
        centers = rng.uniform(0.0, 6.0, 300)
        centers[:30] = 0.0
        radii = rng.uniform(0.05, 4.0, 300)
        batch = _ball_masses(spec, centers, radii)
        single = [ball_mass(spec, float(c), float(r)) for c, r in zip(centers, radii)]
        assert np.array_equal(batch, single)
        # centers broadcast against radii
        grid = _ball_masses(spec, centers[:5, None], radii[None, :7])
        assert grid.shape == (5, 7)
        assert grid[2, 3] == ball_mass(spec, float(centers[2]), float(radii[3]))

    @pytest.mark.parametrize(
        "center,r",
        [
            (1.0, math.inf),
            (1.0, math.nan),
            (math.inf, 1.0),
            (-math.inf, 1.0),
            (math.nan, 1.0),
            ((0.3, math.inf), 1.0),
            (1.0, 0.0),
            (1.0, -1.0),
        ],
    )
    @pytest.mark.parametrize("fn", [ball_mass, ball_mass_bounds], ids=lambda f: f.__name__)
    def test_non_finite_or_nonpositive_input_rejected(self, fn, center, r):
        with pytest.raises(ValueError, match="ball (center|radius)"):
            fn(WeightSpec(RAD, 1.0, 2), center, r)

    def test_importing_the_package_leaves_scipy_integrate_out(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, degenheat; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestBallMassBounds:
    def test_axis_at_origin_branches_coincide(self):
        spec = WeightSpec(AX, 0.5, 1)
        env = ball_mass_bounds(spec, 0.0, 2.0)
        assert env.lower == pytest.approx(2.0**1.5)
        assert env.upper == pytest.approx(2.0**1.5)
        assert env.branch == "r >= |x1|"

    def test_radial_far_center_branch(self):
        spec = WeightSpec(RAD, 1.0, 2)
        env = ball_mass_bounds(spec, 5.0, 1.0)
        assert env.upper == pytest.approx(5.0)
        assert env.branch == "r <= |x|"

    @pytest.mark.parametrize("spec", [WeightSpec(AX, 0.5, 1), WeightSpec(RAD, 1.0, 2)])
    def test_fitted_envelope_brackets_sample(self, spec):
        rng = np.random.default_rng(7)
        fit = fit_ball_constants(spec, n_samples=100, rng=rng)
        check = np.random.default_rng(7)
        for _ in range(100):
            c = float(4.0 * abs(check.standard_normal()))
            r = float(math.exp(check.uniform(math.log(0.05), math.log(8.0))))
            env = ball_mass_bounds(spec, c, r, constants=(fit.lower_coef, fit.upper_coef))
            mass = ball_mass(spec, c, r)
            assert env.lower <= mass * (1.0 + 1e-12)
            assert mass <= env.upper * (1.0 + 1e-12)


class TestGrid:
    def test_uniform_grading_nodes(self):
        spec = WeightSpec(AX, 0.0, 1)
        grid = make_grid(spec, 1.0, 16, grading=1.0)
        assert np.allclose(grid.nodes[:5], [0.0, 1 / 16, 2 / 16, 3 / 16, 4 / 16])

    def test_axis_mass_telescopes(self):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 1.0, 64, grading=2.0)
        assert np.sum(grid.cell_mass) == pytest.approx(2.0 / 3.0, rel=1e-12)
        # physical measure doubles by even extension
        assert grid.total_measure == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_radial_mass_matches_ball(self):
        spec = WeightSpec(RAD, 1.0, 2)
        grid = make_grid(spec, 1.0, 48)
        assert np.sum(grid.cell_mass) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

    def test_grading_concentrates_near_zero(self):
        spec = WeightSpec(AX, 0.5, 1)
        grid = make_grid(spec, 1.0, 32, grading=2.0)
        widths = np.diff(grid.nodes)
        assert widths[0] < widths[-1] / 10.0

    def test_small_cell_count_rejected(self):
        with pytest.raises(ValueError):
            make_grid(WeightSpec(AX, 0.0, 1), 1.0, 8)

    @pytest.mark.parametrize(
        "radius, cells, grading, param",
        [
            (0.0, 16, 2.0, "radius"),
            (1.0, 8, 2.0, "cells"),
            (1.0, 16, 0.5, "grading"),
            (1.0, 16, 1e308, "grading"),  # every unit node but the last underflows to 0
            (1e-300, 16, 2.0, "radius"),  # cell masses underflow to 0
        ],
    )
    def test_unbuildable_grid_names_its_parameter(self, radius, cells, grading, param):
        with pytest.raises(GridError) as info:
            make_grid(WeightSpec(AX, 0.5, 1), radius, cells, grading)
        assert info.value.param == param

    def test_grid_function_requires_finite(self):
        grid = make_grid(WeightSpec(AX, 0.0, 1), 1.0, 16)
        with pytest.raises(ValueError):
            grid.function(np.full(grid.n_nodes, np.inf))
