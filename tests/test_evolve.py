import math
from dataclasses import replace

import numpy as np
import pytest

from degenheat.constants import FittedConstants
from degenheat.evolve import (
    EvolveConfig,
    Outcome,
    SmallnessError,
    last_quarter_slope,
    master_times,
    picard_iterate,
    solve_global_small,
    solve_local,
    split_step_reference,
    stability_check,
)
from degenheat.kernel import KernelSuite
from degenheat.profiles import bump, corollary_profile
from degenheat.semigroup import fit_smoothing_constants
from degenheat.weights import WeightCase, WeightSpec, make_grid
from picard_oracle import global_picard

AX = WeightCase.AXIS_POWER


@pytest.fixture(scope="module")
def suite():
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 32.0, 384, 2.0), steps=256)


@pytest.fixture(scope="module")
def wide_suite():
    # global runs need room: the conserved-mass floor scales like 1/R
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 7168.0, 768, 3.0), steps=256)


@pytest.fixture(scope="module")
def constants(suite):
    rec = fit_smoothing_constants(
        suite,
        [suite.grid.function(bump(0.0, 1.0, 1.0))],
        [0.5, 2.0, 8.0],
        r_star=1.5,
        constants=FittedConstants(),
    )
    return rec


class TestConfigInvariants:
    def test_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            EvolveConfig(p=1.0)

    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            EvolveConfig(p=2.0, picard_tol=0.0)
        with pytest.raises(ValueError):
            EvolveConfig(p=2.0, blowup_threshold=-1.0)
        with pytest.raises(ValueError):
            EvolveConfig(p=2.0, horizon=0.0)

    @pytest.mark.parametrize("name", ["duhamel_steps", "max_picard", "substeps"])
    def test_step_counts_positive_each_named(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got 0$"):
            EvolveConfig(p=2.0, **{name: 0})


class TestMasterTimes:
    def test_ladder_times_on_grid(self):
        cfg = EvolveConfig(p=2.0, horizon=256.0)
        masters = master_times(cfg)
        for k in range(11):
            t = 0.25 * 2.0**k
            assert np.min(np.abs(masters - t)) < 1e-12 * t

    def test_resolution_scales_with_horizon(self):
        short = EvolveConfig(p=2.0, horizon=256.0)
        long = EvolveConfig(p=2.0, horizon=65536.0)
        assert master_times(short)[1] == pytest.approx(master_times(long)[1], rel=1e-9)


class TestPicard:
    def test_zero_data_trivial(self, suite):
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        run = picard_iterate(suite.grid.constant(0.0), cfg, suite)
        assert run.outcome is Outcome.CONVERGED
        assert run.n_sweeps == 1
        assert run.sup.max() == 0.0

    def test_negative_data_rejected(self, suite):
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        with pytest.raises(ValueError):
            picard_iterate(suite.grid.constant(-1.0), cfg, suite)

    @pytest.mark.parametrize("height", [1e200, 1e308])
    def test_overflowing_data_is_a_floating_point_error(self, suite, height):
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        with pytest.raises(FloatingPointError, match="sup u0 = .* p = 2"):
            picard_iterate(suite.grid.function(bump(0.0, 1.0, height)), cfg, suite)

    def test_monotone_iterates_and_contraction(self, suite):
        u0 = suite.grid.function(bump(0.0, 0.8, 0.01))
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        run = picard_iterate(u0, cfg, suite)
        assert run.outcome is Outcome.CONVERGED
        assert np.min(run.fields - run.linear) >= -cfg.picard_tol
        assert len(run.iterations) == run.masters.size - 1
        # local contraction constant of the pointwise iteration, (d_m/2) p u^(p-1)
        half = 0.5 * np.diff(run.masters)
        contraction = half * cfg.p * np.max(run.fields[1:], axis=1) ** (cfg.p - 1.0)
        assert np.max(contraction) <= 0.5
        sweeps = global_picard(u0, cfg, suite)
        assert sweeps.converged and min(sweeps.min_increments) >= -cfg.picard_tol
        assert np.max(np.abs(run.fields - sweeps.fields)) < 1e-7

    def test_duhamel_lower_bound(self, suite):
        u0 = suite.grid.function(bump(0.0, 0.8, 0.05))
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        run = picard_iterate(u0, cfg, suite)
        assert np.min(run.fields - run.linear) >= -cfg.picard_tol

    def test_comparison_in_initial_data(self, suite):
        cfg = EvolveConfig(p=2.0, horizon=1.0)
        small = picard_iterate(suite.grid.function(bump(0.0, 0.8, 0.02)), cfg, suite)
        large = picard_iterate(suite.grid.function(bump(0.0, 0.8, 0.04)), cfg, suite)
        assert np.min(large.fields - small.fields) >= -cfg.picard_tol

    def test_blowup_threshold_outcome(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 2.0))
        cfg = EvolveConfig(p=3.0, horizon=64.0, blowup_threshold=100.0)
        run = picard_iterate(u0, cfg, suite)
        assert run.outcome is Outcome.THRESHOLD_EXCEEDED
        assert run.escape_time is not None and run.escape_time > 0.0
        # the run holds the masters solved before the escape master, no more
        m = run.masters.size
        assert run.escape_time == master_times(cfg)[m]
        assert len(run.iterations) == m
        assert run.fields.shape == (m, suite.mesh.size)
        assert np.all(run.times < run.escape_time)
        assert np.max(run.fields) <= cfg.blowup_threshold

    def test_trajectory_records(self, suite):
        u0 = suite.grid.function(bump(0.0, 0.8, 0.05))
        cfg = EvolveConfig(p=2.0, horizon=4.0, record_q=(1.5, 3.0))
        run = picard_iterate(u0, cfg, suite)
        assert np.all(np.diff(run.times) > 0.0)
        for q in (1.5, 3.0):
            assert np.all(run.norm(q, "strong") >= 0.0)
            assert run.norm(q, "strong").shape == run.times.shape

    def test_run_computes_no_norm(self, suite, monkeypatch):
        # a run records its fields only; a norm is computed when it is read
        def refuse(*args, **kwargs):
            raise AssertionError("picard_iterate computed a norm")

        monkeypatch.setattr("degenheat.evolve.lorentz_norm", refuse)
        monkeypatch.setattr("degenheat.evolve.weighted_lp_norm", refuse)
        u0 = suite.grid.function(bump(0.0, 0.8, 0.05))
        run = picard_iterate(u0, EvolveConfig(p=2.0, horizon=4.0, record_q=(1.5, 3.0)), suite)
        assert run.outcome is Outcome.CONVERGED

    def test_records_derive_from_the_masters(self, suite):
        u0 = suite.grid.function(bump(0.0, 0.8, 0.05))
        run = picard_iterate(u0, EvolveConfig(p=2.0, horizon=4.0), suite)
        assert run.masters[0] == 0.0 and np.array_equal(run.times, run.masters[1:])
        assert np.array_equal(run.sup, np.max(np.abs(run.fields[1:]), axis=1))
        with pytest.raises(ValueError, match="norm kind"):
            run.norm(2.0, "sup")

    def test_iteration_budget_outcome(self, suite):
        # slowly converging nonlinearity with a one-sweep budget
        u0 = suite.grid.function(bump(0.0, 1.0, 0.5))
        cfg = EvolveConfig(p=2.0, horizon=4.0, max_picard=1)
        run = picard_iterate(u0, cfg, suite)
        assert run.outcome is Outcome.ITERATION_BUDGET_EXHAUSTED
        assert run.n_sweeps == 1
        assert run.escape_time is None
        # stopped at the first master: only t = 0 is solved
        assert run.iterations == (1,)
        assert run.masters.tolist() == [0.0] and run.times.size == 0


class TestOracle:
    def test_picard_matches_split_step_on_random_small_data(self, suite):
        # five randomized small-data cases against the independent
        # split-step integrator; sup gap within 2e-3 on the local window
        rng = np.random.default_rng(42)
        cfg = EvolveConfig(p=2.0, horizon=0.5)
        times = [0.125, 0.25, 0.5]
        for _ in range(5):
            center = float(rng.uniform(0.0, 1.5))
            width = float(rng.uniform(0.5, 1.5))
            height = float(rng.uniform(0.02, 0.2))
            u0 = suite.grid.function(bump(center, width, height))
            run = picard_iterate(u0, cfg, suite)
            assert run.outcome is Outcome.CONVERGED
            oracle = split_step_reference(u0, 2.0, times, suite, dt=1.0 / 2048)
            for t in times:
                i = int(np.argmin(np.abs(run.masters - t)))
                assert abs(run.masters[i] - t) < 1e-9
                gap = np.max(np.abs(suite.restrict(run.fields[i]) - oracle[t]))
                assert gap < 2e-3

    @pytest.mark.parametrize(
        "height,p,threshold,escape",
        [(2.0, 3.0, 100.0, 3.36), (0.75, 1.8, None, 19.03)],
    )
    def test_escape_matches_global_sweeps(self, suite, height, p, threshold, escape):
        # the escape is the first master where the converged sweep iterate
        # crosses the threshold; fields agree on every solved master
        # (3.4e-5 measured at p = 3, 6.0e-6 at p = 1.8, largest just before escape)
        u0 = suite.grid.function(bump(0.0, 1.0, height))
        cfg = EvolveConfig(p=p, horizon=64.0, blowup_threshold=threshold)
        run = picard_iterate(u0, cfg, suite)
        sweeps = global_picard(u0, replace(cfg, max_picard=200), suite)
        assert sweeps.converged
        assert run.outcome is Outcome.THRESHOLD_EXCEEDED
        assert run.escape_time == sweeps.escape_time == pytest.approx(escape, abs=0.005)
        gap = np.max(np.abs(run.fields - sweeps.fields[: run.masters.size]))
        assert gap < 1e-4


class TestSolveLocal:
    def test_zero_data(self, suite, constants):
        run = solve_local(suite.grid.constant(0.0), 2.0, suite, EvolveConfig(p=2.0), constants)
        assert run.outcome is Outcome.CONVERGED

    def test_sup_bound_on_local_window(self, suite, constants):
        u0 = suite.grid.function(bump(0.0, 1.0, 1.0))
        run = solve_local(u0, 2.0, suite, EvolveConfig(p=2.0), constants)
        bound = 2.0 * constants.local_bound_coef * u0.sup()
        assert run.sup.max() <= bound * (1.0 + 1e-6)

    def test_horizon_shrinks_with_data_size(self, suite, constants):
        t_small = solve_local(
            suite.grid.function(bump(0.0, 1.0, 0.5)), 2.0, suite, EvolveConfig(p=2.0), constants
        ).masters[-1]
        t_large = solve_local(
            suite.grid.function(bump(0.0, 1.0, 2.0)), 2.0, suite, EvolveConfig(p=2.0), constants
        ).masters[-1]
        assert t_large < t_small


class TestGlobalSmall:
    def test_weak_route_accepts_small_profile(self, wide_suite):
        p = 3.0
        fn = corollary_profile(0.05, p)
        u0 = wide_suite.grid.function(fn)
        cfg = EvolveConfig(p=p, horizon=65536.0, smallness_delta=1.0)
        run = solve_global_small(u0, p, 1.5, wide_suite, cfg, u0_fn=fn)
        assert run.run.outcome is Outcome.CONVERGED
        assert run.accepted
        assert run.decay_slope == pytest.approx(-0.5, abs=0.05)
        for slope in run.functional_slopes.values():
            assert abs(slope) <= 0.05

    def test_zero_data_global_with_flat_functionals(self, suite):
        cfg = EvolveConfig(p=3.0, horizon=16.0, smallness_delta=0.5)
        run = solve_global_small(suite.grid.constant(0.0), 3.0, 1.5, suite, cfg)
        assert run.accepted
        assert all(s == 0.0 for s in run.functional_slopes.values())
        assert all(np.all(v == 0.0) for v in run.functionals.values())

    def test_smallness_refusal_carries_norms(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 5.0))
        cfg = EvolveConfig(p=3.0, smallness_delta=0.01)
        with pytest.raises(SmallnessError) as err:
            solve_global_small(u0, 3.0, 1.5, suite, cfg)
        assert "weak_rstar" in err.value.measured

    def test_strong_route_balances_norms(self, wide_suite):
        # r = 1 < r*: data are rescaled until the L^1(w) and sup norms agree
        p = 3.0
        fn = bump(0.0, 1.0, 0.05)
        u0 = wide_suite.grid.function(fn)
        cfg = EvolveConfig(p=p, horizon=4096.0, smallness_delta=1.0)
        run = solve_global_small(u0, p, 1.0, wide_suite, cfg, u0_fn=fn)
        lam = run.rescale_lambda
        grid = wide_suite.grid
        beta = (1.0 + 0.5) / 1.5
        scaled = grid.function(lam**beta * np.asarray(fn(lam * grid.nodes)))
        from degenheat.lorentz import weighted_lp_norm

        assert weighted_lp_norm(scaled, 1.0) == pytest.approx(scaled.sup(), rel=2e-6)
        assert run.accepted

    def test_route_index_validation(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 0.01))
        with pytest.raises(ValueError):
            solve_global_small(u0, 3.0, 0.5, suite, EvolveConfig(p=3.0))
        with pytest.raises(ValueError):
            # p below the threshold exponent has no global route
            solve_global_small(u0, 2.0, 1.0, suite, EvolveConfig(p=2.0))


class TestStability:
    def test_identical_data_ratio_zero(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 0.5))
        assert stability_check(u0, u0, 2.0, 0.5, suite, EvolveConfig(p=2.0)) == 0.0

    def test_ratio_stable_under_halving(self, suite):
        u1 = suite.grid.function(bump(0.0, 1.0, 0.5))
        ratios = []
        for eps in (1e-3, 5e-4):
            u2 = suite.grid.function(u1.values + eps)
            ratios.append(stability_check(u1, u2, 2.0, 1.0, suite, EvolveConfig(p=2.0)))
        assert all(math.isfinite(r) and r > 0.0 for r in ratios)
        assert abs(ratios[0] - ratios[1]) <= 0.2 * ratios[0]

    def test_ratio_grows_with_horizon(self, suite):
        u1 = suite.grid.function(bump(0.0, 1.0, 0.5))
        u2 = suite.grid.function(u1.values + 1e-3)
        short = stability_check(u1, u2, 2.0, 0.1, suite, EvolveConfig(p=2.0))
        long = stability_check(u1, u2, 2.0, 1.0, suite, EvolveConfig(p=2.0))
        assert short <= long * (1.0 + 1e-9)


class TestLastQuarterSlope:
    def test_pure_power_recovered(self):
        ts = np.geomspace(1.0, 256.0, 40)
        vals = 3.0 * ts**-0.5
        assert last_quarter_slope(ts, vals) == pytest.approx(-0.5, abs=1e-9)

    def test_short_series_is_nan(self):
        assert math.isnan(last_quarter_slope(np.array([1.0, 2.0]), np.array([1.0, 1.0])))
