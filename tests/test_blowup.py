import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenheat import blowup
from degenheat.blowup import (
    CellOutcome,
    DichotomyReport,
    ak_value,
    classify,
    critical_log_growth,
    critical_parameters,
    dichotomy_csv_lines,
    dichotomy_svg,
    kaplan_bound_series,
    kaplan_cstar_log_bound,
    log_ak,
    run_cell,
    subcritical_escape,
)
from degenheat.evolve import EvolveConfig
from degenheat.kernel import KernelSuite
from degenheat.profiles import bump, indicator
from degenheat.weights import WeightCase, WeightSpec, make_grid

AX = WeightCase.AXIS_POWER


@pytest.fixture(scope="module")
def suite():
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 112.0, 512, 2.0), steps=256)


class TestCriticalParameters:
    def test_unweighted_one_d_threshold(self):
        assert critical_parameters(1, 0.0, 2.0).p_star == pytest.approx(3.0)

    def test_direct_arithmetic(self):
        params = critical_parameters(1, 0.5, 2.5)
        assert params.p_star == pytest.approx(7.0 / 3.0)
        assert params.r_star == pytest.approx(1.125)

    def test_threshold_exponent_maps_to_unit_route(self):
        p_star = critical_parameters(1, 0.5, 2.0).p_star
        assert critical_parameters(1, 0.5, p_star).r_star == pytest.approx(1.0, abs=1e-15)

    @given(n=st.integers(1, 4), alpha=st.floats(0.0, 0.9), p=st.floats(1.01, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_route_crosses_one_exactly_at_threshold(self, n, alpha, p):
        params = critical_parameters(n, alpha, p)
        # roundoff can split the two comparisons right at the threshold
        assume(abs(p - params.p_star) > 1e-9)
        assert (p > params.p_star) == (params.r_star > 1.0)


class TestIterationProduct:
    def test_two_step_coefficient(self):
        assert ak_value(2.0, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_three_step_coefficient(self):
        assert ak_value(2.0, 3) == pytest.approx(1.0 / 63.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_log_space_matches_direct_product(self, p):
        for k in range(2, 6):
            direct = 1.0
            for j in range(1, k):
                direct *= ((p - 1.0) / (p ** (j + 1) - 1.0)) ** (p ** (k - j - 1))
            assert log_ak(p, k) == pytest.approx(math.log(direct), rel=1e-12)

    def test_deep_coefficients_stay_finite_in_log_space(self):
        val = log_ak(2.0, 30)
        assert math.isfinite(val) and val < -1e8

    def test_cap_log_bound_closed_form_at_two(self):
        # sum_{j>=2} j 2^-j = 3/2 exactly
        want = (1.0 + math.log(2.0)) * 1.5
        assert kaplan_cstar_log_bound(2.0) == pytest.approx(want, abs=1e-12)

    def test_truncations_monotone_below_bound(self):
        full = kaplan_cstar_log_bound(2.0, terms=60)
        prev = 0.0
        for terms in (2, 4, 8, 16, 32):
            part = (1.0 + math.log(2.0)) * sum(j * 2.0**-j for j in range(2, terms + 1))
            assert part >= prev
            assert part <= full
            prev = part

    def test_needs_p_above_one(self):
        with pytest.raises(ValueError):
            log_ak(1.0, 3)
        with pytest.raises(ValueError):
            kaplan_cstar_log_bound(0.9)


class TestKaplanSeries:
    def test_zero_data_rejected(self, suite):
        with pytest.raises(ValueError):
            kaplan_bound_series(suite.grid.constant(0.0), 2.0, [1.0, 2.0], suite)

    def test_small_data_stay_below_cap(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 0.5))
        rep = kaplan_bound_series(u0, 2.0, [0.5, 1.0, 2.0, 4.0], suite)
        assert rep.below_cap
        assert rep.crossing_time is None
        assert rep.cstar_cap == pytest.approx(math.exp((1 + math.log(2.0)) * 1.5), rel=1e-12)

    def test_large_data_cross_cap(self, suite):
        u0 = suite.grid.function(indicator(1.0)).scaled(40.0)
        times = [0.25 * 2.0**k for k in range(9)]
        rep = kaplan_bound_series(u0, 2.0, times, suite)
        assert not rep.below_cap
        assert rep.crossing_time is not None and rep.crossing_time <= 16.0


class TestSubcriticalEscape:
    def test_exponent_margin_sign(self, suite):
        ev = subcritical_escape(
            suite.grid.function(indicator(1.0)).scaled(40.0), 2.0, suite.spec, suite
        )
        assert ev.exponent_margin == pytest.approx(1.0 - 0.75)
        assert ev.core_coef > 0.0

    def test_big_indicator_crosses_at_finite_time(self, suite):
        ev = subcritical_escape(
            suite.grid.function(indicator(1.0)).scaled(40.0), 2.0, suite.spec, suite
        )
        assert ev.certified
        assert ev.crossing_time > 0.0

    def test_wrong_regime_rejected(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            subcritical_escape(u0, 3.0, suite.spec, suite)


class TestCriticalLogGrowth:
    P_STAR = 7.0 / 3.0

    def test_positive_slope_for_moderate_bump(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 0.75))
        cfg = EvolveConfig(p=self.P_STAR, horizon=256.0)
        fit = critical_log_growth(u0, suite, cfg)
        assert fit.conclusive
        assert fit.slope > 0.0

    def test_doubling_data_raises_slope(self, suite):
        cfg = EvolveConfig(p=self.P_STAR, horizon=256.0)
        s1 = critical_log_growth(suite.grid.function(bump(0.0, 1.0, 0.375)), suite, cfg)
        s2 = critical_log_growth(suite.grid.function(bump(0.0, 1.0, 0.75)), suite, cfg)
        assert s1.conclusive and s2.conclusive
        assert s2.slope > s1.slope

    def test_off_threshold_exponent_rejected(self, suite):
        u0 = suite.grid.function(bump(0.0, 1.0, 0.75))
        with pytest.raises(ValueError):
            critical_log_growth(u0, suite, EvolveConfig(p=2.3334, horizon=256.0))

    def test_zero_data_rejected(self, suite):
        with pytest.raises(ValueError):
            critical_log_growth(
                suite.grid.constant(0.0), suite, EvolveConfig(p=self.P_STAR, horizon=256.0)
            )

    def test_early_escape_is_inconclusive(self, suite):
        # a huge datum at the threshold exponent explodes before t = 3
        u0 = suite.grid.function(bump(0.0, 1.0, 50.0))
        cfg = EvolveConfig(p=self.P_STAR, horizon=256.0, max_picard=25)
        fit = critical_log_growth(u0, suite, cfg)
        assert not fit.conclusive


class TestClassify:
    def test_subcritical_bump_blows_up(self, suite):
        cell = classify(
            suite.spec, 1.8, suite.grid.function(bump(0.0, 1.0, 0.75)),
            EvolveConfig(p=1.8, horizon=256.0), suite,
        )
        assert cell.kind == "blowup"
        assert cell.escape_time is not None and cell.escape_time > 0.0

    def test_supercritical_huge_data_inconclusive(self, suite):
        cell = classify(
            suite.spec, 3.0, suite.grid.function(bump(0.0, 1.0, 50.0)),
            EvolveConfig(p=3.0, horizon=256.0, smallness_delta=0.1), suite,
        )
        assert cell.kind == "inconclusive"
        assert "smallness" in cell.reason

    def test_scaling_up_never_turns_global(self, suite):
        # within the blow-up regime the classification is monotone in data
        cfg = EvolveConfig(p=1.8, horizon=256.0)
        small = classify(suite.spec, 1.8, suite.grid.function(bump(0.0, 1.0, 0.75)), cfg, suite)
        big = classify(suite.spec, 1.8, suite.grid.function(bump(0.0, 1.0, 1.5)), cfg, suite)
        assert small.kind == "blowup"
        assert big.kind == "blowup"
        assert big.escape_time <= small.escape_time * (1.0 + 1e-9)

    def test_failing_profile_ends_inconclusive(self, suite, monkeypatch):
        # calibrate_delta treats a profile error like a rejected amplitude
        def broken_profile(delta, p):
            raise ValueError("profile exploded")

        monkeypatch.setattr(blowup, "corollary_profile", broken_profile)
        u0 = suite.grid.function(bump(0.0, 1.0, 0.75))
        cell = run_cell(suite.spec, suite, 3.0, EvolveConfig(p=3.0), u0, 0.1, 256.0)
        assert cell.kind == "inconclusive"
        assert "profile exploded" in cell.reason


class TestReport:
    def _cells(self):
        return (
            CellOutcome(p=1.5, alpha=0.5, kind="blowup", escape_time=3.0),
            CellOutcome(p=3.0, alpha=0.5, kind="global", decay_slope=-0.5),
        )

    def test_every_cell_required(self):
        with pytest.raises(ValueError):
            DichotomyReport(n=1, p_values=(1.5, 3.0, 4.0), alpha_values=(0.5,), cells=self._cells())

    def test_escape_time_positive(self):
        bad = (CellOutcome(p=1.5, alpha=0.5, kind="blowup", escape_time=-1.0),)
        with pytest.raises(ValueError):
            DichotomyReport(n=1, p_values=(1.5,), alpha_values=(0.5,), cells=bad)

    def test_csv_and_svg_render(self):
        report = DichotomyReport(n=1, p_values=(1.5, 3.0), alpha_values=(0.5,), cells=self._cells())
        lines = dichotomy_csv_lines(report)
        assert lines[0].startswith("p,alpha,outcome")
        assert len(lines) == 4  # header + 2 cells + footer
        assert lines[-1].startswith("#")
        svg = dichotomy_svg(report)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "blowup" in svg and "global" in svg

    def test_threshold_curve(self):
        report = DichotomyReport(n=1, p_values=(1.5, 3.0), alpha_values=(0.5,), cells=self._cells())
        curve = report.p_star_curve()
        assert curve == [(0.5, pytest.approx(7.0 / 3.0))]
