"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything here is property-based or regression-based at desk scale:
1-D axis weights and 2-D radial weights, grids <= 512 cells (the widest
evolution domain uses 768 cells to keep the conserved-mass floor out of the
decay window), full suite well inside the 15-minute budget.
"""

import math

import numpy as np
import pytest

from degenheat.blowup import (
    ak_value,
    kaplan_cstar_log_bound,
    log_ak,
    sweep_dichotomy,
)
from degenheat.cli import main
from degenheat.evolve import (
    EvolveConfig,
    Outcome,
    picard_iterate,
    solve_global_small,
    split_step_reference,
    stability_check,
)
from degenheat.kernel import KernelSuite, composition_error, verify_kernel
from degenheat.lorentz import (
    INF,
    InequalityParams,
    LorentzIndex,
    StepFunction,
    inequality_suite,
    lorentz_norm,
    weighted_lp_norm,
)
from degenheat.profiles import bump, corollary_profile
from degenheat.semigroup import decay_rates, weak_critical_probe
from degenheat.weights import WeightCase, WeightSpec, make_grid
from picard_oracle import global_picard

AX, RAD = WeightCase.AXIS_POWER, WeightCase.RADIAL_POWER

STRUCTURAL_SPECS = [
    WeightSpec(AX, 0.0, 1),
    WeightSpec(AX, 0.5, 1),
    WeightSpec(RAD, 0.0, 2),
    WeightSpec(RAD, 1.0, 2),
]

P_STAR = 7.0 / 3.0  # threshold exponent for n = 1, a = 0.5
SWEEP_P = [1.5, 2.0, P_STAR, 3.0]


@pytest.fixture(scope="module")
def gauss_suite():
    spec = WeightSpec(AX, 0.0, 1)
    return KernelSuite(spec, make_grid(spec, 16.0, 512, 2.0), steps=256)


@pytest.fixture(scope="module")
def structural_suites():
    return {
        spec: KernelSuite(spec, make_grid(spec, 16.0, 256, 2.0), steps=256)
        for spec in STRUCTURAL_SPECS
    }


@pytest.fixture(scope="module")
def decay_suite():
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 32.0, 384, 2.0), steps=256)


@pytest.fixture(scope="module")
def evolve_suite():
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 32.0, 384, 2.0), steps=256)


@pytest.fixture(scope="module")
def wide_suite():
    spec = WeightSpec(AX, 0.5, 1)
    return KernelSuite(spec, make_grid(spec, 7168.0, 768, 3.0), steps=256)


@pytest.fixture(scope="module")
def sweep_report(wide_suite):
    cfg = EvolveConfig(p=2.0, horizon=256.0, smallness_delta=1.0)
    return sweep_dichotomy(
        suites=[wide_suite],
        p_values=SWEEP_P,
        cfg=cfg,
        sub_u0="bump(0,1,0.75)",
        delta0=0.1,
        super_horizon=65536.0,
    )


def test_c01_kernel_matches_classical_gaussian(gauss_suite):
    """With a = 0, n = 1 the kernel is the classical Gaussian to < 1%."""
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        tb = gauss_suite.table(t)
        pts = tb.points
        gauss = (4.0 * math.pi * t) ** -0.5 * np.exp(
            -((pts[:, None] - pts[None, :]) ** 2) / (4.0 * t)
        )
        mask = tb.interior_mask()
        err = float((np.abs(tb.matrix[mask] - gauss[mask]) @ tb.masses).max())
        assert err < 0.01, f"Gaussian mismatch {err:.3e} at t={t}"
        worst = max(worst, err)
    print(f"ACCEPTANCE 1 PASS: classical-kernel match, worst interior L1 error {worst:.2e} < 1e-2")


def test_c02_structural_properties(structural_suites):
    """Unit row mass 1e-3, composition 2e-3, symmetry 1e-8 on all four weights."""
    worst = {"k1": 0.0, "k2": 0.0, "sym": 0.0}
    for spec, suite in structural_suites.items():
        for t in (0.25, 0.5, 1.0):
            tb = suite.table(t)
            k1 = tb.k1_max_error(interior_only=True)
            sym = float(np.max(np.abs(tb.matrix - tb.matrix.T)) / np.max(tb.matrix))
            k2 = composition_error(tb, suite.table(t / 2.0))
            assert k1 < 1e-3, f"{spec}: row mass error {k1:.2e}"
            assert k2 < 2e-3, f"{spec}: composition error {k2:.2e}"
            assert sym < 1e-8, f"{spec}: asymmetry {sym:.2e}"
            worst = {
                "k1": max(worst["k1"], k1),
                "k2": max(worst["k2"], k2),
                "sym": max(worst["sym"], sym),
            }
    print(
        "ACCEPTANCE 2 PASS: structural kernel laws, worst row-mass "
        f"{worst['k1']:.1e} < 1e-3, composition {worst['k2']:.1e} < 2e-3, "
        f"asymmetry {worst['sym']:.1e} < 1e-8"
    )


def test_c03_decay_exponents(decay_suite):
    """Kernel-row and semigroup decay slopes within 5% of -(n+a)/2 (1/q - 1/r)."""
    times = [1.0, 2.0, 4.0, 8.0, 16.0]
    rep = verify_kernel(
        decay_suite.spec, decay_suite.grid, times, suite=decay_suite
    )
    assert rep.ok
    fits = []
    for s in rep.norm_slopes:
        assert s.relative_error < 0.05, f"{s.label}: slope {s.slope} vs {s.predicted}"
        fits.append((s.label, s.relative_error))
    grid = decay_suite.grid
    probes = {
        (1.0, INF, "strong"): grid.function(lambda x: np.exp(-((x / 0.5) ** 2))),
        (1.0, 2.0, "strong"): grid.function(lambda x: np.exp(-((x / 0.5) ** 2))),
        (2.0, INF, "weak"): weak_critical_probe(grid, 2.0),
    }
    for (q, r, kind), phi in probes.items():
        fit = decay_rates(decay_suite, phi, times, q, r, kind)
        assert fit.relative_error < 0.05, (
            f"(q={q}, r={r}, {kind}): slope {fit.slope:.4f} vs {fit.predicted:.4f}"
        )
        fits.append((f"semigroup q={q} r={r} {kind}", fit.relative_error))
    worst = max(err for _, err in fits)
    print(
        f"ACCEPTANCE 3 PASS: {len(fits)} decay regressions within 5% "
        f"(worst relative error {worst:.1%})"
    )


def test_c04_lorentz_suite():
    """Diagonal norms, formula reconciliation, inequality margins, weak-norm value."""
    rng = np.random.default_rng(2024)
    spec = WeightSpec(AX, 0.5, 1)
    grid = make_grid(spec, 4.0, 256)
    # diagonal agreement within 1e-6 for r in {1, 2, 4}
    for r in (1.0, 2.0, 4.0):
        f = grid.function(rng.uniform(0.0, 3.0, grid.n_nodes))
        a = lorentz_norm(f, LorentzIndex(r, r))
        b = weighted_lp_norm(f, r)
        assert abs(a - b) <= 1e-6 * b

    # both norm formulas agree within 1e-8 (checked inside lorentz_norm) and
    # the interpolation/pairing margins are nonnegative on 50 random steps
    params = InequalityParams(r0=1.5, r1=INF, theta=0.5, holder_r1=2.0, sharp_r=2.0)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        f = StepFunction(rng.uniform(0.01, 10.0, k), rng.uniform(0.01, 5.0, k))
        g = StepFunction(rng.uniform(0.01, 10.0, k), f.masses)
        for idx in (LorentzIndex(1.5, 1.0), LorentzIndex(2.0, 3.0), LorentzIndex(4.0, INF)):
            lorentz_norm(f, idx, reconcile_tol=1e-8)
        report = inequality_suite(f, g, params)
        assert report.all_hold(rel_slack=1e-8)

    # worked weak norm: |x|^{-1/2} on (n=1, b=0) has L^{2,inf} norm sqrt(2)
    xs = np.geomspace(64.0 / 4000**2, 64.0, 4000)
    levels = xs**-0.5
    masses = np.diff(np.concatenate(([0.0], 2.0 * xs)))
    f = StepFunction(levels, masses, dimension=1)
    val = lorentz_norm(f, LorentzIndex(2.0, INF))
    assert abs(val - math.sqrt(2.0)) <= 1e-6 * math.sqrt(2.0)
    print(
        "ACCEPTANCE 4 PASS: diagonal norms 1e-6, dual forms 1e-8, 50 random "
        f"margin checks, weak-norm worked value {val:.9f} = sqrt(2) +- 1e-6"
    )


def test_c05_picard_invariants(evolve_suite):
    """Monotone iterates, the linear lower bound, and split-step agreement."""
    rng = np.random.default_rng(42)
    suite = evolve_suite
    cfg = EvolveConfig(p=2.0, horizon=0.5)
    times = [0.125, 0.25, 0.5]
    worst_gap = 0.0
    for _ in range(5):
        u0 = suite.grid.function(
            bump(
                float(rng.uniform(0.0, 1.5)),
                float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(0.02, 0.2)),
            )
        )
        run = picard_iterate(u0, cfg, suite)
        assert run.outcome is Outcome.CONVERGED
        assert np.min(run.fields - run.linear) >= -cfg.picard_tol, "linear lower bound"
        sweeps = global_picard(u0, cfg, suite)
        assert sweeps.converged and min(sweeps.min_increments) >= -cfg.picard_tol
        # forward pass against the global sweeps on every master: 1.2e-8 measured
        oracle_gap = float(np.max(np.abs(run.fields - sweeps.fields)))
        assert oracle_gap < 1e-7, f"global-sweep gap {oracle_gap:.2e}"
        oracle = split_step_reference(u0, 2.0, times, suite, dt=1.0 / 2048)
        for t in times:
            i = int(np.argmin(np.abs(run.masters - t)))
            gap = float(np.max(np.abs(suite.restrict(run.fields[i]) - oracle[t])))
            assert gap < 2e-3, f"oracle gap {gap:.2e} at t={t}"
            worst_gap = max(worst_gap, gap)
    print(
        "ACCEPTANCE 5 PASS: monotone iterates, Duhamel lower bound, split-step "
        f"agreement on 5 random cases (worst sup gap {worst_gap:.1e} < 2e-3)"
    )


def test_c06_hand_checked_combinatorics():
    """A_2 = 1/3, A_3 = 1/63 at p = 2; cap log bound equals (1+log 2)(3/2)."""
    assert abs(ak_value(2.0, 2) - 1.0 / 3.0) <= 1e-12
    assert abs(ak_value(2.0, 3) - 1.0 / 63.0) <= 1e-12 / 63.0
    direct2 = math.log((2.0 - 1.0) / (2.0**2 - 1.0))
    direct3 = 2.0 * direct2 + math.log(1.0 / 7.0)
    assert abs(log_ak(2.0, 2) - direct2) <= 1e-12
    assert abs(log_ak(2.0, 3) - direct3) <= 1e-12
    want = (1.0 + math.log(2.0)) * 1.5
    got = kaplan_cstar_log_bound(2.0)
    assert abs(got - want) <= 1e-12
    print(
        "ACCEPTANCE 6 PASS: iteration products 1/3 and 1/63 to 1e-12, "
        f"cap log bound {got:.12f} = (1+log 2)*3/2"
    )


def test_c07_fujita_dichotomy(sweep_report):
    """Outcome flip across the threshold at n = 1, a = 0.5."""
    cells = {c.p: c for c in sweep_report.cells}
    c15, c20 = cells[1.5], cells[2.0]
    assert c15.kind == "blowup" and c15.escape_time > 0.0
    assert c20.kind == "blowup" and c20.escape_time > 0.0
    crit = cells[P_STAR]
    assert crit.kind == "blowup"
    assert crit.log_slope is not None and crit.log_slope > 0.0
    sup = cells[3.0]
    assert sup.kind == "global"
    assert abs(sup.decay_slope - (-0.5)) <= 0.05
    print(
        "ACCEPTANCE 7 PASS: dichotomy sweep "
        f"[blowup(t={c15.escape_time:.0f}), blowup(t={c20.escape_time:.0f}), "
        f"blowup(log slope {crit.log_slope:.3f} > 0), global(decay {sup.decay_slope:.3f})]"
    )


def test_escape_times_precede_split_step_blowup(sweep_report, wide_suite):
    """The split-step oracle is still finite at each reported escape time.

    Escape is the first master where the solved field crosses the threshold;
    the independent split-step march (dt 2.5e-3) fails before 9.51 (p = 1.5)
    and 83.0 (p = 2), so a reported escape past those is an artifact.
    """
    u0 = wide_suite.grid.function(bump(0.0, 1.0, 0.75))
    escapes = {c.p: c.escape_time for c in sweep_report.cells if c.escape_time is not None}
    assert sorted(escapes) == [1.5, 2.0]
    for p, t in escapes.items():
        ref = split_step_reference(u0, p, [t], wide_suite, dt=2.5e-3)
        assert np.all(np.isfinite(ref[t])), f"p={p}"


def test_c08_global_decay_functionals(wide_suite):
    """(1+t)-weighted weak norms flat (+-0.05) for q in {r*, 2r*, inf}."""
    p = 3.0
    r_star = 1.5
    fn = corollary_profile(0.05, p)
    u0 = wide_suite.grid.function(fn)
    cfg = EvolveConfig(p=p, horizon=65536.0, smallness_delta=1.0)
    run = solve_global_small(u0, p, r_star, wide_suite, cfg, u0_fn=fn)
    assert run.run.outcome is Outcome.CONVERGED
    assert run.accepted
    slopes = {}
    for q in (r_star, 2.0 * r_star, INF):
        key = (q, "weak")
        vals = run.functionals[key]
        assert np.all(np.isfinite(vals)), f"functional q={q} not finite"
        slope = run.functional_slopes[key]
        assert abs(slope) <= 0.05, f"functional q={q} trending: slope {slope:.3f}"
        slopes[q] = slope
    printable = ", ".join(f"q={q:g}: {s:+.3f}" for q, s in slopes.items())
    print(f"ACCEPTANCE 8 PASS: decay functionals non-trending ({printable})")


def test_c09_stability(evolve_suite):
    """Perturbation ratio finite and stable under halving epsilon."""
    suite = evolve_suite
    u1 = suite.grid.function(bump(0.0, 1.0, 0.5))
    cfg = EvolveConfig(p=2.0)
    ratios = []
    for eps in (1e-3, 5e-4):
        u2 = suite.grid.function(u1.values + eps)
        ratios.append(stability_check(u1, u2, 2.0, 1.0, suite, cfg))
    assert all(math.isfinite(r) and r > 0.0 for r in ratios)
    assert abs(ratios[0] - ratios[1]) <= 0.2 * ratios[0]
    print(
        "ACCEPTANCE 9 PASS: stability ratios "
        f"{ratios[0]:.4f} vs {ratios[1]:.4f} within 20% under halving"
    )


# sweep.csv of the production sweep, byte for byte (SHA-256 ca5322a1...)
PRODUCTION_SWEEP_CSV = """\
p,alpha,outcome,escape_time,decay_slope,log_slope,kaplan_crossing,reason
1.5,0.5,blowup,8,,,,
2,0.5,blowup,69.792494890576492,,,,
2.3333333333333335,0.5,blowup,,,0.01521793632053263,,
3,0.5,global,,-0.46853851289084369,,,
# note: blow-up cells certify nonexistence for the tested data only; \
nonexistence for all positive data is a continuum statement beyond any single run
"""


def test_c10_determinism(tmp_path):
    """Identical config and seed produce byte-identical sweep CSVs, equal to
    the pinned production sweep."""
    cfg_text = "\n".join(
        [
            "weight.case = axis",
            "weight.exponent = 0.5",
            "weight.dimension = 1",
            "grid.radius = 7168",
            "grid.cells = 768",
            "grid.grading = 3",
            "kernel.steps = 256",
            "evolve.horizon = 256",
            "evolve.smallness_delta = 1.0",
            f"sweep.p = 1.5,2.0,{P_STAR!r},3.0",
            "sweep.u0 = bump(0,1,0.75)",
            "sweep.super_horizon = 65536",
        ]
    )
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(cfg_text + "\n")
    payloads = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out), "--seed", "11"])
        assert rc == 0
        payloads.append((out / "sweep.csv").read_bytes())
        body = (out / "sweep.csv").read_text()
        assert body.count("blowup") == 3 and body.count("global") == 1
    assert payloads[0] == payloads[1]
    assert payloads[0].decode() == PRODUCTION_SWEEP_CSV
    print(
        "ACCEPTANCE 10 PASS: repeated sweep runs byte-identical to the pinned sweep "
        f"({len(payloads[0])} bytes)"
    )
