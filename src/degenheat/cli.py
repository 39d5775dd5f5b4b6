"""Batch front-end: config-driven experiments with CSV/SVG artifacts.

Every run writes ``manifest.txt`` echoing the fully resolved config, the
seed, and the fitted constants it used, so any number in an output CSV can
be reproduced from the manifest alone.  Floats are written with 17
significant digits, '.' decimal separator, no locale dependence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import blowup, semigroup
from .blowup import fmt
from .config import ConfigError, ExperimentConfig, load_config
from .constants import FittedConstants
from .evolve import (
    LocalBoundError,
    PicardInvariantError,
    SmallnessError,
    picard_iterate,
)
from .kernel import EnvelopeFitError, KernelInvariantError, KernelSuite, verify_kernel
from .lorentz import (
    INF,
    InequalityParams,
    NormReconciliationError,
    StepFunction,
    inequality_suite,
)
from .profiles import build_initial_data
from .weights import GridFunction, fit_ball_constants

NUMERIC_FAILURES = (
    KernelInvariantError,
    EnvelopeFitError,
    PicardInvariantError,
    LocalBoundError,
    NormReconciliationError,
    SmallnessError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(
    out: Path, cfg: ExperimentConfig, seed: int, command: str, constants: FittedConstants
) -> None:
    lines = [f"command = {command}", f"seed = {seed}"]
    lines += cfg.manifest_lines()
    lines += constants.manifest_lines()
    _write(out / "manifest.txt", lines)


def _trajectory_csv(times, sup, strong, weak, qs) -> list[str]:
    header = ["time", "sup_norm"]
    for q in qs:
        header.append(f"strong_{q:g}")
        header.append(f"weak_{q:g}")
    lines = [",".join(header)]
    for i, t in enumerate(times):
        row = [fmt(float(t)), fmt(float(sup[i]))]
        for q in qs:
            row.append(fmt(float(strong[q][i])))
            row.append(fmt(float(weak[q][i])))
        lines.append(",".join(row))
    return lines


def cmd_kernel_verify(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    constants = FittedConstants()
    suite = cfg.suite(cfg.exponent)
    spec, grid = suite.spec, suite.grid
    report = verify_kernel(spec, grid, list(cfg.kernel_times), steps=cfg.kernel_steps, suite=suite)
    constants.sandwich_lower = report.sandwich.lower
    constants.sandwich_upper = report.sandwich.upper
    constants.envelope_lower = report.minbranch.lower
    constants.envelope_upper = report.minbranch.upper
    fit = fit_ball_constants(spec, rng=np.random.default_rng(seed))
    constants.ball_lower_coef = fit.lower_coef
    constants.ball_upper_coef = fit.upper_coef
    lines = ["metric,time,value"]
    for t in report.times:
        lines.append(f"k1_row_mass_error,{fmt(t)},{fmt(report.k1_errors[t])}")
        lines.append(f"k2_composition_error,{fmt(t)},{fmt(report.k2_errors[t])}")
    lines.append(f"sandwich_lower,,{fmt(report.sandwich.lower)}")
    lines.append(f"sandwich_upper,,{fmt(report.sandwich.upper)}")
    lines.append(f"sandwich_lower_coverage,,{fmt(report.sandwich.lower_coverage)}")
    lines.append(f"sandwich_upper_coverage,,{fmt(report.sandwich.upper_coverage)}")
    lines.append(f"envelope_lower,,{fmt(report.minbranch.lower)}")
    lines.append(f"envelope_upper,,{fmt(report.minbranch.upper)}")
    for s in report.norm_slopes:
        lines.append(f"slope_{s.label},,{fmt(s.slope)}")
        lines.append(f"slope_{s.label}_predicted,,{fmt(s.predicted)}")
    if spec.exponent == 0.0 and spec.dimension == 1:
        err = _gaussian_match_error(suite, cfg.kernel_times)
        lines.append(f"gaussian_match_error,,{fmt(err)}")
    _write(out / "kernel_report.csv", lines)
    _write_manifest(out, cfg, seed, "kernel-verify", constants)
    if report.failures:
        print("kernel-verify failed: " + "; ".join(report.failures), file=sys.stderr)
        return 1
    print(f"kernel-verify ok: {len(report.times)} times, report in {out}")
    return 0


def _gaussian_match_error(suite: KernelSuite, times) -> float:
    worst = 0.0
    for t in times:
        tb = suite.table(t)
        pts = tb.points
        gauss = (4.0 * math.pi * t) ** -0.5 * np.exp(
            -((pts[:, None] - pts[None, :]) ** 2) / (4.0 * t)
        )
        mask = tb.interior_mask()
        diff = np.abs(tb.matrix[mask] - gauss[mask]) @ tb.masses
        worst = max(worst, float(np.max(diff)))
    return worst


def cmd_lorentz_selftest(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    rng = np.random.default_rng(seed)
    grid = cfg.grid(cfg.exponent)
    lines = ["function,check,lhs,rhs,margin"]
    ok = True
    cases: list[tuple[str, GridFunction | StepFunction, GridFunction | StepFunction]] = []
    ind = grid.function(lambda x: np.where(x <= 1.0, 1.0, 0.0))
    cases.append(("indicator", ind, ind))
    prof = grid.function(lambda x: 1.0 / (1.0 + x**2))
    cases.append(("rational", prof, ind))
    for i in range(8):
        vals = rng.uniform(0.0, 4.0, grid.n_nodes)
        f = grid.function(vals)
        g = grid.function(rng.uniform(0.0, 4.0, grid.n_nodes))
        cases.append((f"random_{i}", f, g))
    params = InequalityParams(r0=1.5, r1=INF, theta=0.5, holder_r1=2.0, sharp_r=2.0)
    for name, f, g in cases:
        report = inequality_suite(f, g, params)
        for chk in report.checks:
            lines.append(
                f"{name},{chk.name},{fmt(chk.lhs)},{fmt(chk.rhs)},{fmt(chk.margin)}"
            )
        ok = ok and report.all_hold()
    _write(out / "lorentz_selftest.csv", lines)
    _write_manifest(out, cfg, seed, "lorentz-selftest", FittedConstants())
    if not ok:
        print("lorentz-selftest failed: negative margin found", file=sys.stderr)
        return 1
    print(f"lorentz-selftest ok: {len(cases)} functions, report in {out}")
    return 0


def cmd_evolve(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    suite = cfg.suite(cfg.exponent)
    spec = suite.spec
    u0, _ = build_initial_data(suite.grid, cfg.u0_descriptor)
    na = spec.dimension + spec.alpha
    r_star = 0.5 * na * (cfg.evolve.p - 1.0)
    qs = cfg.evolve.record_q or (
        tuple(q for q in (r_star, 2.0 * r_star) if q > 1.0) or (2.0,)
    )
    run_cfg = replace(cfg.evolve, record_q=tuple(qs))
    run = picard_iterate(u0, run_cfg, suite)
    traj = run.trajectory
    lines = _trajectory_csv(traj.times, traj.sup, traj.strong, traj.weak, qs)
    lines.append(f"# outcome = {traj.outcome.value}")
    if traj.escape_time is not None:
        lines.append(f"# escape_time = {fmt(traj.escape_time)}")
    _write(out / "trajectory.csv", lines)
    _write_manifest(out, cfg, seed, "evolve", FittedConstants())
    print(f"evolve ok: outcome {traj.outcome.value}, trajectory in {out}")
    return 0


def cmd_decay_fit(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    suite = cfg.suite(cfg.exponent)
    grid = suite.grid
    lines = ["q,r,kind,slope,intercept,predicted,relative_error"]
    for q, r, kind in cfg.decay_pairs:
        if kind == "weak":
            phi = semigroup.weak_critical_probe(grid, q)
        else:
            phi = grid.function(lambda x: np.exp(-((x / 0.5) ** 2)))
        fitres = semigroup.decay_rates(suite, phi, list(cfg.decay_times), q, r, kind)
        lines.append(
            f"{q:g},{r:g},{kind},{fmt(fitres.slope)},{fmt(fitres.intercept)},"
            f"{fmt(fitres.predicted)},{fmt(fitres.relative_error)}"
        )
    _write(out / "decay_fit.csv", lines)
    _write_manifest(out, cfg, seed, "decay-fit", FittedConstants())
    print(f"decay-fit ok: {len(cfg.decay_pairs)} regressions, report in {out}")
    return 0


def cmd_classify(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    suite = cfg.suite(cfg.exponent)
    spec = suite.spec
    u0, fn = build_initial_data(suite.grid, cfg.u0_descriptor)
    cell = blowup.classify(spec, cfg.evolve.p, u0, cfg.evolve, suite, u0_fn=fn)
    lines = blowup.dichotomy_csv_lines(
        blowup.DichotomyReport(
            n=spec.dimension, p_values=(cfg.evolve.p,), alpha_values=(spec.alpha,),
            cells=(cell,),
        )
    )
    _write(out / "classify.csv", lines)
    _write_manifest(out, cfg, seed, "classify", FittedConstants())
    print(f"classify ok: outcome {cell.kind}, report in {out}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, out: Path, seed: int) -> int:
    if not cfg.sweep_p:
        raise ConfigError("sweep requires sweep.p", key="sweep.p")
    report = blowup.sweep_dichotomy(
        [cfg.suite(a) for a in cfg.sweep_alpha], list(cfg.sweep_p), cfg.evolve,
        cfg.sweep_u0, cfg.sweep_delta0, cfg.sweep_super_horizon,
    )
    _write(out / "sweep.csv", blowup.dichotomy_csv_lines(report))
    (out / "sweep.svg").write_text(blowup.dichotomy_svg(report))
    _write_manifest(out, cfg, seed, "sweep", FittedConstants())
    kinds = ",".join(c.kind for c in report.cells)
    print(f"sweep ok: outcomes [{kinds}], report in {out}")
    return 0


COMMANDS = {
    "kernel-verify": cmd_kernel_verify,
    "lorentz-selftest": cmd_lorentz_selftest,
    "evolve": cmd_evolve,
    "classify": cmd_classify,
    "sweep": cmd_sweep,
    "decay-fit": cmd_decay_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="degenheat",
        description="Batch experiments for the degenerate-weight semilinear heat laboratory",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="flat key-value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: sweep cells run in order",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized fits")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out, args.seed)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NUMERIC_FAILURES as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
