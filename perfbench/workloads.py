"""The benchmark's workloads: their configs, CLI commands and output checks.

Each workload is a fixed list of ``degenheat`` CLI commands (one iteration);
the workload seed is passed through to every command as ``--seed``.

* ``sweep-wide``: the production four-cell dichotomy sweep of
  ``scripts/run_dichotomy_sweep.py`` (axis a=0.5, n=1, grid 7168/768/3).
* ``verify-cold``: ``kernel-verify`` on one weight of each family with an
  empty table cache, so every table is built and written.
* ``verify-warm``: the same two commands after set-up filled the cache, so
  every table is read back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

P_STAR = 7.0 / 3.0  # threshold exponent for n = 1, a = 0.5

SWEEP_CONFIG = f"""\
weight.case = axis
weight.exponent = 0.5
weight.dimension = 1
grid.radius = 7168
grid.cells = 768
grid.grading = 3
kernel.steps = 256
evolve.horizon = 256
evolve.smallness_delta = 1.0
sweep.p = 1.5,2.0,{P_STAR!r},3.0
sweep.u0 = bump(0,1,0.75)
sweep.delta0 = 0.1
sweep.super_horizon = 65536
"""

VERIFY_WEIGHTS = {
    "axis": ("axis", "0.5", "1"),
    "radial": ("radial", "1", "2"),
}


def verify_config(weight: str, cache_dir: Path) -> str:
    case, exponent, dimension = VERIFY_WEIGHTS[weight]
    return f"""\
weight.case = {case}
weight.exponent = {exponent}
weight.dimension = {dimension}
grid.radius = 16
grid.cells = 256
grid.grading = 2
kernel.times = 0.25,0.5,1,2
kernel.steps = 256
kernel.cache_dir = {cache_dir}
"""


# SHA-256 of each output CSV at the seed commit, one BLAS thread, OpenBLAS
# 0.3.31 on x86-64.  A mismatch is reported (cli.outputs_identical), not
# counted as a failure: the last bits of reductions depend on the BLAS build
# and thread count.  Warm and cold kernel reports differ at the seed commit
# because a table read from the cache is C-ordered while a built one is
# Fortran-ordered, and the row-mass sum visits them in a different order.
SEED_DIGESTS = {
    "sweep-wide": {
        "sweep": "1b40fd5e43e067de629f83c58f57a1f88e10fa680e4fea32c7a76fb0a9fad84b",
    },
    "verify-cold": {
        "axis": "5e9d0e8eec17b2f0bcc0bcf161fc0a5f9e80f8503fa60bb8712df391a3577fdf",
        "radial": "5df562686648fab56b566a33d926fa5c91b111fb2bb779924c69b55e916c35a7",
    },
    "verify-warm": {
        "axis": "024ef819fac8e6c58e767e321fadcb97c397abc06d37c59b02ca9aac0ab34a7a",
        "radial": "308a14b03e9aab655194bab311bfa3341332b2a83752164fc7982fa21407e308",
    },
}


@dataclass(frozen=True)
class Command:
    label: str  # key of the output in SEED_DIGESTS
    command: str  # CLI command name
    csv_name: str  # the CSV the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    cold: bool  # the cache is emptied before every iteration
    prefill: bool  # set-up fills the cache with one cold iteration
    # untraced iterations each measured window takes at least; warm
    # iterations vary most from one to the next on a shared host
    min_per_window: int
    # weights of the host-speed probe's parts (hostspeed.py), by where an
    # iteration spends its time
    probe_mix: dict[str, float]


# a cold kernel-verify iteration: about 0.6 table builds, 0.4 weights.ball_mass
COLD_PROBE_MIX = {"banded": 0.6, "quad": 0.4}

_VERIFY = (
    Command("axis", "kernel-verify", "kernel_report.csv"),
    Command("radial", "kernel-verify", "kernel_report.csv"),
)

WORKLOADS = {
    w.name: w
    for w in (
        # single-column kernel.propagate
        Workload("sweep-wide", (Command("sweep", "sweep", "sweep.csv"),),
                 cold=False, prefill=False, min_per_window=1, probe_mix={"banded": 1.0}),
        Workload("verify-cold", _VERIFY, cold=True, prefill=False, min_per_window=1,
                 probe_mix=COLD_PROBE_MIX),
        # mostly weights.ball_mass
        Workload("verify-warm", _VERIFY, cold=False, prefill=True, min_per_window=2,
                 probe_mix={"quad": 1.0}),
    )
}


def write_configs(workload: Workload, cfg_dir: Path, cache_dir: Path) -> dict[str, Path]:
    """Write one config per command; returns label -> config path."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in workload.commands:
        text = SWEEP_CONFIG if cmd.command == "sweep" else verify_config(cmd.label, cache_dir)
        path = cfg_dir / f"{cmd.label}.cfg"
        path.write_text(text)
        paths[cmd.label] = path
    return paths


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks (bounds of acceptance criteria c02, c03 and c07)
# ---------------------------------------------------------------------------


def _num(text: str) -> float | None:
    return float(text) if text.strip() else None


def check_sweep(text: str) -> list[str]:
    rows = [r for r in csv.DictReader(io.StringIO(text)) if not r["p"].startswith("#")]
    kinds = [r["outcome"] for r in rows]
    if kinds != ["blowup", "blowup", "blowup", "global"]:
        return [f"sweep outcomes {kinds}, expected [blowup, blowup, blowup, global]"]
    errors = []
    for r in rows[:2]:
        esc = _num(r["escape_time"])
        if esc is None or not esc > 0.0:
            errors.append(f"p={r['p']}: escape time {r['escape_time']!r} is not above 0")
    log_slope = _num(rows[2]["log_slope"])
    if log_slope is None or not log_slope > 0.0:
        errors.append(f"critical log slope {rows[2]['log_slope']!r} is not above 0")
    decay = _num(rows[3]["decay_slope"])
    if decay is None or not abs(decay + 0.5) <= 0.05:
        errors.append(f"decay slope {rows[3]['decay_slope']!r} not within 0.05 of -0.5")
    return errors


def _report_values(text: str) -> dict[tuple[str, str], float]:
    return {(r["metric"], r["time"]): float(r["value"]) for r in csv.DictReader(io.StringIO(text))}


def check_kernel_report(text: str) -> list[str]:
    vals = _report_values(text)
    errors = []
    for (metric, t), v in vals.items():
        if metric == "k1_row_mass_error" and not v < 1e-3:
            errors.append(f"row mass error {v!r} at t={t} is not below 1e-3")
        elif metric == "k2_composition_error" and not v < 2e-3:
            errors.append(f"composition error {v!r} at t={t} is not below 2e-3")
        elif metric.endswith("_coverage") and not v >= 0.99:
            errors.append(f"{metric} {v!r} is below 0.99")
        elif metric.startswith("slope_") and not metric.endswith("_predicted"):
            pred = vals[(metric + "_predicted", t)]
            rel = abs(v - pred) / abs(pred)
            if not rel < 0.05:
                errors.append(f"{metric} {v!r} is {rel:.1%} from {pred!r}")
    for metric in ("k1_row_mass_error", "k2_composition_error", "sandwich_lower_coverage",
                   "sandwich_upper_coverage"):
        if not any(m == metric for m, _ in vals):
            errors.append(f"report lacks {metric}")
    return errors


def check_output(command: Command, text: str) -> list[str]:
    return check_sweep(text) if command.command == "sweep" else check_kernel_report(text)


def roundtrip_errors(cold: str, warm: str) -> tuple[int, list[str]]:
    """Compare a warm kernel report with the cold one of the same weight.

    Returns the number of differing lines and the differences beyond
    round-off: every line must name the same metric and time, and every value
    must agree to 1e-12 (relative or absolute).  Tables read from the cache
    equal the built ones bit for bit; only the order of later sums differs.
    """
    a, b = cold.splitlines(), warm.splitlines()
    if len(a) != len(b):
        return max(len(a), len(b)), [f"cold report has {len(a)} lines, warm has {len(b)}"]
    mismatched = sum(x != y for x, y in zip(a, b))
    errors = []
    ca, cb = _report_values(cold), _report_values(warm)
    if ca.keys() != cb.keys():
        errors.append("cold and warm reports list different metrics")
    for key in ca.keys() & cb.keys():
        if not math.isclose(ca[key], cb[key], rel_tol=1e-12, abs_tol=1e-12):
            errors.append(f"{key[0]} at t={key[1]}: cold {ca[key]!r}, warm {cb[key]!r}")
    return mismatched, errors
