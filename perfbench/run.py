#!/usr/bin/env python3
"""degenheat benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 9 --trace 0

Run from the root of a degenheat checkout.  The load is a closed loop: one
client runs the workload's CLI commands in-process, one at a time, with
``--jobs 1`` and one BLAS thread.  Each part runs in a child process
(``worker.py``): three rounds of a set-up followed by a third of the measured
window (one round with ``--trace 1``), so that the samples spread over the
whole run.  Every iteration's outputs are checked; a failed check counts in
``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``run_s``, ``setup_s``, ``peak_rss_mb``), with ``--trace 1`` the per-layer
metrics of the traced iterations.  ``run_s`` is the iteration time scaled to
reference host speed by the probe that ``hostspeed.py`` runs during it; the
time as measured is the per-layer ``wall.run_s``.  The line before it records
the machine and the samples.  Details go to ``.perfbench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 170.0  # the whole run, set-ups included
ROUNDS = 3


class HarnessError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _child(mode: str, args, work: Path, deadline: float, env: dict, **extra) -> dict:
    result = work / f"{mode}{extra['rep']}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", str(work), "--result", str(result),
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError(f"time budget of {BUDGET_S:g} s used up before the {mode} step")
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} step exceeded the {BUDGET_S:g} s budget") from None
    if proc.returncode != 0:
        raise HarnessError(f"{mode} step exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _metric_list(section: str) -> list[dict]:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]


def run(args) -> tuple[dict, dict]:
    root = Path.cwd()
    if not (root / "src" / "degenheat" / "cli.py").is_file():
        raise HarnessError("run from the root of a degenheat checkout (src/degenheat missing)")
    deadline = time.monotonic() + BUDGET_S
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    rounds = 1 if args.trace else ROUNDS
    setups, windows = [], []
    for k in range(rounds):
        setups.append(_child("setup", args, work, deadline, env, rep=k))
        windows.append(_child(
            "measure", args, work, deadline, env,
            rep=k, seconds=args.seconds / rounds, trace=args.trace,
        ))
    samples = [x for w in windows for x in w["samples"]]
    wall_samples = [x for w in windows for x in w["wall_samples"]]

    fills = [s for s in setups if s["prefilled"]]
    attempted = sum(w["attempted"] for w in windows) + len(fills)
    failed = sum(w["failed"] for w in windows) + sum(bool(s["errors"]) for s in fills)
    problems = [e for s in setups for e in s["errors"]]
    problems += [e for w in windows for e in w["failures"] + w["harness_errors"]]
    if args.trace:
        section, produced = "per_layer", dict(windows[0]["per_layer"])
        produced["wall.run_s"] = statistics.median(wall_samples)
        produced["host.slowness"] = statistics.median(x for w in windows for x in w["slowness"])
    else:
        section, produced = "end_to_end", {
            "run_s": statistics.median(samples),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in windows),
        }
    wanted = _metric_list(section)
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        raise HarnessError(f"{section} metrics not produced: {missing}")
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": windows[0]["machine"],
        "run_s_samples": samples,
        "wall_run_s_samples": wall_samples,
        "traced_samples": [x for w in windows for x in w["traced_samples"]],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "problems": problems,
        "extract_errors": windows[0].get("extract_errors", {}),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return info, result


def main() -> int:
    ap = argparse.ArgumentParser(description="degenheat benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        info, result = run(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
