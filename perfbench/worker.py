"""One child process of the benchmark: a set-up or a measured window.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D --rep K --result F
    python3 perfbench/worker.py measure --workload W --seed N --dir D --rep K --result F
                                        --seconds S --trace 0|1

Both drive ``degenheat.cli.main`` in-process, one command at a time with
``--jobs 1``.  ``setup`` times the package import, the config writing and,
for a prefilled workload, one cold iteration that fills the table cache.
Both parts are scaled to reference host speed, the import by probes run right
after it and the fill like a measured iteration.
``measure`` repeats the workload's commands on the files of set-up ``--rep``
until ``--seconds`` have passed and the workload's ``min_per_window``
iterations ran; with ``--trace 1`` it alternates untraced and traced
iterations until at least one of each ran.  Each untraced iteration is
reported both as timed and scaled to reference host speed by the probe that
``hostspeed.Sampler`` runs during it.  Results go
to the ``--result`` JSON file; the program's own prints go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402


def _cli_argv(cmd: wls.Command, cfg: Path, out: Path, seed: int) -> list[str]:
    return [cmd.command, "--config", str(cfg), "--out", str(out), "--seed", str(seed), "--jobs", "1"]


def _run_commands(cli, workload, cfgs, out_root: Path, seed: int) -> list[str]:
    """Run one iteration; returns errors raised by the program itself."""
    errors = []
    for cmd in workload.commands:
        try:
            rc = cli.main(_cli_argv(cmd, cfgs[cmd.label], out_root / cmd.label, seed))
        except Exception:  # a traceback is a failed run, not a harness crash
            errors.append(f"{cmd.label}: {traceback.format_exc(limit=3)}")
            continue
        if rc != 0:
            errors.append(f"{cmd.label}: exit code {rc}")
    return errors


def _check_outputs(workload, out_root: Path) -> list[str]:
    errors = []
    for cmd in workload.commands:
        path = out_root / cmd.label / cmd.csv_name
        if not path.is_file():
            errors.append(f"{cmd.label}: {cmd.csv_name} missing")
            continue
        errors += [f"{cmd.label}: {e}" for e in wls.check_output(cmd, path.read_text())]
    return errors


def _compare_outputs(workload, out_root: Path, rep_dir: Path) -> tuple[int, int, int, list[str]]:
    """Compare one iteration's CSVs with the seed digests and, on a prefilled
    workload, with the cold reports of set-up.  Returns the CSVs found, those
    matching their seed digest, the lines differing from the cold reports and
    the round-trip errors."""
    found = matching = differing = 0
    errors = []
    for cmd in workload.commands:
        path = out_root / cmd.label / cmd.csv_name
        if not path.is_file():
            continue
        found += 1
        matching += wls.digest(path) == wls.SEED_DIGESTS[workload.name][cmd.label]
        if not workload.prefill:
            continue
        cold = rep_dir / "fill" / cmd.label / cmd.csv_name
        if not cold.is_file():
            errors.append(f"{cmd.label}: cache round trip: set-up wrote no cold report")
            continue
        lines, diffs = wls.roundtrip_errors(cold.read_text(), path.read_text())
        differing += lines
        errors += [f"{cmd.label}: cache round trip: {e}" for e in diffs]
    return found, matching, differing, errors


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.is_dir() else 0


def _machine() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup(args, workload, rep_dir: Path) -> dict:
    t0 = perf_counter()
    import degenheat.cli as cli
    import hostspeed

    cfgs = wls.write_configs(workload, rep_dir / "cfg", rep_dir / "cache")
    setup_s = hostspeed.at_reference(perf_counter() - t0, workload.probe_mix)
    errors = []
    if workload.prefill:
        with hostspeed.Sampler(wls.COLD_PROBE_MIX) as sampler:
            t1 = perf_counter()
            errors = _run_commands(cli, workload, cfgs, rep_dir / "fill", args.seed)
            fill_s = perf_counter() - t1
        setup_s += sampler.scaled(fill_s)
    if workload.prefill and not errors:
        errors = _check_outputs(workload, rep_dir / "fill")
    return {"setup_s": setup_s, "prefilled": workload.prefill, "errors": errors}


def selftest(tracer: tr.Tracer) -> list[str]:
    """Trace a small Picard run and compare the span-derived counts with the
    values the program returned, and the self times with the root span."""
    from degenheat import evolve, kernel, profiles, weights

    spec = weights.WeightSpec(weights.WeightCase.AXIS_POWER, 0.5, 1)
    grid = weights.make_grid(spec, 16.0, 32, 2.0)
    suite = kernel.KernelSuite(spec, grid, steps=16)
    u0 = grid.function(profiles.bump(0.0, 1.0, 0.5))
    cfg = evolve.EvolveConfig(p=2.0, horizon=1.0)
    with tracer.iteration() as root:
        run = evolve.picard_iterate(u0, cfg, suite)
    tree = tr.Tree(tracer.spans, root)
    errors = [f"self-test: {e}" for e in tr.check_tree(tree)]
    got = tr.aggregate([tree])
    d = run.sup_diffs
    ratios = [d[k + 1] / d[k] for k in range(len(d) - 1) if d[k] > 0.0]
    want = {
        "evolve.picard_iterate.calls": 1,
        "evolve.picard.sweeps": run.n_sweeps,
        "evolve.picard.contraction_median": statistics.median(ratios) if ratios else 0.0,
    }
    for key, value in want.items():
        if got[key] != value:
            errors.append(f"self-test: {key} is {got[key]!r}, the program returned {value!r}")
    return errors


def measure(args, workload, work: Path) -> dict:
    import degenheat.cli as cli
    import hostspeed

    rep_dir = work / f"setup{args.rep}"
    cache = rep_dir / "cache"
    cfgs = wls.write_configs(workload, work / f"run{args.rep}" / "cfg", cache)
    out_root = work / f"run{args.rep}" / "out"
    tracer = tr.Tracer() if args.trace else None
    harness_errors = selftest(tracer) if tracer else []

    untraced: list[float] = []
    untraced_wall: list[float] = []
    traced: list[float] = []
    trees: list[tr.Tree] = []
    failures: list[str] = []
    attempted = failed = outputs = identical = 0
    mismatch_lines: list[int] = []
    cache_bytes: list[int] = []
    slowness: list[float] = []
    start = perf_counter()
    while True:
        use_trace = tracer is not None and attempted % 2 == 1
        shutil.rmtree(out_root, ignore_errors=True)
        if workload.cold:
            shutil.rmtree(cache, ignore_errors=True)
        sampler = hostspeed.Sampler(workload.probe_mix)
        with tracer.iteration() if use_trace else sampler as root:
            t0 = perf_counter()
            errors = _run_commands(cli, workload, cfgs, out_root, args.seed)
            dt = perf_counter() - t0
        attempted += 1
        if use_trace:
            tree = tr.Tree(tracer.spans, root)
            harness_errors += tr.check_tree(tree)
            trees.append(tree)
            traced.append(dt)
        else:
            untraced.append(sampler.scaled(dt))
            untraced_wall.append(dt - sampler.probe_s)
            slowness += sampler.samples
        errors += _check_outputs(workload, out_root)
        checked, matching, lines, rt_errors = _compare_outputs(workload, out_root, rep_dir)
        outputs += checked
        identical += matching
        errors += rt_errors
        mismatch_lines.append(lines)
        cache_bytes.append(_dir_bytes(cache))
        if errors:
            failed += 1
            failures += errors
        if perf_counter() - start >= args.seconds and (
            traced if tracer is not None else len(untraced) >= workload.min_per_window
        ):
            break

    result = {
        "samples": untraced,
        "wall_samples": untraced_wall,
        "traced_samples": traced,
        "slowness": slowness,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "harness_errors": harness_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        per_layer = tr.aggregate(trees)
        per_layer["kernel.cache.bytes"] = statistics.fmean(cache_bytes)
        per_layer["kernel.cache.roundtrip_mismatch_lines"] = statistics.fmean(mismatch_lines)
        per_layer["cli.outputs_identical"] = identical / outputs if outputs else 0.0
        per_layer["trace.run_s_traced"] = statistics.median(traced)
        per_layer["trace.run_s_untraced"] = statistics.median(untraced_wall)
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced_wall)
        result["per_layer"] = per_layer
        result["extract_errors"] = tracer.extract_errors
        _dump_trace(trees[-1], work / "trace.json")
    return result


def _dump_trace(tree: tr.Tree, path: Path) -> None:
    """Write the spans of one traced iteration (times relative to its root)."""
    index = {id(s): i for i, s in enumerate(tree.spans)}
    t0 = tree.root.start
    rows = [
        {
            "name": s.name,
            "layer": s.layer,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "start": s.start - t0,
            "end": s.end - t0,
            "self_s": tree.self_s[id(s)],
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s in tree.spans
    ]
    path.write_text(json.dumps(rows))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = wls.WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(args, workload, args.dir / f"setup{args.rep}")
    else:
        result = measure(args, workload, args.dir)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
