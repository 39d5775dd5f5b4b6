"""The scripts under ``scripts/`` run end to end, in process."""

import importlib.util
from pathlib import Path

from test_acceptance import PRODUCTION_SWEEP_CSV

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_evolve_demo(capsys):
    _load("evolve_demo").run()
    out = capsys.readouterr().out
    assert out.startswith("outcome: converged after ")
    assert len(out.splitlines()) == 2 + 11  # one row per ladder time 0.25 .. 256


def test_kernel_report(capsys):
    _load("kernel_report").run()
    assert capsys.readouterr().out.count("== ") == 4


def test_run_dichotomy_sweep(tmp_path):
    assert _load("run_dichotomy_sweep").run(tmp_path) == 0
    assert (tmp_path / "sweep.csv").read_text() == PRODUCTION_SWEEP_CSV
