import math
from pathlib import Path

import numpy as np
import pytest

from degenheat.cli import main
from degenheat.config import _KNOWN_KEYS, ConfigError, parse_config_text
from degenheat.profiles import build_initial_data, parse_descriptor
from degenheat.weights import WeightCase, WeightSpec, make_grid

# The production sweep config of scripts/run_dichotomy_sweep.py.
SWEEP_CONFIG = """\
weight.case = axis
weight.exponent = 0.5
weight.dimension = 1
grid.radius = 7168
grid.cells = 768
grid.grading = 3
kernel.steps = 256
evolve.horizon = 256
evolve.smallness_delta = 1.0
sweep.p = 1.5,2.0,2.3333333333333335,3.0
sweep.u0 = bump(0,1,0.75)
sweep.delta0 = 0.1
sweep.super_horizon = 65536
"""

SWEEP_MANIFEST = [
    "decay.pairs = 1:inf:strong,1:2:strong,2:inf:weak",
    "decay.times = 1,2,4,8,16",
    "evolve.blowup_threshold = ",
    "evolve.duhamel_steps = 112",
    "evolve.horizon = 256",
    "evolve.ladder_t0 = 0.25",
    "evolve.max_picard = 60",
    "evolve.p = 2",
    "evolve.picard_tol = 9.9999999999999995e-07",
    "evolve.record_q = ",
    "evolve.smallness_delta = 1",
    "evolve.substeps = 4",
    "evolve.u0 = bump(0,1,1)",
    "grid.cells = 768",
    "grid.grading = 3",
    "grid.radius = 7168",
    "kernel.cache_dir = ",
    "kernel.steps = 256",
    "kernel.times = 0.25,0.5,1,2,4",
    "sweep.alpha = 0.5",
    "sweep.delta0 = 0.10000000000000001",
    "sweep.p = 1.5,2,2.3333333333333335,3",
    "sweep.super_horizon = 65536",
    "sweep.u0 = bump(0,1,0.75)",
    "weight.case = axis",
    "weight.dimension = 1",
    "weight.exponent = 0.5",
]

# A kernel-verify config that sets the keys with their own manifest formats.
VERIFY_CONFIG = """\
weight.case = radial
weight.exponent = 1
weight.dimension = 2
grid.radius = 16
grid.cells = 256
grid.grading = 2
kernel.times = 0.25,0.5,1,2
kernel.cache_dir = cache/tables
evolve.blowup_threshold = 1e4
decay.pairs = 1:inf:strong,1.5:4:weak
"""

VERIFY_MANIFEST = [
    "decay.pairs = 1:inf:strong,1.5:4:weak",
    "decay.times = 1,2,4,8,16",
    "evolve.blowup_threshold = 10000",
    "evolve.duhamel_steps = 112",
    "evolve.horizon = 256",
    "evolve.ladder_t0 = 0.25",
    "evolve.max_picard = 60",
    "evolve.p = 2",
    "evolve.picard_tol = 9.9999999999999995e-07",
    "evolve.record_q = ",
    "evolve.smallness_delta = 0.10000000000000001",
    "evolve.substeps = 4",
    "evolve.u0 = bump(0,1,1)",
    "grid.cells = 256",
    "grid.grading = 2",
    "grid.radius = 16",
    "kernel.cache_dir = cache/tables",
    "kernel.steps = 256",
    "kernel.times = 0.25,0.5,1,2",
    "sweep.alpha = 1",
    "sweep.delta0 = 0.10000000000000001",
    "sweep.p = ",
    "sweep.super_horizon = 65536",
    "sweep.u0 = bump(0,1,0.75)",
    "weight.case = radial",
    "weight.dimension = 2",
    "weight.exponent = 1",
]


class TestConfigParsing:
    def test_defaults_resolve(self):
        cfg = parse_config_text("weight.case = axis\nweight.exponent = 0.5\nweight.dimension = 1\n")
        assert cfg.case is WeightCase.AXIS_POWER
        assert cfg.grid_cells == 256
        assert cfg.evolve.p == 2.0
        assert cfg.kernel_times == (0.25, 0.5, 1.0, 2.0, 4.0)

    def test_axis_exponent_bound_cited(self):
        with pytest.raises(ConfigError, match="a < 1"):
            parse_config_text("weight.case = axis\nweight.exponent = 1.2\n")

    def test_radial_exponent_bound_cited(self):
        with pytest.raises(ConfigError, match="b < n"):
            parse_config_text(
                "weight.case = radial\nweight.exponent = 2.5\nweight.dimension = 2\n"
            )

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("weight.case = axis\nweight.oops = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("weight.case = axis\nweight.case = radial\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# heading\n\nweight.case = radial # inline\nweight.dimension = 2\nweight.exponent = 1\n")
        assert cfg.case is WeightCase.RADIAL_POWER

    def test_bad_number_cites_field(self):
        with pytest.raises(ConfigError, match="grid.radius"):
            parse_config_text("weight.case = axis\ngrid.radius = wide\n")

    def test_decay_pairs_parse(self):
        cfg = parse_config_text("weight.case = axis\ndecay.pairs = 1:inf:strong,2:inf:weak\n")
        assert cfg.decay_pairs == ((1.0, math.inf, "strong"), (2.0, math.inf, "weak"))

    @pytest.mark.parametrize(
        "line, field",
        [
            ("sweep.alpha = 0.5,1.5", "sweep.alpha"),
            ("sweep.alpha = -0.5", "sweep.alpha"),
            ("sweep.p = 0.5,3.0", "sweep.p"),
            ("sweep.delta0 = 0", "sweep.delta0"),
            ("sweep.super_horizon = -1", "sweep.super_horizon"),
            ("evolve.horizon = -1", "evolve.horizon"),
            ("evolve.substeps = 0", "evolve.substeps"),
        ],
    )
    def test_bad_sweep_value_cites_line_and_field(self, line, field):
        with pytest.raises(ConfigError, match=f"line 2, field {field}"):
            parse_config_text(f"weight.case = axis\n{line}\n")

    @pytest.mark.parametrize(
        "times, reason",
        [("1,2,3", "at least 4 times, got 3"), ("1,2,3,4", "geometrically spaced")],
    )
    def test_bad_kernel_times_cite_line_and_field(self, times, reason):
        with pytest.raises(ConfigError, match=f"line 2, field kernel.times: .*{reason}"):
            parse_config_text(f"weight.case = axis\nkernel.times = {times}\n")

    def test_manifest_lines_cover_all_keys(self):
        cfg = parse_config_text("weight.case = axis\nweight.exponent = 0.5\n")
        keys = [line.split(" = ")[0] for line in cfg.manifest_lines()]
        assert {"weight.case", "grid.cells", "evolve.p", "sweep.delta0"} <= set(keys)
        assert keys == sorted(_KNOWN_KEYS) and len(keys) == 27

    @pytest.mark.parametrize("config, expected", [(SWEEP_CONFIG, SWEEP_MANIFEST), (VERIFY_CONFIG, VERIFY_MANIFEST)])
    def test_manifest_lines_golden(self, config, expected):
        assert parse_config_text(config).manifest_lines() == expected

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        listed = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
        assert sorted(listed) == sorted(_KNOWN_KEYS)


class TestDescriptors:
    def test_parse_forms(self):
        assert parse_descriptor("bump(0,1,2)") == ("bump", (0.0, 1.0, 2.0))
        assert parse_descriptor("corollary_profile(0.05,3)") == ("corollary_profile", (0.05, 3.0))
        assert parse_descriptor("indicator(1.5)") == ("indicator", (1.5,))
        assert parse_descriptor("table:/tmp/u0.txt") == ("table", "/tmp/u0.txt")

    def test_malformed_rejected(self):
        for bad in ("bump(1,2", "mystery(1)", "bump(a,b,c)", "bump(1)", "bump(0,1,inf)", "indicator(nan)"):
            with pytest.raises(ValueError):
                parse_descriptor(bad)

    def test_table_roundtrip(self, tmp_path):
        spec = WeightSpec(WeightCase.AXIS_POWER, 0.5, 1)
        grid = make_grid(spec, 4.0, 16)
        path = tmp_path / "u0.txt"
        vals = np.linspace(0.0, 1.0, grid.n_nodes)
        np.savetxt(path, vals)
        f, fn = build_initial_data(grid, f"table:{path}")
        assert fn is None
        assert np.allclose(f.values, vals)

    def test_table_length_mismatch(self, tmp_path):
        spec = WeightSpec(WeightCase.AXIS_POWER, 0.5, 1)
        grid = make_grid(spec, 4.0, 16)
        path = tmp_path / "u0.txt"
        np.savetxt(path, np.ones(5))
        with pytest.raises(ValueError, match="nodes"):
            build_initial_data(grid, f"table:{path}")


BASE = {
    "weight.case": "axis",
    "weight.exponent": "0.5",
    "weight.dimension": "1",
    "grid.radius": "16",
    "grid.cells": "96",
    "grid.grading": "2.0",
    "kernel.steps": "64",
}


def write_cfg(tmp_path: Path, overrides: dict[str, str], name: str = "run.cfg") -> Path:
    merged = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in merged.items()) + "\n")
    return path


class TestCliCommands:
    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("weight.case = axis\nweight.exponent = 1.2\n")
        rc = main(["lorentz-selftest", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "a < 1" in capsys.readouterr().err

    def test_bad_sweep_value_exits_two(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, {"sweep.p": "1.8,3.0", "sweep.alpha": "1.5"})
        rc = main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "field sweep.alpha" in capsys.readouterr().err

    def test_bad_kernel_times_exit_two(self, tmp_path, capsys):
        cfgp = write_cfg(tmp_path, {"kernel.times": "1,2,3"})
        rc = main(["kernel-verify", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field kernel.times" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, overrides, rc, cited",
        [
            ("evolve", {"evolve.u0": "bump(0,0,1)"}, 2, "evolve.u0"),
            ("evolve", {"evolve.u0": "indicator(0)"}, 2, "evolve.u0"),
            ("evolve", {"evolve.u0": "indicator(-1)"}, 2, "evolve.u0"),
            ("evolve", {"evolve.u0": "table:{tmp}/missing.txt"}, 2, "evolve.u0"),
            ("evolve", {"evolve.u0": "bump(0,1,1e308)"}, 1, "FloatingPointError"),
            ("evolve", {"grid.radius": "1e-300"}, 2, "grid.radius"),
            ("evolve", {"grid.grading": "1e308"}, 2, "grid.grading"),
            ("sweep", {"sweep.p": "3.0", "sweep.u0": "indicator(0)"}, 2, "sweep.u0"),
            # builds a grid whose face rates overflow: a numerical failure, not a traceback
            ("evolve", {"grid.grading": "100"}, 1, "LinAlgError"),
        ],
    )
    def test_bad_input_ends_in_a_cited_error(self, tmp_path, capsys, command, overrides, rc, cited):
        overrides = {k: v.format(tmp=tmp_path) for k, v in overrides.items()}
        cfgp = write_cfg(tmp_path, {"evolve.horizon": "2", **overrides})
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        assert cited in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides",
        [{"evolve.p": "1.0000000001"}, {"weight.exponent": "0.9999999999"}],
    )
    def test_inputs_at_the_edge_of_range_run(self, tmp_path, overrides):
        cfgp = write_cfg(tmp_path, {"evolve.horizon": "2", **overrides})
        assert main(["evolve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["lorentz-selftest", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2

    def test_lorentz_selftest(self, tmp_path):
        cfgp = write_cfg(tmp_path, {})
        out = tmp_path / "out"
        assert main(["lorentz-selftest", "--config", str(cfgp), "--out", str(out)]) == 0
        body = (out / "lorentz_selftest.csv").read_text()
        assert body.startswith("function,check,lhs,rhs,margin")
        manifest = (out / "manifest.txt").read_text()
        assert "command = lorentz-selftest" in manifest
        assert "weight.exponent = 0.5" in manifest

    def test_kernel_verify(self, tmp_path):
        cfgp = write_cfg(tmp_path, {"kernel.times": "0.25,0.5,1,2"})
        out = tmp_path / "out"
        assert main(["kernel-verify", "--config", str(cfgp), "--out", str(out)]) == 0
        body = (out / "kernel_report.csv").read_text()
        assert "k1_row_mass_error" in body and "envelope_upper" in body

    def test_kernel_verify_warm_cache_same_bytes(self, tmp_path):
        cfgp = write_cfg(
            tmp_path, {"kernel.times": "0.25,0.5,1,2", "kernel.cache_dir": str(tmp_path / "cache")}
        )
        reports = []
        for name in ("cold", "warm"):
            out = tmp_path / name
            assert main(["kernel-verify", "--config", str(cfgp), "--out", str(out)]) == 0
            reports.append((out / "kernel_report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_kernel_verify_reports_gaussian_line_when_unweighted(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"weight.exponent": "0", "grid.cells": "192", "kernel.steps": "128",
             "kernel.times": "0.25,0.5,1,2"},
        )
        out = tmp_path / "out"
        assert main(["kernel-verify", "--config", str(cfgp), "--out", str(out)]) == 0
        line = next(
            l for l in (out / "kernel_report.csv").read_text().splitlines()
            if l.startswith("gaussian_match_error")
        )
        assert float(line.split(",")[2]) < 0.01

    def test_evolve_trajectory(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"evolve.p": "2.0", "evolve.horizon": "2", "evolve.u0": "bump(0,0.8,0.05)"},
        )
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfgp), "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("time,sup_norm,strong_")
        assert any(line.startswith("# outcome = converged") for line in lines)

    def test_decay_fit(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"grid.radius": "32", "grid.cells": "192", "kernel.steps": "128",
             "decay.pairs": "1:inf:strong", "decay.times": "1,2,4,8"},
        )
        out = tmp_path / "out"
        assert main(["decay-fit", "--config", str(cfgp), "--out", str(out)]) == 0
        lines = (out / "decay_fit.csv").read_text().splitlines()
        assert lines[0] == "q,r,kind,slope,intercept,predicted,relative_error"
        assert len(lines) == 2

    def test_classify_cell(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"grid.radius": "64", "grid.cells": "192",
             "evolve.p": "1.8", "evolve.horizon": "64", "evolve.u0": "bump(0,1,1.5)"},
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfgp), "--out", str(out)]) == 0
        body = (out / "classify.csv").read_text()
        assert "blowup" in body

    def test_classify_exponent_near_one(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"grid.radius": "16", "grid.cells": "64", "evolve.p": "1.01", "evolve.horizon": "16"},
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", str(cfgp), "--out", str(out)]) == 0
        assert (out / "classify.csv").read_text().startswith("p,alpha,outcome")

    def test_sweep_outputs_and_determinism(self, tmp_path):
        cfgp = write_cfg(
            tmp_path,
            {"grid.radius": "448", "grid.cells": "256", "grid.grading": "3",
             "evolve.horizon": "16", "sweep.p": "1.8,3.0", "sweep.u0": "bump(0,1,1.5)",
             "sweep.super_horizon": "1024", "evolve.smallness_delta": "1.0"},
        )
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["sweep", "--config", str(cfgp), "--out", str(out), "--seed", "7"]) == 0
            outs.append(out)
        a = (outs[0] / "sweep.csv").read_bytes()
        b = (outs[1] / "sweep.csv").read_bytes()
        assert a == b
        svg = (outs[0] / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        manifest = (outs[0] / "manifest.txt").read_text()
        assert "seed = 7" in manifest
        # --jobs is accepted for compatibility and changes nothing
        out3 = tmp_path / "o3"
        assert main([
            "sweep", "--config", str(cfgp), "--out", str(out3), "--seed", "7", "--jobs", "2",
        ]) == 0
        assert (out3 / "sweep.csv").read_bytes() == a
