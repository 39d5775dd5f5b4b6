"""Flat key-value experiment configs with dotted section names.

The format is deliberately plain: one ``section.key = value`` per line,
``#`` comments, no nesting.  Parsing keeps line numbers so validation
failures cite both the line and the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .evolve import EvolveConfig
from .kernel import _verification_times
from .weights import WeightCase, WeightSpec, make_grid

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"field {key}")
        prefix = f"config error at {', '.join(where)}: " if where else "config error: "
        super().__init__(prefix + message)
        self.line = line
        self.key = key


_KNOWN_KEYS = {
    "weight.case", "weight.exponent", "weight.dimension",
    "grid.radius", "grid.cells", "grid.grading",
    "kernel.times", "kernel.steps", "kernel.cache_dir",
    "evolve.p", "evolve.u0", "evolve.horizon", "evolve.ladder_t0",
    "evolve.picard_tol", "evolve.max_picard", "evolve.blowup_threshold",
    "evolve.duhamel_steps", "evolve.substeps", "evolve.record_q",
    "evolve.smallness_delta",
    "decay.pairs", "decay.times",
    "sweep.p", "sweep.alpha", "sweep.u0", "sweep.delta0", "sweep.super_horizon",
}


@dataclass
class ExperimentConfig:
    raw: dict[str, str]
    lines: dict[str, int]

    # resolved sections
    case: WeightCase = WeightCase.AXIS_POWER
    exponent: float = 0.5
    dimension: int = 1
    grid_radius: float = 32.0
    grid_cells: int = 256
    grid_grading: float = 2.0
    kernel_times: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    kernel_steps: int = 256
    kernel_cache_dir: str | None = None
    evolve: EvolveConfig = field(default_factory=lambda: EvolveConfig(p=2.0))
    u0_descriptor: str = "bump(0,1,1)"
    decay_pairs: tuple[tuple[float, float, str], ...] = ()
    decay_times: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    sweep_p: tuple[float, ...] = ()
    sweep_alpha: tuple[float, ...] = ()
    sweep_u0: str = "bump(0,1,0.75)"
    sweep_delta0: float = 0.1
    sweep_super_horizon: float = 65536.0

    def spec(self) -> WeightSpec:
        return WeightSpec(self.case, self.exponent, self.dimension)

    def grid(self):
        return make_grid(self.spec(), self.grid_radius, self.grid_cells, self.grid_grading)

    def manifest_lines(self) -> list[str]:
        ev = self.evolve
        resolved = {
            "weight.case": self.case.value,
            "weight.exponent": f"{self.exponent:.17g}",
            "weight.dimension": str(self.dimension),
            "grid.radius": f"{self.grid_radius:.17g}",
            "grid.cells": str(self.grid_cells),
            "grid.grading": f"{self.grid_grading:.17g}",
            "kernel.times": ",".join(f"{t:.17g}" for t in self.kernel_times),
            "kernel.steps": str(self.kernel_steps),
            "kernel.cache_dir": self.kernel_cache_dir or "",
            "evolve.p": f"{ev.p:.17g}",
            "evolve.u0": self.u0_descriptor,
            "evolve.horizon": f"{ev.horizon:.17g}",
            "evolve.ladder_t0": f"{ev.ladder_t0:.17g}",
            "evolve.picard_tol": f"{ev.picard_tol:.17g}",
            "evolve.max_picard": str(ev.max_picard),
            "evolve.blowup_threshold": "" if ev.blowup_threshold is None else f"{ev.blowup_threshold:.17g}",
            "evolve.duhamel_steps": str(ev.duhamel_steps),
            "evolve.substeps": str(ev.substeps),
            "evolve.record_q": ",".join(f"{q:.17g}" for q in ev.record_q),
            "evolve.smallness_delta": f"{ev.smallness_delta:.17g}",
            "decay.pairs": ",".join(f"{q:g}:{r:g}:{k}" for q, r, k in self.decay_pairs),
            "decay.times": ",".join(f"{t:.17g}" for t in self.decay_times),
            "sweep.p": ",".join(f"{p:.17g}" for p in self.sweep_p),
            "sweep.alpha": ",".join(f"{a:.17g}" for a in self.sweep_alpha),
            "sweep.u0": self.sweep_u0,
            "sweep.delta0": f"{self.sweep_delta0:.17g}",
            "sweep.super_horizon": f"{self.sweep_super_horizon:.17g}",
        }
        return [f"{k} = {v}" for k, v in sorted(resolved.items())]


def _parse_float(cfg: "ExperimentConfig", key: str, value: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", cfg.lines.get(key), key)
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {value!r}", cfg.lines.get(key), key)
    return v


def _parse_int(cfg: "ExperimentConfig", key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", cfg.lines.get(key), key)


def _parse_floats(cfg: "ExperimentConfig", key: str, value: str) -> tuple[float, ...]:
    return tuple(_parse_float(cfg, key, part) for part in value.split(",") if part.strip())


def _check_exponent(cfg: "ExperimentConfig", key: str, a: float) -> None:
    """The weight exponent range of the configured case: a < 1 or b < n."""
    if a < 0.0:
        raise ConfigError("weight exponent must be nonnegative", cfg.lines.get(key), key)
    if cfg.case is WeightCase.AXIS_POWER and not a < 1.0:
        raise ConfigError(
            f"axis-power weights require exponent a < 1, got {a:g}", cfg.lines.get(key), key
        )
    if cfg.case is WeightCase.RADIAL_POWER and not a < cfg.dimension:
        raise ConfigError(
            f"radial-power weights require exponent b < n = {cfg.dimension}, got {a:g}",
            cfg.lines.get(key), key,
        )


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'section.key = value'", line=i)
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=i, key=key)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=i, key=key)
        raw[key] = value
        lines[key] = i

    cfg = ExperimentConfig(raw=raw, lines=lines)

    def get(key: str, default: str | None = None) -> str | None:
        return raw.get(key, default)

    case_txt = get("weight.case", "axis")
    if case_txt not in ("axis", "radial"):
        raise ConfigError(
            f"weight.case must be 'axis' or 'radial', got {case_txt!r}",
            lines.get("weight.case"), "weight.case",
        )
    cfg.case = WeightCase.AXIS_POWER if case_txt == "axis" else WeightCase.RADIAL_POWER
    cfg.dimension = _parse_int(cfg, "weight.dimension", get("weight.dimension", "1"))
    cfg.exponent = _parse_float(cfg, "weight.exponent", get("weight.exponent", "0.5"))
    if cfg.dimension < 1:
        raise ConfigError("dimension must be a positive integer",
                          lines.get("weight.dimension"), "weight.dimension")
    _check_exponent(cfg, "weight.exponent", cfg.exponent)

    cfg.grid_radius = _parse_float(cfg, "grid.radius", get("grid.radius", "32"))
    cfg.grid_cells = _parse_int(cfg, "grid.cells", get("grid.cells", "256"))
    cfg.grid_grading = _parse_float(cfg, "grid.grading", get("grid.grading", "2.0"))
    if cfg.grid_radius <= 0.0:
        raise ConfigError("grid radius must be positive", lines.get("grid.radius"), "grid.radius")
    if cfg.grid_cells < 16:
        raise ConfigError("need at least 16 cells", lines.get("grid.cells"), "grid.cells")
    if cfg.grid_grading < 1.0:
        raise ConfigError("grading exponent must be >= 1", lines.get("grid.grading"), "grid.grading")

    cfg.kernel_times = _parse_floats(cfg, "kernel.times", get("kernel.times", "0.25,0.5,1,2,4"))
    cfg.kernel_steps = _parse_int(cfg, "kernel.steps", get("kernel.steps", "256"))
    cfg.kernel_cache_dir = get("kernel.cache_dir") or None
    if any(t <= 0.0 for t in cfg.kernel_times):
        raise ConfigError("kernel times must be positive", lines.get("kernel.times"), "kernel.times")
    try:
        _verification_times(cfg.kernel_times)
    except ValueError as exc:
        raise ConfigError(str(exc), lines.get("kernel.times"), "kernel.times") from exc
    if cfg.kernel_steps < 1:
        raise ConfigError("kernel steps must be positive", lines.get("kernel.steps"), "kernel.steps")

    thr_txt = get("evolve.blowup_threshold", "")
    record_q = _parse_floats(cfg, "evolve.record_q", get("evolve.record_q", ""))
    try:
        cfg.evolve = EvolveConfig(
            p=_parse_float(cfg, "evolve.p", get("evolve.p", "2.0")),
            horizon=_parse_float(cfg, "evolve.horizon", get("evolve.horizon", "256")),
            duhamel_steps=_parse_int(cfg, "evolve.duhamel_steps", get("evolve.duhamel_steps", "112")),
            picard_tol=_parse_float(cfg, "evolve.picard_tol", get("evolve.picard_tol", "1e-6")),
            blowup_threshold=None if not thr_txt else _parse_float(cfg, "evolve.blowup_threshold", thr_txt),
            max_picard=_parse_int(cfg, "evolve.max_picard", get("evolve.max_picard", "60")),
            substeps=_parse_int(cfg, "evolve.substeps", get("evolve.substeps", "4")),
            ladder_t0=_parse_float(cfg, "evolve.ladder_t0", get("evolve.ladder_t0", "0.25")),
            record_q=record_q,
            smallness_delta=_parse_float(
                cfg, "evolve.smallness_delta", get("evolve.smallness_delta", "0.1")
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="evolve") from exc
    cfg.u0_descriptor = get("evolve.u0", "bump(0,1,1)")

    pairs_txt = get("decay.pairs", "1:inf:strong,1:2:strong,2:inf:weak")
    pairs = []
    for part in pairs_txt.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3 or bits[2] not in ("strong", "weak"):
            raise ConfigError(
                f"decay pair must look like 'q:r:strong|weak', got {part!r}",
                lines.get("decay.pairs"), "decay.pairs",
            )
        q = math.inf if bits[0] == "inf" else _parse_float(cfg, "decay.pairs", bits[0])
        r = math.inf if bits[1] == "inf" else _parse_float(cfg, "decay.pairs", bits[1])
        pairs.append((q, r, bits[2]))
    cfg.decay_pairs = tuple(pairs)
    cfg.decay_times = _parse_floats(cfg, "decay.times", get("decay.times", "1,2,4,8,16"))

    cfg.sweep_p = _parse_floats(cfg, "sweep.p", get("sweep.p", ""))
    cfg.sweep_alpha = _parse_floats(cfg, "sweep.alpha", get("sweep.alpha", "")) or (cfg.exponent,)
    cfg.sweep_u0 = get("sweep.u0", "bump(0,1,0.75)")
    cfg.sweep_delta0 = _parse_float(cfg, "sweep.delta0", get("sweep.delta0", "0.1"))
    cfg.sweep_super_horizon = _parse_float(
        cfg, "sweep.super_horizon", get("sweep.super_horizon", "65536")
    )
    for p in cfg.sweep_p:
        if not p > 1.0:
            raise ConfigError(f"sweep exponents must satisfy p > 1, got {p:g}",
                              lines.get("sweep.p"), "sweep.p")
    for a in cfg.sweep_alpha:
        _check_exponent(cfg, "sweep.alpha", a)
    for key, value in (("sweep.delta0", cfg.sweep_delta0),
                       ("sweep.super_horizon", cfg.sweep_super_horizon)):
        if not value > 0.0:
            raise ConfigError(f"{key} must be positive, got {value:g}", lines.get(key), key)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())
