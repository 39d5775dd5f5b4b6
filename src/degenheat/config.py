"""Flat key-value experiment configs with dotted section names.

The format is deliberately plain: one ``section.key = value`` per line,
``#`` comments, no nesting.  Each key is one row of ``_KEYS``.  Loading
checks every value, the grids and the initial data; a failure cites both
the line and the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .evolve import EvolveConfig
from .kernel import KernelSuite, _verification_times
from .profiles import build_initial_data
from .weights import Grid, GridError, WeightCase, WeightSpec, make_grid

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


class ExperimentConfig:
    """A resolved config: the attribute each row of ``_KEYS`` names and
    ``lines``, the line of each given key.  ``grid`` and ``suite`` are the
    one place a grid is built."""

    def __init__(self, lines: dict[str, int]):
        self.lines = lines
        self.evolve = _EVOLVE
        self._grids: dict[float, Grid] = {}

    def grid(self, alpha: float) -> Grid:
        """The configured grid for weight exponent alpha, built once."""
        if alpha not in self._grids:
            spec = WeightSpec(self.case, alpha, self.dimension)
            self._grids[alpha] = make_grid(spec, self.grid_radius, self.grid_cells, self.grid_grading)
        return self._grids[alpha]

    def suite(self, alpha: float) -> KernelSuite:
        """The kernel suite on the configured grid for weight exponent alpha."""
        grid = self.grid(alpha)
        return KernelSuite(grid.spec, grid, self.kernel_steps, self.kernel_cache_dir)

    def manifest_lines(self) -> list[str]:
        keys = sorted(_KEYS, key=attrgetter("name"))
        return [f"{k.name} = {k.show(attrgetter(k.attr)(self))}" for k in keys]


def _float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(part) for part in text.split(",") if part.strip())


def _case(text: str) -> WeightCase:
    try:
        return WeightCase(text)
    except ValueError:
        raise ValueError(f"expected 'axis' or 'radial', got {text!r}") from None


def _decay_pairs(text: str) -> tuple[tuple[float, float, str], ...]:
    pairs = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        bits = part.split(":")
        if len(bits) != 3 or bits[2] not in ("strong", "weak"):
            raise ValueError(f"decay pair must look like 'q:r:strong|weak', got {part!r}")
        q, r = (math.inf if b == "inf" else _float(b) for b in bits[:2])
        pairs.append((q, r, bits[2]))
    return tuple(pairs)


def _positive(value: float, cfg: ExperimentConfig) -> None:
    if not value > 0:
        raise ValueError(f"must be positive, got {value:g}")


def _grids(alphas: tuple[float, ...], cfg: ExperimentConfig) -> None:
    """Each exponent lies in the range of the case (a < 1, or b < n: checked
    by WeightSpec) and its grid can be built."""
    for a in alphas:
        cfg.grid(a)


def _sweep_p(ps: tuple[float, ...], cfg: ExperimentConfig) -> None:
    for p in ps:
        if not p > 1.0:
            raise ValueError(f"sweep exponents must satisfy p > 1, got {p:g}")


def _kernel_times(times: tuple[float, ...], cfg: ExperimentConfig) -> None:
    if any(t <= 0.0 for t in times):
        raise ValueError("kernel times must be positive")
    _verification_times(times)


def _initial_data(descriptor: str, cfg: ExperimentConfig) -> None:
    """The descriptor builds nonnegative data on the configured nodes, which
    no weight exponent changes."""
    try:
        u0, _ = build_initial_data(cfg.grid(cfg.exponent), descriptor)
    except OSError as exc:
        raise ValueError(f"cannot read initial data: {exc}") from exc
    if np.any(u0.values < 0.0):
        raise ValueError("initial data must be nonnegative")


_g17 = "{:.17g}".format


def _g17s(xs: tuple[float, ...]) -> str:
    return ",".join(map(_g17, xs))


@dataclass(frozen=True)
class _Key:
    """One config key, its value held at ``attr`` of ``ExperimentConfig``.

    ``default`` is the value of an absent key, or a function of the config so
    far that also stands in for an empty value.  ``parse`` (of the text) and
    ``check`` (of the value, against the config so far) raise ``ValueError``.
    ``show`` is the manifest format.
    """

    name: str
    attr: str
    default: Any
    parse: Callable[[str], Any]
    check: Callable[[Any, ExperimentConfig], None] | None = None
    show: Callable[[Any], str] = _g17


# The evolve.* defaults are EvolveConfig's own; the config's p is 2.
_EVOLVE = EvolveConfig(p=2.0)


def _evolve(field: str, parse: Callable[[str], Any], show: Callable[[Any], str] = _g17) -> _Key:
    return _Key("evolve." + field, "evolve." + field, getattr(_EVOLVE, field), parse, show=show)


# In load order: a check sees the keys above it.
_KEYS = (
    _Key("weight.case", "case", WeightCase.AXIS_POWER, _case, show=attrgetter("value")),
    _Key("weight.dimension", "dimension", 1, _int, _positive, str),
    _Key("grid.radius", "grid_radius", 32.0, _float),
    _Key("grid.cells", "grid_cells", 256, _int, show=str),
    _Key("grid.grading", "grid_grading", 2.0, _float),
    _Key("weight.exponent", "exponent", 0.5, _float, lambda a, cfg: _grids((a,), cfg)),
    _Key("kernel.times", "kernel_times", (0.25, 0.5, 1.0, 2.0, 4.0), _floats, _kernel_times, _g17s),
    _Key("kernel.steps", "kernel_steps", 256, _int, _positive, str),
    _Key(
        "kernel.cache_dir", "kernel_cache_dir", None, lambda text: text or None,
        show=lambda d: d or "",
    ),
    _evolve("p", _float),
    _evolve("horizon", _float),
    _evolve("ladder_t0", _float),
    _evolve("picard_tol", _float),
    _evolve("max_picard", _int, str),
    _evolve(
        "blowup_threshold", lambda text: _float(text) if text else None,
        lambda t: "" if t is None else _g17(t),
    ),
    _evolve("duhamel_steps", _int, str),
    _evolve("substeps", _int, str),
    _evolve("record_q", _floats, _g17s),
    _evolve("smallness_delta", _float),
    _Key("evolve.u0", "u0_descriptor", "bump(0,1,1)", str, _initial_data, str),
    _Key(
        "decay.pairs", "decay_pairs",
        ((1.0, math.inf, "strong"), (1.0, 2.0, "strong"), (2.0, math.inf, "weak")), _decay_pairs,
        show=lambda pairs: ",".join(f"{q:g}:{r:g}:{kind}" for q, r, kind in pairs),
    ),
    _Key("decay.times", "decay_times", (1.0, 2.0, 4.0, 8.0, 16.0), _floats, show=_g17s),
    _Key("sweep.p", "sweep_p", (), _floats, _sweep_p, _g17s),
    _Key("sweep.alpha", "sweep_alpha", lambda cfg: (cfg.exponent,), _floats, _grids, _g17s),
    _Key("sweep.u0", "sweep_u0", "bump(0,1,0.75)", str, _initial_data, str),
    _Key("sweep.delta0", "sweep_delta0", 0.1, _float, _positive),
    _Key("sweep.super_horizon", "sweep_super_horizon", 65536.0, _float, _positive),
)
_KNOWN_KEYS = frozenset(k.name for k in _KEYS)


def parse_config_text(text: str) -> ExperimentConfig:
    given: dict[str, str] = {}
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
        if key in given:
            raise ConfigError(f"duplicate key {key!r}", line=i, key=key)
        given[key] = value
        lines[key] = i

    cfg = ExperimentConfig(lines)
    for key in _KEYS:
        text = given.get(key.name)
        derived = callable(key.default)
        try:
            if text is None or (derived and not text):
                value = key.default(cfg) if derived else key.default
            else:
                value = key.parse(text)
            if key.check is not None:
                key.check(value, cfg)
            owner, _, field = key.attr.rpartition(".")
            if owner:  # a field of the frozen EvolveConfig, which checks it
                cfg.evolve = replace(cfg.evolve, **{field: value})
            else:
                setattr(cfg, key.attr, value)
        except ValueError as exc:  # a grid is blamed on the grid key at fault
            name = f"grid.{exc.param}" if isinstance(exc, GridError) else key.name
            raise ConfigError(str(exc), lines.get(name), name) from exc
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())
