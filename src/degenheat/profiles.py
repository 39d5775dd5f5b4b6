"""Initial-data descriptors: smooth bumps, the critical-tail profile,
indicators, and nodal tables loaded from disk."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from .weights import Grid, GridFunction

__all__ = [
    "bump",
    "corollary_profile",
    "indicator",
    "parse_descriptor",
    "build_initial_data",
]


def bump(center: float, width: float, height: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth compactly supported bump of the given peak height.

    On an axis grid the nodal coordinate is |x_1|, so an off-center bump
    represents the even pair at +-center.
    """
    if width <= 0.0:
        raise ValueError(f"bump width must be positive, got {width}")

    def f(x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - center) / width
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
        return out

    return f


def corollary_profile(delta: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """Critical-tail datum delta / (1 + |x|^{2/(p-1)})."""
    if not p > 1.0:
        raise ValueError(f"profile exponent must satisfy p > 1, got {p}")
    expo = 2.0 / (p - 1.0)

    def f(x: np.ndarray) -> np.ndarray:
        return delta / (1.0 + np.abs(np.asarray(x, dtype=float)) ** expo)

    return f


def indicator(radius: float) -> Callable[[np.ndarray], np.ndarray]:
    if radius <= 0.0:
        raise ValueError(f"indicator radius must be positive, got {radius}")

    def f(x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(np.asarray(x, dtype=float)) <= radius, 1.0, 0.0)

    return f


def parse_descriptor(text: str) -> tuple[str, tuple[float, ...] | str]:
    """Parse 'bump(c,w,h)' / 'corollary_profile(d,p)' / 'indicator(r)' / 'table:path'."""
    text = text.strip()
    if text.startswith("table:"):
        return "table", text[len("table:"):]
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"malformed initial-data descriptor: {text!r}")
    name, argstr = text[:-1].split("(", 1)
    name = name.strip()
    if name not in ("bump", "corollary_profile", "indicator"):
        raise ValueError(f"unknown initial-data descriptor {name!r}")
    try:
        args = tuple(float(a) for a in argstr.split(",") if a.strip())
    except ValueError as exc:
        raise ValueError(f"non-numeric argument in descriptor {text!r}") from exc
    want = {"bump": 3, "corollary_profile": 2, "indicator": 1}[name]
    if len(args) != want:
        raise ValueError(f"descriptor {name} takes {want} arguments, got {len(args)}")
    if not np.all(np.isfinite(args)):
        raise ValueError(f"non-finite argument in descriptor {text!r}")
    return name, args


def build_initial_data(
    grid: Grid, descriptor: str
) -> tuple[GridFunction, Callable[[np.ndarray], np.ndarray] | None]:
    """Materialize a descriptor on the grid, keeping the callable when analytic."""
    name, args = parse_descriptor(descriptor)
    if name == "table":
        path = Path(args)
        vals = np.loadtxt(path, dtype=float, ndmin=1)
        if vals.shape != (grid.n_nodes,):
            raise ValueError(
                f"table {path} holds {vals.shape[0]} values, grid has {grid.n_nodes} nodes"
            )
        return grid.function(vals), None
    fn = {"bump": bump, "corollary_profile": corollary_profile, "indicator": indicator}[name](*args)
    return grid.function(fn), fn
