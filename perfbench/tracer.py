"""Span tracer for the degenheat package, installed from outside the program.

The tracer rebinds every public function and public method of the package
modules to a wrapper that records a span (name, start, end, parent) while it
is installed, and restores the originals when it is uninstalled.  Functions
are rebound in every module namespace that bound them, so ``blowup``'s own
name for ``picard_iterate`` is traced as well.  A few spans also record
counts derived from their arguments or return values (``EXTRACTORS``).

``aggregate`` turns the spans of traced iterations into per-layer metrics;
``check_tree`` is the accounting self-test (nesting and self-time sums).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import statistics
from enum import Enum
from time import perf_counter

# module -> layer; config, profiles and constants count under cli
LAYER_OF_MODULE = {
    "weights": "weights",
    "lorentz": "lorentz",
    "kernel": "kernel",
    "semigroup": "semigroup",
    "evolve": "evolve",
    "blowup": "blowup",
    "cli": "cli",
    "config": "cli",
    "profiles": "cli",
    "constants": "cli",
}

ROOT = "bench.iteration"


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "attrs")

    def __init__(self, name: str, layer: str, parent: "Span | None") -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# counts derived from arguments and return values
# ---------------------------------------------------------------------------


def _propagate_attrs(bound, result) -> dict:
    values, t, steps = bound["values"], bound["t"], bound["steps"]
    rows = values.shape[0]
    cols = values.shape[1] if values.ndim == 2 else 1
    solves = int(steps) if (t != 0.0 and steps != 0) else 0
    # computed, not measured: per solve the band (3 rows) and the right-hand
    # sides are read and the solution written, 8 bytes per entry
    return {
        "solves": solves,
        "columns": solves * cols,
        "bytes": solves * 8 * (3 * rows + 2 * rows * cols),
    }


def _picard_attrs(bound, result) -> dict:
    return {"sweeps": int(result.n_sweeps), "sup_diffs": tuple(float(d) for d in result.sup_diffs)}


def _calibrate_attrs(bound, result) -> dict:
    delta = float(result[0])
    return {"halvings": int(round(math.log2(float(bound["delta0"]) / delta)))}


def _cell_attrs(bound, result) -> dict:
    spec, p = bound["spec"], float(bound["p"])
    p_star = 1.0 + 2.0 / (spec.dimension + spec.alpha)
    if abs(p - p_star) <= 1e-12 * p_star:
        regime = "critical"
    else:
        regime = "subcritical" if p < p_star else "supercritical"
    return {"regime": regime}


EXTRACTORS = {
    "kernel.propagate": _propagate_attrs,
    "evolve.picard_iterate": _picard_attrs,
    "evolve.calibrate_delta": _calibrate_attrs,
    "blowup.run_cell": _cell_attrs,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


class Tracer:
    """Records spans of the package's public callables while installed."""

    def __init__(self, package: str = "degenheat") -> None:
        self.package = package
        self.spans: list[Span] = []
        self.extract_errors: dict[str, str] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, layer: str = "bench") -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def _wrap(self, fn, name: str, layer: str):
        extract = EXTRACTORS.get(name)
        sig = inspect.signature(fn) if extract is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if extract is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = extract(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                    # an API change must not stop the run; it is reported
                    tracer.extract_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    @contextlib.contextmanager
    def iteration(self):
        """Trace the block: install, record a root span around it, uninstall.

        The spans of the block replace ``spans``; the root span is yielded.
        """
        self.spans = []
        self.install()
        root = self.begin(ROOT)
        try:
            yield root
        finally:
            self.end(root)
            self.uninstall()

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            short: importlib.import_module(f"{self.package}.{short}") for short in LAYER_OF_MODULE
        }
        namespaces = list(modules.values()) + [importlib.import_module(self.package)]
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            layer = LAYER_OF_MODULE[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}", layer)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._install_methods(obj, f"{short}.{attr}", layer)
        # rebind each wrapped function wherever the package bound it
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def _install_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                new = self._wrap(raw, f"{prefix}.{attr}", layer)
            elif isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, f"{prefix}.{attr}", layer))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# tree accounting
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tree:
    """Spans of one traced iteration with children and self times."""

    def __init__(self, spans: list[Span], root: Span) -> None:
        self.root = root
        self.spans = spans
        self.children: dict[int, list[Span]] = {id(s): [] for s in spans}
        for s in spans:
            if s.parent is not None:
                self.children[id(s.parent)].append(s)
        self.self_s = {
            id(s): s.duration
            - _covered([(c.start, c.end) for c in self.children[id(s)]], s.start, s.end)
            for s in spans
        }

    def has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    def layer_self(self, span: Span) -> float:
        """Duration minus the time covered by the nearest spans of other layers."""
        other: list[tuple[float, float]] = []
        todo = list(self.children[id(span)])
        while todo:
            c = todo.pop()
            if c.layer == span.layer:
                todo.extend(self.children[id(c)])
            else:
                other.append((c.start, c.end))
        return span.duration - _covered(other, span.start, span.end)


def check_tree(tree: Tree) -> list[str]:
    """Self-test: children nest in their parents without overlap, and the
    self times of all spans add up to the root's duration."""
    errors = []
    for s in tree.spans:
        kids = sorted(tree.children[id(s)], key=lambda c: c.start)
        for c in kids:
            if c.start < s.start or c.end > s.end:
                errors.append(f"span {c.name} lies outside its parent {s.name}")
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                errors.append(f"sibling spans {a.name} and {b.name} overlap")
    total = sum(tree.self_s.values())
    residual = abs(total - tree.root.duration)
    if residual > 1e-9 * max(1.0, len(tree.spans)):
        errors.append(
            f"self times add up to {total!r} s, root span is {tree.root.duration!r} s"
        )
    return errors


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metrics that are a count, a time or a self time of one span name
_SPAN_METRICS = {
    "kernel.propagate": ("calls", "s", "self_s"),
    "kernel.build_kernel": ("calls", "s", "self_s"),
    "kernel.solver_mesh": ("calls", "s"),
    "kernel.fit_envelope_constants": ("calls", "s", "self_s"),
    "kernel.composition_error": ("calls", "s"),
    "kernel.verify_kernel": ("self_s",),
    "weights.ball_mass": ("calls", "s"),
    "weights.fit_ball_constants": ("s",),
    "weights.make_grid": ("s",),
    "evolve.picard_iterate": ("calls", "s", "self_s"),
    "evolve.solve_global_small": ("s",),
    "blowup.kaplan_bound_series": ("s",),
    "blowup.critical_log_growth": ("s",),
    "semigroup.heat_core_lower": ("calls", "s"),
    "lorentz.lorentz_norm": ("calls", "s"),
    "lorentz.weighted_lp_norm": ("calls", "s"),
}


def aggregate(trees: list[Tree]) -> dict[str, float]:
    """Per-layer metrics: totals per traced iteration (mean over iterations),
    ratios over all traced iterations together."""
    n = len(trees)
    tot = dict.fromkeys(
        [f"{name}.{kind}" for name, kinds in _SPAN_METRICS.items() for kind in kinds]
        + [
            "kernel.propagate.solves",
            "kernel.propagate.columns_solved",
            "kernel.propagate.bytes_computed",
            "evolve.calibrate_delta.halvings",
            "blowup.cell.subcritical.s",
            "blowup.cell.critical.s",
            "blowup.cell.supercritical.s",
            "cli.main.self_s",
            "trace.spans",
        ],
        0.0,
    )

    def add(key: str, value: float) -> None:
        tot[key] += value

    ratios: list[float] = []
    table_hits = table_calls = 0
    cal_accepted = cal_attempts = 0
    sweeps = picard_propagates = 0
    for tree in trees:
        builds_below: set[int] = set()
        for s in tree.spans:
            if s.name == "kernel.build_kernel":
                p = s.parent
                while p is not None:
                    builds_below.add(id(p))
                    p = p.parent
        for s in tree.spans:
            name = s.name
            wanted = _SPAN_METRICS.get(name, ())
            if "calls" in wanted:
                add(f"{name}.calls", 1)
            if "s" in wanted and not tree.has_ancestor(s, name):
                add(f"{name}.s", s.duration)
            if "self_s" in wanted:
                add(f"{name}.self_s", tree.self_s[id(s)])
            attrs = s.attrs or {}
            if name == "kernel.propagate":
                add("kernel.propagate.solves", attrs.get("solves", 0))
                add("kernel.propagate.columns_solved", attrs.get("columns", 0))
                add("kernel.propagate.bytes_computed", attrs.get("bytes", 0))
                if tree.has_ancestor(s, "evolve.picard_iterate"):
                    picard_propagates += 1
            elif name == "kernel.KernelSuite.table":
                table_calls += 1
                table_hits += id(s) not in builds_below
            elif name == "evolve.picard_iterate":
                sweeps += attrs.get("sweeps", 0)
                d = attrs.get("sup_diffs", ())
                ratios += [d[k + 1] / d[k] for k in range(len(d) - 1) if d[k] > 0.0]
            elif name == "evolve.calibrate_delta":
                add("evolve.calibrate_delta.halvings", attrs.get("halvings", 0))
                cal_accepted += "halvings" in attrs
            elif name == "evolve.solve_global_small":
                cal_attempts += tree.has_ancestor(s, "evolve.calibrate_delta")
            elif name == "blowup.run_cell" and "regime" in attrs:
                add(f"blowup.cell.{attrs['regime']}.s", s.duration)
            elif name == "cli.main":
                add("cli.main.self_s", tree.layer_self(s))
        add("trace.spans", len(tree.spans))
    out = {key: value / n for key, value in tot.items()}
    out["kernel.table.calls"] = table_calls / n
    out["kernel.table.hit_ratio"] = table_hits / table_calls if table_calls else 0.0
    out["evolve.picard.sweeps"] = sweeps / n
    out["evolve.picard.contraction_median"] = statistics.median(ratios) if ratios else 0.0
    out["evolve.picard.propagates_per_sweep"] = picard_propagates / sweeps if sweeps else 0.0
    out["evolve.calibrate_delta.accept_ratio"] = (
        cal_accepted / cal_attempts if cal_attempts else 0.0
    )
    return out
