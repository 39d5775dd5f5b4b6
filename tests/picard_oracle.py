"""Global-sweep Picard iteration: the slow route ``picard_iterate`` replaced.

Each sweep recomputes the whole Duhamel march from the previous iterate, so
the sweeps are a Jacobi iteration on the lower-triangular system that
``picard_iterate`` solves by forward substitution.  Kept here as the oracle
the forward pass is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from degenheat.evolve import EvolveConfig, master_times
from degenheat.kernel import KernelSuite
from degenheat.weights import GridFunction


@dataclass(frozen=True)
class SweepRun:
    masters: np.ndarray
    fields: np.ndarray  # (n_masters, mesh size), last iterate
    min_increments: tuple[float, ...]  # per sweep, over the pre-escape window
    converged: bool  # the pre-escape window met picard_tol
    blown_from: int  # first master of the last iterate over the threshold

    @property
    def escape_time(self) -> float | None:
        """First master where the (converged) iterate crosses the threshold."""
        return float(self.masters[self.blown_from]) if self.blown_from < self.masters.size else None


def _sweep(suite, masters, u0_full, linear, prev, p, substeps, cap):
    g = np.minimum(prev, cap) ** p
    out = np.empty_like(prev)
    out[0] = u0_full
    acc = np.zeros_like(u0_full)
    for m in range(1, masters.size):
        dm = masters[m] - masters[m - 1]
        acc = suite.propagate(acc + 0.5 * dm * g[m - 1], dm, substeps)
        acc += 0.5 * dm * g[m]
        out[m] = linear[m] + acc
    return out


def global_picard(u0: GridFunction, cfg: EvolveConfig, suite: KernelSuite) -> SweepRun:
    """Sweep until the pre-escape window moves less than ``picard_tol``."""
    masters = master_times(cfg)
    u0_full = suite.extend(u0.values)
    threshold = cfg.blowup_threshold if cfg.blowup_threshold is not None else 1e6 * max(float(np.max(u0_full)), 1e-12)
    cap = 10.0 * threshold
    linear = np.empty((masters.size, u0_full.size))
    linear[0] = u0_full
    for m in range(1, masters.size):
        linear[m] = suite.propagate(linear[m - 1], masters[m] - masters[m - 1], cfg.substeps)
    prev = linear
    min_incs: list[float] = []
    blown_from = masters.size
    converged = False
    for _ in range(cfg.max_picard):
        new = _sweep(suite, masters, u0_full, linear, prev, cfg.p, cfg.substeps, cap)
        over = np.flatnonzero(np.max(new, axis=1) > threshold)
        if over.size:
            blown_from = min(blown_from, int(over[0]))
        inc = (new - prev)[:blown_from]
        min_incs.append(float(np.min(inc)) if blown_from else 0.0)
        prev = new
        if not blown_from or float(np.max(np.abs(inc))) < cfg.picard_tol:
            converged = True
            break
    return SweepRun(masters, prev, tuple(min_incs), converged, blown_from)
