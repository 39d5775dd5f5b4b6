"""Sampling the host's speed during a timed iteration, to take host drift
out of the timings.

On a shared host the same iteration runs up to 45% faster for stretches of
a few seconds to minutes, as the neighbours' load changes.  A median over
one run cannot remove that: two runs a few minutes apart see different
hosts.  So while an untraced iteration runs, a ``SIGALRM`` handler runs a
fixed probe of a few milliseconds every ``INTERVAL_S`` of wall time.  The
iteration's time, less the probes' own time, is then scaled by the mean of
``REF_S / probe`` over the iteration, so it reads as it would on the
reference host.

The host does not speed up all work alike: in its fast stretches, ``quad``
with a Python integrand runs at about 0.55 of its usual time and a banded
solve of one right-hand side at about 0.76.  The probe therefore has two
parts, each like one hot path of the program, and a workload weighs them by
its own mix (``Workload.probe_mix``):

* ``banded``: ``solve_banded`` of one right-hand side on a tridiagonal system
  of the sweep-wide mesh size, as in ``kernel.propagate``;
* ``quad``: adaptive ``quad`` of a Python integrand with an interior kink, as
  in ``weights.ball_mass``.

The probe uses only numpy, scipy and plain Python, never ``degenheat``, so
no change to the program can change it, and it leaves the program's state
alone.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

# Time of each probe part on the reference host, rounded: a 2-vCPU Intel
# Xeon KVM guest, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31,
# one BLAS thread.  They fix the unit of the scaled times; a later change must
# not edit them, or its times stop comparing with earlier ones.
REF_S = {"banded": 0.0040, "quad": 0.0050}
INTERVAL_S = 0.25

_N = 1537  # mesh size of the sweep-wide grid
_AB = np.empty((3, _N))
_AB[0], _AB[1], _AB[2] = -0.3, 1.6, -0.3
_B = np.linspace(0.0, 1.0, _N)


def _banded() -> None:
    x = _B
    for _ in range(60):
        x = solve_banded((1, 1), _AB, x)


def _quad() -> None:
    for k in range(10):
        c, r = 0.1 + 0.04 * k, 0.5 + 0.08 * k
        quad(lambda y: abs(y) ** 0.5 * (r * r - (y - c) ** 2) ** 0.5, c - r, c + r,
             epsrel=1e-8, epsabs=0.0, limit=200)


_PARTS = {"banded": _banded, "quad": _quad}


def slowness(mix: dict[str, float]) -> float:
    """Run the probe parts ``mix`` weighs once; returns the host's time for
    them relative to the reference host's."""
    total = 0.0
    for name, weight in mix.items():
        t0 = perf_counter()
        _PARTS[name]()
        total += weight * (perf_counter() - t0) / REF_S[name]
    return total / sum(mix.values())


def at_reference(wall_s: float, mix: dict[str, float], probes: int = 20) -> float:
    """``wall_s``, just timed, at reference host speed, from ``probes``
    probes run right after it."""
    return wall_s * statistics.fmean(1.0 / slowness(mix) for _ in range(probes))


class Sampler:
    """Samples the host's slowness every ``INTERVAL_S`` while in the block.

    Python runs the handler between bytecodes of the main thread, so a long
    call into compiled code delays a sample but is never interrupted.
    """

    def __init__(self, mix: dict[str, float]) -> None:
        self.mix = mix
        self.samples: list[float] = []
        self.probe_s = 0.0  # wall time spent in the probes

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(slowness(self.mix))
        self.probe_s += perf_counter() - t0

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall_s: float) -> float:
        """``wall_s``, timed around the block, at reference host speed."""
        if not self.samples:  # a block shorter than one interval
            return at_reference(wall_s, self.mix)
        return (wall_s - self.probe_s) * statistics.fmean(1.0 / s for s in self.samples)
