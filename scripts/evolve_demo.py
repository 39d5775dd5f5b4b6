#!/usr/bin/env python3
"""Evolve one small datum and print its norm trajectory.

Demonstrates the Picard route (forward substitution over the master grid)
end to end on a laptop-scale grid:

    python scripts/evolve_demo.py
"""

import numpy as np

from degenheat.evolve import EvolveConfig, picard_iterate
from degenheat.kernel import KernelSuite
from degenheat.profiles import bump
from degenheat.weights import WeightCase, WeightSpec, make_grid


def run() -> None:
    spec = WeightSpec(WeightCase.AXIS_POWER, 0.5, 1)
    grid = make_grid(spec, 112.0, 512, 2.0)
    suite = KernelSuite(spec, grid, steps=256)
    u0 = grid.function(bump(0.0, 1.0, 0.05))
    cfg = EvolveConfig(p=3.0, horizon=256.0)
    run = picard_iterate(u0, cfg, suite)
    print(
        f"outcome: {run.outcome.value} after {sum(run.iterations)} pointwise iterations "
        f"over {len(run.iterations)} masters (at most {max(run.iterations)} at one)"
    )
    print("      t      sup        L^1.5(w)    weak-1.5")
    ladder = np.isclose(np.log2(run.times / 0.25) % 1.0, 0.0, atol=1e-9) & (run.times >= 0.25)
    sup, strong, weak = run.sup, run.norm(1.5, "strong"), run.norm(1.5, "weak")
    for i in np.flatnonzero(ladder):
        print(f"{run.times[i]:8.2f}  {sup[i]:.3e}  {strong[i]:.3e}  {weak[i]:.3e}")


if __name__ == "__main__":
    run()
