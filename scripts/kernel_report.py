#!/usr/bin/env python3
"""Kernel verification across the four desk-scale weights.

For each weight, builds tables at a geometric time ladder and reports unit
row mass, self-composition error, fitted two-sided envelope constants, and
decay-slope regressions:

    python scripts/kernel_report.py
"""

from degenheat.kernel import KernelSuite, verify_kernel
from degenheat.weights import WeightCase, WeightSpec, make_grid

CASES = [
    (WeightCase.AXIS_POWER, 0.0, 1),
    (WeightCase.AXIS_POWER, 0.5, 1),
    (WeightCase.RADIAL_POWER, 0.0, 2),
    (WeightCase.RADIAL_POWER, 1.0, 2),
]


def run() -> None:
    for case, expo, n in CASES:
        spec = WeightSpec(case, expo, n)
        grid = make_grid(spec, 16.0, 256, 2.0)
        suite = KernelSuite(spec, grid, steps=256)
        rep = verify_kernel(spec, grid, [0.25, 0.5, 1.0, 2.0], suite=suite)
        print(f"== {case.value} exponent={expo} n={n} ==")
        print(f"  row-mass error: {max(rep.k1_errors.values()):.2e}")
        print(f"  composition error: {max(rep.k2_errors.values()):.2e}")
        print(
            f"  sandwich constants: [{rep.sandwich.lower:.3f}, {rep.sandwich.upper:.3f}] "
            f"covering {rep.sandwich.lower_coverage:.1%}/{rep.sandwich.upper_coverage:.1%}"
        )
        print(
            f"  min-branch constants: [{rep.minbranch.lower:.3f}, {rep.minbranch.upper:.3f}] "
            f"covering {rep.minbranch.lower_coverage:.1%}/{rep.minbranch.upper_coverage:.1%}"
        )
        for s in rep.norm_slopes:
            print(
                f"  {s.label}: slope {s.slope:+.4f} vs predicted {s.predicted:+.4f} "
                f"({s.relative_error:.1%})"
            )


if __name__ == "__main__":
    run()
