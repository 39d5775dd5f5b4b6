"""Empirically fitted stand-ins for the unnamed constants of the estimates.

Every two-sided bound in this package is an existence-of-constants statement;
the fitting routines record the tightest values observed on randomized or
structured samples here, and every CLI manifest echoes the record so that any
number in an output file can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class FittedConstants:
    # ball-mass envelopes (power-law lower bound / two-branch upper bound)
    ball_lower_coef: float | None = None
    ball_upper_coef: float | None = None
    # kernel sandwich with ball-mass prefactors
    sandwich_lower: float | None = None
    sandwich_upper: float | None = None
    # explicit min-branch kernel envelope
    envelope_lower: float | None = None
    envelope_upper: float | None = None
    # semigroup smoothing: strong-norm and weak-norm decay prefactors
    strong_smoothing_coef: float | None = None
    weak_smoothing_coef: float | None = None
    # sup bound used by the local-existence horizon rule
    local_bound_coef: float | None = None
    # growth constant of the nonlinear Duhamel term in the local iteration
    picard_growth_coef: float | None = None

    def manifest_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out.append(f"constants.{f.name} = {v:.17g}")
        return out
