"""Payoff and utility functions with the specialist / generalist profiles.

Payoff is the best achievable outcome at environmental state x, an affine
function m + n*x.  Realized utility scales the payoff down by a Gaussian
penalty in the misadaptation |x - y|, halving exactly at |x - y| = a.  The
specialist profile pairs steep payoffs with a narrow tolerance; the
generalist profile trades peak payoff for flatness and tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


@dataclass(frozen=True)
class WellbeingParams:
    """Payoff line (m + n*x) and misadaptation half-width a."""

    m: float
    n: float
    a: float

    def __post_init__(self) -> None:
        if not 0 < self.a < math.inf:
            raise ValueError(f"wellbeing.a must be finite and > 0, got {self.a}")
        if not 0 < self.m < math.inf:
            raise ValueError(f"wellbeing.m must be finite and > 0 (payoff at x=0), got {self.m}")
        if not math.isfinite(self.n):
            raise ValueError(f"wellbeing.n must be finite, got {self.n}")


@dataclass(frozen=True)
class CaseProfile:
    """A named wellbeing parameterization."""

    label: str
    params: WellbeingParams


# Steep payoff, narrow tolerance: utility halves one-and-a-half resource
# units off target.
SPECIALIST = CaseProfile("specialist", WellbeingParams(m=5.0, n=0.5, a=3.0))
# Flat payoff, wide tolerance.
GENERALIST = CaseProfile("generalist", WellbeingParams(m=5.75, n=0.1, a=5.0))

PROFILES = {p.label: p for p in (SPECIALIST, GENERALIST)}


def payoff(x, w: WellbeingParams):
    """Best achievable payoff at environmental state x: m + n*x.

    Accepts scalars or arrays.
    """
    return w.m + w.n * x


def utility(x, y, w: WellbeingParams):
    """Realized utility: payoff scaled by the Gaussian misadaptation penalty.

    U(x, y) = (m + n*x) * exp(-ln(2) * (x - y)^2 / a^2), so U = payoff when
    y = x and U = payoff/2 when |x - y| = a.  Accepts scalars or arrays.
    """
    d = x - y
    return payoff(x, w) * np.exp(-LN2 * d * d / (w.a * w.a))


def average_payoff(xs, w: WellbeingParams) -> float:
    """Time-average of payoff along a trajectory: the mean of the full series.

    run_ensemble and the grids sum span by span, which may differ in the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty trajectory")
    return float(np.mean(payoff(xs, w)))


def average_utility(xs, ys, w: WellbeingParams) -> float:
    """Time-average of utility along paired series: the mean of the full series."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        raise ValueError("empty trajectory")
    if xs.shape != ys.shape:
        raise ValueError(f"trajectory length mismatch: {xs.shape} vs {ys.shape}")
    return float(np.mean(utility(xs, ys, w)))
