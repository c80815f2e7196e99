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

from .dynamics import _check_real

LN2 = math.log(2.0)


@dataclass(frozen=True)
class WellbeingParams:
    """Payoff line (m + n*x) and misadaptation half-width a."""

    m: float
    n: float
    a: float

    def __post_init__(self) -> None:
        for name, bound in (("a", "> 0"), ("m", "> 0"), ("n", None)):
            value = _check_real(f"wellbeing.{name}", getattr(self, name), bound)
            object.__setattr__(self, name, value)


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

    Accepts scalars or arrays, and returns a new value of x's type and
    dtype.  It adds m to n*x in place (m is finite, so the bits are those
    of m + n*x, nan included).
    """
    p = w.n * x
    p += w.m
    return p


def penalty(d, w: WellbeingParams):
    """Gaussian misadaptation factor of utility at d = x - y: exp(-ln(2) * d^2 / a^2).

    1 at d = 0 and 1/2 at |d| = a.  Accepts scalars or arrays, and returns
    a new value of d's type and dtype, built in one array when d is one.
    Where d * d overflows, d = inf included, the factor is exp(-inf) = 0,
    its limit; d = nan gives nan.  Neither warns.
    """
    with np.errstate(over="ignore"):
        q = -LN2 * d
        q *= d
        q /= w.a * w.a
        return np.exp(q, out=q) if isinstance(q, np.ndarray) else np.exp(q)


def utility(x, y, w: WellbeingParams):
    """Realized utility: payoff scaled by the Gaussian misadaptation penalty.

    U(x, y) = (m + n*x) * exp(-ln(2) * (x - y)^2 / a^2), so U = payoff when
    y = x and U = payoff/2 when |x - y| = a.  Accepts scalars or arrays.
    """
    return payoff(x, w) * penalty(x - y, w)
