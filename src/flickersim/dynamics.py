"""Single-step update rules for the coupled environment / noise / adaptation system.

The environmental state x follows a discrete-time logistic map with a
sigmoidal (Holling type-III) harvest term, the classic grazing-system form
that supports alternative stable states.  Environmental shocks enter as a
multiplicative red-noise level i, itself an AR(1) process.  Agents carry an
adapted state y that relaxes toward the current environment at a fixed
per-step rate.

Everything in this module is a pure function of its inputs: noise
innovations are drawn by the caller (see :mod:`flickersim.simulate`), so the
update rules are deterministic and testable without randomness.  All state
is 64-bit float.  Only x is clamped at zero (biomass cannot go negative);
the noise level i is left unbounded.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


def _shown(value) -> str:
    """str(value), or the size of an int too long for str() (sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        digits = int(value.bit_length() * math.log10(2)) + 1
        return f"{'a negative' if value < 0 else 'an'} int of about {digits} digits"


def _check_count(name: str, value, least: int | None = None) -> int:
    """value as an int; ValueError naming name unless an int or numpy integer (no bool) >= least."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if least is not None and count < least:
        raise ValueError(f"{name} must be >= {least}, got {_shown(value)}")
    return count


# each bound _check_real takes, as the test a finite float must pass
_BOUNDS = {"> 0": (0.0).__lt__, ">= 0": (0.0).__le__, ">= 1": (1.0).__le__}


def _check_real(name: str, value, bound: str | None = None) -> float:
    """value as a float; ValueError naming name unless an int, float or numpy integer or
    floating scalar (no bool) that is finite and meets bound: "> 0", ">= 0" or ">= 1"."""
    if type(value) is not float and (isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating))):  # a float skips the slow tests
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not (math.isfinite(real) and (bound is None or _BOUNDS[bound](real))):
        raise ValueError(f"{name} must be finite{'' if bound is None else ' and ' + bound}, "
                         f"got {_shown(value)}")
    return real


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n evenly spaced values from start to stop, as Python floats with np.linspace's bits."""
    with np.errstate(over="ignore"):  # stop replaces (n - 1) * step, which may overflow
        return np.linspace(start, stop, n).tolist()


@dataclass(frozen=True)
class EcoParams:
    """Growth and harvest parameters of the environmental map.

    r : per-step intrinsic growth rate
    K : carrying capacity (resource units)
    c : extraction rate (resource units per step)
    h : half-saturation constant of the sigmoidal harvest term
    """

    r: float = 1.0
    K: float = 10.0
    c: float = 1.0
    h: float = 1.0

    def __post_init__(self) -> None:
        for name, bound in (("r", "> 0"), ("K", "> 0"), ("h", "> 0"), ("c", ">= 0")):
            object.__setattr__(self, name, _check_real(f"eco.{name}", getattr(self, name), bound))
        if self.h * self.h == 0.0:  # the harvest term would divide 0 by 0 at x = 0
            raise ValueError(f"eco.h must be large enough that h * h > 0, got {self.h}")


@dataclass(frozen=True)
class NoiseParams:
    """Red-noise (AR(1)) process parameters.

    T    : decorrelation timescale in steps; memory coefficient is 1 - 1/T
    beta : standard deviation of the i.i.d. normal innovations
    mu   : mean of the innovations (0 in all standard runs)
    """

    T: float = 30.0
    beta: float = 0.07
    mu: float = 0.0

    def __post_init__(self) -> None:
        for name, bound in (("T", ">= 1"), ("beta", ">= 0"), ("mu", None)):
            object.__setattr__(self, name, _check_real(f"noise.{name}", getattr(self, name), bound))

    @property
    def memory(self) -> float:
        """AR(1) coefficient 1 - 1/T (0 for T=1: memoryless)."""
        return 1.0 - 1.0 / self.T

    def stationary_sd(self) -> float:
        """Standard deviation of the stationary noise-level distribution."""
        phi = self.memory
        return self.beta * (1.0 - phi * phi) ** -0.5


@dataclass(frozen=True)
class AdaptationParams:
    """Adaptive capacity: fraction l of the gap to x closed per step."""

    l: float = 0.01

    def __post_init__(self) -> None:
        l = _check_real("adapt.l", self.l)
        if not 0.0 <= l <= 1.0:
            raise ValueError(f"adapt.l must be within [0, 1], got {self.l}")
        object.__setattr__(self, "l", l)


@dataclass(frozen=True)
class SystemState:
    """One time slice of the coupled system.

    x : environmental state (resource units)
    i : current noise level (dimensionless multiplier on x)
    y : environmental state the agents are best adapted to
    t : time index in steps
    """

    x: float
    i: float
    y: float
    t: int = 0

    def __post_init__(self) -> None:
        for name, bound in (("x", ">= 0"), ("i", None), ("y", ">= 0")):
            object.__setattr__(self, name, _check_real(f"state.{name}", getattr(self, name), bound))
        object.__setattr__(self, "t", _check_count("state.t", self.t, 0))


def growth_increment(x: float, p: EcoParams) -> float:
    """Net deterministic change of x over one step: growth minus harvest.

    Logistic growth r*x*(1 - x/K) minus type-III harvest c*x^2/(x^2 + h^2).
    May be negative.  Zero at x = 0.
    """
    return p.r * x * (1.0 - x / p.K) - p.c * x * x / (x * x + p.h * p.h)


def step_environment(x: float, i: float, p: EcoParams) -> float:
    """Advance the environment one step under noise level i.

    Returns v = growth_increment(x) + (1 + i) * x clamped at zero, which keeps
    biomass nonnegative under large negative shocks.  The clamp is written
    ``0.0 if v < 0.0 else v`` so that it agrees with ``np.maximum(0.0, v)``:
    a nan (an overflowed state) stays nan, where Python's max(0.0, nan)
    would return 0.0, and -0.0 stays -0.0.
    """
    v = growth_increment(x, p) + (1.0 + i) * x
    return 0.0 if v < 0.0 else v


def step_noise(i: float, noise: NoiseParams, eta: float) -> float:
    """Advance the red-noise level: (1 - 1/T) * i + eta.

    eta is one innovation, drawn by the caller from Normal(mu, beta^2).
    """
    return noise.memory * i + eta


def step_adaptation(x: float, y: float, adapt: AdaptationParams) -> float:
    """Move the adapted state a fraction l of the way toward x: l*(x - y) + y."""
    return adapt.l * (x - y) + y


def step_coupled(
    state: SystemState,
    eco: EcoParams,
    noise: NoiseParams,
    adapt: AdaptationParams,
    eta: float,
) -> SystemState:
    """Advance the coupled system one step (synchronous update).

    All three variables update from the time-t values; in particular the
    adapted state reads x_t, not x_{t+1}.
    """
    return SystemState(
        x=step_environment(state.x, state.i, eco),
        i=step_noise(state.i, noise, eta),
        y=step_adaptation(state.x, state.y, adapt),
        t=state.t + 1,
    )
