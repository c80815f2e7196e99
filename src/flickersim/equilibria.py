"""Fixed points, stability, regime classification, and fold location.

With the noise level held at zero the environment map has fixed points at
x = 0 and wherever growth balances harvest.  The nonzero fixed points are
the positive roots of the cubic

    r * (1 - x/K) * (x^2 + h^2) - c * x = 0,

so there are one, two (exactly at a fold), or three of them.  For low
extraction only a high-biomass state is stable, for high extraction only a
collapsed state, and in between the map is bistable with an unstable
separatrix between the two attractors.  Stability uses the discrete map
derivative.

Both the fixed points and the folds are closed-form roots of real cubics
(May 1977, Nature 269:471).  The fixed points solve the monic cubic
x^3 - K x^2 + (h^2 + cK/r) x - K h^2 = 0.  Along the nonzero equilibria
c(x) = r (1 - x/K) (x^2 + h^2) / x, and the folds are its values at the two
positive roots of 2x^3/K - x^2 + h^2 = 0, where c(x) is stationary.  One
solver (trigonometric form for three real roots, Cardano's for one, then a
Newton step kept only if it lowers the residual) serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

from .dynamics import EcoParams, _check_count, _check_real, _linspace

# Residual |f(x*) - x*| above which a root is rejected.
RESIDUAL_TOL = 1e-9

# the trigonometric form's offsets 2 pi k / 3 for k = 1, 2
_THIRD_TURN = 2.0 * math.pi / 3.0
_TWO_THIRDS_TURN = 2.0 * math.pi * 2 / 3.0


class EquilibriumError(RuntimeError):
    """Root finding failed; the parameters are outside the supported regime."""


class RegimeError(RuntimeError):
    """The stable/unstable equilibrium pattern fits none of the three regimes."""


class NoBistabilityError(RuntimeError):
    """No bistable extraction-rate interval inside the scanned range."""


class Regime(IntEnum):
    """Dynamical regime of the environment map at a given extraction rate."""

    SINGLE_HIGH = 1  # only the high-biomass state is stable
    BISTABLE = 2     # two stable states; flickering possible under noise
    SINGLE_LOW = 3   # only the collapsed state is stable


@dataclass(frozen=True, init=False)
class Equilibrium:
    """A fixed point of the zero-noise environment map.

    multiplier is the map derivative at the fixed point; the fixed point is
    stable iff |multiplier| < 1.
    """

    x_star: float
    stable: bool
    multiplier: float

    def __init__(self, x_star: float, stable: bool, multiplier: float) -> None:
        # one store per field; the generated init calls object.__setattr__ per field
        d = self.__dict__
        d["x_star"], d["stable"], d["multiplier"] = x_star, stable, multiplier


@dataclass(frozen=True)
class FoldPoints:
    """Extraction rates bounding the bistable band: c_low < c < c_high."""

    c_low: float
    c_high: float


@dataclass(frozen=True, init=False)
class ScanRow:
    """Equilibria at one extraction rate of a bifurcation scan."""

    c: float
    equilibria: tuple[Equilibrium, ...]
    error: str | None = None

    def __init__(self, c: float, equilibria: tuple[Equilibrium, ...],
                 error: str | None = None) -> None:
        d = self.__dict__  # as Equilibrium's init
        d["c"], d["equilibria"], d["error"] = c, equilibria, error


def map_multiplier(x: float, p: EcoParams) -> float:
    """Derivative of the one-step environment map at x (zero noise).

    Raises EquilibriumError where (x^2 + h^2)^2 underflows to 0.0, as at
    x = 0 for any h below ~1.5e-81.
    """
    h2 = p.h * p.h
    x2 = x * x
    try:
        return 1.0 + p.r - 2.0 * p.r * x / p.K - p.c * 2.0 * x * h2 / ((x2 + h2) * (x2 + h2))
    except ArithmeticError as exc:
        raise EquilibriumError(
            f"{type(exc).__name__} ({exc}) in the map multiplier at x={x!r} for {p}") from None


def _positive_roots(b: float, c: float, d: float) -> list[float]:
    """Positive real roots of x^3 + b x^2 + c x + d, ascending.

    Substituting x = t - b/3 gives t^3 + p t + q.  Three real roots come from
    the trigonometric form, a single one from Cardano's; each root then takes
    one Newton step, kept only if it lowers |residual|.
    """
    shift = b / 3.0
    p = c - b * shift
    q = (2.0 * shift * shift - c) * shift + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc < 0.0:  # implies p < 0
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        # m cos(theta - 2 pi k / 3) for k = 0, 1, 2
        ts = (m * math.cos(theta), m * math.cos(theta - _THIRD_TURN),
              m * math.cos(theta - _TWO_THIRDS_TURN))
    else:
        # v takes the sign that avoids cancellation; the other cube root is -p/(3v)
        u = abs(q) / 2.0 + math.sqrt(disc)
        v = -math.copysign(u ** (1.0 / 3.0), q)
        ts = (v - p / (3.0 * v) if v != 0.0 else 0.0,)
    roots = []
    for t in ts:
        x = t - shift
        slope = (3.0 * x + 2.0 * b) * x + c
        if slope != 0.0:
            fx = ((x + b) * x + c) * x + d  # the residual
            polished = x - fx / slope
            if abs(((polished + b) * polished + c) * polished + d) < abs(fx):
                x = polished
        if x > 0:
            roots.append(x)
    roots.sort()
    return roots


def equilibria(p: EcoParams) -> list[Equilibrium]:
    """All nonnegative fixed points of the environment map, sorted ascending.

    x = 0 is always included (the trivial extinction equilibrium).  Raises
    EquilibriumError, naming p, if the cubic yields an impossible root count
    (non-finite parameters), a root fails the fixed-point residual check, or
    the solve leaves the float range (overflow, or h^4 underflowing to 0 at
    x = 0).
    """
    return _equilibria(p.r, p.K, p.c, p.h)


def _equilibria(r: float, K: float, c: float, h: float,
                origin: Equilibrium | None = None) -> list[Equilibrium]:
    """equilibria of EcoParams(r, K, c, h), for fields already validated
    (Python floats).

    The residual and multiplier are growth_increment's and map_multiplier's
    expressions on the bound fields.  An EcoParams is built only to name the
    parameters in an error, at the one raise below, so a caller that varies
    one field (as bifurcation_scan varies c) builds none per solve.  origin,
    if given, is the x = 0 record, which the caller has from another solve
    on the same r, K and h whose x = 0 multiplier has the same bits.
    """
    h2 = h * h
    try:
        roots = _positive_roots(-K, h2 + c * K / r, -K * h2)
        if not 1 <= len(roots) <= 3:
            # (text before the parameters, text after them)
            raise EquilibriumError(f"found {len(roots)} positive fixed points for",
                                   "; expected 1-3")
        for x in roots:
            residual = abs(r * x * (1.0 - x / K) - c * x * x / (x * x + h2))
            if not residual < RESIDUAL_TOL:  # a nan residual fails too
                raise EquilibriumError(f"root {x!r} has fixed-point residual {residual:.2e} for",
                                       "")
        out = []
        if origin is None:
            roots.insert(0, 0.0)
        else:
            out.append(origin)
        for x in roots:
            x2 = x * x
            mult = 1.0 + r - 2.0 * r * x / K - c * 2.0 * x * h2 / ((x2 + h2) * (x2 + h2))
            out.append(Equilibrium(x, abs(mult) < 1.0, mult))
        return out
    except EquilibriumError as exc:
        head, tail = exc.args
    except ArithmeticError as exc:
        head, tail = f"{type(exc).__name__} ({exc}) solving for", ""
    raise EquilibriumError(f"{head} {EcoParams(r, K, c, h)}{tail}") from None


def _cubic_turning_points(p: EcoParams) -> tuple[float, float] | None:
    """Turning points of the monic fixed-point cubic, or None if monotone.

    The positive fixed points solve x^3 - K x^2 + (h^2 + cK/r) x - K h^2 = 0;
    its derivative 3x^2 - 2Kx + (h^2 + cK/r) has real roots only while the
    fold structure exists.
    """
    b = p.h * p.h + p.c * p.K / p.r
    disc = p.K * p.K - 3.0 * b
    if disc <= 0:
        return None
    s = math.sqrt(disc)
    return ((p.K - s) / 3.0, (p.K + s) / 3.0)


def classify_regime(p: EcoParams) -> Regime:
    """Classify the extraction rate into one of the three regimes.

    Bistable means two stable positive equilibria separated by an unstable
    one.  A single stable positive equilibrium is assigned to the high or
    low branch by its position relative to the cubic's turning points (the
    fold skeleton); if the cubic is monotone there is no fold structure at
    all and the split falls back to K/2.
    """
    return _classify(p, equilibria(p))


def _classify(p: EcoParams, eqs: list[Equilibrium]) -> Regime:
    """classify_regime of p from its equilibria eqs, so a caller solves once."""
    eqs = [e for e in eqs if e.x_star > 0]
    stable = [e for e in eqs if e.stable]
    if len(eqs) == 3 and len(stable) == 2 and not eqs[1].stable:
        return Regime.BISTABLE
    if len(eqs) == 1 and len(stable) == 1:
        x = stable[0].x_star
        turning = _cubic_turning_points(p)
        if turning is None:
            return Regime.SINGLE_HIGH if x > p.K / 2.0 else Regime.SINGLE_LOW
        lo, hi = turning
        if x >= hi:
            return Regime.SINGLE_HIGH
        if x <= lo:
            return Regime.SINGLE_LOW
        raise RegimeError(f"single equilibrium {x!r} lies between turning points for {p}")
    raise RegimeError(
        f"{len(stable)} stable / {len(eqs)} positive equilibria for {p}; "
        "outside the three-regime structure (fold point or cyclic dynamics?)"
    )


def bifurcation_scan(
    p_base: EcoParams, c_min: float, c_max: float, n_steps: int
) -> list[ScanRow]:
    """Equilibria with stability flags on a uniform extraction-rate grid.

    Needs 0 <= c_min < c_max < inf, so that every rate of the grid is a
    valid eco.c; each rate is solved on p_base's r, K and h, with no
    EcoParams built per rate.  Per-grid-point failures are recorded in the
    row rather than raised, with equilibria's message for that rate.

    The x = 0 record is built once: at x = 0 the multiplier's harvest term
    is c * 2.0 * 0.0 * h^2 / h^4, whose bits do not depend on c while
    c * 2.0 is finite, so the first solved rate's record serves every later
    one.  If c * 2.0 overflows anywhere on the grid, each rate builds its
    own, as it does until a rate solves.
    """
    c_min, c_max = _check_real("c_min", c_min), _check_real("c_max", c_max)
    if not 0 <= c_min < c_max:
        raise ValueError(f"need 0 <= c_min < c_max < inf, got [{c_min}, {c_max}]")
    n_steps = _check_count("n_steps", n_steps, 2)
    r, K, h = p_base.r, p_base.K, p_base.h
    cs = _linspace(c_min, c_max, n_steps)
    take_origin = max(cs) * 2.0 < math.inf
    origin = None
    rows = []
    for c in cs:
        try:
            eqs = _equilibria(r, K, c, h, origin)
        except EquilibriumError as exc:
            rows.append(ScanRow(c, (), str(exc)))
            continue
        if take_origin:
            origin, take_origin = eqs[0], False
        rows.append(ScanRow(c, tuple(eqs)))
    return rows


def fold_points(
    p_base: EcoParams,
    c_min: float,
    c_max: float,
    tol: float = 1e-4,
) -> FoldPoints:
    """Locate the extraction rates where the bistable band begins and ends.

    The folds are exact: c(x) = r (1 - x/K) (x^2 + h^2) / x evaluated at the
    two positive roots of 2x^3/K - x^2 + h^2 = 0.  tol (> 0) is validated
    but no longer changes the result; it is kept so existing calls keep
    working.  Raises NoBistabilityError if
    the band is absent from [c_min, c_max], or not contained strictly
    inside it, and EquilibriumError if the cubic leaves the float range.
    """
    c_min, c_max = _check_real("c_min", c_min), _check_real("c_max", c_max)
    if not 0 <= c_min < c_max:
        raise ValueError(f"need 0 <= c_min < c_max, got [{c_min}, {c_max}]")
    _check_real("tol", tol, "> 0")
    r, K, h2 = p_base.r, p_base.K, p_base.h * p_base.h
    try:
        xs = _positive_roots(-K / 2.0, 0.0, K * h2 / 2.0)
    except ArithmeticError as exc:
        raise EquilibriumError(f"{type(exc).__name__} ({exc}) in the folds of {p_base}") from None
    folds = sorted(r * (1.0 - x / K) * (x * x + h2) / x for x in xs)
    if len(folds) != 2 or not (folds[0] < folds[1] and folds[1] > c_min and folds[0] < c_max):
        raise NoBistabilityError(
            f"no bistable extraction interval in [{c_min}, {c_max}] for {p_base}"
        )
    if not (c_min < folds[0] and folds[1] < c_max):
        raise NoBistabilityError(
            f"bistable band [{folds[0]}, {folds[1]}] is not strictly inside "
            f"[{c_min}, {c_max}]; widen the range"
        )
    return FoldPoints(c_low=folds[0], c_high=folds[1])
