"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library: fixed points by brute-force scanning of the map itself, fold
points by fine-grid root counting in c, trajectories by replaying the
scalar single-step functions, adapted states by one unchunked loop, time
averages by summing a whole series span by span or by one mean of the full
series, and basin dwells by classifying each point or run-length encoding a
whole series.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from flickersim import (
    AdaptationParams,
    EcoParams,
    FlickerStats,
    SimConfig,
    SystemState,
    WellbeingParams,
    innovation_stream,
    payoff,
    resolve_config,
    step_coupled,
    utility,
)
from flickersim.simulate import STREAM_SPAN


def brute_force_fixed_points(p: EcoParams, step: float = 1e-4) -> list[float]:
    """Positive fixed points of the zero-noise map, by sign scan + bisection.

    Scans f(x) - x on a uniform grid over (0, 2K] and refines each sign
    change; independent arithmetic from the library's cubic bracketing.
    """
    xs = np.arange(step, 2.0 * p.K + step, step)
    def resid(x):
        fx = np.maximum(0.0, p.r * x * (1.0 - x / p.K)
                        - p.c * x * x / (x * x + p.h * p.h) + x)
        return fx - x

    vals = resid(xs)
    sign = np.sign(vals)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    roots = []
    for k in flips:
        lo, hi = float(xs[k]), float(xs[k + 1])
        flo = resid(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = resid(mid)
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.extend(float(x) for x in xs[vals == 0.0])
    return sorted(roots)


def count_positive_fixed_points(p: EcoParams, x_step: float = 1e-3) -> int:
    xs = np.arange(x_step, 2.0 * p.K, x_step)
    g = p.r * xs * (1.0 - xs / p.K) - p.c * xs**2 / (xs**2 + p.h * p.h)
    sign = np.sign(g)
    return int(np.count_nonzero(sign[:-1] * sign[1:] < 0) + np.count_nonzero(g == 0.0))


def fine_grid_fold_points(p: EcoParams, c_lo: float, c_hi: float,
                          dc: float = 1e-4) -> tuple[float, float]:
    """Fold locations by counting fixed points on a fine extraction grid."""
    cs = np.arange(c_lo, c_hi + dc, dc)
    from dataclasses import replace

    counts = np.array([count_positive_fixed_points(replace(p, c=float(c))) for c in cs])
    hits = np.flatnonzero(counts >= 3)
    if hits.size == 0:
        raise AssertionError("oracle found no bistable band")
    if hits[0] == 0 or hits[-1] == counts.size - 1:
        raise AssertionError("oracle scan window must contain the whole bistable band")
    c_low = 0.5 * (cs[hits[0] - 1] + cs[hits[0]])
    c_high = 0.5 * (cs[hits[-1]] + cs[hits[-1] + 1])
    return float(c_low), float(c_high)


def replay_trajectory(cfg: SimConfig, replicate: int = 0):
    """Full state series via the scalar step_coupled loop (no burn-in cut).

    Returns (xs, is, ys) arrays of length t_max; the engine must agree bit
    for bit.
    """
    rcfg = resolve_config(cfg)
    etas = innovation_stream(rcfg.seed, replicate).normal(
        rcfg.noise.mu, rcfg.noise.beta, size=rcfg.t_max
    )
    state = SystemState(x=rcfg.x0, i=rcfg.i0, y=rcfg.y0, t=0)
    xs = np.empty(rcfg.t_max)
    is_ = np.empty(rcfg.t_max)
    ys = np.empty(rcfg.t_max)
    for t in range(rcfg.t_max):
        xs[t], is_[t], ys[t] = state.x, state.i, state.y
        state = step_coupled(state, rcfg.eco, rcfg.noise, rcfg.adapt, float(etas[t]))
    return xs, is_, ys


def adaptation_paths(X: np.ndarray, y0: float, l: float) -> np.ndarray:
    """Adapted-state series for each row of X under adaptive capacity l.

    Iterates step_adaptation's y_{t+1} = l*(x_t - y_t) + y_t over the whole
    series at once, vectorised across rows, so every row equals a scalar
    replay bit for bit.  The unchunked reference for the adapted states
    that stream_spans carries span by span.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    l = AdaptationParams(float(l)).l  # rejects l outside [0, 1]
    Y = np.empty_like(X)
    y = np.full(X.shape[:-1], float(y0))
    for t in range(X.shape[-1]):
        Y[..., t] = y
        y = l * (X[..., t] - y) + y
    return Y


def span_summed_mean(values, t0: int) -> float:
    """Mean of a post-burn-in series whose first value is at step t0, summed
    as the engine sums it: per span of STREAM_SPAN steps counted from step
    0, the span sums added in time order, then divided by the length."""
    values = np.asarray(values, dtype=float)
    total, t = 0.0, t0
    while t < t0 + values.size:
        end = (t // STREAM_SPAN + 1) * STREAM_SPAN
        total += values[t - t0:end - t0].sum()
        t = end
    return total / values.size


def run_length_flicker_stats(xs, separatrix: float, min_dwell: int) -> FlickerStats:
    """Debounced basin dwells of a whole series, by run-length encoding it.

    Every raw run (a maximal stretch on one side of the separatrix) after
    the first becomes a new dwell if it switches basin and lasts at least
    min_dwell steps, and is otherwise added to the current dwell.
    """
    high = np.asarray(xs, dtype=float) >= separatrix
    starts = np.concatenate(([0], np.flatnonzero(high[1:] != high[:-1]) + 1))
    lengths = np.diff(np.concatenate((starts, [high.size])))
    basins, dwells = [bool(high[0])], [int(lengths[0])]
    for start, length in zip(starts[1:], lengths[1:]):
        if bool(high[start]) != basins[-1] and length >= min_dwell:
            basins.append(bool(high[start]))
            dwells.append(int(length))
        else:
            dwells[-1] += int(length)
    res_high = tuple(d for b, d in zip(basins, dwells) if b)
    res_low = tuple(d for b, d in zip(basins, dwells) if not b)
    return FlickerStats(len(dwells) - 1, res_high, res_low, sum(res_high) / high.size)


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


class Basin(Enum):
    HIGH = "high"
    LOW = "low"


def classify_basin(x: float, separatrix: float) -> Basin:
    """High if x >= separatrix else Low (ties count as High)."""
    if not separatrix > 0:
        raise ValueError(f"separatrix must be > 0, got {separatrix}")
    return Basin.HIGH if x >= separatrix else Basin.LOW
