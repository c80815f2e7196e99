"""Flickering statistics, utility sweeps, and transformation comparison.

Basin membership is judged against the separatrix (the unstable interior
equilibrium).  Sweeps over extraction rate reuse one set of environment
paths per grid point across all adaptive capacities and both wellbeing
profiles: adaptation never feeds back on the environment, so comparisons
are made on literally shared noise.  A whole grid is streamed as one block
of (c, replicate) rows (see :func:`flickersim.simulate.stream_environment`),
accumulating per-row sums span by span.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .dynamics import AdaptationParams, EcoParams
from .equilibria import Regime, classify_regime, equilibria
from .simulate import (
    AdaptationFilter,
    SimConfig,
    grid_configs,
    stderr_of_mean,
    stream_environment,
)
from .wellbeing import CaseProfile, payoff, utility

DEFAULT_MIN_DWELL = 5


class GridError(ValueError):
    """An extraction-rate grid that cannot be evaluated."""


class Basin(Enum):
    HIGH = "high"
    LOW = "low"


@dataclass(frozen=True)
class FlickerStats:
    """Debounced basin bookkeeping for one trajectory.

    residence_high/low list dwell durations in chronological order; their
    total equals the trajectory length, and n_transitions is one less than
    the number of dwells.
    """

    n_transitions: int
    residence_high: tuple[int, ...]
    residence_low: tuple[int, ...]
    fraction_high: float


@dataclass(frozen=True)
class SweepRow:
    """Ensemble averages for one (extraction rate, adaptive capacity) cell."""

    c: float
    l: float
    regime: Regime | None
    avg_payoff: float
    avg_utility: float
    stderr_payoff: float
    stderr_utility: float
    error: str | None = None


@dataclass(frozen=True)
class ComparisonRow:
    """Both wellbeing profiles evaluated on shared trajectories at one c.

    The x_digest fields hash the exact environment series each profile was
    scored on (replicate rows of each span in turn, span after span); equal
    digests certify the shared-noise comparison.
    """

    c: float
    regime: Regime | None
    mean_x: float
    avg_payoff_baseline: float
    stderr_payoff_baseline: float
    avg_payoff_transform: float
    stderr_payoff_transform: float
    avg_utility_baseline: float
    stderr_utility_baseline: float
    avg_utility_transform: float
    stderr_utility_transform: float
    x_digest_baseline: str = ""
    x_digest_transform: str = ""
    error: str | None = None


@dataclass(frozen=True)
class CrossoverReport:
    """Where the generalist profile starts to beat the specialist one.

    c_cross_perfect uses the perfect-adaptation payoff curves, and
    c_cross_adaptive the simulated utility curves; each is None when the
    curves do not cross inside the grid.  The band fields give the c-range
    over which the two curves' 2-stderr confidence bands overlap around the
    crossing.
    """

    c_cross_perfect: float | None
    regime_perfect: Regime | None
    c_cross_adaptive: float | None
    regime_adaptive: Regime | None
    band_perfect: tuple[float, float] | None
    band_adaptive: tuple[float, float] | None
    rows: tuple[ComparisonRow, ...]


def classify_basin(x: float, separatrix: float) -> Basin:
    """High if x >= separatrix else Low (ties count as High)."""
    if not separatrix > 0:
        raise ValueError(f"separatrix must be > 0, got {separatrix}")
    return Basin.HIGH if x >= separatrix else Basin.LOW


def separatrix_for(eco: EcoParams) -> float:
    """The unstable interior equilibrium dividing the two basins.

    Only defined in the bistable regime; raises ValueError elsewhere.
    """
    interior = [e for e in equilibria(eco) if e.x_star > 0 and not e.stable]
    if len(interior) != 1:
        raise ValueError(
            f"no unique unstable interior equilibrium at c={eco.c}; "
            "supply an explicit basin threshold"
        )
    return interior[0].x_star


def flicker_stats(xs, separatrix: float, min_dwell: int = DEFAULT_MIN_DWELL) -> FlickerStats:
    """Count debounced basin switches and dwell times along a series.

    A switch is accepted only if the new basin persists at least min_dwell
    steps; shorter excursions are absorbed into the surrounding dwell.
    min_dwell=1 disables debouncing.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty trajectory")
    if not separatrix > 0:
        raise ValueError(f"separatrix must be > 0, got {separatrix}")
    if min_dwell < 1:
        raise ValueError(f"min_dwell must be >= 1, got {min_dwell}")
    high = xs >= separatrix
    # raw run-length encoding
    bounds = np.flatnonzero(high[1:] != high[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    lengths = np.diff(np.concatenate((starts, [high.size])))
    # debounce: absorb runs shorter than min_dwell into the current dwell
    basins = [bool(high[0])]
    dwells = [int(lengths[0])]
    for start, length in zip(starts[1:], lengths[1:]):
        if bool(high[start]) != basins[-1] and length >= min_dwell:
            basins.append(bool(high[start]))
            dwells.append(int(length))
        else:
            dwells[-1] += int(length)
    res_high = tuple(d for b, d in zip(basins, dwells) if b)
    res_low = tuple(d for b, d in zip(basins, dwells) if not b)
    return FlickerStats(
        n_transitions=len(dwells) - 1,
        residence_high=res_high,
        residence_low=res_low,
        fraction_high=sum(res_high) / xs.size,
    )


def _check_grid(c_grid, increasing: bool) -> list[float]:
    """c_grid as floats; rejects empty, non-finite and repeated values, and
    with increasing=True any value not above its predecessor."""
    c_grid = [float(c) for c in c_grid]
    if not c_grid:
        raise GridError("c_grid must be nonempty")
    bad = [c for c in c_grid if not np.isfinite(c)]
    if bad:
        raise GridError(f"c_grid values must be finite, got {bad}")
    if increasing:
        if any(b <= a for a, b in zip(c_grid, c_grid[1:])):
            raise GridError(f"c_grid must be strictly increasing, got {c_grid}")
    elif len(set(c_grid)) != len(c_grid):
        raise GridError(f"c_grid has repeated values: {c_grid}")
    return c_grid


def _flag_nonfinite(row, error: str | None = None):
    """row with error set when any of its averages is not finite."""
    bad = [f.name for f in fields(row)
           if isinstance(getattr(row, f.name), float) and not np.isfinite(getattr(row, f.name))]
    if bad:
        error = "; ".join(filter(None, [error, f"non-finite {', '.join(bad)}"]))
    return replace(row, error=error)


class _CellSums:
    """Per-row sums after burn-in over streamed spans.

    Rows are (c, replicate) and y0 their initial adapted states.  Sums x,
    payoff per profile and utility per (l, profile); the adaptation filters
    run over every step, burn-in included.  With digest, each c's
    post-burn-in x series is also hashed span by span.
    """

    def __init__(self, y0: np.ndarray, l_values, profiles, digest: bool) -> None:
        self.filters = [AdaptationFilter(y0, l) for l in l_values]
        self.profiles = [p.params for p in profiles]
        self.x = np.zeros(y0.shape)
        self.payoff = [np.zeros(y0.shape) for _ in profiles]
        self.utility = [[np.zeros(y0.shape) for _ in profiles] for _ in l_values]
        self.digests = [hashlib.sha256() for _ in range(y0.shape[0])] if digest else []

    def add(self, X: np.ndarray, skip: int) -> None:
        Xk = X[..., skip:]
        for adapt, sums in zip(self.filters, self.utility):
            Y = adapt(X)
            if Xk.size:
                for total, w in zip(sums, self.profiles):
                    total += utility(Xk, Y[..., skip:], w).sum(axis=-1)
        if not Xk.size:
            return
        self.x += Xk.sum(axis=-1)
        for total, w in zip(self.payoff, self.profiles):
            total += payoff(Xk, w).sum(axis=-1)
        for digest, rows in zip(self.digests, Xk):
            digest.update(np.ascontiguousarray(rows).tobytes())


def _stream_cells(base: SimConfig, c_values, n_seeds: int, l_values, profiles,
                  digest: bool = False):
    """Resolved config (or error) per c, and the _CellSums of the resolved ones."""
    configs = grid_configs(base, c_values)
    ok = [cfg for cfg in configs if isinstance(cfg, SimConfig)]
    if not ok:
        return configs, None
    y0 = np.broadcast_to(np.array([cfg.y0 for cfg in ok])[:, None], (len(ok), n_seeds))
    sums = _CellSums(y0, l_values, profiles, digest)
    stream_environment(ok, n_seeds, [sums])
    return configs, sums


def _sweep_group(args) -> list[SweepRow]:
    """Rows of utility_sweep for one contiguous group of extraction rates."""
    base, c_values, l_values, n_seeds = args
    configs, sums = _stream_cells(base, c_values, n_seeds, l_values, [base.wellbeing])
    rows, j = [], 0
    for c, cfg in zip(c_values, configs):
        try:
            regime = classify_regime(replace(base.eco, c=c))
        except Exception as exc:  # recorded per cell, not fatal
            regime, regime_err = None, str(exc)
        else:
            regime_err = None
        if isinstance(cfg, Exception):
            rows.extend(
                SweepRow(c, l, regime, float("nan"), float("nan"), float("nan"),
                         float("nan"), str(cfg))
                for l in l_values
            )
            continue
        n_kept = cfg.t_max - cfg.burn_in
        pays = sums.payoff[0][j] / n_kept
        for l, util_sums in zip(l_values, sums.utility):
            utils = util_sums[0][j] / n_kept
            row = SweepRow(
                c=c,
                l=l,
                regime=regime,
                avg_payoff=float(pays.mean()),
                avg_utility=float(utils.mean()),
                stderr_payoff=stderr_of_mean(pays),
                stderr_utility=stderr_of_mean(utils),
            )
            rows.append(_flag_nonfinite(row, regime_err))
        j += 1
    return rows


def utility_sweep(
    base: SimConfig,
    c_grid,
    l_values,
    n_seeds: int,
    workers: int = 1,
) -> list[SweepRow]:
    """Ensemble payoff/utility averages over a (c, l) grid, ordered by (l, c).

    All l values at a given c are scored on the same environment paths
    (shared noise), and every c reuses the same replicate substreams, so
    cells are directly comparable.  The grid is one streamed block; with
    workers > 1 it is split into contiguous groups of c computed in
    parallel.  The row order and values do not depend on workers.  c values
    need not be sorted, but must be finite and distinct (GridError); a cell
    whose averages are not finite carries an error.
    """
    c_grid = _check_grid(c_grid, increasing=False)
    l_values = [float(l) for l in l_values]
    if not l_values:
        raise ValueError("l_values must be nonempty")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    n_groups = max(1, min(workers, len(c_grid)))
    bounds = [k * len(c_grid) // n_groups for k in range(n_groups + 1)]
    jobs = [(base, c_grid[lo:hi], l_values, n_seeds) for lo, hi in zip(bounds, bounds[1:])]
    if n_groups > 1:
        with ProcessPoolExecutor(max_workers=n_groups) as pool:
            groups = list(pool.map(_sweep_group, jobs))
    else:
        groups = [_sweep_group(job) for job in jobs]
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda row: (row.l, row.c))
    return rows


def _first_upcrossing(cs: list[float], diffs: list[float]):
    """First grid interval where diffs turns positive, and the root there.

    Returns (c_cross, k): c_cross is the exact root of the linear
    interpolant on [cs[k-1], cs[k]].  None when the difference never becomes
    positive after a non-positive value.
    """
    for k in range(1, len(cs)):
        d_lo, d_hi = diffs[k - 1], diffs[k]
        if d_lo <= 0.0 < d_hi:
            lo, hi = cs[k - 1], cs[k]
            return lo - d_lo * (hi - lo) / (d_hi - d_lo), k
    return None


def _overlap_band(cs, diffs, spreads, k_cross) -> tuple[float, float] | None:
    """Contiguous c-interval around the crossing where the 2-stderr bands overlap."""
    overlap = [abs(d) <= 2.0 * s for d, s in zip(diffs, spreads)]
    k = k_cross if overlap[k_cross] else k_cross - 1
    if not overlap[k]:
        return None
    lo = k
    while lo > 0 and overlap[lo - 1]:
        lo -= 1
    hi = k
    while hi < len(cs) - 1 and overlap[hi + 1]:
        hi += 1
    return (cs[lo], cs[hi])


def _regime_at(eco: EcoParams, c: float) -> Regime | None:
    try:
        return classify_regime(replace(eco, c=c))
    except Exception:
        return None


def transform_comparison(
    base: SimConfig,
    baseline_case: CaseProfile,
    transform_case: CaseProfile,
    c_grid,
    l: float,
    n_seeds: int,
) -> CrossoverReport:
    """Compare staying specialist against transforming, across extraction rates.

    Per grid point the two profiles are scored on identical trajectories:
    perfect-adaptation average payoff and simulated average utility under
    adaptive capacity l.  The first grid crossings (transform rising above
    baseline) are the roots of the linearly interpolated ensemble mean
    differences.  c_grid must be finite and strictly increasing (GridError);
    a grid point whose averages are not finite carries an error and is left
    out of the crossing search.
    """
    c_grid = _check_grid(c_grid, increasing=True)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    base = replace(base, adapt=AdaptationParams(l=float(l)))
    configs, sums = _stream_cells(base, c_grid, n_seeds, [l],
                                  [baseline_case, transform_case], digest=True)
    rows, j = [], 0
    for c, cfg in zip(c_grid, configs):
        regime = _regime_at(base.eco, c)
        if isinstance(cfg, Exception):
            nan = float("nan")
            rows.append(
                ComparisonRow(c, regime, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                              error=str(cfg))
            )
            continue
        n_kept = cfg.t_max - cfg.burn_in
        pays_b, pays_t = (total[j] / n_kept for total in sums.payoff)
        utils_b, utils_t = (total[j] / n_kept for total in sums.utility[0])
        digest = sums.digests[j].hexdigest()[:16]
        row = ComparisonRow(
            c=c,
            regime=regime,
            mean_x=float(sums.x[j].sum() / (n_seeds * n_kept)),
            avg_payoff_baseline=float(pays_b.mean()),
            stderr_payoff_baseline=stderr_of_mean(pays_b),
            avg_payoff_transform=float(pays_t.mean()),
            stderr_payoff_transform=stderr_of_mean(pays_t),
            avg_utility_baseline=float(utils_b.mean()),
            stderr_utility_baseline=stderr_of_mean(utils_b),
            avg_utility_transform=float(utils_t.mean()),
            stderr_utility_transform=stderr_of_mean(utils_t),
            x_digest_baseline=digest,
            x_digest_transform=digest,
        )
        rows.append(_flag_nonfinite(row))
        j += 1

    ok = [row for row in rows if row.error is None]
    cs = [row.c for row in ok]

    def locate(diffs, spreads):
        hit = _first_upcrossing(cs, diffs)
        if hit is None:
            return None, None, None
        c_cross, k = hit
        return c_cross, _regime_at(base.eco, c_cross), _overlap_band(cs, diffs, spreads, k)

    d_pay = [row.avg_payoff_transform - row.avg_payoff_baseline for row in ok]
    s_pay = [
        np.hypot(row.stderr_payoff_transform, row.stderr_payoff_baseline) for row in ok
    ]
    d_util = [row.avg_utility_transform - row.avg_utility_baseline for row in ok]
    s_util = [
        np.hypot(row.stderr_utility_transform, row.stderr_utility_baseline) for row in ok
    ]
    c_perfect, regime_perfect, band_perfect = locate(d_pay, s_pay)
    c_adaptive, regime_adaptive, band_adaptive = locate(d_util, s_util)
    return CrossoverReport(
        c_cross_perfect=c_perfect,
        regime_perfect=regime_perfect,
        c_cross_adaptive=c_adaptive,
        regime_adaptive=regime_adaptive,
        band_perfect=band_perfect,
        band_adaptive=band_adaptive,
        rows=tuple(rows),
    )
