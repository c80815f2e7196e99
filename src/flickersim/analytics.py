"""Flickering statistics, utility sweeps, and transformation comparison.

Basin membership is judged against the separatrix (the unstable interior
equilibrium); :class:`_Dwells` counts debounced dwells span by span.  Sweeps
over extraction rate reuse one set of environment paths per grid point
across all adaptive capacities and both wellbeing profiles: adaptation never
feeds back on the environment, so comparisons are made on literally shared
noise.  A grid solves the equilibria once per c ((c, x0, y0) start, regime,
row error), streams one model from every start as one block of (c,
replicate) rows through run_ensemble's cell engine
(:func:`flickersim.simulate._stream_cells`), and turns each whole block of
sums into every row's mean and stderr (``_CellSums.averages``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import AdaptationParams, EcoParams
from .equilibria import Regime, equilibria
from .simulate import SimConfig, _consume, _grid_cell, _stream_cells, resolve_config
from .wellbeing import CaseProfile

DEFAULT_MIN_DWELL = 5


class GridError(ValueError):
    """An extraction-rate grid that cannot be evaluated."""


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


class _Dwells:
    """Span consumer counting each row's debounced basin dwells after burn-in.

    Per row: the first dwell's basin, the dwell lengths (basins alternate), the
    basin at the last step and where the open raw run (a maximal stretch on one
    side of the separatrix) started.  A raw run is judged once it ends, so spans
    cut anywhere count as the joined series does; Python works per raw run.
    """

    def __init__(self, n_seeds: int, separatrix: float, min_dwell: int) -> None:
        if n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
        if not separatrix > 0:
            raise ValueError(f"separatrix must be > 0, got {separatrix}")
        if min_dwell < 1:
            raise ValueError(f"min_dwell must be >= 1, got {min_dwell}")
        self.separatrix, self.min_dwell = separatrix, min_dwell
        self.dwells = [[0] for _ in range(n_seeds)]
        self.start = [0] * n_seeds
        self.n = 0

    def add(self, X: np.ndarray, I, Y) -> None:
        high = X.reshape(len(self.start), -1) >= self.separatrix
        if not high.size:
            raise ValueError("empty trajectory")
        if not self.n:  # the first kept step opens each row's first dwell
            self.high, self.first = high[:, 0], high[:, 0].tolist()
        rows, cols = np.nonzero(np.diff(high, axis=1, prepend=self.high[:, None]))
        for r, t, basin in zip(rows.tolist(), cols.tolist(), high[rows, cols].tolist()):
            self._judge(r, not basin, self.n + t)  # the other basin's raw run ends here
        self.high = high[:, -1]
        self.n += high.shape[1]

    def _judge(self, r: int, basin: bool, end: int) -> None:
        """Row r's raw run in basin ends at step end: a dwell of its own or absorbed."""
        dwells, length = self.dwells[r], end - self.start[r]
        if basin != (self.first[r] == len(dwells) % 2) and length >= self.min_dwell:
            dwells.append(length)
        else:
            dwells[-1] += length
        self.start[r] = end

    def stats(self) -> list[FlickerStats]:
        """Each row's FlickerStats, its open raw run ending at the last step; call once."""
        out = []
        for r, basin in enumerate(self.high.tolist()):
            self._judge(r, basin, self.n)
            dwells, self.dwells[r] = self.dwells[r], None  # freed as the result grows
            high = tuple(dwells[1 - self.first[r]::2])  # basins alternate from the first
            out.append(FlickerStats(len(dwells) - 1, high, tuple(dwells[self.first[r]::2]),
                                    sum(high) / self.n))
        return out


def flicker_stats(xs, separatrix: float, min_dwell: int = DEFAULT_MIN_DWELL) -> FlickerStats:
    """Count debounced basin switches and dwell times along a series.

    A switch is accepted only if the new basin persists at least min_dwell
    steps; shorter excursions are absorbed into the surrounding dwell.
    min_dwell=1 disables debouncing.
    """
    dwells = _Dwells(1, separatrix, min_dwell)
    dwells.add(np.asarray(xs, dtype=float).reshape(1, -1), None, None)
    return dwells.stats()[0]


def flicker_replicates(cfg: SimConfig, n_seeds: int, separatrix: float,
                       min_dwell: int = DEFAULT_MIN_DWELL) -> list[FlickerStats]:
    """flicker_stats of run_trajectory(cfg, k).xs for each replicate k < n_seeds,
    counted span by span.  Arguments are checked before any span is drawn, and
    an overflowed state raises NonFiniteStateError as run_trajectory does."""
    dwells = _Dwells(n_seeds, separatrix, min_dwell)
    cfg = resolve_config(cfg)
    return _consume(cfg, [(cfg.eco.c, cfg.x0, cfg.y0)], range(n_seeds), [], dwells,
                    check=True).stats()


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
    """row with error set when any of its averages is not finite (row itself if none is)."""
    bad = [name for name, v in vars(row).items()
           if isinstance(v, float) and not -np.inf < v < np.inf]
    if bad:
        error = "; ".join(filter(None, [error, f"non-finite {', '.join(bad)}"]))
    return row if error is None else replace(row, error=error)


def _sweep_group(args) -> list[SweepRow]:
    """Rows of utility_sweep for one contiguous group of extraction rates."""
    base, c_values, l_values, n_seeds = args
    cells, sums = _stream_cells(base, c_values, n_seeds, l_values, [base.wellbeing])
    _, pay_means, pay_errs = sums.averages(sums.payoff[0])
    utils = [sums.averages(util_sums[0])[1:] for util_sums in sums.utility]
    rows, j = [], 0
    for c, cell in zip(c_values, cells):
        if isinstance(cell.start, Exception):
            rows.extend(SweepRow(c, l, cell.regime, *[float("nan")] * 4, cell.error)
                        for l in l_values)
            continue
        for l, (util_means, util_errs) in zip(l_values, utils):
            row = SweepRow(c, l, cell.regime, pay_means[j], util_means[j], pay_errs[j],
                           util_errs[j])
            rows.append(_flag_nonfinite(row, cell.error))
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
    cells are directly comparable.  The grid runs as min(workers, usable
    CPUs, len(c_grid)) contiguous groups of c, one process each (none for
    one group).  The row order and values do not depend on workers, the
    most processes to open, which must be at least 1.  c values
    need not be sorted, but must be finite and distinct (GridError); a cell
    whose averages are not finite, or whose regime is undefined, carries an
    error.
    """
    c_grid = _check_grid(c_grid, increasing=False)
    l_values = [float(l) for l in l_values]
    if not l_values:
        raise ValueError("l_values must be nonempty")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_groups = min(workers, cpus or 1, len(c_grid))
    bounds = [k * len(c_grid) // n_groups for k in range(n_groups + 1)]
    jobs = [(base, c_grid[lo:hi], l_values, n_seeds) for lo, hi in zip(bounds, bounds[1:])]
    if n_groups == 1:
        rows = _sweep_group(jobs[0])
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a split grid pays its import

        with ProcessPoolExecutor(max_workers=n_groups) as pool:
            rows = [row for group in pool.map(_sweep_group, jobs) for row in group]
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
    a grid point whose averages are not finite, or whose regime is
    undefined, carries an error, as a utility_sweep cell does, and is left
    out of the crossing search.
    """
    c_grid = _check_grid(c_grid, increasing=True)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    base = replace(base, adapt=AdaptationParams(l=float(l)))
    cells, sums = _stream_cells(base, c_grid, n_seeds, [l],
                                [baseline_case, transform_case], environment=True)
    # per c: mean and stderr of payoff, then utility, each baseline then transform
    stats = list(zip(*[col for total in (*sums.payoff, *sums.utility[0])
                       for col in sums.averages(total)[1:]]))
    mean_x = (sums.x.sum(axis=-1) / (n_seeds * sums.n_kept)).tolist()
    rows, j = [], 0
    for c, cell in zip(c_grid, cells):
        if isinstance(cell.start, Exception):
            rows.append(ComparisonRow(c, cell.regime, *[float("nan")] * 9, error=cell.error))
            continue
        digest = sums.digests[j].hexdigest()[:16]
        row = ComparisonRow(c, cell.regime, mean_x[j], *stats[j], digest, digest)
        rows.append(_flag_nonfinite(row, cell.error))
        j += 1

    ok = [row for row in rows if row.error is None]
    cs = [row.c for row in ok]

    def locate(diffs, spreads):
        hit = _first_upcrossing(cs, diffs)
        if hit is None:
            return None, None, None
        c_cross, k = hit
        return c_cross, _grid_cell(base, c_cross).regime, _overlap_band(cs, diffs, spreads, k)

    d_pay = [row.avg_payoff_transform - row.avg_payoff_baseline for row in ok]
    s_pay = [np.hypot(row.stderr_payoff_transform, row.stderr_payoff_baseline) for row in ok]
    d_util = [row.avg_utility_transform - row.avg_utility_baseline for row in ok]
    s_util = [np.hypot(row.stderr_utility_transform, row.stderr_utility_baseline) for row in ok]
    c_perfect, regime_perfect, band_perfect = locate(d_pay, s_pay)
    c_adaptive, regime_adaptive, band_adaptive = locate(d_util, s_util)
    return CrossoverReport(c_cross_perfect=c_perfect, regime_perfect=regime_perfect,
                           c_cross_adaptive=c_adaptive, regime_adaptive=regime_adaptive,
                           band_perfect=band_perfect, band_adaptive=band_adaptive,
                           rows=tuple(rows))
