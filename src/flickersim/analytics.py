"""Flickering statistics, utility sweeps, and transformation comparison.

Basin membership is judged against the separatrix (the unstable interior
equilibrium); :class:`_Dwells` counts debounced dwells span by span.  Sweeps
over extraction rate reuse one set of environment paths per grid point
across all adaptive capacities and both wellbeing profiles: adaptation never
feeds back on the environment, so comparisons are made on literally shared
noise.  Both grids run on one path, :func:`_grid`: it solves the equilibria
once per c ((c, x0, y0) start, regime, row error), streams one model from
every start as one block of (c, replicate) rows, feeding each kept piece
(``simulate._kept_pieces``) to a ``_CellSums``, and turns each whole
block of sums, payoffs from the x sums, into every row's mean and stderr
(``_CellSums.averages``); :func:`_cell_row` makes the rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .dynamics import AdaptationParams, EcoParams, _check_count, _check_real
from .equilibria import Regime, equilibria
from .simulate import SimConfig, _CellSums, _grid_cell, _kept_pieces, _single_start_pieces
from .wellbeing import CaseProfile

DEFAULT_MIN_DWELL = 5
# Fewest (c, replicate) rows per process group of a grid: two groups beat one
# for sweep fig5 and transform fig6 from groups of 240 rows, not at 200, in
# fresh processes on 2 CPUs (BENCH_40.json).
MIN_GROUP_ROWS = 240


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

    Both profiles are scored on one x series, so there is one x digest,
    written under both column names: the first 16 hex digits of the sha256
    of that series (replicate rows of each span in turn, span after span).
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
        n_seeds = _check_count("n_seeds", n_seeds, 1)
        self.separatrix = _check_real("separatrix", separatrix, "> 0")
        self.min_dwell = _check_count("min_dwell", min_dwell, 1)
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
    for piece in _single_start_pieces(cfg, range(n_seeds), []):
        dwells.add(*piece)
    return dwells.stats()


def _check_grid(grid, increasing: bool, name: str = "c_grid") -> list[float]:
    """grid as floats; a GridError naming the axis name on empty, non-numeric, non-finite
    and repeated values, and with increasing=True on any value not above its predecessor."""
    try:
        grid = [_check_real(f"{name} value", v) for v in grid]
    except ValueError as exc:
        raise GridError(str(exc)) from None
    if not grid:
        raise GridError(f"{name} must be nonempty")
    if increasing and any(b <= a for a, b in zip(grid, grid[1:])):
        raise GridError(f"{name} must be strictly increasing, got {grid}")
    if len(set(grid)) != len(grid):  # none in a strictly increasing grid
        raise GridError(f"{name} has repeated values: {grid}")
    return grid


def _flag_nonfinite(row, error: str | None = None):
    """row with error set when any of its averages is not finite (row itself if none is)."""
    bad = [name for name, v in vars(row).items()
           if isinstance(v, float) and not -np.inf < v < np.inf]
    if bad:
        error = "; ".join(filter(None, [error, f"non-finite {', '.join(bad)}"]))
    return row if error is None else replace(row, error=error)


def _grid_group(args) -> list[tuple]:
    """_grid's entries for one contiguous group of extraction rates."""
    base, c_values, l_values, profiles, n_seeds, x_columns = args
    cells = [_grid_cell(base, c) for c in c_values]
    starts = [cell.start for cell in cells if isinstance(cell.start, tuple)]
    sums = _CellSums(base.burn_in, len(starts), n_seeds, len(l_values), profiles, x_columns)
    if starts:
        for piece in _kept_pieces(base, starts, range(n_seeds), l_values, check=False):
            sums.add(*piece)
    cols = [*(sums.averages(sums.x, w)[1:] for w in sums.profiles),
            *(sums.averages(total)[1:] for total in chain(*sums.utility))]
    stats = [([m[j] for m, _ in cols], [e[j] for _, e in cols]) for j in range(len(starts))]
    if x_columns:
        mean_x = (sums.x.sum(axis=-1) / (n_seeds * sums.n_kept)).tolist()
        stats = [(*st, x, d.hexdigest()[:16]) for st, x, d in zip(stats, mean_x, sums.digests)]
    stats = iter(stats)
    return [(cell, next(stats) if isinstance(cell.start, tuple) else None) for cell in cells]


def _grid(base, c_grid, l_values, profiles, n_seeds, x_columns=False) -> list[tuple]:
    """(cell, stats) per rate of c_grid: its _GridCell, and None if it has no start,
    else the means and stderrs of each profile's payoff, then each (l, profile)'s
    utility, and with x_columns its mean x and 16-hex x digest.  Runs as
    min(usable CPUs, len(c_grid), rows // MIN_GROUP_ROWS or 1) contiguous groups
    of c, one process each, but here for one group or in a daemonic process,
    which may start none; the entries do not depend on the grouping."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_groups = min(cpus or 1, len(c_grid), max(1, len(c_grid) * n_seeds // MIN_GROUP_ROWS))
    if n_groups > 1:  # only a grid big enough to split imports the pool's modules
        import multiprocessing
        if not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor
            bounds = [k * len(c_grid) // n_groups for k in range(n_groups + 1)]
            jobs = [(base, c_grid[lo:hi], l_values, profiles, n_seeds, x_columns)
                    for lo, hi in zip(bounds, bounds[1:])]
            with ProcessPoolExecutor(max_workers=n_groups) as pool:
                return [entry for group in pool.map(_grid_group, jobs) for entry in group]
    return _grid_group((base, c_grid, l_values, profiles, n_seeds, x_columns))


def _cell_row(row_type, cell, keys: tuple, values):
    """row_type(*keys, cell.regime, *values), flagged by _flag_nonfinite with the cell's
    error; values None (no start) gives NaN for each later float field and the cell's error."""
    if values is None:
        nan = {f.name: float("nan") for f in fields(row_type)[len(keys) + 1:] if f.type == "float"}
        return row_type(*keys, cell.regime, **nan, error=cell.error)
    return _flag_nonfinite(row_type(*keys, cell.regime, *values), cell.error)


def utility_sweep(
    base: SimConfig,
    c_grid,
    l_values,
    n_seeds: int,
) -> list[SweepRow]:
    """Ensemble payoff/utility averages over a (c, l) grid, ordered by (l, c).

    All l values at a given c are scored on the same environment paths
    (shared noise), and every c reuses the same replicate substreams, so
    cells are directly comparable.  A large grid splits into contiguous
    groups of c, one process each (_grid); the rows do not depend on the
    grouping.  c and l values need not be sorted, but must be finite and
    distinct (GridError); a cell whose averages are not finite, or whose
    regime is undefined, carries an error.
    """
    c_grid = _check_grid(c_grid, increasing=False)
    l_values = _check_grid([AdaptationParams(l).l for l in l_values], False, "l_values")
    n_seeds = _check_count("n_seeds", n_seeds, 1)
    rows = []
    for c, (cell, stats) in zip(c_grid, _grid(base, c_grid, l_values, [base.wellbeing], n_seeds)):
        for j, l in enumerate(l_values, start=1):  # utility j follows the one payoff
            values = stats and (stats[0][0], stats[0][j], stats[1][0], stats[1][j])
            rows.append(_cell_row(SweepRow, cell, (c, l), values))
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
    n_seeds = _check_count("n_seeds", n_seeds, 1)
    l = AdaptationParams(l).l
    rows = []
    for c, (cell, stats) in zip(c_grid, _grid(base, c_grid, [l], [baseline_case, transform_case],
                                             n_seeds, x_columns=True)):
        if stats:  # mean_x, mean and stderr of payoff then utility, each baseline then transform
            stats = (stats[2], *chain(*zip(*stats[:2])), stats[3], stats[3])
        rows.append(_cell_row(ComparisonRow, cell, (c,), stats))

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
