import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flickersim
from flickersim import (
    EcoParams,
    NoiseParams,
    Regime,
    SimConfig,
    flicker_stats,
    separatrix_for,
    transform_comparison,
    utility_sweep,
)
from flickersim import analytics
from flickersim.analytics import GridError, _Dwells, flicker_replicates
from flickersim.simulate import SCALAR_ROWS, STREAM_SPAN
from flickersim.wellbeing import GENERALIST, SPECIALIST
from oracles import (
    Basin,
    classify_basin,
    replay_trajectory,
    run_length_flicker_stats,
    span_x_digest,
)

FAST = SimConfig(t_max=600, burn_in=100, seed=17)


def _sweep_split_sized(*args):
    """utility_sweep(*args) with every row a group of its own and two usable
    CPUs, so that any grid of two or more c values splits."""
    analytics.MIN_GROUP_ROWS = 1
    os.sched_getaffinity = lambda pid: {0, 1}
    return utility_sweep(*args)


class TestClassifyBasin:
    def test_bistable_examples(self):
        sep = separatrix_for(EcoParams(c=1.95))
        assert sep == pytest.approx(1.855055977, abs=1e-8)
        assert classify_basin(7.45, sep) is Basin.HIGH
        assert classify_basin(0.73, sep) is Basin.LOW

    def test_tie_goes_high(self):
        assert classify_basin(1.85, 1.85) is Basin.HIGH

    def test_separatrix_validation(self):
        with pytest.raises(ValueError):
            classify_basin(1.0, 0.0)

    def test_no_separatrix_outside_bistable_band(self):
        with pytest.raises(ValueError, match="interior"):
            separatrix_for(EcoParams(c=1.0))


class TestFlickerStats:
    def test_constant_high(self):
        stats = flicker_stats(np.full(20, 9.0), separatrix=2.0)
        assert stats.n_transitions == 0
        assert stats.fraction_high == 1.0
        assert stats.residence_high == (20,)
        assert stats.residence_low == ()

    def test_hand_built_runs(self):
        # H H L L L H with debouncing disabled
        xs = [7.0, 7.0, 0.5, 0.5, 0.5, 7.0]
        stats = flicker_stats(xs, separatrix=2.0, min_dwell=1)
        assert stats.n_transitions == 2
        assert stats.residence_high == (2, 1)
        assert stats.residence_low == (3,)
        assert stats.fraction_high == pytest.approx(0.5)

    def test_debounce_absorbs_short_blips(self):
        xs = [9.0] * 10 + [0.5] * 2 + [9.0] * 10
        stats = flicker_stats(xs, separatrix=2.0, min_dwell=5)
        assert stats.n_transitions == 0
        assert stats.residence_high == (22,)
        assert stats.fraction_high == 1.0

    def test_debounce_keeps_long_excursions(self):
        xs = [9.0] * 10 + [0.5] * 6 + [9.0] * 10
        stats = flicker_stats(xs, separatrix=2.0, min_dwell=5)
        assert stats.n_transitions == 2
        assert stats.residence_low == (6,)

    def test_short_opening_run_sets_initial_basin(self):
        xs = [0.5] * 2 + [9.0] * 30
        stats = flicker_stats(xs, separatrix=2.0, min_dwell=5)
        assert stats.n_transitions == 1
        assert stats.residence_low == (2,)
        assert stats.residence_high == (30,)

    def test_dwell_bookkeeping_invariants(self):
        rng = np.random.default_rng(0)
        for min_dwell in (1, 3, 7):
            xs = rng.uniform(0, 10, 500)
            stats = flicker_stats(xs, separatrix=5.0, min_dwell=min_dwell)
            dwells = stats.residence_high + stats.residence_low
            assert sum(dwells) == 500
            assert stats.n_transitions == len(dwells) - 1
            assert 0.0 <= stats.fraction_high <= 1.0
            assert stats.fraction_high == pytest.approx(sum(stats.residence_high) / 500)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            flicker_stats([], 2.0)
        with pytest.raises(ValueError, match="separatrix"):
            flicker_stats([1.0], -1.0)
        with pytest.raises(ValueError, match="min_dwell"):
            flicker_stats([1.0], 1.0, min_dwell=0)


@pytest.mark.parametrize("separatrix", [np.inf, np.nan, 0.0])
def test_separatrix_must_be_finite_and_positive(separatrix):
    message = f"separatrix must be finite and > 0, got {separatrix}"
    with pytest.raises(ValueError, match=message):
        flicker_stats([1.0, 2.0], separatrix)
    with pytest.raises(ValueError, match=message):
        flicker_replicates(FAST, 1, separatrix)


def test_flicker_replicates_need_a_replicate():
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        flicker_replicates(FAST, 0, 1.0)


@st.composite
def cut_series(draw):
    """Rows of runs around the separatrix 5.0 (ties included), a burn-in that
    may cover several spans, span cuts, and min_dwell up to beyond a span."""
    burn_in = draw(st.integers(0, 2 * STREAM_SPAN + 3))
    length = burn_in + draw(st.integers(1, 4 * STREAM_SPAN))
    runs = st.lists(st.tuples(st.sampled_from([0.5, 4.0, 5.0, 9.0]),
                              st.integers(1, 2 * STREAM_SPAN + 3)), min_size=1, max_size=12)
    X = np.array([np.resize(np.repeat(*zip(*draw(runs))), length)
                  for _ in range(draw(st.integers(1, 4)))])
    cuts = sorted(c for c in draw(st.sets(st.integers(1, length), max_size=12)) if c < length)
    return X, burn_in, cuts, draw(st.integers(1, 2 * STREAM_SPAN + 3))


@settings(max_examples=300, deadline=None)
@given(cut_series())
def test_dwell_counter_equals_run_length_encoding(case):
    # spans cut anywhere count as the joined post-burn-in series does
    X, burn_in, cuts, min_dwell = case
    dwells = _Dwells(len(X), 5.0, min_dwell)
    bounds = [0, *cuts, X.shape[1]]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > burn_in:  # as simulate._kept_pieces yields spans
            dwells.add(X[None, :, max(lo, burn_in):hi], None, None)
    want = [run_length_flicker_stats(row[burn_in:], 5.0, min_dwell) for row in X]
    assert dwells.stats() == want
    assert [flicker_stats(row[burn_in:], 5.0, min_dwell) for row in X] == want


class TestUtilitySweep:
    def test_rows_ordered_by_l_then_c(self):
        rows = utility_sweep(FAST, c_grid=[1.0, 0.5], l_values=[0.1, 0.01], n_seeds=2)
        assert [(r.l, r.c) for r in rows] == [(0.01, 0.5), (0.01, 1.0), (0.1, 0.5), (0.1, 1.0)]

    def test_regime_labels_and_bounds(self):
        rows = utility_sweep(FAST, c_grid=[1.0, 2.0, 3.1], l_values=[0.01], n_seeds=2)
        assert [r.regime for r in rows] == [Regime.SINGLE_HIGH, Regime.BISTABLE, Regime.SINGLE_LOW]
        for r in rows:
            assert r.avg_utility <= r.avg_payoff + 1e-12
            assert r.stderr_payoff >= 0.0
            assert r.error is None

    def test_noiseless_full_capacity_recovers_payoff(self):
        cfg = replace(FAST, noise=NoiseParams(beta=0.0))
        rows = utility_sweep(cfg, c_grid=[0.5, 1.0], l_values=[1.0], n_seeds=1)
        for r in rows:
            assert r.avg_utility == pytest.approx(r.avg_payoff, rel=1e-12)

    def test_workers_do_not_change_results(self, monkeypatch):
        rows1 = utility_sweep(FAST, c_grid=[0.5, 1.0, 1.5], l_values=[0.01, 0.1], n_seeds=2)
        # 6 rows on two usable CPUs: two groups, on two processes
        monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rows2 = utility_sweep(FAST, c_grid=[0.5, 1.0, 1.5], l_values=[0.01, 0.1], n_seeds=2)
        assert rows1 == rows2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            utility_sweep(FAST, c_grid=[], l_values=[0.1], n_seeds=1)
        with pytest.raises(ValueError):
            utility_sweep(FAST, c_grid=[1.0], l_values=[0.1], n_seeds=0)

    def test_empty_l_values_rejected(self):
        with pytest.raises(GridError, match="l_values must be nonempty"):
            utility_sweep(FAST, c_grid=[1.0], l_values=[], n_seeds=1)

    @pytest.mark.parametrize("l_values", [[0.1, 0.1], [0.1, np.float64(0.1)], [0, 0.0]],
                             ids=["float", "numpy", "int"])
    def test_repeated_l_values_rejected(self, l_values):
        # each l is compared as the float it runs as, so an l axis is checked as a c axis is
        with pytest.raises(GridError, match=r"^l_values has repeated values: \["):
            utility_sweep(FAST, c_grid=[1.0, 2.0], l_values=l_values, n_seeds=1)

    @pytest.mark.parametrize("affinity,cpu_count,opened", [
        ({0, 1, 2}, 8, [3]), (None, 2, [2]), (None, None, []),
    ], ids=["affinity", "cpu_count", "unknown"])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, affinity, cpu_count, opened):
        # 6 rows of one replicate, each row a group of its own but for the
        # usable CPUs; one group runs in this process and opens no pool
        pools, mapped = [], []

        class InProcessPool:
            """Records max_workers and the jobs mapped, and maps in this
            process: no process starts."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, jobs):
                jobs = list(jobs)
                mapped.append(len(jobs))
                return map(fn, jobs)

        grid = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
        in_process = utility_sweep(FAST, c_grid=grid, l_values=[0.1], n_seeds=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", 1)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        rows = utility_sweep(FAST, c_grid=grid, l_values=[0.1], n_seeds=1)
        assert pools == opened
        assert mapped == pools  # one group per process
        assert rows == in_process

    def test_cli_import_leaves_the_pool_unloaded(self):
        # only a grid split across processes imports concurrent.futures and
        # multiprocessing (~30 ms), not every command
        code = ("import sys, flickersim.cli; "
                "print([m for m in sys.modules if m.split('.')[0] in "
                "('concurrent', 'multiprocessing')])")
        src = str(Path(flickersim.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    # (c values, replicates, usable CPUs): the groups the grid runs as
    @pytest.mark.parametrize("n_c,n_seeds,cpus,groups", [
        *((40, 10, cpus, 1) for cpus in (1, 2, 8, 64, None)),  # the fig5/fig6 presets
        (2, analytics.MIN_GROUP_ROWS - 1, 8, 1),   # one row short of two groups
        (2, analytics.MIN_GROUP_ROWS, 8, 2),
        (3, analytics.MIN_GROUP_ROWS, 2, 2),       # capped by the CPUs
        (3, analytics.MIN_GROUP_ROWS, 8, 3),
        (2, 10 * analytics.MIN_GROUP_ROWS, 8, 2),  # capped by the c values
        (40, 20, 2, 2),
        (40, 20, None, 1),                         # no CPU count known
    ])
    def test_group_count_rule(self, monkeypatch, n_c, n_seeds, cpus, groups):
        # min(usable CPUs, c values, rows // MIN_GROUP_ROWS), at least one; the
        # groups are recorded, not run, and a pool maps in this process
        class InProcessPool:
            def __init__(self, max_workers):
                assert max_workers == groups

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(analytics, "_grid_group", lambda job: [job[1]])
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        c_grid = [0.25 * (k + 1) for k in range(n_c)]
        parts = analytics._grid(FAST, c_grid, [0.1], [FAST.wellbeing], n_seeds)
        assert len(parts) == groups
        assert [c for part in parts for c in part] == c_grid  # contiguous, in order

    def test_daemonic_caller_runs_one_group(self):
        # a pool worker may start no process: a grid big enough to split runs
        # in that worker, as one group, and gives the in-process rows
        args = (FAST, [0.5, 1.0, 1.5], [0.01, 0.1], 2)
        with multiprocessing.Pool(1) as pool:
            rows = pool.apply_async(_sweep_split_sized, args).get(timeout=120)
        assert rows == utility_sweep(*args)

    def test_workers_argument_is_gone(self):
        with pytest.raises(TypeError, match="workers"):
            utility_sweep(FAST, c_grid=[1.0], l_values=[0.1], n_seeds=1, workers=2)

    def test_shared_noise_payoff_identical_across_l(self):
        rows = utility_sweep(FAST, c_grid=[1.9], l_values=[0.001, 0.1], n_seeds=3)
        assert rows[0].avg_payoff == rows[1].avg_payoff
        assert rows[0].stderr_payoff == rows[1].stderr_payoff


def test_default_seed_flickers_at_mid_extraction():
    # c=1.95 with the default red noise crosses basins within 25k steps
    from flickersim import get_preset, run_trajectory

    cfg = replace(get_preset("fig4b"), t_max=25_000, burn_in=0)
    sep = separatrix_for(cfg.eco)
    stats = flicker_stats(run_trajectory(cfg).xs, sep)
    assert stats.n_transitions >= 1
    assert 0.0 < stats.fraction_high < 1.0


def test_sweep_records_regime_errors_per_cell():
    # strong overcompensation breaks the three-regime structure; the cell is
    # reported with the failure rather than aborting the sweep
    cfg = replace(FAST, eco=EcoParams(r=2.5, K=10.0, c=0.5, h=1.0), x0=5.0, y0=5.0)
    rows = utility_sweep(cfg, c_grid=[0.5], l_values=[0.1], n_seeds=1)
    assert rows[0].regime is None
    assert rows[0].error
    assert np.isfinite(rows[0].avg_payoff)


def test_transform_records_regime_errors_as_sweep_does():
    # the cell above among rates that do have a regime: transform carries the
    # regime failure too, so the cell leaves the crossing search like any
    # other error cell, and its baseline columns are sweep's cells, bit for
    # bit, on the scalar kernel (6 rows) and on the block kernel (33 rows)
    cfg = replace(FAST, eco=EcoParams(r=2.5, K=10.0, c=0.5, h=1.0), x0=5.0, y0=5.0)
    grid = [0.5, 3.0, 5.0]
    for n_seeds, block in [(2, False), (11, True)]:
        assert (len(grid) * n_seeds >= SCALAR_ROWS) == block
        sweep = utility_sweep(cfg, c_grid=grid, l_values=[0.01], n_seeds=n_seeds)
        report = transform_comparison(cfg, SPECIALIST, GENERALIST, c_grid=grid, l=0.01,
                                      n_seeds=n_seeds)
        assert sweep[0].error.startswith("0 stable / 1 positive equilibria")
        assert [row.regime for row in sweep] == [None, Regime.SINGLE_HIGH, Regime.BISTABLE]
        for sweep_row, trans_row in zip(sweep, report.rows, strict=True):
            assert (trans_row.c, trans_row.regime, trans_row.error) == (
                sweep_row.c, sweep_row.regime, sweep_row.error)
            baseline = (trans_row.avg_payoff_baseline, trans_row.stderr_payoff_baseline,
                        trans_row.avg_utility_baseline, trans_row.stderr_utility_baseline)
            assert repr(baseline) == repr((sweep_row.avg_payoff, sweep_row.stderr_payoff,
                                           sweep_row.avg_utility, sweep_row.stderr_utility))


class TestTransformComparison:
    def test_identical_cases_have_no_crossover(self):
        report = transform_comparison(FAST, SPECIALIST, SPECIALIST,
                                      c_grid=[0.5, 1.0, 1.5], l=0.01, n_seeds=2)
        assert report.c_cross_perfect is None
        assert report.c_cross_adaptive is None
        assert report.regime_perfect is None
        assert report.band_adaptive is None

    def test_shared_trajectories_across_cases(self):
        # one digest of the x series both profiles are scored on, under both names
        report = transform_comparison(FAST, SPECIALIST, GENERALIST,
                                      c_grid=[1.0, 2.0], l=0.01, n_seeds=2)
        for row in report.rows:
            cfg = replace(FAST, eco=replace(FAST.eco, c=row.c))
            X = np.stack([replay_trajectory(cfg, k)[0][FAST.burn_in:] for k in range(2)])
            assert row.x_digest_baseline == row.x_digest_transform == span_x_digest(
                X, FAST.burn_in)
            assert row.error is None

    def test_rows_cover_grid_with_regimes(self):
        report = transform_comparison(FAST, SPECIALIST, GENERALIST,
                                      c_grid=[1.0, 2.0, 3.2], l=0.01, n_seeds=2)
        assert [row.c for row in report.rows] == [1.0, 2.0, 3.2]
        assert [row.regime for row in report.rows] == [
            Regime.SINGLE_HIGH, Regime.BISTABLE, Regime.SINGLE_LOW]
        for row in report.rows:
            assert row.avg_utility_baseline <= row.avg_payoff_baseline + 1e-12
            assert row.avg_utility_transform <= row.avg_payoff_transform + 1e-12

    def test_crossover_detection_on_synthetic_grid(self):
        # drive the environment deterministically to sharpen the payoff curves:
        # with no noise the mean environment tracks the preferred equilibrium,
        # which collapses below the payoff-indifference state 1.875 after the fold
        cfg = replace(FAST, noise=NoiseParams(beta=0.0), t_max=4000, burn_in=2000)
        grid = [2.0, 2.3, 2.55, 2.7, 3.0, 3.3]
        report = transform_comparison(cfg, SPECIALIST, GENERALIST, grid, l=1.0, n_seeds=1)
        assert report.c_cross_perfect is not None
        assert 2.55 < report.c_cross_perfect <= 2.7
        assert report.regime_perfect is Regime.SINGLE_LOW
        # refinement resolution is a tenth of the smallest grid step
        assert report.c_cross_adaptive is not None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            transform_comparison(FAST, SPECIALIST, GENERALIST, c_grid=[], l=0.01, n_seeds=1)
