import concurrent.futures
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
from flickersim.analytics import _Dwells, flicker_replicates
from flickersim.simulate import STREAM_SPAN
from flickersim.wellbeing import GENERALIST, SPECIALIST
from oracles import Basin, classify_basin, run_length_flicker_stats

FAST = SimConfig(t_max=600, burn_in=100, seed=17)


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
        if hi > burn_in:  # as simulate._consume feeds spans
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

    def test_workers_do_not_change_results(self):
        rows1 = utility_sweep(FAST, c_grid=[0.5, 1.0, 1.5], l_values=[0.01, 0.1], n_seeds=2)
        rows2 = utility_sweep(FAST, c_grid=[0.5, 1.0, 1.5], l_values=[0.01, 0.1], n_seeds=2,
                              workers=2)
        assert rows1 == rows2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            utility_sweep(FAST, c_grid=[], l_values=[0.1], n_seeds=1)
        with pytest.raises(ValueError):
            utility_sweep(FAST, c_grid=[1.0], l_values=[0.1], n_seeds=0)

    def test_empty_l_values_rejected(self):
        with pytest.raises(ValueError, match="l_values must be nonempty"):
            utility_sweep(FAST, c_grid=[1.0], l_values=[], n_seeds=1)

    @pytest.mark.parametrize("affinity,cpu_count,opened", [
        ({0, 1, 2}, 8, [3]), (None, 2, [2]), (None, None, []),
    ], ids=["affinity", "cpu_count", "unknown"])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, affinity, cpu_count, opened):
        # one group runs in this process and opens no pool
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        grid = [0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
        rows = utility_sweep(FAST, c_grid=grid, l_values=[0.1], n_seeds=1, workers=64)
        assert pools == opened
        assert mapped == pools  # one group per process
        assert rows == utility_sweep(FAST, c_grid=grid, l_values=[0.1], n_seeds=1)

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            utility_sweep(FAST, c_grid=[1.0], l_values=[0.1], n_seeds=1, workers=workers)

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
    # the same cell as above: transform carries the regime failure too, so the
    # cell leaves the crossing search like any other error cell
    cfg = replace(FAST, eco=EcoParams(r=2.5, K=10.0, c=0.5, h=1.0), x0=5.0, y0=5.0)
    sweep_row = utility_sweep(cfg, c_grid=[0.5], l_values=[0.01], n_seeds=2)[0]
    trans_row = transform_comparison(cfg, SPECIALIST, GENERALIST, c_grid=[0.5], l=0.01,
                                     n_seeds=2).rows[0]
    assert sweep_row.error.startswith("0 stable / 1 positive equilibria")
    assert (trans_row.regime, trans_row.error) == (sweep_row.regime, sweep_row.error)
    assert trans_row.avg_payoff_baseline == sweep_row.avg_payoff


class TestTransformComparison:
    def test_identical_cases_have_no_crossover(self):
        report = transform_comparison(FAST, SPECIALIST, SPECIALIST,
                                      c_grid=[0.5, 1.0, 1.5], l=0.01, n_seeds=2)
        assert report.c_cross_perfect is None
        assert report.c_cross_adaptive is None
        assert report.regime_perfect is None
        assert report.band_adaptive is None

    def test_shared_trajectories_across_cases(self):
        report = transform_comparison(FAST, SPECIALIST, GENERALIST,
                                      c_grid=[1.0, 2.0], l=0.01, n_seeds=2)
        for row in report.rows:
            assert row.x_digest_baseline == row.x_digest_transform
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
