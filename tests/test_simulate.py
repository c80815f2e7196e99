import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flickersim import (
    AdaptationParams,
    EcoParams,
    NoiseParams,
    SimConfig,
    config_fingerprint,
    default_initial_state,
    equilibria,
    innovation_stream,
    resolve_config,
    run_ensemble,
    run_trajectory,
    step_adaptation,
    utility,
    utility_sweep,
)
from flickersim import simulate
from flickersim.presets import get_preset
from flickersim.simulate import SCALAR_BLOCK
from oracles import adaptation_paths, replay_trajectory, span_summed_mean
from test_engine import HORIZONS

SMALL = SimConfig(t_max=400, burn_in=50, seed=99)


def quiet(cfg: SimConfig, **kw) -> SimConfig:
    return replace(cfg, noise=replace(cfg.noise, beta=0.0), **kw)


class TestConfig:
    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="burn_in"):
            SimConfig(t_max=100, burn_in=-1)
        with pytest.raises(ValueError, match="t_max"):
            SimConfig(t_max=100, burn_in=100)

    def test_initial_condition_validation(self):
        with pytest.raises(ValueError, match="x0"):
            SimConfig(x0=-0.5)
        with pytest.raises(ValueError, match="y0"):
            SimConfig(y0=-0.5)

    @pytest.mark.parametrize("field,value", [
        ("x0", float("inf")), ("x0", float("nan")), ("y0", float("inf")),
        ("y0", float("nan")), ("i0", float("inf")), ("i0", float("-inf")),
        ("i0", float("nan")),
    ])
    def test_non_finite_start_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"sim.{field} must be finite"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("t_max", 100.5), ("t_max", float("inf")), ("burn_in", 10.5), ("burn_in", True),
        ("seed", 1.5), ("seed", False), ("seed", "3"),
    ])
    def test_non_integer_count_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"sim.{field} must be an integer, got {value!r}"):
            SimConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SimConfig(t_max=np.int32(400), burn_in=np.int64(50), seed=np.uint64(99))
        assert np.array_equal(run_trajectory(cfg).xs, run_trajectory(SMALL).xs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="sim.seed must be >= 0, got -1"):
            SimConfig(seed=-1)
        assert SimConfig(seed=0).seed == 0

    def test_default_start_is_high_equilibrium(self):
        rcfg = resolve_config(SimConfig(eco=EcoParams(c=1.0)))
        assert rcfg.x0 == pytest.approx(8.889084120, abs=1e-8)
        assert rcfg.y0 == rcfg.x0

    def test_default_start_in_collapsed_regime(self):
        assert default_initial_state(EcoParams(c=3.1)) == pytest.approx(0.349295533, abs=1e-8)

    def test_default_start_picks_high_branch_when_bistable(self):
        eqs = [e.x_star for e in equilibria(EcoParams(c=1.95)) if e.stable]
        assert default_initial_state(EcoParams(c=1.95)) == pytest.approx(max(eqs))

    def test_explicit_initial_conditions_kept(self):
        rcfg = resolve_config(SimConfig(x0=2.0, y0=1.0))
        assert (rcfg.x0, rcfg.y0) == (2.0, 1.0)
        rcfg = resolve_config(SimConfig(x0=2.0))
        assert rcfg.y0 == 2.0


class TestFingerprint:
    def test_stable_across_calls(self):
        assert config_fingerprint(SMALL) == config_fingerprint(SimConfig(t_max=400, burn_in=50, seed=99))

    def test_changes_with_any_value(self):
        base = config_fingerprint(SMALL)
        assert config_fingerprint(replace(SMALL, seed=100)) != base
        assert config_fingerprint(replace(SMALL, t_max=401)) != base
        assert config_fingerprint(replace(SMALL, eco=EcoParams(c=1.1))) != base
        assert config_fingerprint(replace(SMALL, adapt=AdaptationParams(l=0.02))) != base

    def test_resolution_does_not_change_fingerprint(self):
        assert config_fingerprint(SMALL) == config_fingerprint(resolve_config(SMALL))


class TestStreams:
    def test_reproducible(self):
        a = innovation_stream(7, 0).normal(0, 1, 8)
        b = innovation_stream(7, 0).normal(0, 1, 8)
        assert np.array_equal(a, b)

    def test_replicates_distinct(self):
        a = innovation_stream(7, 0).normal(0, 1, 1024)
        b = innovation_stream(7, 1).normal(0, 1, 1024)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_seeds_distinct(self):
        a = innovation_stream(7, 0).normal(0, 1, 8)
        b = innovation_stream(8, 0).normal(0, 1, 8)
        assert not np.array_equal(a, b)


class TestRunTrajectory:
    def test_deterministic(self):
        a = run_trajectory(SMALL)
        b = run_trajectory(SMALL)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        assert np.array_equal(a.noise, b.noise)

    def test_replicates_differ(self):
        a = run_trajectory(SMALL, replicate=0)
        b = run_trajectory(SMALL, replicate=1)
        assert not np.array_equal(a.xs, b.xs)

    def test_burn_in_bookkeeping(self):
        tr = run_trajectory(SMALL)
        assert len(tr) == SMALL.t_max - SMALL.burn_in
        assert tr.t0 == SMALL.burn_in
        full = run_trajectory(replace(SMALL, burn_in=0))
        # the first retained sample is exactly step burn_in
        assert tr.xs[0] == full.xs[SMALL.burn_in]
        assert np.array_equal(tr.xs, full.xs[SMALL.burn_in:])

    # the engine's spans against the unchunked scalar replay, over the
    # span-boundary horizons of the grid engine and a replicate other than 0
    @pytest.mark.parametrize("replicate", [0, 3])
    @pytest.mark.parametrize("t_max,burn_in", [(300, 0), *HORIZONS])
    def test_engine_matches_scalar_replay_bitwise(self, t_max, burn_in, replicate):
        cfg = replace(SMALL, t_max=t_max, burn_in=burn_in)
        xs, is_, ys = (series[burn_in:] for series in replay_trajectory(cfg, replicate))
        tr = run_trajectory(cfg, replicate)
        assert np.array_equal(tr.xs, xs)
        assert np.array_equal(tr.noise, is_)
        assert np.array_equal(tr.ys, ys)

    def test_noiseless_run_stays_at_equilibrium(self):
        cfg = quiet(SimConfig(eco=EcoParams(c=1.0), adapt=AdaptationParams(l=1.0),
                              t_max=500, burn_in=0))
        tr = run_trajectory(cfg)
        assert np.allclose(tr.xs, 8.889084120, atol=1e-6)
        assert np.allclose(tr.xs, tr.xs[0], atol=1e-9)
        assert np.all(tr.noise == 0.0)

    def test_noiseless_logistic_sits_at_carrying_capacity(self):
        cfg = quiet(SimConfig(eco=EcoParams(c=0.0), x0=10.0, t_max=50, burn_in=0))
        tr = run_trajectory(cfg)
        assert np.all(tr.xs == 10.0)

    def test_full_adaptation_tracks_previous_state(self):
        cfg = quiet(SimConfig(eco=EcoParams(c=1.0), adapt=AdaptationParams(l=1.0),
                              x0=5.0, y0=0.0, t_max=60, burn_in=0))
        tr = run_trajectory(cfg)
        assert tr.ys[1:] == pytest.approx(tr.xs[:-1], rel=1e-12)

    def test_states_stay_nonnegative_under_heavy_noise(self):
        cfg = SimConfig(noise=NoiseParams(T=5.0, beta=0.8), t_max=3000, burn_in=0, seed=3)
        tr = run_trajectory(cfg)
        assert np.all(tr.xs >= 0.0)
        assert np.all(tr.ys >= 0.0)

    @pytest.mark.parametrize("replicate,message", [
        (-1, "replicate must be >= 0, got -1"), (1.5, "replicate must be an integer, got 1.5"),
        (True, "replicate must be an integer, got True"),
    ])
    def test_bad_replicate_named_before_any_draw(self, monkeypatch, replicate, message):
        def no_draw(*args):
            raise AssertionError("a draw ran")

        monkeypatch.setattr(simulate, "_draw_innovations", no_draw)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_trajectory(SMALL, replicate)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            next(simulate.stream_spans(SMALL, [(1.0, 5.0, 5.0)], [0, replicate], []))

    def test_series_held_once(self):
        """run_trajectory fills one array in place: beyond its 24 bytes per
        kept step (xs, ys and noise), the run holds one block, not a second
        copy of the series.  A block's Python lists, arrays and draw took
        ~186 bytes per row-step of SCALAR_BLOCK at fig4b."""
        cfg = get_preset("fig4b")
        for kept in (4 * SCALAR_BLOCK + 5, 16 * SCALAR_BLOCK + 5):
            run = replace(cfg, t_max=cfg.burn_in + kept)
            run_trajectory(run)  # warms caches
            tracemalloc.start()
            try:
                run_trajectory(run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 * kept + 256 * SCALAR_BLOCK, (kept, peak)

    def test_kept_series_above_the_cap_fail_by_name(self, monkeypatch):
        # SMALL keeps 350 steps of x, i and y: 3 * 8 * 350 bytes
        monkeypatch.setattr(simulate, "KEPT_SERIES_MAX_BYTES", 8400)
        assert len(run_trajectory(SMALL)) == 350
        monkeypatch.setattr(simulate, "KEPT_SERIES_MAX_BYTES", 8399)

        def no_simulation(*args):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(simulate, "stream_spans", no_simulation)
        with pytest.raises(ValueError) as exc:
            run_trajectory(SMALL)
        assert str(exc.value) == (
            "keeping sim.t_max - sim.burn_in = 350 steps needs 8400 bytes, "
            "above KEPT_SERIES_MAX_BYTES = 8399; lower sim.t_max or raise sim.burn_in")


class TestRunEnsemble:
    """run_ensemble's averages are sums of per-span sums: the exact checks
    compare each replicate's payoff with m + n * span_summed_mean of its x,
    and its utility with span_summed_mean of the per-step utility."""

    def test_single_seed_equals_trajectory(self):
        summary = run_ensemble(SMALL, n_seeds=1)
        tr = run_trajectory(SMALL)
        w = SMALL.wellbeing.params
        assert summary.avg_payoffs[0] == w.m + w.n * span_summed_mean(tr.xs, tr.t0)
        assert summary.avg_utilities[0] == span_summed_mean(utility(tr.xs, tr.ys, w), tr.t0)
        assert summary.stderr_payoff == 0.0
        assert summary.stderr_utility == 0.0

    def test_noiseless_replicates_identical(self):
        summary = run_ensemble(quiet(SMALL), n_seeds=4)
        assert np.ptp(summary.avg_payoffs) == 0.0
        assert np.ptp(summary.avg_utilities) == 0.0
        assert summary.stderr_payoff == 0.0
        assert summary.stderr_utility == 0.0

    def test_replicate_count_validation(self):
        with pytest.raises(ValueError, match="n_seeds"):
            run_ensemble(SMALL, n_seeds=0)

    def test_config_with_no_start_fails_by_name(self):
        # r = 2.5 overcompensates: no stable positive equilibrium to start from
        cfg = replace(SMALL, eco=EcoParams(r=2.5, K=10.0, c=0.5, h=1.0))
        with pytest.raises(ValueError, match="no stable positive equilibrium .* set x0"):
            run_ensemble(cfg, n_seeds=2)

    def test_mean_consistency(self):
        summary = run_ensemble(SMALL, n_seeds=5)
        assert summary.mean_payoff == pytest.approx(summary.avg_payoffs.mean())
        assert summary.mean_utility == pytest.approx(summary.avg_utilities.mean())
        assert summary.avg_utilities.max() <= summary.avg_payoffs.max()
        assert summary.stderr_payoff > 0.0

    def test_order_matches_per_replicate_runs(self):
        summary = run_ensemble(SMALL, n_seeds=3)
        w = SMALL.wellbeing.params
        for k in range(3):
            tr = run_trajectory(SMALL, replicate=k)
            assert summary.avg_payoffs[k] == w.m + w.n * span_summed_mean(tr.xs, tr.t0)

    def test_adapted_state_starts_at_explicit_y0(self):
        # y0 != x0, so a y series started anywhere but y0 shows in every average
        cfg = replace(SMALL, x0=2.0, y0=7.0, t_max=69, burn_in=3)
        summary = run_ensemble(cfg, n_seeds=2)
        w = cfg.wellbeing.params
        for k in range(2):
            xs, _, ys = (series[cfg.burn_in:] for series in replay_trajectory(cfg, k))
            assert summary.avg_payoffs[k] == w.m + w.n * span_summed_mean(xs, cfg.burn_in)
            assert summary.avg_utilities[k] == span_summed_mean(utility(xs, ys, w), cfg.burn_in)

    def test_huge_finite_averages_give_an_inf_stderr_without_warning(self):
        """x climbs past 1e154 within 110 steps; the squares in the payoff
        stderr overflow, which reads an inf stderr (a grid row flags it), not
        a RuntimeWarning, which the suite makes an error."""
        cfg = SimConfig(eco=EcoParams(r=0.25, K=1e154, c=0.0, h=1.5717277847026288e-162),
                        noise=NoiseParams(T=20.0, beta=1.0, mu=1.0),
                        adapt=AdaptationParams(l=0.0), t_max=110, burn_in=0, x0=1e17,
                        i0=1.0, seed=3)
        summary = run_ensemble(cfg, n_seeds=2)
        assert np.isfinite(summary.avg_payoffs).all()
        assert summary.stderr_payoff == np.inf
        [row] = utility_sweep(cfg, [0.0], [0.0], n_seeds=2)
        assert "non-finite stderr_payoff" in row.error


def test_tracking_loss_ratio_grows_with_capacity():
    """Average utility relative to average payoff improves with adaptive
    capacity, but even one-step tracking keeps a gap: state jumps are of
    order i*x, so the misadaptation never vanishes.
    """
    base = SimConfig(eco=EcoParams(c=1.0), t_max=20_000, burn_in=2_000, seed=21)
    ratios = {}
    for l in (0.1, 1.0):
        summary = run_ensemble(replace(base, adapt=AdaptationParams(l=l)), n_seeds=10)
        ratios[l] = summary.mean_utility / summary.mean_payoff
    assert 0.80 < ratios[0.1] < 0.90
    assert ratios[0.1] < ratios[1.0] < 1.0


class TestAdaptationPaths:
    def test_matches_scalar_iteration(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 12, 400)
        for l in (0.0, 0.001, 0.3, 1.0):
            ys = adaptation_paths(xs, y0=2.0, l=l)[0]
            y, adapt = 2.0, AdaptationParams(l=l)
            expected = []
            for x in xs:
                expected.append(y)
                y = step_adaptation(x, y, adapt)
            assert ys.tolist() == expected

    def test_frozen_capacity_keeps_initial_adaptation(self):
        xs = np.linspace(0, 10, 50)
        assert np.all(adaptation_paths(xs, y0=4.0, l=0.0) == 4.0)

    def test_full_capacity_shifts_by_one_step(self):
        xs = np.linspace(0, 10, 50)
        ys = adaptation_paths(xs, y0=4.0, l=1.0)[0]
        assert ys[0] == 4.0
        assert np.array_equal(ys[1:], xs[:-1])

    def test_row_batched(self):
        X = np.arange(12.0).reshape(2, 6)
        Y = adaptation_paths(X, y0=0.0, l=0.5)
        assert Y.shape == X.shape
        assert np.array_equal(Y[1], adaptation_paths(X[1], 0.0, 0.5)[0])

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="l must be"):
            adaptation_paths(np.ones(4), 0.0, 1.5)
