"""The streamed grid engine: bit-exact rows, chunk-independent sums, bounded
memory, grid validation and flagged non-finite cells."""

import json
import signal
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flickersim import (
    EcoParams,
    NoiseParams,
    SimConfig,
    adaptation_paths,
    flicker_stats,
    run_trajectory,
    separatrix_for,
    transform_comparison,
    utility_sweep,
)
from flickersim.analytics import GridError, _first_upcrossing
from flickersim.cli import main as cli_main
from flickersim.io import write_sweep_csv
from flickersim.simulate import (
    STREAM_SPAN,
    AdaptationFilter,
    environment_series,
    grid_configs,
    resolve_config,
)
from flickersim.wellbeing import GENERALIST, SPECIALIST, payoff, utility

BASE = SimConfig(t_max=3 * STREAM_SPAN + 7, burn_in=STREAM_SPAN + 3, seed=23)
C_VALUES = [1.0, 1.95, 3.1]  # high, bistable and collapsed: three default x0
L_VALUES = [0.001, 0.1]


def at_c(cfg: SimConfig, c: float) -> SimConfig:
    return replace(cfg, eco=replace(cfg.eco, c=c))


def within(seconds: int, fn, *args):
    """fn(*args), or TimeoutError once it has run for seconds."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"{fn.__name__} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestBlockRows:
    @pytest.mark.parametrize("base", [BASE, replace(BASE, x0=2.0, y0=1.0)],
                             ids=["default-x0", "explicit-x0-y0"])
    def test_every_row_is_run_trajectory(self, base):
        configs = grid_configs(base, C_VALUES)
        if base.x0 is None:
            assert len({cfg.x0 for cfg in configs}) == len(C_VALUES)
        xs = environment_series(configs, 3)
        for j, c in enumerate(C_VALUES):
            for k in range(3):
                assert np.array_equal(xs[j, k], run_trajectory(at_c(base, c), k).xs)

    def test_unresolvable_c_errors_alone(self):
        configs = grid_configs(BASE, [0.5, -1.0, 1.5])
        assert isinstance(configs[1], ValueError)
        assert [cfg.eco.c for cfg in (configs[0], configs[2])] == [0.5, 1.5]

        rows = utility_sweep(BASE, [0.5, -1.0, 1.5], L_VALUES, n_seeds=2)
        bad = [row for row in rows if row.c == -1.0]
        assert len(bad) == len(L_VALUES)
        assert all(row.error and np.isnan(row.avg_payoff) for row in bad)
        good = [row for row in rows if row.c != -1.0]
        assert good == utility_sweep(BASE, [0.5, 1.5], L_VALUES, n_seeds=2)

    def test_workers_split_rows_without_changing_them(self):
        grid = [0.25, 0.5, 1.0, 1.5, 1.95]
        rows = utility_sweep(BASE, grid, L_VALUES, n_seeds=2)
        assert utility_sweep(BASE, grid, L_VALUES, n_seeds=2, workers=3) == rows


class TestAdaptationFilter:
    @pytest.mark.parametrize("l", [0.0, 0.001, 0.3, 1.0])
    def test_spans_join_to_adaptation_paths(self, l):
        X = np.random.default_rng(4).uniform(0, 10, (3, 5 * STREAM_SPAN + 11))
        y0 = np.array([1.0, 2.0, 3.0])
        expected = np.concatenate([adaptation_paths(row, y0[k], l) for k, row in enumerate(X)])
        adapt = AdaptationFilter(y0, l)
        cuts = [0, 1, STREAM_SPAN, 2 * STREAM_SPAN + 5, X.shape[1]]
        got = np.concatenate([adapt(X[:, a:b]) for a, b in zip(cuts, cuts[1:])], axis=1)
        assert np.array_equal(got, expected)


def reference(cfg: SimConfig, n_seeds: int, l: float):
    """Per-replicate x and y series, unchunked, from run_trajectory + adaptation_paths."""
    full = resolve_config(replace(cfg, burn_in=0))
    X = np.stack([run_trajectory(full, k).xs for k in range(n_seeds)])
    Y = adaptation_paths(X, full.y0, l)
    return X[:, cfg.burn_in:], Y[:, cfg.burn_in:]


def assert_mean_and_stderr(avg, stderr, per_seed):
    assert avg == pytest.approx(np.mean(per_seed), rel=1e-12, abs=0.0)
    want = np.std(per_seed, ddof=1) / np.sqrt(per_seed.size)
    # a standard error is a difference of nearly equal sums: bound its error
    # by the rounding of the average it is taken around
    assert stderr == pytest.approx(want, rel=0.0, abs=1e-12 * abs(avg))


HORIZONS = [
    (3 * STREAM_SPAN + 7, STREAM_SPAN + 3),   # t_max off the span, burn_in inside a span
    (3 * STREAM_SPAN, STREAM_SPAN),           # burn_in on a span boundary
    (2 * STREAM_SPAN + 1, 0),                 # no burn-in
    (STREAM_SPAN + 6, STREAM_SPAN + 5),       # one kept step
]


@pytest.mark.parametrize("t_max,burn_in", HORIZONS)
def test_sweep_matches_unchunked_reference(t_max, burn_in):
    cfg = replace(BASE, t_max=t_max, burn_in=burn_in)
    rows = utility_sweep(cfg, C_VALUES, L_VALUES, n_seeds=3)
    w = cfg.wellbeing.params
    for row in rows:
        assert row.error is None
        X, Y = reference(at_c(cfg, row.c), 3, row.l)
        assert_mean_and_stderr(row.avg_payoff, row.stderr_payoff, payoff(X, w).mean(axis=1))
        assert_mean_and_stderr(row.avg_utility, row.stderr_utility,
                               utility(X, Y, w).mean(axis=1))


@pytest.mark.parametrize("t_max,burn_in", HORIZONS)
def test_transform_matches_unchunked_reference(t_max, burn_in):
    cfg = replace(BASE, t_max=t_max, burn_in=burn_in)
    report = transform_comparison(cfg, SPECIALIST, GENERALIST, C_VALUES, l=0.01, n_seeds=3)
    for row in report.rows:
        assert row.error is None
        X, Y = reference(at_c(cfg, row.c), 3, 0.01)
        assert row.mean_x == pytest.approx(X.mean(), rel=1e-12, abs=0.0)
        for case, tag in ((SPECIALIST, "baseline"), (GENERALIST, "transform")):
            w = case.params
            assert_mean_and_stderr(getattr(row, f"avg_payoff_{tag}"),
                                   getattr(row, f"stderr_payoff_{tag}"),
                                   payoff(X, w).mean(axis=1))
            assert_mean_and_stderr(getattr(row, f"avg_utility_{tag}"),
                                   getattr(row, f"stderr_utility_{tag}"),
                                   utility(X, Y, w).mean(axis=1))
        assert row.x_digest_baseline == row.x_digest_transform


def test_sweep_memory_does_not_grow_with_horizon():
    def peak(t_max):
        cfg = replace(BASE, t_max=t_max, burn_in=t_max // 10)
        utility_sweep(cfg, [0.5, 1.0, 1.5], L_VALUES, n_seeds=4)  # warm caches
        tracemalloc.start()
        try:
            utility_sweep(cfg, [0.5, 1.0, 1.5], L_VALUES, n_seeds=4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short = 16 * STREAM_SPAN
    assert peak(8 * short) < 1.5 * peak(short)


class TestGridValidation:
    def test_grid_error_is_a_value_error(self):
        assert issubclass(GridError, ValueError)

    @pytest.mark.parametrize("grid", [[0.5, 1.0, 0.5], [0.5, float("nan")], [float("inf")]])
    def test_sweep_rejects_repeated_or_non_finite(self, grid):
        with pytest.raises(GridError):
            utility_sweep(BASE, grid, L_VALUES, n_seeds=1)

    def test_sweep_accepts_unsorted(self):
        rows = utility_sweep(BASE, [1.0, 0.5], [0.1], n_seeds=1)
        assert [row.c for row in rows] == [0.5, 1.0]

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [0.5, 1.0, 1.0], [0.5, float("nan")],
                                      [float("-inf"), 1.0]])
    def test_transform_rejects_non_increasing_or_non_finite(self, grid):
        with pytest.raises(GridError):
            transform_comparison(BASE, SPECIALIST, GENERALIST, grid, l=0.01, n_seeds=1)

    def test_crossing_with_zero_width_refinement_returns(self):
        assert within(5, _first_upcrossing, [1.0, 2.0], [-1.0, 1.0]) == (1.5, 1)

    def test_crossing_is_the_interpolant_root(self):
        assert _first_upcrossing([0.0, 1.0], [-0.75, 0.25]) == (0.75, 1)
        assert _first_upcrossing([0.0, 1.0, 2.0], [0.5, 0.0, 1.0]) == (1.0, 2)
        assert _first_upcrossing([0.0, 1.0], [1.0, 2.0]) is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
class TestNonFiniteCells:
    RUNAWAY = replace(BASE, noise=NoiseParams(mu=1e200))  # x overflows within steps

    def test_sweep_flags_overflow(self, tmp_path):
        rows = utility_sweep(self.RUNAWAY, [1.0], [0.1], n_seeds=2)
        assert not np.isfinite(rows[0].avg_payoff)
        assert "non-finite" in rows[0].error
        path = write_sweep_csv(tmp_path / "sweep.csv", rows)
        assert "non-finite" in path.read_text().splitlines()[1]

    def test_transform_flags_overflow_and_skips_it(self):
        cfg = replace(self.RUNAWAY, eco=EcoParams(c=1.0))
        report = transform_comparison(cfg, SPECIALIST, GENERALIST, [1.0, 2.0], l=0.01,
                                      n_seeds=1)
        assert all("non-finite" in row.error for row in report.rows)
        assert report.c_cross_perfect is None and report.c_cross_adaptive is None


def test_flicker_command_equals_per_replicate_runs(tmp_path):
    args = ["--preset", "fig4b", "--t-max", str(4 * STREAM_SPAN + 9),
            "--burn-in", str(STREAM_SPAN - 2)]
    assert cli_main(["flicker", *args, "--seeds", "3", "--out-dir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "flicker.json").read_text())
    from flickersim import get_preset
    cfg = replace(get_preset("fig4b"), t_max=4 * STREAM_SPAN + 9, burn_in=STREAM_SPAN - 2)
    sep = separatrix_for(cfg.eco)
    for k, rep in enumerate(doc["replicates"]):
        stats = flicker_stats(run_trajectory(cfg, replicate=k).xs, sep)
        assert rep == {"n_transitions": stats.n_transitions,
                       "fraction_high": stats.fraction_high,
                       "residence_high": list(stats.residence_high),
                       "residence_low": list(stats.residence_low)}
    assert len(doc["replicates"]) == 3
