"""The streamed grid engine: bit-exact rows, chunk-independent sums, bounded
memory, grid validation and flagged non-finite cells."""

import json
import os
import signal
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flickersim import (
    AdaptationParams,
    EcoParams,
    NoiseParams,
    SimConfig,
    classify_regime,
    flicker_stats,
    get_preset,
    run_ensemble,
    run_trajectory,
    separatrix_for,
    transform_comparison,
    utility_sweep,
)
from flickersim import analytics, simulate
from flickersim.analytics import GridError, _first_upcrossing, flicker_replicates
from flickersim.cli import main as cli_main
from flickersim.io import write_sweep_csv
from flickersim.simulate import (
    SCALAR_BLOCK,
    STREAM_SPAN,
    _block_spans,
    _CellSums,
    _grid_cell,
    _scalar_spans,
    resolve_config,
)
from flickersim.wellbeing import (
    GENERALIST,
    SPECIALIST,
    CaseProfile,
    WellbeingParams,
    payoff,
    utility,
)
from oracles import (adaptation_paths, kept_series, replay_trajectory, span_summed_mean,
                     span_x_digest)

BASE = SimConfig(t_max=3 * STREAM_SPAN + 7, burn_in=STREAM_SPAN + 3, seed=23)
C_VALUES = [1.0, 1.95, 3.1]  # high, bistable and collapsed: three default x0
L_VALUES = [0.001, 0.1]


def at_c(cfg: SimConfig, c: float) -> SimConfig:
    return replace(cfg, eco=replace(cfg.eco, c=c))


def starts_at(base: SimConfig, c_values) -> list:
    """The (c, x0, y0) start of base at each rate, as a grid steps it."""
    return [_grid_cell(base, c).start for c in c_values]


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
        starts = starts_at(base, C_VALUES)
        if base.x0 is None:
            assert len({x0 for _, x0, _ in starts}) == len(C_VALUES)
        xs = kept_series(base, starts, range(3), [], check=True)[0]
        for j, c in enumerate(C_VALUES):
            for k in range(3):
                assert np.array_equal(xs[j, k], run_trajectory(at_c(base, c), k).xs)

    def test_unresolvable_c_errors_alone(self):
        starts = starts_at(BASE, [0.5, -1.0, 1.5])
        assert isinstance(starts[1], ValueError)
        assert [start[0] for start in (starts[0], starts[2])] == [0.5, 1.5]

        rows = utility_sweep(BASE, [0.5, -1.0, 1.5], L_VALUES, n_seeds=2)
        bad = [row for row in rows if row.c == -1.0]
        assert len(bad) == len(L_VALUES)
        assert all(row.error and np.isnan(row.avg_payoff) for row in bad)
        good = [row for row in rows if row.c != -1.0]
        assert good == utility_sweep(BASE, [0.5, 1.5], L_VALUES, n_seeds=2)

    def test_unresolvable_c_rows_are_nan_but_for_the_cell(self):
        # walks the row fields, so a field added to either row type is covered
        with pytest.raises(ValueError) as exc:
            EcoParams(c=-1.0)
        sweep = utility_sweep(BASE, [-1.0], L_VALUES, n_seeds=2)
        report = transform_comparison(BASE, SPECIALIST, GENERALIST, [-1.0], 0.01, n_seeds=2)
        assert len(sweep) == len(L_VALUES) and len(report.rows) == 1
        for row in (*sweep, *report.rows):
            assert (row.c, row.regime, row.error) == (-1.0, None, str(exc.value))
            for f in fields(row):
                value = getattr(row, f.name)
                if f.name.startswith("x_digest"):
                    assert value == ""
                elif f.type in (float, "float") and f.name not in ("c", "l"):
                    assert np.isnan(value), f.name
        assert [row.l for row in sweep] == L_VALUES
        assert report.c_cross_perfect is None and report.c_cross_adaptive is None

    def test_workers_split_rows_without_changing_them(self, monkeypatch):
        grid = [0.25, 0.5, 1.0, 1.5, 1.95]
        rows = utility_sweep(BASE, grid, L_VALUES, n_seeds=2)
        # 10 rows on three usable CPUs: groups of 1, 2 and 2 c, on three processes
        monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert utility_sweep(BASE, grid, L_VALUES, n_seeds=2) == rows


KERNELS = [_scalar_spans, _block_spans]


def forced(kernel):
    """A patch under which stream_spans steps every run on kernel."""
    rows = sys.maxsize if kernel is _scalar_spans else 0
    return mock.patch.object(simulate, "SCALAR_ROWS", rows)


def kernel_spans(kernel, model, starts, replicates, l_values):
    """stream_spans' (X, I, Y) spans, stepped by the given kernel."""
    with forced(kernel):
        return list(simulate.stream_spans(model, starts, replicates, l_values))


class TestAdaptationFilter:
    """The adapted states y that both span kernels advance beside x and i."""

    @pytest.mark.parametrize("l", [0.0, 0.001, 0.3, 1.0])
    def test_spans_join_to_adaptation_paths(self, l):
        # the last span is 11 steps; rows start from y0 = 1, 2, 3 and the defaults
        base = replace(BASE, t_max=5 * STREAM_SPAN + 11)
        starts = [*(starts_at(replace(base, x0=2.0, y0=y0), [1.95])[0] for y0 in (1.0, 2.0, 3.0)),
                  *starts_at(base, C_VALUES)]
        for kernel in KERNELS:
            parts = zip(*kernel_spans(kernel, base, starts, [0, 2], [l]))
            X, _, Y = (np.concatenate(part, axis=-1) for part in parts)
            assert Y.shape == (1,) + X.shape
            for j, (_, _, y0) in enumerate(starts):
                assert np.array_equal(Y[0, j], adaptation_paths(X[j], y0, l))

    def test_stacked_capacities_equal_one_filter_each(self):
        l_values = [0.001, 0.3, 1.0]
        starts = [*starts_at(replace(BASE, x0=2.0, y0=4.0), [1.0, 3.1]), *starts_at(BASE, C_VALUES)]
        for kernel in KERNELS:
            stacked = kernel_spans(kernel, BASE, starts, [0, 1, 4], l_values)
            singles = [kernel_spans(kernel, BASE, starts, [0, 1, 4], [l]) for l in l_values]
            for (X, _, Y), *ones in zip(stacked, *singles):
                assert Y.shape == (len(l_values),) + X.shape
                for Yl, (_, _, single) in zip(Y, ones):
                    assert np.array_equal(Yl, single[0])


def reference(cfg: SimConfig, n_seeds: int, l: float):
    """Per-replicate x and y series, unchunked, from the scalar replay + adaptation_paths."""
    full = resolve_config(replace(cfg, burn_in=0))
    X = np.stack([replay_trajectory(full, k)[0] for k in range(n_seeds)])
    Y = adaptation_paths(X, full.y0, l)
    return X[:, cfg.burn_in:], Y[:, cfg.burn_in:]


def assert_mean_and_stderr(avg, stderr, per_seed):
    assert avg == pytest.approx(np.mean(per_seed), rel=1e-12, abs=0.0)
    want = np.std(per_seed, ddof=1) / np.sqrt(per_seed.size)
    # a standard error is a difference of nearly equal sums: bound its error
    # by the rounding of the average it is taken around
    assert stderr == pytest.approx(want, rel=0.0, abs=1e-12 * abs(avg))


def block_sums(n_seeds: int, n_kept: int) -> _CellSums:
    """A _CellSums of no rates that has been fed n_kept steps."""
    sums = _CellSums(0, 0, n_seeds, 0, [], digests=False)
    sums.n_kept = n_kept
    return sums


def as_bytes(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# sums as a grid may hold them: finite of any size, and an overflowed row's
# nan and +-inf
SUM_VALUES = st.floats(-1e12, 1e12) | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2, 10]) | st.integers(1, 16),
       st.integers(1, 5000), st.data())
def test_block_averages_are_the_per_row_calls(n_c, n_seeds, n_kept, data):
    """One mean and one std over a whole (n_c, n_seeds) block give each row
    the bits of a per-row mean() and std(ddof=1) / sqrt(n_seeds)."""
    totals = data.draw(arrays(float, (n_c, n_seeds), elements=SUM_VALUES))
    with np.errstate(all="ignore"):  # rows holding nan or inf
        avgs, means, stderrs = block_sums(n_seeds, n_kept).averages(totals)
        assert as_bytes(avgs) == as_bytes(totals / n_kept)
        assert as_bytes(means) == as_bytes([float(row.mean()) for row in avgs])
        assert as_bytes(stderrs) == as_bytes(
            [float(row.std(ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0 for row in avgs])
    assert all(type(v) is float for v in (*means, *stderrs))


def test_single_replicate_block_has_zero_stderr_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, means, stderrs = block_sums(1, 4).averages(np.array([[2.0], [np.inf], [np.nan]]))
    assert as_bytes(means) == as_bytes([0.5, np.inf, np.nan])
    assert stderrs == [0.0, 0.0, 0.0]


def span_edges(burn_in: int, t_max: int) -> list[int]:
    """The STREAM_SPAN grid's edges strictly inside the kept steps, counted
    from the first kept one: where stream_spans may end a block."""
    return [t - burn_in for t in range(STREAM_SPAN, t_max, STREAM_SPAN) if t > burn_in]


def cut_cell(n_c, n_seeds, n_l, burn_in, t_max, cuts, n_profiles, seed):
    """Kept X and Y of a random cell, the cuts into pieces, and its model."""
    rng = np.random.default_rng(seed)
    shape = (n_c, n_seeds, t_max - burn_in)
    X, Y = rng.uniform(0.0, 20.0, shape), rng.uniform(0.0, 20.0, (n_l,) + shape)
    model = SimConfig(t_max=t_max, burn_in=burn_in)
    return model, X, Y, sorted(cuts), [SPECIALIST, GENERALIST][:n_profiles]


@st.composite
def cut_cells(draw):
    """cut_cell of 1-3 c, 1-3 seeds, 0-3 capacities and 1-2 profiles, with a
    burn-in that may end mid-span, t_max off the span grid, and pieces cut
    at random span edges, as blocks of any size would cut them."""
    burn_in = draw(st.integers(0, 3 * STREAM_SPAN + 5))
    t_max = burn_in + draw(st.integers(1, 9 * STREAM_SPAN + 5))
    edges = span_edges(burn_in, t_max)
    cuts = draw(st.sets(st.sampled_from(edges)) if edges else st.just(set()))
    return cut_cell(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3)),
                    burn_in, t_max, cuts, draw(st.integers(1, 2)), draw(st.integers(0, 2**32)))


def fed_sums(model, X, Y, profiles, cuts):
    """A _CellSums with digests, fed X and Y in the pieces between cuts."""
    sums = _CellSums(model.burn_in, *X.shape[:2], len(Y), profiles, digests=True)
    edges = [0, *cuts, X.shape[-1]]
    for a, b in zip(edges, edges[1:]):
        sums.add(X[..., a:b], None, Y[..., a:b])
    return sums


def sums_bits(sums: _CellSums):
    """Step count, totals as bytes and digests of a _CellSums (its payoffs
    come from its x totals)."""
    return (sums.n_kept, as_bytes(sums.x), as_bytes(sums.utility),
            [d.hexdigest() for d in sums.digests])


@settings(max_examples=200, deadline=None)
@given(cut_cells())
# pieces of several spans each: a whole-piece sum or hash would differ
@example(cut_cell(2, 3, 2, STREAM_SPAN + 3, 9 * STREAM_SPAN + 7, {6 * STREAM_SPAN - 3}, 2, 7))
@example(cut_cell(1, 2, 0, 0, 5 * STREAM_SPAN + 1, set(), 1, 8))
def test_cell_sums_do_not_depend_on_the_cuts(cell):
    """Totals and x digests keep their bits however the kept steps are cut
    into pieces: each piece is summed and hashed span by span, on the
    STREAM_SPAN grid from step 0, as if the spans were fed one at a time.
    The pieces are left as they were: no scoring buffer aliases one."""
    model, X, Y, cuts, profiles = cell
    pieces = X.tobytes(), Y.tobytes()
    want = sums_bits(fed_sums(model, X, Y, profiles, span_edges(model.burn_in, model.t_max)))
    assert sums_bits(fed_sums(model, X, Y, profiles, cuts)) == want
    assert (X.tobytes(), Y.tobytes()) == pieces


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
        # one digest of the shared series, under both names
        assert row.x_digest_baseline == row.x_digest_transform == span_x_digest(X, burn_in)


def replayed_mean_utility(cfg: SimConfig, n_seeds: int, w) -> float:
    """Mean post-burn-in utility over replicates, from step_coupled replays.

    The engine sums each row span by span; the replayed series are summed in
    the same spans, so the two agree bit for bit when the series do.
    """
    means = []
    for k in range(n_seeds):
        xs, _, ys = (series[cfg.burn_in:] for series in replay_trajectory(cfg, k))
        means.append(span_summed_mean(utility(xs, ys, w), cfg.burn_in))
    return float(np.mean(means))


class TestGridReplaysExactly:
    """Grid utilities equal a step_coupled replay scored by wellbeing.utility, with ==.

    BASE's burn-in ends inside a span.
    """

    def test_sweep_cell(self):
        for row in utility_sweep(BASE, [1.95], L_VALUES, n_seeds=2):
            cfg = replace(at_c(BASE, row.c), adapt=AdaptationParams(l=row.l))
            assert row.avg_utility == replayed_mean_utility(cfg, 2, BASE.wellbeing.params)

    def test_transform_cell(self):
        report = transform_comparison(BASE, SPECIALIST, GENERALIST, [1.95], l=0.01,
                                      n_seeds=2)
        cfg = replace(at_c(BASE, 1.95), adapt=AdaptationParams(l=0.01))
        row = report.rows[0]
        assert row.avg_utility_baseline == replayed_mean_utility(cfg, 2, SPECIALIST.params)
        assert row.avg_utility_transform == replayed_mean_utility(cfg, 2, GENERALIST.params)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.25, 3.5), min_size=1, max_size=3, unique=True),
       st.integers(1, 12), st.integers(1, 4 * STREAM_SPAN + 5), st.floats(0.0, 1.0),
       st.none() | st.floats(0.0, 15.0), st.integers(0, 2**32))
# 3 c x 11 seeds: 33 rows, on the block kernel
@example([1.0, 1.95, 3.1], 11, 3 * STREAM_SPAN + 7, 0.4, None, 23)
def test_grid_payoff_is_the_payoff_at_the_mean_x(c_values, n_seeds, t_max, burn_frac, x0, seed):
    """Every payoff column of a grid row is, bit for bit, the mean over
    replicates of m + n * (each replicate's span-summed mean x, from a
    kept_series run of the same starts), and its stderr theirs."""
    base = SimConfig(t_max=t_max, burn_in=int(burn_frac * (t_max - 1)), x0=x0, seed=seed)
    cells = [_grid_cell(base, c) for c in sorted(c_values)]
    starts = [cell.start for cell in cells if isinstance(cell.start, tuple)]
    assume(starts)
    X_kept = kept_series(base, starts, range(n_seeds), [], check=False)[0]

    def want(X, w):
        pays = np.array([w.m + w.n * span_summed_mean(x, base.burn_in) for x in X])
        stderr = float(pays.std(ddof=1) / np.sqrt(n_seeds)) if n_seeds > 1 else 0.0
        return float(pays.mean()), stderr

    sweep = {row.c: row for row in utility_sweep(base, c_values, [0.1], n_seeds)}
    pairs = {row.c: row for row in transform_comparison(base, SPECIALIST, GENERALIST,
                                                         sorted(c_values), 0.1, n_seeds).rows}
    for (c, _, _), X in zip(starts, X_kept):
        for row, tag, w in ((sweep[c], "", SPECIALIST.params),
                            (pairs[c], "_baseline", SPECIALIST.params),
                            (pairs[c], "_transform", GENERALIST.params)):
            got = (getattr(row, f"avg_payoff{tag}"), getattr(row, f"stderr_payoff{tag}"))
            assert as_bytes(got) == as_bytes(want(X, w)), (c, tag)


@pytest.mark.parametrize("run,short", [
    (lambda cfg: utility_sweep(cfg, [0.5, 1.0, 1.5], L_VALUES, n_seeds=4), 16 * STREAM_SPAN),
    # 4 and 1 rows draw and step SCALAR_BLOCK row-steps at a time, so their
    # memory grows with t_max until the horizon fills one block, and from
    # there on must not
    (lambda cfg: run_ensemble(cfg, 4), SCALAR_BLOCK // 4),
    (lambda cfg: run_ensemble(cfg, 1), SCALAR_BLOCK),
], ids=["utility_sweep", "run_ensemble", "run_ensemble-1-seed"])
def test_sweep_memory_does_not_grow_with_horizon(run, short):
    def peak(t_max):
        cfg = replace(BASE, t_max=t_max, burn_in=t_max // 10)
        run(cfg)  # warm caches
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8 * short) < 1.5 * peak(short)


def test_block_kernel_span_allocates_only_the_y_broadcast(monkeypatch):
    """After a warm-up span, one span of the block kernel at fig5's shape
    (40 c x 10 replicates x 3 capacities) peaks below 16 KiB: the y step's
    x - y broadcast takes a ~10.5 KB iterator buffer, and nothing else is
    allocated per step or per span (a broadcasting add into the state-shaped
    1 + i took ~129 KB)."""
    sweep = get_preset("fig5")
    model = replace(sweep.base, t_max=3 * STREAM_SPAN, burn_in=0)
    peaks, kernel = [], simulate._simulate_paths

    def traced(*args):
        tracemalloc.start()
        try:
            return kernel(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(simulate, "_simulate_paths", traced)
    spans = simulate.stream_spans(model, starts_at(model, sweep.c_grid), range(sweep.n_seeds),
                                  sweep.l_values)
    assert spans.__name__ == "_block_spans"
    next(spans), next(spans)
    assert peaks[1] < 16 * 1024


def test_flicker_memory_does_not_grow_with_horizon(monkeypatch):
    # 20 fig4b replicates on the block kernel, which flicker runs from
    # SCALAR_ROWS replicates up: tracemalloc slows the Python-float kernel ~5x
    # more, and both kernels yield the same series (tests/test_kernels.py).  The
    # stats list every dwell, so they grow with t_max (14 KB at 10 000 steps,
    # 73 KB at 40 000); what the run holds beyond them must not.
    monkeypatch.setattr(simulate, "SCALAR_ROWS", 0)
    cfg = get_preset("fig4b")
    sep = separatrix_for(cfg.eco)
    flicker_replicates(replace(cfg, t_max=cfg.burn_in + STREAM_SPAN), 20, sep)  # warm caches

    def held_beyond_stats(t_max):
        tracemalloc.start()
        try:
            stats = flicker_replicates(replace(cfg, t_max=t_max), 20, sep)
            current, peak = tracemalloc.get_traced_memory()  # current: the stats
            assert len(stats) == 20
            return peak - current
        finally:
            tracemalloc.stop()

    short = held_beyond_stats(10_000)
    assert held_beyond_stats(40_000) <= 1.25 * short


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

    def test_overflowing_x_sum_flags_the_payoff_without_warning(self):
        """x grows ~0.1 % a step from 1e306 and stays finite, but its sum over
        500 kept steps overflows.  A flat payoff (n = 0) summed per step read
        5.0; from the x sum it is 5 + 0 * inf = nan, flagged, as mean_x is."""
        flat = CaseProfile("flat", WellbeingParams(m=5.0, n=0.0, a=3.0))
        cfg = SimConfig(eco=EcoParams(r=0.001, K=1e308, c=0.0), noise=NoiseParams(beta=0.0),
                        wellbeing=flat, t_max=600, burn_in=100, x0=1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = run_ensemble(cfg, n_seeds=2)
            [row] = utility_sweep(cfg, [0.0], [0.1], n_seeds=2)
            [pair] = transform_comparison(cfg, flat, GENERALIST, [0.0], l=0.1, n_seeds=2).rows
        assert np.isnan(summary.avg_payoffs).all() and np.isnan(summary.mean_payoff)
        assert np.isfinite(summary.mean_utility)
        assert np.isnan(row.avg_payoff)
        assert "non-finite avg_payoff, stderr_payoff" in row.error
        assert pair.mean_x == np.inf
        assert "non-finite mean_x, avg_payoff_baseline" in pair.error


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


@pytest.fixture
def solves(monkeypatch):
    """The extraction rate of every equilibria call, from every module that binds it."""
    calls = []
    solve = sys.modules["flickersim.equilibria"].equilibria

    def counted(p):
        calls.append(p.c)
        return solve(p)

    for module in (sys.modules["flickersim.equilibria"], simulate, analytics):
        monkeypatch.setattr(module, "equilibria", counted)
    return calls


class TestOneSolvePerRate:
    """A grid's start, regime and row error at each c come from one equilibria call."""

    GRID = [0.25, 1.0, 1.5, 1.95, 2.45, 3.1]

    def test_sweep(self, solves):
        utility_sweep(BASE, self.GRID, L_VALUES, n_seeds=2)
        assert sorted(solves) == self.GRID

    def test_transform_solves_once_more_per_crossing(self, solves):
        report = transform_comparison(BASE, SPECIALIST, GENERALIST, self.GRID, 0.01, n_seeds=2)
        crossings = [c for c in (report.c_cross_perfect, report.c_cross_adaptive) if c is not None]
        assert crossings
        assert sorted(solves) == sorted(self.GRID + crossings)

    @pytest.mark.parametrize("command,preset,n_crossings", [
        ("sweep", "fig5", 0), ("transform", "fig6", 2)])
    def test_cli_presets(self, command, preset, n_crossings, solves, tmp_path):
        # 40 rates, each crossing, and the manifest resolving the base config
        # once: its config and its fingerprint share one record
        assert cli_main([command, "--preset", preset, "--t-max", "300", "--burn-in", "10",
                         "--seeds", "2", "--out-dir", str(tmp_path)]) == 0
        if n_crossings:
            doc = json.loads((tmp_path / "crossover.json").read_text())
            assert None not in (doc["c_cross_perfect"], doc["c_cross_adaptive"])
        assert len(solves) == 40 + n_crossings + 1

    @pytest.mark.parametrize("argv,n_solves", [
        (["simulate"], 2), (["flicker", "--seeds", "2"], 3)])
    def test_sim_commands_resolve_once_for_the_manifest(self, argv, n_solves, solves, tmp_path):
        # the run's own solves (flicker's separatrix too), and one for the manifest
        assert cli_main([*argv, "--preset", "fig4b", "--t-max", "300", "--burn-in", "10",
                         "--out-dir", str(tmp_path)]) == 0
        assert solves == [1.95] * n_solves


def worded_error(base: SimConfig, c: float) -> str | None:
    """A grid row's error as the public functions word it: the config's
    message, else the regime's."""
    try:
        cfg = resolve_config(at_c(base, c))
    except ValueError as exc:
        return str(exc)
    try:
        classify_regime(cfg.eco)
    except Exception as exc:
        return str(exc)
    return None


OVERCOMPENSATING = replace(BASE, eco=EcoParams(r=2.5, K=10.0, c=0.5, h=1.0))


@pytest.mark.parametrize("base,c,failed", [
    (BASE, -1.0, True),                                  # a rate EcoParams rejects
    (replace(OVERCOMPENSATING, x0=5.0, y0=5.0), 0.5, False),  # no regime
    (OVERCOMPENSATING, 0.5, True),                       # and no default x0
], ids=["rejected-c", "no-regime", "no-regime-no-start"])
def test_row_error_is_the_config_message_else_the_regime(base, c, failed):
    error = worded_error(base, c)
    assert error
    assert isinstance(_grid_cell(base, c).start, Exception) == failed
    sweep = utility_sweep(base, [c], L_VALUES, n_seeds=2)
    report = transform_comparison(base, SPECIALIST, GENERALIST, [c], 0.01, n_seeds=2)
    for row in (*sweep, *report.rows):
        assert (row.regime, row.error) == (None, error)


def start_or_error(start):
    """A grid start, or its exception, as types and reprs that compare by value."""
    if isinstance(start, Exception):
        return type(start), str(start)
    return [(type(v), repr(v)) for v in start]


@st.composite
def grid_rates(draw):
    """A base with x0 and y0 each unset or set, and an extraction rate: any
    rate on the paper's scale, negative ones and rates of an
    overcompensating map, which has no stable state, included."""
    eco = EcoParams(r=draw(st.floats(0.1, 3.0)), K=draw(st.floats(0.5, 20.0)),
                    h=draw(st.floats(0.1, 3.0)))
    start = st.none() | st.floats(0.0, 20.0)
    base = replace(BASE, eco=eco, x0=draw(start), y0=draw(start))
    return base, draw(st.floats(-3.0, 5.0) | st.sampled_from([np.float64(1.95), 0, 2]))


@settings(max_examples=200, deadline=None)
@given(grid_rates())
@example((BASE, -1.0))                                     # a rate EcoParams rejects
@example((replace(BASE, y0=4.0), 1.95))                    # y0 set, x0 the default
@example((replace(BASE, x0=2.0), 3.1))                     # x0 set, y0 follows it
@example((OVERCOMPENSATING, 0.5))                          # no stable state to start from
@example((replace(OVERCOMPENSATING, x0=5.0, y0=1.0), 0.5))  # no regime, but a start
def test_grid_start_is_the_resolved_config(cell):
    """A grid rate starts where resolve_config starts the base at that rate,
    or fails as it does: one rule, with y0 defaulting to x0."""
    base, c = cell
    try:
        cfg = resolve_config(at_c(base, c))
        want = (cfg.eco.c, cfg.x0, cfg.y0)
    except Exception as exc:
        want = exc
    assert start_or_error(_grid_cell(base, c).start) == start_or_error(want)


def test_non_finite_names_follow_the_regime_error():
    base = replace(OVERCOMPENSATING, x0=5.0, y0=5.0, noise=NoiseParams(mu=1e200))
    [row] = utility_sweep(base, [0.5], [0.1], n_seeds=2)
    assert row.error == (f"{worded_error(base, 0.5)}; non-finite avg_payoff, avg_utility, "
                         "stderr_payoff, stderr_utility")
