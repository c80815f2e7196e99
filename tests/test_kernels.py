"""stream_spans' two kernels: Python floats below SCALAR_ROWS rows, one
numpy block at and above it.  Both must yield the same series bit for bit,
the scalar one in blocks of whole spans and the block one span by span,
adapted states and overflowed states included, so no output depends on
which kernel ran."""

import json
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flickersim import (
    GENERALIST,
    SPECIALIST,
    AdaptationParams,
    EcoParams,
    NoiseParams,
    NonFiniteStateError,
    SimConfig,
    SystemState,
    classify_regime,
    get_preset,
    innovation_stream,
    run_ensemble,
    run_trajectory,
    step_adaptation,
    step_coupled,
    step_environment,
    step_noise,
    transform_comparison,
    utility_sweep,
)
from flickersim import analytics, simulate
from flickersim.analytics import flicker_replicates, separatrix_for
from flickersim.cli import main as cli_main
from flickersim.simulate import (
    SCALAR_BLOCK,
    SCALAR_ROWS,
    STREAM_SPAN,
    _block_spans,
    _CellSums,
    _kept_pieces,
    _scalar_spans,
    resolve_config,
    stream_spans,
)
from oracles import adaptation_paths, kept_series, replay_trajectory
from test_engine import (BASE, C_VALUES, HORIZONS, L_VALUES, at_c, forced, kernel_spans,
                         replayed_mean_utility, span_edges, starts_at)
from test_simulate import SMALL

# Few rows, whose scalar blocks hold several spans (4 096 steps at 1 row,
# 1 344 at 3, 448 at 9, 160 at 25; 31 rows, 128 steps a scalar block, ran on
# the scalar kernel under the earlier threshold 32): the (rates, replicates)
# of a grid cell at each row count.
FEW_ROWS = {1: (1, 1), 2: (1, 2), 3: (3, 1), 8: (2, 4), 9: (3, 3), 16: (2, 8), 25: (1, 25),
            31: (1, 31)}
# both sides of the threshold, plus fixed counts (around 24 and around the
# earlier thresholds 32 and 36) that keep the same cases whatever SCALAR_ROWS
# is tuned to, and the few rows
KERNEL_ROWS = sorted({*FEW_ROWS, 23, 24, 25, 31, 32, 33, 35, 36, 37,
                      SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1})


def block_horizons(block: int) -> list[tuple[int, int]]:
    """(t_max, burn_in) around a block of `block` steps, with t_max on neither
    a block nor a span boundary: burn-ins of block - 64 and block, then
    block - 24 (mid-span) and block + 3."""
    return [(block + STREAM_SPAN + 7, burn_in)
            for burn_in in (block - 64, block, block - 24, block + 3)]


# At SCALAR_BLOCK the burn-in ends on a block edge at 3 and 9 rows, or at 1,
# 2, 8, 16 and 31 rows, and inside a block of 160 steps at 25 rows; then
# mid-span inside the first block at 1 row (after it from 2 rows), or after
# the first block at every row count.  The horizons of the earlier
# 1 024-row-step bound stay: there the burn-in ends inside the first block at
# 1-3 rows, or on a block edge at 8, 16, 25 and 31.
BLOCK_EDGES = block_horizons(SCALAR_BLOCK)[:2]
BLOCK_HORIZONS = [*block_horizons(SCALAR_BLOCK), *block_horizons(1024)]
# a huge finite start overflows x to nan within two steps
OVERFLOWS = [SimConfig(x0=1e200, t_max=40, burn_in=0), SimConfig(i0=1e300, t_max=40, burn_in=0)]
OVERFLOW_IDS = ["x0=1e200", "i0=1e300"]
# stacked capacities, both ends of [0, 1] included
Y_L_VALUES = (0.0, 0.001, 0.3, 1.0)


@pytest.fixture(params=["scalar", "block"])
def kernel(request, monkeypatch):
    """Route every stream_spans call to one kernel, whatever its row count."""
    monkeypatch.setattr(simulate, "SCALAR_ROWS", sys.maxsize if request.param == "scalar" else 0)
    return request.param


def joined(model, starts, replicates, l_values):
    """X, I and Y of stream_spans at every step, burn-in included.

    Checks that every piece starts on the STREAM_SPAN grid from step 0 and
    holds whole spans, except the run's last: one span on the block kernel,
    at most SCALAR_BLOCK row-steps on the scalar one.
    """
    pieces = list(stream_spans(model, starts, replicates, l_values))
    rows = len(starts) * len(replicates)
    most = max(STREAM_SPAN, SCALAR_BLOCK // rows) if rows < simulate.SCALAR_ROWS else STREAM_SPAN
    t = 0
    for k, (X, I, Y) in enumerate(pieces):
        n = X.shape[-1]
        assert X.shape == (len(starts), len(replicates), n) and I.shape == (len(replicates), n)
        assert Y.shape == (len(l_values),) + X.shape
        assert t % STREAM_SPAN == 0 and 0 < n <= most
        assert n % STREAM_SPAN == 0 or k == len(pieces) - 1
        t += n
    assert t == model.t_max
    return [np.concatenate(part, axis=-1) for part in zip(*pieces)]


def series(kernel, model, starts, replicates, l_values=Y_L_VALUES):
    """joined X, I and Y as stepped by kernel, as (shape, bytes): nan and
    -0.0 compare by bits."""
    with forced(kernel):
        return [(a.shape, a.tobytes()) for a in joined(model, starts, replicates, l_values)]


class TestKernelsAgree:
    @pytest.mark.parametrize("base", [
        BASE,                                              # burn-in ends inside a span
        replace(BASE, noise=NoiseParams(T=5.0, beta=0.8)),  # shocks below i = -1 absorb rows at 0
        replace(BASE, x0=-0.0, y0=1.0),                     # the clamp keeps -0.0 in both
        *(replace(cfg, seed=BASE.seed) for cfg in OVERFLOWS),
    ], ids=["base", "absorbed", "negative-zero", *OVERFLOW_IDS])
    def test_stream_spans_bit_equal(self, base):
        starts = starts_at(base, [1.0, 1.95, 3.1])
        replicates = [0, 2, 5]
        scalar = series(_scalar_spans, base, starts, replicates)
        assert scalar == series(_block_spans, base, starts, replicates)
        assert scalar[-1][0] == (len(Y_L_VALUES), len(starts), len(replicates), base.t_max)

    def test_adapted_states_equal_adaptation_paths(self, kernel):
        # BASE's burn-in ends inside a span; each capacity starts at its start's y0
        starts = [*starts_at(replace(BASE, x0=2.0, y0=1.0), C_VALUES), *starts_at(BASE, C_VALUES)]
        replicates = [0, 2, 5]
        X, _, Y = joined(BASE, starts, replicates, Y_L_VALUES)
        kept = kept_series(BASE, starts, replicates, Y_L_VALUES, True)[2]
        for a, l in enumerate(Y_L_VALUES):
            single = joined(BASE, starts, replicates, [l])[2][0]
            assert np.array_equal(Y[a], single)  # stacked capacities equal one each
            for j, (_, _, y0) in enumerate(starts):
                want = adaptation_paths(X[j], y0, l)
                assert np.array_equal(Y[a, j], want)
                assert np.array_equal(kept[a, j], want[:, BASE.burn_in:])

    def test_absorbed_rows_are_covered(self):
        heavy = replace(BASE, noise=NoiseParams(T=5.0, beta=0.8))
        X, _, _ = joined(heavy, starts_at(heavy, [1.0]), [0, 2], [])
        assert np.all(X[..., 0] > 0.0) and np.any(X[..., -1] == 0.0)

    def test_row_count_picks_the_kernel(self):
        one = starts_at(BASE, [1.0])
        assert stream_spans(BASE, one, range(SCALAR_ROWS - 1), []).__name__ == "_scalar_spans"
        assert stream_spans(BASE, one, range(SCALAR_ROWS), []).__name__ == "_block_spans"
        # the fig5 grid, 40 c x 10 replicates, stays one block
        fig5 = starts_at(BASE, np.linspace(0.25, 3.5, 40))
        assert stream_spans(BASE, fig5, range(10), []).__name__ == "_block_spans"

    def test_grid_c_is_a_python_float(self):
        c_values = np.linspace(0.25, 3.5, 5)
        starts = starts_at(BASE, c_values)
        assert all(type(c) is float for c, _, _ in starts)
        floats = starts_at(BASE, c_values.tolist())
        assert (series(_scalar_spans, BASE, starts, [0, 1])
                == series(_scalar_spans, BASE, floats, [0, 1]))

    # no-config: a run of no (c, x0, y0) start
    @pytest.mark.parametrize("starts,replicates", [([], [0]), ([(1.0, 2.0, 2.0)], [])],
                             ids=["no-config", "no-replicate"])
    def test_empty_run_fails_by_name(self, starts, replicates, kernel, monkeypatch):
        def no_draw(*args):
            raise AssertionError("innovations drawn")

        monkeypatch.setattr(simulate, "_draw_innovations", no_draw)
        message = (f"a run needs at least one start and one replicate, got {len(starts)} "
                   f"starts and {len(replicates)} replicates")
        with pytest.raises(ValueError, match=re.escape(message)):
            list(stream_spans(BASE, starts, replicates, [0.1]))


def coupled_replay(cfg: SimConfig, replicate: int) -> np.ndarray:
    """x, i and y at every step of a step_coupled replay, shape (3, t_max).

    SystemState rejects an overflowed (nan) state, so from there on the
    replay applies the three step functions that step_coupled is made of.
    """
    etas = innovation_stream(cfg.seed, replicate).normal(cfg.noise.mu, cfg.noise.beta,
                                                         size=cfg.t_max)
    x, i, y = cfg.x0, cfg.i0, cfg.y0
    states = []
    for eta in etas.tolist():
        states.append((x, i, y))
        try:
            s = step_coupled(SystemState(x, i, y), cfg.eco, cfg.noise, cfg.adapt, eta)
            x, i, y = s.x, s.i, s.y
        except ValueError:  # a nan state
            x, i, y = (step_environment(x, i, cfg.eco), step_noise(i, cfg.noise, eta),
                       step_adaptation(x, y, cfg.adapt))
    return np.array(states).T


@settings(max_examples=60, deadline=None)
@given(burn_in=st.integers(0, 3 * STREAM_SPAN + 5), kept=st.integers(1, 3 * STREAM_SPAN + 5))
@example(burn_in=0, kept=2 * STREAM_SPAN + 3)                 # no burn-in
@example(burn_in=STREAM_SPAN + 3, kept=STREAM_SPAN)           # ends mid-span
@example(burn_in=STREAM_SPAN, kept=STREAM_SPAN + 1)           # ends on a span boundary
@example(burn_in=2 * STREAM_SPAN + 5, kept=1)                 # longer than one span
def test_kept_pieces_feed_sinks_the_post_burn_in_steps(burn_in, kept):
    base = replace(BASE, t_max=burn_in + kept, burn_in=burn_in)
    starts = [*starts_at(base, C_VALUES), *starts_at(replace(base, x0=2.0, y0=1.0), [1.95])]
    replicates = [0, 3]
    for kernel in (_scalar_spans, _block_spans):
        whole = [np.concatenate(part, axis=-1)
                 for part in zip(*kernel_spans(kernel, base, starts, replicates, L_VALUES))]
        with forced(kernel):
            spans = [tuple(A.copy() for A in piece)
                     for piece in _kept_pieces(base, starts, replicates, L_VALUES, check=True)]
            sums = _CellSums(burn_in, len(starts), len(replicates), len(L_VALUES), [SPECIALIST],
                             True)
            for piece in _kept_pieces(base, starts, replicates, L_VALUES, check=False):
                sums.add(*piece)
        assert all(span[0].shape[-1] > 0 for span in spans)
        got = [np.concatenate(part, axis=-1) for part in zip(*spans)]
        for part, full in zip(got, whole):
            assert part.shape[-1] == kept
            assert np.array_equal(part, full[..., burn_in:])
        assert sums.n_kept == kept
        # the cell sums add up the joined series span by span, on the
        # STREAM_SPAN grid from step 0, whatever pieces they were fed, and
        # each replicate's payoff average is the payoff at its x average
        x_sums = np.zeros(whole[0].shape[:-1])
        edges = [0, *span_edges(burn_in, base.t_max), kept]
        for a, b in zip(edges, edges[1:]):
            x_sums += whole[0][..., burn_in + a:burn_in + b].sum(axis=-1)
        assert np.array_equal(sums.x, x_sums)
        w = SPECIALIST.params
        assert np.array_equal(sums.averages(sums.x, w)[0], w.m + w.n * (x_sums / kept))


@st.composite
def scalar_runs(draw, min_capacities=1):
    """One random model, 1-3 random (c, x0, y0) starts, 1-3 replicates and
    min_capacities-2 capacities, over up to ~3 spans."""
    eco = EcoParams(r=draw(st.floats(0.01, 4.0)), K=draw(st.floats(0.1, 100.0)),
                    h=draw(st.floats(0.01, 10.0)))
    noise = NoiseParams(T=draw(st.floats(1.0, 100.0)), beta=draw(st.floats(0.0, 2.0)),
                        mu=draw(st.floats(-1.0, 1.0)))
    t_max = draw(st.integers(1, 3 * STREAM_SPAN + 5))
    # i0 = -2 clamps every positive start to 0 at the first step; the huge
    # starts overflow to nan
    model = SimConfig(eco=eco, noise=noise, t_max=t_max, burn_in=draw(st.integers(0, t_max - 1)),
                      i0=draw(st.sampled_from([-2.0, 1e300]) | st.floats(-3.0, 3.0)),
                      seed=draw(st.integers(0, 2**32)))
    x0 = st.sampled_from([0.0, -0.0, 1e200]) | st.floats(0.0, 200.0)
    starts = [(draw(st.floats(0.0, 5.0)), draw(x0), draw(st.floats(0.0, 200.0)))
              for _ in range(draw(st.integers(1, 3)))]
    replicates = draw(st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True))
    l_values = draw(st.lists(st.floats(0.0, 1.0), min_size=min_capacities, max_size=2))
    return model, starts, replicates, l_values


@settings(max_examples=150, deadline=None)
@given(scalar_runs())
def test_scalar_kernel_replays_step_coupled_bitwise(run):
    model, starts, replicates, l_values = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "SCALAR_ROWS", sys.maxsize)
        X, I, Y = joined(model, starts, replicates, l_values)
    # as bytes, so nan and -0.0 compare by bits
    for j, (c, x0, y0) in enumerate(starts):
        for k, replicate in enumerate(replicates):
            for a, l in enumerate(l_values):
                cfg = replace(model, eco=replace(model.eco, c=c), adapt=AdaptationParams(l),
                              x0=x0, y0=y0)
                xs, is_, ys = coupled_replay(cfg, replicate)
                assert X[j, k].tobytes() == xs.tobytes()
                assert I[k].tobytes() == is_.tobytes()
                assert Y[a, j, k].tobytes() == ys.tobytes()


def _one_run(t_max=STREAM_SPAN + 5, n_rates=1, i0=0.0, x0=2.0, l_values=()):
    """A scalar_runs draw, built by hand for the examples below."""
    base = SimConfig(t_max=t_max, burn_in=0, i0=i0, x0=x0, y0=1.0)
    return base, starts_at(base, [1.0, 1.95, 3.1][:n_rates]), [0], list(l_values)


@settings(max_examples=100, deadline=None)
@given(scalar_runs(min_capacities=0))  # no capacity is flicker's route
@example(_one_run())                                            # one row, short last span
@example(_one_run(t_max=2 * STREAM_SPAN, l_values=[0.3]))       # spans all full
@example(_one_run(n_rates=3, x0=-0.0, l_values=[0.0, 1.0]))   # -0.0 stays -0.0
@example(_one_run(i0=-2.0, l_values=[0.5]))                     # every row clamps to 0
@example(_one_run(x0=1e200, l_values=[0.5]))                    # x overflows to nan
@example(_one_run(i0=1e300))                                    # i overflows x
def test_block_kernel_equals_scalar_kernel_bitwise(run):
    model, starts, replicates, l_values = run
    block = series(_block_spans, model, starts, replicates, l_values)
    assert block == series(_scalar_spans, model, starts, replicates, l_values)
    assert block[0][0] == (len(starts), len(replicates), model.t_max)


@pytest.mark.parametrize("l_values", [L_VALUES, []], ids=["capacities", "none"])
def test_spans_never_alias(kernel, l_values):
    # kernel_spans and joined keep every piece: a buffer reused across pieces
    # would change the pieces already kept.  9 rows step scalar blocks of
    # `block` steps; the horizon holds three of them and 5 steps more.
    block = STREAM_SPAN * (SCALAR_BLOCK // (STREAM_SPAN * 9))
    model = replace(BASE, t_max=3 * block + 5)
    kept, previous = [], None
    for span in stream_spans(model, starts_at(model, C_VALUES), [0, 2, 5], l_values):
        if previous is not None:
            for a, b in zip(previous, span):
                assert not np.shares_memory(a, b)
        kept.append((span, [a.tobytes() for a in span]))
        previous = span
    assert len(kept) == (4 if kernel == "scalar" else -(-(3 * block + 5) // STREAM_SPAN))
    for span, frozen in kept:
        assert [a.tobytes() for a in span] == frozen


# the engine against the unchunked scalar replay, at and around the threshold;
# the few rows also at the block horizons, where a block holds several spans
@pytest.mark.parametrize("t_max,burn_in,rows", [
    *((t_max, burn_in, rows) for t_max, burn_in in [(300, 0), *HORIZONS] for rows in KERNEL_ROWS),
    *((t_max, burn_in, rows) for t_max, burn_in in BLOCK_HORIZONS for rows in FEW_ROWS),
])
def test_rows_match_scalar_replay_bitwise(rows, t_max, burn_in):
    cfg = resolve_config(replace(SMALL, t_max=t_max, burn_in=burn_in))
    X, I, Y = joined(cfg, [(cfg.eco.c, cfg.x0, cfg.y0)], range(rows), [cfg.adapt.l])
    for k in (0, rows - 1):
        xs, is_, ys = replay_trajectory(cfg, k)
        assert np.array_equal(X[0, k], xs)
        assert np.array_equal(I[k], is_)
        assert np.array_equal(Y[0, 0, k], ys)


@pytest.mark.parametrize("rows", KERNEL_ROWS)
@pytest.mark.parametrize("t_max,burn_in", HORIZONS)
def test_sweep_at_threshold_replays_exactly(rows, t_max, burn_in):
    cfg = replace(BASE, t_max=t_max, burn_in=burn_in)
    for row in utility_sweep(cfg, [1.95], L_VALUES, n_seeds=rows):
        cell = replace(at_c(cfg, 1.95), adapt=AdaptationParams(l=row.l))
        assert row.avg_utility == replayed_mean_utility(cell, rows, cfg.wellbeing.params)


@pytest.mark.parametrize("n_seeds", FEW_ROWS)
def test_run_ensemble_same_on_both_kernels(n_seeds, monkeypatch):
    cfg = replace(get_preset("fig4b"), t_max=3 * STREAM_SPAN + 7, burn_in=STREAM_SPAN + 3)
    results = []
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(simulate, "SCALAR_ROWS", threshold)
        s = run_ensemble(cfg, n_seeds)
        results.append((repr(s), s.avg_payoffs.tobytes(), s.avg_utilities.tobytes()))
    assert results[0] == results[1]


@st.composite
def ensemble_cells(draw):
    """A random system, capacity and horizon up to ~3 spans, and a replicate
    count on either side of SCALAR_ROWS, so both kernels run."""
    K = draw(st.floats(1.0, 20.0))
    t_max = draw(st.integers(1, 3 * STREAM_SPAN + 5))
    cfg = SimConfig(
        eco=EcoParams(r=draw(st.floats(0.1, 2.0)), K=K, c=draw(st.floats(0.0, 3.0)),
                      h=draw(st.floats(0.1, 3.0))),
        noise=NoiseParams(T=draw(st.floats(1.0, 60.0)), beta=draw(st.floats(0.0, 0.3))),
        adapt=AdaptationParams(draw(st.floats(0.0, 1.0))),
        wellbeing=draw(st.sampled_from([SPECIALIST, GENERALIST])),
        t_max=t_max, burn_in=draw(st.integers(0, t_max - 1)),
        x0=draw(st.floats(0.0, K)), y0=draw(st.floats(0.0, K)),
        seed=draw(st.integers(0, 2**32)))
    n = draw(st.sampled_from([1, 2, SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 3])
             | st.integers(1, SCALAR_ROWS + 4))
    return cfg, n


@settings(max_examples=60, deadline=None)
@given(ensemble_cells())
# r = 2 leaves the one positive equilibrium unstable: the sweep row carries
# classify_regime's message, and its averages are still the cell's
@example((SimConfig(eco=EcoParams(r=2.0, K=1.0, c=0.0, h=1.0),
                    noise=NoiseParams(T=1.0, beta=0.0), adapt=AdaptationParams(0.0),
                    t_max=1, burn_in=0, x0=0.0, y0=0.0, seed=0), 1))
def test_run_ensemble_is_one_sweep_cell(cell):
    cfg, n = cell
    summary = run_ensemble(cfg, n)
    [row] = utility_sweep(cfg, [cfg.eco.c], [cfg.adapt.l], n)
    try:
        classify_regime(cfg.eco)
        regime_error = None
    except Exception as exc:
        regime_error = str(exc)
    assert row.error == regime_error
    assert (summary.mean_payoff, summary.stderr_payoff, summary.mean_utility,
            summary.stderr_utility) == (row.avg_payoff, row.stderr_payoff, row.avg_utility,
                                        row.stderr_utility)


@pytest.mark.parametrize("command,name", [
    (["simulate", "--preset", "fig4b"], "trajectory.csv"),
    (["flicker", "--preset", "fig4b", "--seeds", "8"], "flicker.json"),
])
def test_data_files_same_on_both_kernels(command, name, tmp_path, monkeypatch):
    args = [*command, "--t-max", "1000", "--burn-in", "100", "--seed", "7"]
    files = []
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(simulate, "SCALAR_ROWS", threshold)
        out = tmp_path / str(threshold)
        assert cli_main([*args, "--out-dir", str(out)]) == 0
        files.append((out / name).read_bytes())
    assert files[0] == files[1]


def test_sweep_csv_same_across_workers_and_kernels(tmp_path, monkeypatch):
    # 12 c x 3 seeds: one block as one group; with MIN_GROUP_ROWS 18 and 12,
    # groups of 6 and 4 c (18 and 12 rows) run on the scalar kernel.
    # Three usable CPUs keep 3 groups, on 3 processes, on any host.
    assert 12 * 3 >= SCALAR_ROWS > 6 * 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    args = ["sweep", "--c-min", "0.25", "--c-max", "3.5", "--steps", "12", "--seeds", "3",
            "--t-max", str(3 * STREAM_SPAN + 7), "--burn-in", str(STREAM_SPAN + 3),
            "--seed", "5"]
    files = []
    for group_rows in (36, 18, 12):
        monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", group_rows)
        out = tmp_path / f"g{group_rows}"
        assert cli_main([*args, "--out-dir", str(out)]) == 0
        files.append((out / "sweep.csv").read_bytes())
    assert files[0] == files[1] == files[2]
    assert len(files[0].splitlines()) == 1 + 3 * 12


def test_non_finite_state_error_is_a_value_error():
    assert issubclass(NonFiniteStateError, ValueError)


@pytest.mark.parametrize("cfg", OVERFLOWS, ids=OVERFLOW_IDS)
class TestOverflowIsNamed:
    """A huge finite start raises NonFiniteStateError on either kernel instead
    of writing nan; grid cells keep flagging it."""

    def test_run_trajectory_raises(self, cfg, kernel):
        with pytest.raises(NonFiniteStateError, match="overflowed to nan at step"):
            run_trajectory(cfg)

    def test_run_ensemble_raises(self, cfg, kernel):
        with pytest.raises(NonFiniteStateError):
            run_ensemble(cfg, 3)

    def test_environment_series_raises(self, cfg, kernel):
        # flicker's route, named after the function it replaced
        with pytest.raises(NonFiniteStateError):
            flicker_replicates(cfg, 2, separatrix=1.0)

    @pytest.mark.parametrize("run", [
        run_trajectory,
        lambda cfg: run_ensemble(cfg, 3),
        lambda cfg: flicker_replicates(cfg, 3, separatrix=1.0),
    ], ids=["run_trajectory", "run_ensemble", "environment_series"])  # the last is flicker's
    def test_fails_at_the_first_non_finite_step(self, cfg, kernel, run, monkeypatch):
        with pytest.raises(NonFiniteStateError) as short:
            run(cfg)
        draw, drawn = simulate._draw_innovations, []
        monkeypatch.setattr(simulate, "_draw_innovations",
                            lambda *args: drawn.append(args) or draw(*args))
        # the overflow lies in the burn-in of a long run: one block of at most
        # SCALAR_BLOCK row-steps is drawn, not the 10**6 steps of every row
        with pytest.raises(NonFiniteStateError) as long:
            run(replace(cfg, t_max=10**6, burn_in=10**6 - 1))
        assert str(long.value) == str(short.value)
        assert len(drawn) == 1
        [(_, streams, steps)] = drawn
        assert len(streams) * steps <= SCALAR_BLOCK

    def test_simulate_fails_before_writing(self, cfg, kernel, tmp_path, capsys):
        start = "x0: 1.0e+200" if cfg.x0 else "i0: 1.0e+300"
        cfg_path = tmp_path / "start.yaml"
        cfg_path.write_text(f"sim:\n  {start}\n  t_max: 40\n  burn_in: 0\n")
        assert cli_main(["simulate", "--config", str(cfg_path),
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteStateError"
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_sweep_flags_the_cell(self, cfg, kernel):
        rows = utility_sweep(cfg, [1.0], [0.1], n_seeds=2)
        assert not np.isfinite(rows[0].avg_payoff)
        assert "non-finite" in rows[0].error


def on_block_kernel(run):
    """run() with every stream_spans call stepped by the block kernel."""
    with forced(_block_spans):
        return run()


def ensemble_bits(cfg: SimConfig, n_seeds: int):
    """run_ensemble's summary, its arrays as bytes."""
    s = run_ensemble(cfg, n_seeds)
    return repr(s), s.avg_payoffs.tobytes(), s.avg_utilities.tobytes()


@pytest.mark.parametrize("rows", FEW_ROWS)
def test_few_row_results_equal_block_kernel(rows):
    # the shipped SCALAR_ROWS: one scalar draw covers several spans, and every
    # result equals the block kernel's, which draws per span
    n_c, n_seeds = FEW_ROWS[rows]
    for t_max, burn_in in BLOCK_EDGES:
        base = replace(BASE, t_max=t_max, burn_in=burn_in)
        cfg = at_c(base, 1.95)
        runs = [
            lambda: ensemble_bits(cfg, rows),
            lambda: utility_sweep(base, C_VALUES[:n_c], L_VALUES, n_seeds),
            lambda: transform_comparison(base, SPECIALIST, GENERALIST, C_VALUES[:n_c], 0.1,
                                         n_seeds),
            lambda: flicker_replicates(cfg, rows, separatrix_for(cfg.eco), min_dwell=3),
        ]
        for run in runs:  # repr of Python floats is exact
            assert repr(run()) == repr(on_block_kernel(run))


@pytest.mark.parametrize("rows", [1, 3, 9])
def test_few_row_overflow_names_the_same_step(rows):
    for cfg in OVERFLOWS:
        # a horizon of several blocks, so the overflow lies in a block of several spans
        cfg = replace(cfg, t_max=BLOCK_HORIZONS[0][0])
        for run in (lambda: ensemble_bits(cfg, rows),
                    lambda: flicker_replicates(cfg, rows, separatrix=1.0),
                    *([lambda: run_trajectory(cfg)] if rows == 1 else [])):
            with pytest.raises(NonFiniteStateError) as scalar:
                run()
            with pytest.raises(NonFiniteStateError) as block:
                on_block_kernel(run)
            assert re.search(r"at step \d+ ", str(scalar.value))
            assert str(scalar.value) == str(block.value)


class TestDrawsPerBlock:
    """The scalar route draws once per block of whole spans, up to
    SCALAR_BLOCK row-steps (5 spans at 25 rows); the block kernel once per
    span."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """(replicates, steps) of every _draw_innovations call."""
        draw, calls = simulate._draw_innovations, []

        def counted(noise, streams, size):
            calls.append((len(streams), size))
            return draw(noise, streams, size)

        monkeypatch.setattr(simulate, "_draw_innovations", counted)
        return calls

    def test_run_trajectory_draws_ten_blocks(self, draws):
        run_trajectory(replace(get_preset("fig4b"), t_max=40_000))
        assert len(draws) == 10  # 1 250 spans of 32 steps
        assert draws[0] == (1, SCALAR_BLOCK)

    def test_flicker_draws_forty_blocks(self, draws):
        cfg = replace(get_preset("fig4b"), t_max=20_000, burn_in=500)
        flicker_replicates(cfg, 8, separatrix_for(cfg.eco))
        assert len(draws) == 40  # 625 spans of 32 steps
        assert draws[0] == (8, SCALAR_BLOCK // 8)

    def test_few_spans_per_block_below_the_threshold(self, draws):
        rows = SCALAR_ROWS - 1
        cfg = replace(get_preset("fig4b"), t_max=10 * STREAM_SPAN + 3, burn_in=10)
        run_ensemble(cfg, rows)
        assert draws == [(rows, 160), (rows, 160), (rows, 3)]  # 5 spans per block

    # the threshold, and the earlier threshold 32 as a fixed count
    @pytest.mark.parametrize("rows", sorted({SCALAR_ROWS, 32}))
    def test_one_draw_per_span_near_the_threshold(self, rows, draws):
        cfg = replace(get_preset("fig4b"), t_max=10 * STREAM_SPAN + 3, burn_in=10)
        run_ensemble(cfg, rows)
        assert draws == [(rows, STREAM_SPAN)] * 10 + [(rows, 3)]

    def test_one_draw_per_span_on_the_block_kernel(self, draws, monkeypatch):
        monkeypatch.setattr(simulate, "SCALAR_ROWS", 0)
        run_trajectory(replace(get_preset("fig4b"), t_max=10_000))
        assert len(draws) == -(-10_000 // STREAM_SPAN)

    @staticmethod
    def assert_block_size(rows, n_c, steps, draws):
        """Every block but the last of a run over two SCALAR_BLOCKs holds
        steps, and each block is yielded whole."""
        cfg = replace(BASE, t_max=2 * simulate.SCALAR_BLOCK + 5, burn_in=0)
        pieces = stream_spans(cfg, starts_at(cfg, C_VALUES[:n_c]), range(rows // n_c), [])
        assert [X.shape[-1] for X, _, _ in pieces] == [size for _, size in draws]
        assert {size for _, size in draws[:-1]} == {steps}
        assert max(n_seeds * size for n_seeds, size in draws) <= simulate.SCALAR_BLOCK

    # rows: (rates, steps per block) at the shipped SCALAR_BLOCK
    @pytest.mark.parametrize("rows,n_c,steps", [
        (1, 1, 4096), (2, 1, 2048), (3, 3, 1344), (8, 1, 512), (9, 3, 448), (16, 1, 256),
        (17, 1, 224), (25, 1, 160),
    ])
    def test_shipped_block_size(self, rows, n_c, steps, draws):
        assert SCALAR_BLOCK == 4096
        self.assert_block_size(rows, n_c, steps, draws)

    # rows: (rates, steps per block) at a bound of 1 024 row-steps: the
    # blocks follow SCALAR_BLOCK, in whole spans, whatever its value
    @pytest.mark.parametrize("rows,n_c,steps", [
        (1, 1, 1024), (2, 1, 512), (3, 3, 320), (8, 1, 128), (9, 3, 96), (16, 1, 64),
        (17, 1, 32), (31, 1, 32),
    ])
    def test_block_size(self, rows, n_c, steps, draws, monkeypatch):
        monkeypatch.setattr(simulate, "SCALAR_BLOCK", 1024)
        self.assert_block_size(rows, n_c, steps, draws)
