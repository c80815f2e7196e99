"""stream_spans' two kernels: Python floats below SCALAR_ROWS rows, one
numpy block at and above it.  Both must yield the same spans bit for bit,
overflowed states included, so no output depends on which kernel ran."""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from flickersim import (
    AdaptationParams,
    NoiseParams,
    NonFiniteStateError,
    SimConfig,
    get_preset,
    run_ensemble,
    run_trajectory,
    utility_sweep,
)
from flickersim import simulate
from flickersim.cli import main as cli_main
from flickersim.simulate import (
    SCALAR_ROWS,
    STREAM_SPAN,
    _block_spans,
    _full_series,
    _scalar_spans,
    environment_series,
    grid_configs,
    resolve_config,
    stream_spans,
)
from oracles import replay_trajectory
from test_engine import BASE, HORIZONS, L_VALUES, at_c, replayed_mean_utility
from test_simulate import SMALL

KERNEL_ROWS = [SCALAR_ROWS - 1, SCALAR_ROWS, SCALAR_ROWS + 1]
# a huge finite start overflows x to nan within two steps
OVERFLOWS = [SimConfig(x0=1e200, t_max=40, burn_in=0), SimConfig(i0=1e300, t_max=40, burn_in=0)]
OVERFLOW_IDS = ["x0=1e200", "i0=1e300"]


@pytest.fixture(params=["scalar", "block"])
def kernel(request, monkeypatch):
    """Route every stream_spans call to one kernel, whatever its row count."""
    monkeypatch.setattr(simulate, "SCALAR_ROWS", sys.maxsize if request.param == "scalar" else 0)
    return request.param


def spans(kernel, configs, replicates):
    """(skip, X, I) of every span, arrays as (shape, bytes): nan and -0.0 compare by bits."""
    return [(skip, X.shape, np.ascontiguousarray(X).tobytes(), I.shape, I.tobytes())
            for skip, X, I in kernel(configs, replicates)]


class TestKernelsAgree:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow cases
    @pytest.mark.parametrize("base", [
        BASE,                                              # burn-in ends inside a span
        replace(BASE, noise=NoiseParams(T=5.0, beta=0.8)),  # shocks below i = -1 absorb rows at 0
        replace(BASE, x0=-0.0, y0=1.0),                     # the clamp keeps -0.0 in both
        *(replace(cfg, seed=BASE.seed) for cfg in OVERFLOWS),
    ], ids=["base", "absorbed", "negative-zero", *OVERFLOW_IDS])
    def test_stream_spans_bit_equal(self, base):
        configs = grid_configs(base, [1.0, 1.95, 3.1])
        replicates = [0, 2, 5]
        scalar = spans(_scalar_spans, configs, replicates)
        assert scalar == spans(_block_spans, configs, replicates)
        assert len(scalar) == -(-base.t_max // STREAM_SPAN)

    def test_absorbed_rows_are_covered(self):
        heavy = replace(BASE, noise=NoiseParams(T=5.0, beta=0.8))
        X = np.concatenate([X for _, X, _ in _scalar_spans(grid_configs(heavy, [1.0]), [0, 2])],
                           axis=-1)
        assert np.all(X[..., 0] > 0.0) and np.any(X[..., -1] == 0.0)

    def test_row_count_picks_the_kernel(self):
        one = grid_configs(BASE, [1.0])
        assert stream_spans(one, range(SCALAR_ROWS - 1)).__name__ == "_scalar_spans"
        assert stream_spans(one, range(SCALAR_ROWS)).__name__ == "_block_spans"
        # the fig5 grid, 40 c x 10 replicates, stays one block
        fig5 = grid_configs(BASE, np.linspace(0.25, 3.5, 40))
        assert stream_spans(fig5, range(10)).__name__ == "_block_spans"


# the engine against the unchunked scalar replay on both sides of the threshold
@pytest.mark.parametrize("rows", KERNEL_ROWS)
@pytest.mark.parametrize("t_max,burn_in", [(300, 0), *HORIZONS])
def test_rows_match_scalar_replay_bitwise(rows, t_max, burn_in):
    cfg = replace(SMALL, t_max=t_max, burn_in=burn_in)
    X, I, Y = _full_series(resolve_config(cfg), range(rows))
    for k in (0, rows - 1):
        xs, is_, ys = replay_trajectory(cfg, k)
        assert np.array_equal(X[k], xs)
        assert np.array_equal(I[k], is_)
        assert np.array_equal(Y[k], ys)


@pytest.mark.parametrize("rows", KERNEL_ROWS)
@pytest.mark.parametrize("t_max,burn_in", HORIZONS)
def test_sweep_at_threshold_replays_exactly(rows, t_max, burn_in):
    cfg = replace(BASE, t_max=t_max, burn_in=burn_in)
    for row in utility_sweep(cfg, [1.95], L_VALUES, n_seeds=rows):
        cell = replace(at_c(cfg, 1.95), adapt=AdaptationParams(l=row.l))
        assert row.avg_utility == replayed_mean_utility(cell, rows, cfg.wellbeing.params)


@pytest.mark.parametrize("n_seeds", [1, 3, 8])
def test_run_ensemble_same_on_both_kernels(n_seeds, monkeypatch):
    cfg = replace(get_preset("fig4b"), t_max=3 * STREAM_SPAN + 7, burn_in=STREAM_SPAN + 3)
    results = []
    for threshold in (sys.maxsize, 0):
        monkeypatch.setattr(simulate, "SCALAR_ROWS", threshold)
        s = run_ensemble(cfg, n_seeds)
        results.append((repr(s), s.avg_payoffs.tobytes(), s.avg_utilities.tobytes()))
    assert results[0] == results[1]


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


def test_sweep_csv_same_across_workers_and_kernels(tmp_path):
    # 12 c x 2 seeds: one block under --workers 1; groups of 6 and 4 c
    # (12 and 8 rows) run on the scalar kernel under --workers 2 and 3
    assert 12 * 2 >= SCALAR_ROWS > 6 * 2
    args = ["sweep", "--c-min", "0.25", "--c-max", "3.5", "--steps", "12", "--seeds", "2",
            "--t-max", str(3 * STREAM_SPAN + 7), "--burn-in", str(STREAM_SPAN + 3),
            "--seed", "5"]
    files = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert cli_main([*args, "--workers", str(workers), "--out-dir", str(out)]) == 0
        files.append((out / "sweep.csv").read_bytes())
    assert files[0] == files[1] == files[2]
    assert len(files[0].splitlines()) == 1 + 3 * 12


def test_non_finite_state_error_is_a_value_error():
    assert issubclass(NonFiniteStateError, ValueError)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
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
        with pytest.raises(NonFiniteStateError):
            environment_series([resolve_config(cfg)], 2)

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
