"""Every simulation entry point returns or fails with a named error.

On small random configurations (t_max <= 200) that the parameter
dataclasses accept, run_trajectory, run_ensemble, utility_sweep,
transform_comparison, flicker_replicates and cli.main for each command
either return or raise a ValueError (or a subclass), EquilibriumError or
RegimeError, each example within a 5 s deadline.  The solver's entry points
have the same property over every magnitude in tests/test_equilibria.py.
"""

import contextlib
import io as _io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flickersim import (
    GENERALIST,
    SPECIALIST,
    AdaptationParams,
    EcoParams,
    EquilibriumError,
    NoiseParams,
    RegimeError,
    SimConfig,
    analytics,
    io,
    run_ensemble,
    run_trajectory,
    transform_comparison,
    utility_sweep,
)
from flickersim.cli import main

NAMED = (ValueError, EquilibriumError, RegimeError)


def _with_subclasses(cls: type) -> set[type]:
    return {cls}.union(*(_with_subclasses(sub) for sub in cls.__subclasses__()))


# what cli.main prints as "error" for a named failure: ValueError, or one of
# the package's own errors
NAMED_NAMES = {cls.__name__ for named in NAMED for cls in _with_subclasses(named)
               if cls is ValueError or cls.__module__.startswith("flickersim.")}

# the smallest h that EcoParams accepts: h * h is the smallest subnormal
TINIEST_H = 1.5717277847026288e-162


def test_tiniest_h_is_the_smallest_accepted():
    EcoParams(h=TINIEST_H)
    with pytest.raises(ValueError, match="h \\* h > 0"):
        EcoParams(h=math.nextafter(TINIEST_H, 0.0))


@dataclass(frozen=True)
class Case:
    """One configuration and the grid, replicate and flicker arguments run on it."""

    cfg: SimConfig
    c_grid: tuple[float, ...] = (1.0, 1.95)
    l_values: tuple[float, ...] = (0.01,)
    n_seeds: int = 2
    min_dwell: int = 5
    separatrix: float | None = None


SMALL = SimConfig(t_max=120, burn_in=20, seed=3)

magnitudes = st.floats(-160.0, 300.0).map(lambda e: 10.0 ** e)
# the paper's scale, where runs resolve and simulate, or any magnitude
scaled = st.floats(0.1, 12.0) | magnitudes
starts = st.none() | scaled


@st.composite
def cases(draw) -> Case:
    eco = EcoParams(r=draw(scaled), K=draw(scaled), c=draw(st.just(0.0) | scaled),
                    h=draw(st.just(TINIEST_H) | scaled))
    noise = NoiseParams(T=draw(st.floats(1.0, 100.0)), beta=draw(st.floats(0.0, 1.0)),
                        mu=draw(st.floats(-1.0, 1.0)))
    burn_in = draw(st.integers(0, 150))
    cfg = SimConfig(eco=eco, noise=noise,
                    adapt=AdaptationParams(draw(st.floats(0.0, 1.0))),
                    wellbeing=draw(st.sampled_from([SPECIALIST, GENERALIST])),
                    t_max=draw(st.integers(burn_in + 1, 200)), burn_in=burn_in,
                    x0=draw(starts), y0=draw(starts), i0=draw(st.floats(-1.0, 1.0)),
                    seed=draw(st.integers(0, 2**64)))
    c_grid = draw(st.lists(st.floats(-3.0, 5.0) | scaled, min_size=1, max_size=4,
                           unique=True))
    return Case(cfg, tuple(sorted(c_grid)),
                tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2))),
                draw(st.integers(1, 3)), draw(st.integers(1, 300)),
                draw(st.none() | st.floats(-1.0, 20.0)))


def library_calls(case: Case):
    cfg = case.cfg
    separatrix = 1.0 if case.separatrix is None else case.separatrix
    return [
        (run_trajectory, (cfg,)),
        (run_ensemble, (cfg, case.n_seeds)),
        (utility_sweep, (cfg, case.c_grid, case.l_values, case.n_seeds)),
        (transform_comparison, (cfg, SPECIALIST, GENERALIST, case.c_grid, case.l_values[0],
                                case.n_seeds)),
        (analytics.flicker_replicates, (cfg, case.n_seeds, separatrix, case.min_dwell)),
    ]


def cli_calls(case: Case, config: Path, out: Path) -> list[list[str]]:
    common = ["--config", str(config), "--out-dir", str(out)]
    grid = [f"--c-min={case.c_grid[0]}", f"--steps={len(case.c_grid)}"]
    if len(case.c_grid) > 1:
        grid.append(f"--c-max={case.c_grid[-1]}")
    seeds = [f"--seeds={case.n_seeds}"]
    flicker = [*seeds, f"--min-dwell={case.min_dwell}"]
    if case.separatrix is not None:
        flicker.append(f"--separatrix={case.separatrix}")
    return [
        ["simulate", *common],
        ["bifurcation", *common, *grid],
        ["sweep", *common, *grid, *seeds, *(f"--l={l}" for l in case.l_values)],
        ["transform", *common, *grid, *seeds, f"--l={case.l_values[0]}"],
        ["flicker", *common, *flicker],
    ]


def run_main(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing states
@settings(max_examples=50, deadline=5000)
@given(case=cases())
@example(case=Case(SimConfig(t_max=21, burn_in=20, seed=3)))  # t_max = burn_in + 1
@example(case=Case(SMALL, c_grid=(1.95,)))  # a one-value grid
@example(case=Case(SMALL, min_dwell=500, separatrix=1.855))  # min_dwell > t_max
@example(case=Case(SimConfig(eco=EcoParams(h=TINIEST_H), t_max=120, burn_in=20)))
@example(case=Case(SMALL, c_grid=(-2.0, -1.0)))  # no c of the grid resolves
@example(case=Case(SimConfig(t_max=120, burn_in=20, x0=1e300)))  # a start near overflow
def test_every_entry_point_returns_or_fails_by_name(case):
    for fn, args in library_calls(case):
        try:
            fn(*args)
        except NAMED:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.yaml"
        io.write_config(case.cfg, config)
        for argv in cli_calls(case, config, Path(tmp) / "out"):
            code, err = run_main(argv)
            assert code == 0 or json.loads(err)["error"] in NAMED_NAMES, (argv, err)
