"""Every simulation entry point returns or fails with a named error.

On small random configurations (t_max <= 200) that the parameter
dataclasses accept, run_trajectory, run_ensemble, utility_sweep,
transform_comparison, flicker_replicates and cli.main for each command
either return or raise a ValueError (or a subclass), EquilibriumError or
RegimeError, each example within a 5 s deadline.  The solver's entry points
have the same property over every magnitude in tests/test_equilibria.py.
"""

import contextlib
import dataclasses
import io as _io
import json
import math
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
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
    SystemState,
    WellbeingParams,
    analytics,
    bifurcation_scan,
    fold_points,
    io,
    run_ensemble,
    run_trajectory,
    transform_comparison,
    utility_sweep,
)
from flickersim.analytics import GridError
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


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def run_main(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@settings(max_examples=50, deadline=5000)
@given(case=cases())
@example(case=Case(SimConfig(t_max=21, burn_in=20, seed=3)))  # t_max = burn_in + 1
@example(case=Case(SMALL, c_grid=(1.95,)))  # a one-value grid
@example(case=Case(SMALL, min_dwell=500, separatrix=1.855))  # min_dwell > t_max
@example(case=Case(SimConfig(eco=EcoParams(h=TINIEST_H), t_max=120, burn_in=20)))
@example(case=Case(SMALL, c_grid=(-2.0, -1.0)))  # no c of the grid resolves
@example(case=Case(SimConfig(t_max=120, burn_in=20, x0=1e300)))  # a start near overflow
@example(case=Case(SMALL, separatrix=math.inf))  # would write Infinity into flicker.json
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
            if code == 0:  # every JSON file written is strict JSON
                for path in (Path(tmp) / "out").glob("*.json"):
                    strict_json(path.read_text())


# each count argument of an entry point, its name, a valid value, and a call taking it
COUNTS = {
    "run_ensemble": ("n_seeds", 2, lambda n: run_ensemble(SMALL, n)),
    "utility_sweep": ("n_seeds", 2, lambda n: utility_sweep(SMALL, [1.0], [0.01], n)),
    "utility_sweep-workers": ("workers", 1,
                              lambda n: utility_sweep(SMALL, [1.0], [0.01], 1, workers=n)),
    "transform_comparison": ("n_seeds", 2, lambda n: transform_comparison(
        SMALL, SPECIALIST, GENERALIST, [1.0, 1.95], 0.01, n)),
    "flicker_replicates": ("n_seeds", 2, lambda n: analytics.flicker_replicates(SMALL, n, 1.0)),
    "flicker_replicates-min_dwell": ("min_dwell", 2,
                                     lambda n: analytics.flicker_replicates(SMALL, 1, 1.0, n)),
    "flicker_stats": ("min_dwell", 2, lambda n: analytics.flicker_stats([1.0, 2.0, 1.0], 1.5, n)),
    "bifurcation_scan": ("n_steps", 3, lambda n: bifurcation_scan(EcoParams(), 0.0, 4.0, n)),
}


@pytest.mark.parametrize("value", [1.5, True, np.bool_(True)], ids=["float", "bool", "np_bool"])
@pytest.mark.parametrize("entry", COUNTS)
def test_non_integer_count_named_at_every_entry_point(entry, value):
    name, _, call = COUNTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("entry", COUNTS)
def test_numpy_integer_count_runs_as_its_int(entry):
    _, count, call = COUNTS[entry]
    assert repr(call(np.int64(count))) == repr(call(count))


# the float fields of each parameter dataclass, by config-file section
PARAMETERS = {"eco": EcoParams, "noise": NoiseParams, "adapt": AdaptationParams,
              "wellbeing": WellbeingParams}


def build(section: str, name: str, value):
    """The section's dataclass (a SimConfig for "sim") with field name set to value."""
    if section == "sim":
        return SimConfig(**{name: value})
    base = dataclasses.asdict(SPECIALIST.params) if section == "wellbeing" else {}
    return PARAMETERS[section](**{**base, name: value})


FIELDS = [(section, f.name) for section, cls in PARAMETERS.items()
          for f in dataclasses.fields(cls)] + [("sim", "x0"), ("sim", "y0"), ("sim", "i0")]
FIELD_IDS = [f"{section}.{name}" for section, name in FIELDS]

# each real argument of an entry point, its name, and a call taking it
REALS = {
    **{key: (key, lambda v, s=section, n=name: build(s, n, v))
       for key, (section, name) in zip(FIELD_IDS, FIELDS)},
    "flicker_stats": ("separatrix", lambda v: analytics.flicker_stats([1.0, 2.0, 1.0], v)),
    "flicker_replicates": ("separatrix", lambda v: analytics.flicker_replicates(SMALL, 1, v)),
    "utility_sweep-c_grid": ("c_grid value", lambda v: utility_sweep(SMALL, [v], [0.01], 1)),
    "utility_sweep-l_values": ("adapt.l", lambda v: utility_sweep(SMALL, [1.0], [v], 1)),
    "transform_comparison-c_grid": ("c_grid value", lambda v: transform_comparison(
        SMALL, SPECIALIST, GENERALIST, [1.0, v], 0.01, 1)),
    "transform_comparison-l": ("adapt.l", lambda v: transform_comparison(
        SMALL, SPECIALIST, GENERALIST, [1.0, 1.95], v, 1)),
    "bifurcation_scan-c_min": ("c_min", lambda v: bifurcation_scan(EcoParams(), v, 4.0, 3)),
    "bifurcation_scan-c_max": ("c_max", lambda v: bifurcation_scan(EcoParams(), 0.0, v, 3)),
    "fold_points-c_min": ("c_min", lambda v: fold_points(EcoParams(), v, 4.0)),
    "fold_points-c_max": ("c_max", lambda v: fold_points(EcoParams(), 0.0, v)),
}
HUGE_INT = 10 ** 400
NON_REALS = {"str": "1", "bool": True, "np_bool": np.bool_(True), "None": None,
             "huge_int": HUGE_INT}


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{kind}") for entry in REALS
    for kind, value in NON_REALS.items()
    if not (value is None and entry in ("sim.x0", "sim.y0"))  # None starts at an equilibrium
])
def test_non_real_named_at_every_entry_point(entry, value):
    name, call = REALS[entry]
    expected = GridError if name == "c_grid value" else ValueError
    text = "finite" if value is HUGE_INT else f"a number, got {value!r}"
    with pytest.raises(expected, match=re.escape(f"{name} must be {text}")):
        call(value)


@pytest.mark.parametrize("kind", [np.float32, np.int64, int])
@pytest.mark.parametrize("section,name", FIELDS, ids=FIELD_IDS)
def test_real_parameter_stored_as_a_python_float(section, name, kind):
    stored = getattr(build(section, name, kind(1)), name)  # 1 is valid for every field
    assert type(stored) is float and stored == 1.0


@pytest.mark.parametrize("section,name", FIELDS, ids=FIELD_IDS)
def test_huge_int_in_a_config_file_named_by_the_cli(tmp_path, section, name):
    config = tmp_path / "bigint.yaml"
    config.write_text(f"{section}:\n  {name}: {HUGE_INT}\n")
    out = tmp_path / "out"
    code, err = run_main(["simulate", "--config", str(config), "--out-dir", str(out)])
    assert code == 1
    err = json.loads(err)
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(f"{section}.{name} must be finite")
    assert err["message"].endswith(f", got {HUGE_INT}")
    assert not (out / "trajectory.csv").exists()


# more digits than str() converts (sys.get_int_max_str_digits, 4 300 by default)
LONG_INT_DIGITS = 5001


def test_long_int_named_by_its_size():
    with pytest.raises(ValueError, match=r"^eco\.K must be finite and > 0, got an int of about "
                                         rf"{LONG_INT_DIGITS} digits$"):
        EcoParams(K=10 ** (LONG_INT_DIGITS - 1))
    with pytest.raises(ValueError, match=r"^state\.t must be >= 0, got a negative int of about "):
        SystemState(x=1.0, i=0.0, y=0.0, t=-10 ** (LONG_INT_DIGITS - 1))


def test_long_int_in_a_config_file_named_by_the_cli(tmp_path):
    config = tmp_path / "long.yaml"
    config.write_text(f"eco:\n  K: 1{'0' * (LONG_INT_DIGITS - 1)}\n")
    out = tmp_path / "out"
    code, err = run_main(["simulate", "--config", str(config), "--out-dir", str(out)])
    assert code == 1
    err = json.loads(err)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"cannot parse {config}: ")
    assert not (out / "trajectory.csv").exists()
