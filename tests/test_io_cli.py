import csv
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import flickersim
from flickersim import (
    GENERALIST,
    PRESETS,
    SPECIALIST,
    AdaptationParams,
    EcoParams,
    NoiseParams,
    SimConfig,
    bifurcation_scan,
    config_fingerprint,
    flicker_stats,
    get_preset,
    payoff,
    run_trajectory,
    separatrix_for,
    transform_comparison,
    utility,
    utility_sweep,
)
from flickersim import analytics, cli, io, simulate
from flickersim.analytics import (
    ComparisonRow,
    CrossoverReport,
    FlickerStats,
    SweepRow,
    flicker_replicates,
)
from flickersim.cli import main
from flickersim.equilibria import Regime
from flickersim.io import (
    ParseError,
    ValidationError,
    _TRAJECTORY_ROWS,
    _atomic_write,
    _csv_blocks,
    _numpy_dispatch,
    _rows,
    build_manifest,
    config_from_dict,
    config_to_dict,
    load_config,
    write_comparison_csv,
    write_config,
    write_crossover_json,
    write_flicker_json,
    write_sweep_csv,
    write_trajectory_csv,
)
from flickersim.presets import ScanConfig, SweepConfig, TransformConfig
from flickersim.simulate import SCALAR_BLOCK, trajectory_pieces
from flickersim.wellbeing import PROFILES, CaseProfile, WellbeingParams
from oracles import per_row_csv_text

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, allow_infinity=False, exclude_min=True)

# every float parameter of a config section, and the YAML spellings of the
# values each must reject
FLOAT_PARAMETERS = [(section, cls, f.name) for section, cls in
                    (("eco", EcoParams), ("noise", NoiseParams), ("wellbeing", WellbeingParams))
                    for f in fields(cls)]
FLOAT_PARAMETER_IDS = [f"{section}.{name}" for section, _, name in FLOAT_PARAMETERS]
NON_FINITE = {".nan": math.nan, ".inf": math.inf, "-.inf": -math.inf}


# finite grid ends: moderate, log-uniform of either sign, and within 2x of the float
# range's end, where two ends of opposite sign overflow their difference
GRID_ENDS = st.floats(-10.0, 10.0) | st.builds(
    lambda m, sign: sign * m, st.floats(-310.0, 308.25).map(lambda e: 10.0 ** e)
    | st.floats(9e307, 1.7976931348623157e308), st.sampled_from([1.0, -1.0]))


@st.composite
def c_ranges(draw):
    """(c_min, c_max): two grid ends in either order, or c_max a few ulps from c_min."""
    c_min = draw(GRID_ENDS)
    if draw(st.booleans()):
        return c_min, draw(GRID_ENDS)
    c_max = c_min
    for _ in range(draw(st.integers(1, 4))):
        c_max = math.nextafter(c_max, draw(st.sampled_from([math.inf, -math.inf])))
    return c_min, c_max


def linspace_bytes(start: float, stop: float, n: int) -> bytes:
    """np.linspace(start, stop, n)'s bytes, ignoring the overflow of its last product
    (n - 1) * step, which it replaces with stop."""
    with np.errstate(over="ignore"):
        return np.linspace(start, stop, n).tobytes()


def spellings(floats, least: int = -10**6, most: int = 10**6):
    """floats, those values as np.float64, or ints in [least, most]: a parameter
    given any of these is stored as a Python float."""
    return floats | floats.map(np.float64) | st.integers(least, most)


def counts(least: int, most: int):
    """ints in [least, most], as Python ints or np.int64."""
    return st.integers(least, most) | st.integers(least, most).map(np.int64)


@st.composite
def sim_configs(draw) -> SimConfig:
    """Valid SimConfigs: x0/y0 None or a start, built-in or custom wellbeing, each
    number a float, an int or a numpy scalar."""
    positive, non_negative = spellings(POSITIVE, 1), spellings(NON_NEGATIVE, 0)
    # h * h must not underflow to 0
    eco = EcoParams(r=draw(positive), K=draw(positive), c=draw(non_negative),
                    h=draw(positive.filter(lambda h: float(h) * float(h) > 0.0)))
    noise = NoiseParams(T=draw(spellings(st.floats(min_value=1.0, allow_infinity=False), 1)),
                        beta=draw(non_negative), mu=draw(spellings(FINITE)))
    custom = st.builds(CaseProfile, st.text(), st.builds(
        WellbeingParams, m=positive, n=spellings(FINITE), a=positive))
    burn_in = draw(counts(0, 10**9))
    start = st.none() | non_negative
    return SimConfig(
        eco=eco, noise=noise,
        adapt=AdaptationParams(l=draw(spellings(st.floats(min_value=0.0, max_value=1.0), 0, 1))),
        wellbeing=draw(st.sampled_from(list(PROFILES.values())) | custom),
        t_max=draw(counts(burn_in + 1, burn_in + 10**9)),
        burn_in=burn_in, x0=draw(start), y0=draw(start), i0=draw(spellings(FINITE)),
        seed=draw(st.integers(min_value=0, max_value=2**64) | counts(0, 2**63 - 1)),
    )


class TestConfigFiles:
    def test_yaml_round_trip(self, tmp_path):
        cfg = SimConfig(seed=123, t_max=777, burn_in=11, x0=4.25, i0=-0.125)
        path = tmp_path / "run.yaml"
        write_config(cfg, path)
        assert load_config(path) == cfg

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        cfg = replace(SimConfig(), x0=1.0 / 3.0, i0=0.07000000000000001)
        path = tmp_path / "run.yaml"
        write_config(cfg, path)
        loaded = load_config(path)
        assert loaded.x0 == cfg.x0
        assert loaded.i0 == cfg.i0

    def test_json_accepted(self, tmp_path):
        cfg = SimConfig(seed=5)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert load_config(path) == cfg

    def test_json_exponent_floats_are_numbers(self, tmp_path):
        """json.dumps spells 1e153 as 1e+153 and 1e-5 as 1e-05, which YAML
        1.1 reads as strings; a .json config is read as JSON."""
        cfg = config_from_dict(HUGE_CONFIG)
        cfg = replace(cfg, eco=replace(cfg.eco, h=1e-05))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert "1e+153" in path.read_text() and "1e-05" in path.read_text()
        assert load_config(path) == cfg

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"eco": {"c": 1.0,}}')
        with pytest.raises(ParseError, match=f"cannot parse {path}"):
            load_config(path)

    def test_defaults_filled(self):
        cfg = config_from_dict({"eco": {"c": 2.0}})
        assert cfg.eco.c == 2.0
        assert cfg.eco.K == 10.0
        assert cfg.noise.T == 30.0
        assert cfg.wellbeing.label == "specialist"

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValidationError, match="eco.q"):
            config_from_dict({"eco": {"q": 1.0}})
        with pytest.raises(ValidationError, match="config.extra"):
            config_from_dict({"extra": {}})
        with pytest.raises(ValidationError, match="sim.tmax"):
            config_from_dict({"sim": {"tmax": 10}})

    def test_invariant_violations_named(self):
        with pytest.raises(ValidationError, match="adapt.l"):
            config_from_dict({"adapt": {"l": 2.0}})
        with pytest.raises(ValidationError, match="noise.T"):
            config_from_dict({"noise": {"T": 0.0}})
        with pytest.raises(ValidationError, match="sim.seed must be >= 0, got -1"):
            config_from_dict({"sim": {"seed": -1}})

    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("section,cls,name", FLOAT_PARAMETERS, ids=FLOAT_PARAMETER_IDS)
    def test_non_finite_parameter_rejected(self, section, cls, name, text):
        value = NON_FINITE[text]
        message = f"{section}.{name} must be finite"
        defaults = asdict(SPECIALIST.params) if cls is WellbeingParams else {}
        with pytest.raises(ValueError, match=message):
            cls(**{**defaults, name: value})
        with pytest.raises(ValidationError, match=message):
            config_from_dict({section: {name: value}})

    @pytest.mark.parametrize("h", [1e-170, 1e-162, 5e-324])
    def test_underflowing_h_rejected(self, h, tmp_path):
        # h * h == 0.0 would make the harvest term 0/0 at x = 0
        with pytest.raises(ValueError, match="eco.h must be large enough that h [*] h > 0"):
            EcoParams(h=h)
        path = tmp_path / "tiny_h.yaml"
        path.write_text(f"eco:\n  h: {h!r}\n")
        with pytest.raises(ValidationError, match="eco.h"):
            load_config(path)
        assert EcoParams(h=1e-161).h == 1e-161  # its square is a subnormal 1e-322

    def test_wellbeing_forms(self):
        assert config_from_dict({"wellbeing": {"case": "generalist"}}).wellbeing.label == "generalist"
        custom = config_from_dict({"wellbeing": {"m": 4.0, "n": 0.2, "a": 2.0}})
        assert custom.wellbeing.label == "custom"
        assert custom.wellbeing.params.m == 4.0
        with pytest.raises(ValidationError, match="wellbeing.case"):
            config_from_dict({"wellbeing": {"case": "nomad"}})
        with pytest.raises(ValidationError, match="case"):
            config_from_dict({"wellbeing": {"case": "specialist", "m": 4.0}})

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("eco: [unclosed")
        with pytest.raises(ParseError, match="cannot parse"):
            load_config(bad)

    @pytest.mark.parametrize("data,match", [
        ([1.0], "config root must be a mapping, got list"),
        ({"eco": 2.0}, "section eco must be a mapping, got 2.0"),
        ({"wellbeing": {"label": 3, "m": 1.0}}, "wellbeing.label must be a string, got 3"),
    ], ids=["root", "section", "label"])
    def test_misshapen_documents_named(self, data, match):
        with pytest.raises(ValidationError, match=match):
            config_from_dict(data)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="eco.c"):
            config_from_dict({"eco": {"c": "high"}})

    @pytest.mark.parametrize("key", ["t_max", "burn_in", "seed"])
    @pytest.mark.parametrize("value", [1000.7, 10.9, 3.5, float("inf"), float("nan")])
    def test_non_integral_integer_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"sim.{key} must be a whole number"):
            config_from_dict({"sim": {key: value}})

    def test_whole_float_accepted_as_integer(self):
        cfg = config_from_dict({"sim": {"t_max": 1000.0, "burn_in": 10.0, "seed": 3.0}})
        assert (cfg.t_max, cfg.burn_in, cfg.seed) == (1000, 10, 3)
        assert all(type(v) is int for v in (cfg.t_max, cfg.burn_in, cfg.seed))

    @given(cfg=sim_configs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_config_round_trips(self, tmp_path, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg
        write_config(cfg, tmp_path / "run.yaml")
        loaded = load_config(tmp_path / "run.yaml")
        assert loaded == cfg
        assert config_fingerprint(loaded) == config_fingerprint(cfg)

    @pytest.mark.parametrize("key,value", [("x0", ".inf"), ("y0", ".inf"), ("i0", ".nan"),
                                           ("i0", "-.inf")])
    def test_non_finite_start_rejected(self, tmp_path, key, value):
        path = tmp_path / "start.yaml"
        path.write_text(f"sim:\n  {key}: {value}\n")
        with pytest.raises(ValidationError, match=f"sim.{key} must be finite"):
            load_config(path)


class TestPresets:
    def test_fig4b_values(self):
        cfg = get_preset("fig4b")
        assert isinstance(cfg, SimConfig)
        assert cfg.eco.c == 1.95
        assert (cfg.eco.r, cfg.eco.K, cfg.eco.h) == (1.0, 10.0, 1.0)
        assert cfg.adapt.l == 0.01
        assert (cfg.noise.T, cfg.noise.beta, cfg.noise.mu) == (30.0, 0.07, 0.0)
        w = cfg.wellbeing.params
        assert (w.m, w.n, w.a) == (5.0, 0.5, 3.0)

    def test_trajectory_presets_cover_all_regimes(self):
        assert [get_preset(f"fig4{k}").eco.c for k in "abcd"] == [1.0, 1.95, 2.45, 3.1]

    def test_fig5_grid(self):
        cfg = get_preset("fig5")
        assert isinstance(cfg, SweepConfig)
        assert cfg.l_values == (0.001, 0.01, 0.1)
        assert len(cfg.c_grid) == 40
        assert cfg.c_grid[0] == 0.25
        assert cfg.c_grid[-1] == 3.5
        assert 1.0 in cfg.c_grid

    def test_fig6_cases(self):
        cfg = get_preset("fig6")
        assert isinstance(cfg, TransformConfig)
        assert cfg.baseline_case.label == "specialist"
        assert cfg.transform_case.label == "generalist"
        assert cfg.l == 0.001

    def test_fig2_scan(self):
        cfg = get_preset("fig2")
        assert isinstance(cfg, ScanConfig)
        assert (cfg.c_min, cfg.c_max) == (1.0, 3.5)

    @pytest.mark.parametrize("spec,values", [
        (ScanConfig(), (EcoParams(), 0.0, 4.0, 400)),
        (SweepConfig(), (SimConfig(), tuple(float(c) for c in np.linspace(0.25, 3.5, 40)),
                         (0.001, 0.01, 0.1), 10)),
        (TransformConfig(), (SimConfig(), PROFILES["specialist"], PROFILES["generalist"],
                             tuple(float(c) for c in np.linspace(0.25, 3.5, 40)), 0.001, 10)),
    ], ids=["scan", "sweep", "transform"])
    def test_spec_defaults_are_the_cli_fallbacks(self, spec, values):
        """The values the CLI built by hand without a preset, before the
        specs declared them as field defaults."""
        assert tuple(getattr(spec, f.name) for f in fields(spec)) == values

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="known presets"):
            get_preset("fig9")

    def test_presets_share_default_seed(self):
        seeds = {p.seed if isinstance(p, SimConfig) else p.base.seed
                 for p in PRESETS.values() if not isinstance(p, ScanConfig)}
        assert len(seeds) == 1


class TestManifest:
    def test_fingerprint_tracks_config(self):
        cfg = SimConfig(seed=1)
        assert config_fingerprint(cfg) == config_fingerprint(SimConfig(seed=1))
        assert config_fingerprint(cfg) != config_fingerprint(SimConfig(seed=2))

    def test_fingerprint_for_grid_specs(self):
        a = get_preset("fig5")
        b = SweepConfig(base=a.base, c_grid=a.c_grid, l_values=(0.001,), n_seeds=a.n_seeds)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_manifest_contents(self):
        cfg = SimConfig(seed=9)
        doc = build_manifest("simulate", cfg, 9, [])
        assert doc["tool"] == "flickersim"
        assert doc["master_seed"] == 9
        assert doc["config"]["eco"]["c"] == 1.0
        assert doc["config_fingerprint"] == config_fingerprint(cfg)
        assert "created_utc" in doc
        assert set(doc["environment"]) == {"python", "numpy", "numpy_dispatch", "platform"}
        assert doc["environment"]["numpy_dispatch"] == _numpy_dispatch()

    def test_manifest_names_the_dispatch_switched_off(self):
        """With this host's enabled dispatch targets disabled, a fresh process
        records none of them."""
        enabled = _numpy_dispatch()
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(enabled),
               "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        script = ("import json; from flickersim.io import build_manifest; "
                  "print(json.dumps(build_manifest('simulate', None, 0, [])['environment']))")
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        recorded = json.loads(out)["numpy_dispatch"]
        assert isinstance(recorded, list)
        assert not set(recorded) & set(enabled)

    def test_sim_config_fingerprints_alike_alone_and_nested(self):
        spec = get_preset("fig5")
        nested = build_manifest("sweep", spec, 0, [])["config"]["base"]
        alone = build_manifest("simulate", spec.base, 0, [])
        assert alone["config"] == nested
        digest = hashlib.sha256(json.dumps(nested, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == alone["config_fingerprint"] == config_fingerprint(spec.base)

    def test_one_fingerprint_function(self):
        assert config_fingerprint(SimConfig()) == "5bee527db7ba3d0f"
        pinned = {"fig2": "7324ff12c437dfa8", "fig4b": "61cd8e0a9ac34470",
                  "fig5": "f9e057578e527e09", "fig6": "d2f07aea6333aadd"}
        assert {name: config_fingerprint(get_preset(name)) for name in pinned} == pinned



class TestWriterBytes:
    """Exact bytes of the results writers on hand-built rows."""

    SWEEP_ROWS = [
        SweepRow(1.0, 0.01, Regime.SINGLE_HIGH, 9.5, 6.25, 0.015625, 0.1),
        SweepRow(1.95, 0.1, Regime.BISTABLE, 1 / 3, math.nan, 0.0, 0.5,
                 "non-finite avg_utility"),
        SweepRow(4.0, 0.001, None, 5.0, 2.5, 1e-17, 2.0, "no equilibrium"),
    ]
    COMPARISON_ROWS = (
        ComparisonRow(0.25, Regime.SINGLE_HIGH, 9.667011997159728, 9.833505998579863, 0.015,
                      6.7167, 0.003, 6.63, 0.029, 5.6, 0.013,
                      "714f18c268f52711", "714f18c268f52711"),
        ComparisonRow(3.5, None, 0.0, 5.0, 0.0, 5.75, 0.0, math.nan, 0.25, 2.5, 0.125,
                      "", "", "non-finite avg_utility_baseline"),
    )

    def test_sweep_csv(self, tmp_path):
        path = write_sweep_csv(tmp_path / "sweep.csv", self.SWEEP_ROWS)
        assert path.read_text() == (
            "c,l,regime,avg_payoff,avg_utility,stderr_payoff,stderr_utility,error\n"
            "1.0,0.01,1,9.5,6.25,0.015625,0.1,\n"
            "1.95,0.1,2,0.3333333333333333,nan,0.0,0.5,non-finite avg_utility\n"
            "4.0,0.001,,5.0,2.5,1e-17,2.0,no equilibrium\n"
        )

    def test_comparison_csv(self, tmp_path):
        path = write_comparison_csv(tmp_path / "transform.csv", self.COMPARISON_ROWS)
        assert path.read_text() == (
            "c,regime,mean_x,avg_payoff_baseline,stderr_payoff_baseline,"
            "avg_payoff_transform,stderr_payoff_transform,avg_utility_baseline,"
            "stderr_utility_baseline,avg_utility_transform,stderr_utility_transform,"
            "x_digest_baseline,x_digest_transform,error\n"
            "0.25,1,9.667011997159728,9.833505998579863,0.015,6.7167,0.003,6.63,0.029,"
            "5.6,0.013,714f18c268f52711,714f18c268f52711,\n"
            "3.5,,0.0,5.0,0.0,5.75,0.0,nan,0.25,2.5,0.125,,,non-finite avg_utility_baseline\n"
        )

    def test_quoted_cell_round_trips(self, tmp_path):
        error = 'non-finite a, b; "x"\r\nnext'
        row = SweepRow(1.0, 0.01, None, 9.5, math.nan, 0.0, 0.5, error)
        path = write_sweep_csv(tmp_path / "sweep.csv", [row])
        assert path.read_bytes().endswith(
            b'\n1.0,0.01,,9.5,nan,0.0,0.5,"non-finite a, b; ""x""\r\nnext"\n')
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1][-1] == error

    def test_multi_field_errors_parse_to_header_width(self, tmp_path):
        # an overflowing start flags every average of its cells, in one error
        cfg = SimConfig(x0=1e200, t_max=200, burn_in=10)
        sweep = utility_sweep(cfg, [1.0], [0.01], 2)
        report = transform_comparison(cfg, SPECIALIST, GENERALIST, [1.0, 2.0], 0.01, 2)
        for path, rows in [(write_sweep_csv(tmp_path / "sweep.csv", sweep), sweep),
                           (write_comparison_csv(tmp_path / "transform.csv", report.rows),
                            report.rows)]:
            assert all(", " in row.error for row in rows)
            with open(path, newline="") as fh:
                header, *parsed = csv.reader(fh)
            assert [len(cells) for cells in parsed] == [len(header)] * len(rows)
            assert [cells[header.index("error")] for cells in parsed] == [
                row.error for row in rows]

    def test_crossover_json(self, tmp_path):
        report = CrossoverReport(2.582298125048138, Regime.BISTABLE, None, None,
                                 (2.5, 2.75), None, self.COMPARISON_ROWS)
        path = write_crossover_json(tmp_path / "crossover.json", report)
        assert path.read_text() == (
            '{\n'
            '  "band_adaptive": null,\n'
            '  "band_perfect": [\n'
            '    2.5,\n'
            '    2.75\n'
            '  ],\n'
            '  "c_cross_adaptive": null,\n'
            '  "c_cross_perfect": 2.582298125048138,\n'
            '  "regime_adaptive": null,\n'
            '  "regime_perfect": 2\n'
            '}\n'
        )

    def test_flicker_json(self, tmp_path):
        stats = [FlickerStats(3, (26, 85), (7, 12), 0.8076923076923077),
                 FlickerStats(0, (130,), (), 1.0)]
        path = write_flicker_json(tmp_path / "flicker.json", stats, 1.855055977, 5)
        assert path.read_text() == (
            '{\n'
            '  "min_dwell": 5,\n'
            '  "replicates": [\n'
            '    {\n'
            '      "fraction_high": 0.8076923076923077,\n'
            '      "n_transitions": 3,\n'
            '      "residence_high": [\n'
            '        26,\n'
            '        85\n'
            '      ],\n'
            '      "residence_low": [\n'
            '        7,\n'
            '        12\n'
            '      ]\n'
            '    },\n'
            '    {\n'
            '      "fraction_high": 1.0,\n'
            '      "n_transitions": 0,\n'
            '      "residence_high": [\n'
            '        130\n'
            '      ],\n'
            '      "residence_low": []\n'
            '    }\n'
            '  ],\n'
            '  "separatrix": 1.855055977\n'
            '}\n'
        )


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# a run whose x grows ~100-fold a step to 1.7e154 at step 77, with i
# exactly 0.0 (beta = 0) and y at 1.0 (l = 0): its last payoffs and x lie
# above the writer's Ryu band, and its utility falls to 0.0 once (x - y)^2
# overflows
HUGE_CONFIG = {"eco": {"r": 100, "K": 1.0e+153, "c": 0, "h": 1.0}, "noise": {"beta": 0},
               "adapt": {"l": 0}, "sim": {"x0": 1, "t_max": 78, "burn_in": 0}}


def _kept(preset: str, kept: int) -> SimConfig:
    """preset's config keeping `kept` rows after a 100-step burn-in."""
    return replace(get_preset(preset), t_max=100 + kept, burn_in=100, seed=13)


# (id, config, kept rows): each figure at 1 400 rows, fig4b at every block
# edge of the writer (one row, a block less one, one block, one block and one
# row, and two blocks and one row), fig4b over three pieces of the scalar
# kernel (the first starting mid-piece, the last of 5 rows), and HUGE_CONFIG
TRAJECTORY_LENGTHS = [
    *((fig, _kept(fig, 1400), 1400) for fig in ("fig4a", "fig4b", "fig4c", "fig4d")),
    *((f"fig4b-kept{kept}", _kept("fig4b", kept), kept)
      for kept in (1, _TRAJECTORY_ROWS - 1, _TRAJECTORY_ROWS,
                   _TRAJECTORY_ROWS + 1, 2 * _TRAJECTORY_ROWS + 1)),
    ("fig4b-pieces", _kept("fig4b", 2 * SCALAR_BLOCK - 95), 2 * SCALAR_BLOCK - 95),
    ("huge", config_from_dict(HUGE_CONFIG), 78),
]


@pytest.mark.parametrize("cfg,kept", [case[1:] for case in TRAJECTORY_LENGTHS],
                         ids=[case[0] for case in TRAJECTORY_LENGTHS])
def test_trajectory_csv_equals_per_point_scoring(tmp_path, cfg, kept):
    """The writer scores payoff and utility as arrays, a block of rows at a
    time (numpy's vector exp), and formats a block with orjson; its bytes
    equal rows scored point by point with scalar calls and formatted cell by
    cell with repr, so every column is bit-equal to scalar scoring, on both
    sides of every block and piece edge and outside the Ryu band.  A
    Trajectory written as one piece and the run streamed from
    trajectory_pieces give the same bytes."""
    tr = run_trajectory(cfg)
    assert len(tr) == kept
    w = cfg.wellbeing.params
    rows = [
        [tr.t0 + k, x, y, i, float(payoff(x, w)), float(utility(x, y, w))]
        for k, (x, y, i) in enumerate(zip(tr.xs, tr.ys, tr.noise))
    ]
    expected = per_row_csv_text(["t", "x", "y", "i", "payoff", "utility"], rows)
    path = write_trajectory_csv(tmp_path / "trajectory.csv", tr.t0, [(tr.xs, tr.ys, tr.noise)],
                                w)
    assert path.read_text() == expected
    t0, pieces = trajectory_pieces(cfg)
    assert write_trajectory_csv(tmp_path / "streamed.csv", t0, pieces, w).read_text() == expected


# the edges of _rows's band and repr's exponent forms beyond them: 1e-3 and
# the float below it, 1e15 and the float above it, 1e16 (repr 1e+16), the
# largest and smallest of repr's negative exponents, the least subnormal and
# the largest float
REPR_EDGES = [1e-3, np.nextafter(1e-3, 0.0), 1e15, np.nextafter(1e15, math.inf), 1e16,
              9.9999999999e-05, 1e-05, 5e-324, 1.7976931348623157e308]


def _with_examples(test):
    """Each edge and its negation as a column, and beside in-band cells in
    rows of two; and blocks of no rows."""
    for edge in REPR_EDGES:
        test = example(values=[float(edge), -float(edge)], columns=1)(test)
        test = example(values=[0.5, float(edge), -float(edge), 2.0], columns=2)(test)
    for columns in (1, 5):
        test = example(values=[], columns=columns)(test)
    return test


@_with_examples
@settings(max_examples=300)
@given(values=st.lists(st.floats(), max_size=40), columns=st.integers(1, 5))
def test_column_formatter_is_repr(values, columns):
    """_rows gives each row as its cells' repr texts joined by commas, for
    every float, nan, +-inf, -0.0 and subnormals included, in blocks of one
    to five columns and of no rows, and for a strided view of a block."""
    n = len(values) // columns
    a = np.array(values[:n * columns], dtype=np.float64).reshape(n, columns)
    expected = [",".join(map(repr, row)) for row in a.tolist()]
    assert _rows(a) == expected
    assert _rows(a[::-2]) == expected[::-2]


# cells of a float column: any float, and the edges above with their
# negations, zeros, the smallest normal and subnormals, 1e16 and 1e-4
FLOAT_CELLS = st.floats() | st.sampled_from(
    [float(v) for edge in REPR_EDGES for v in (edge, -edge)]
    + [0.0, -0.0, 2.2250738585072014e-308, 1e-310, 1e16, -1e16, 1e-4, math.inf, -math.inf,
       math.nan])
# cells _csv_blocks leaves to _fmt: bools, None, ints, Regimes, numpy scalars,
# and text holding the characters that CSV quotes
OTHER_CELLS = st.one_of(
    st.booleans(), st.booleans().map(np.bool_), st.none(), st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.sampled_from(list(Regime)),
    FLOAT_CELLS.map(np.float64), st.text(st.sampled_from('a1.e,"\r\n -')))


@st.composite
def csv_tables(draw):
    """(header, rows): columns of floats, of other cells, or of both mixed."""
    n = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from([FLOAT_CELLS, OTHER_CELLS, FLOAT_CELLS | OTHER_CELLS]),
                          min_size=1, max_size=6))
    columns = [draw(st.lists(cells, min_size=n, max_size=n)) for cells in kinds]
    return [f"h{j}" for j in range(len(kinds))], list(zip(*columns))


@example(table=(["c", "x_star", "stable"], []), block=256)
@example(table=(["c", "regime", "error"], [(1.0, Regime.BISTABLE, 'a, "b"'),
                                           (1e16, None, "x\r\ny")]), block=1)
@settings(max_examples=300)
@given(table=csv_tables(), block=st.integers(1, 8) | st.just(io._CSV_ROWS))
def test_csv_blocks_equal_per_row_formatting(table, block):
    """_csv_blocks, which formats a block's float columns through one _rows
    call, writes the text of the row-by-row _fmt formatting, in blocks of
    any size, on both sides of every block edge."""
    header, rows = table
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    with mock.patch.object(io, "_CSV_ROWS", block):
        assert "".join(_csv_blocks(columns)) == per_row_csv_text(header, rows)


def _traced_peak(run) -> int:
    """tracemalloc's peak over run(), after one untraced run() that warms caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_csv_memory_does_not_grow_with_length(tmp_path):
    """Beyond the series it writes, the writer holds one block of rows."""
    cfg = get_preset("fig4b")
    short = 4 * _TRAJECTORY_ROWS

    def peak(kept):
        tr = run_trajectory(replace(cfg, t_max=cfg.burn_in + kept))
        return _traced_peak(lambda: write_trajectory_csv(
            tmp_path / "trajectory.csv", tr.t0, [(tr.xs, tr.ys, tr.noise)], cfg.wellbeing.params))

    assert peak(8 * short) < 1.5 * peak(short)


def test_streamed_trajectory_memory_does_not_grow_with_t_max(tmp_path):
    """simulate's route, trajectory_pieces feeding the writer, holds one
    piece of the run and one block of text, whatever the horizon: the run
    itself is traced, not only the write."""
    cfg = get_preset("fig4b")
    short = 8 * _TRAJECTORY_ROWS

    def peak(kept):
        def streamed():
            t0, pieces = trajectory_pieces(replace(cfg, t_max=cfg.burn_in + kept))
            write_trajectory_csv(tmp_path / "trajectory.csv", t0, pieces, cfg.wellbeing.params)
        return _traced_peak(streamed)

    assert peak(8 * short) < 1.5 * peak(short)


def test_scalar_pieces_hold_no_block_lists():
    """While a piece of trajectory_pieces is out, the run holds that block's
    arrays and its innovations, not the Python lists its floats were stepped
    in (~32 B a float, for x, y, i and the innovations).  At fig4b the
    lists held ~657 KB beside ~135 KB of arrays."""
    cfg = get_preset("fig4b")
    cfg = replace(cfg, t_max=cfg.burn_in + 4 * SCALAR_BLOCK)
    tracemalloc.start()
    try:
        _, pieces = trajectory_pieces(cfg)
        held = []
        for piece in pieces:
            held.append(tracemalloc.get_traced_memory()[0])
            del piece
        del pieces
        left = tracemalloc.get_traced_memory()[0]  # the run's caches, outside the generator
    finally:
        tracemalloc.stop()
    # x, i, y and the innovations of one block, with half as much again to spare
    assert max(held) - left < 6 * 8 * SCALAR_BLOCK, (held, left)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_honour_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        path = _atomic_write(tmp_path / "out.csv", ["x\n"])
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        _atomic_write(tmp_path / "out.csv", [b"not text"])
    assert list(tmp_path.iterdir()) == []

    def failing_chunks():
        yield "t,x\n"
        raise RuntimeError("chunk failed")

    target = tmp_path / "out.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(target, failing_chunks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == "old\n"


class TestCli:
    def test_simulate_writes_csv_and_manifest(self, tmp_path, capsys):
        code = run_cli("simulate", "--preset", "fig4b", "--t-max", "400",
                       "--burn-in", "100", "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,i,payoff,utility"
        assert len(lines) == 301
        assert lines[1].split(",")[0] == "100"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert str(tmp_path / "trajectory.csv") in manifest["outputs"]
        out = capsys.readouterr().out.splitlines()
        assert str(tmp_path / "trajectory.csv") in out

    def test_simulate_deterministic_bytes(self, tmp_path):
        args = ("simulate", "--preset", "fig4b", "--t-max", "500", "--burn-in", "50",
                "--seed", "7")
        run_cli(*args, "--out-dir", tmp_path / "a")
        run_cli(*args, "--out-dir", tmp_path / "b")
        assert (tmp_path / "a/trajectory.csv").read_bytes() == \
               (tmp_path / "b/trajectory.csv").read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        run_cli("simulate", "--preset", "fig4a", "--t-max", "120", "--burn-in", "0",
                "--out-dir", tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        x0 = float(lines[1].split(",")[1])
        assert x0 == 8.889084119894875

    def test_bifurcation_band(self, tmp_path):
        code = run_cli("bifurcation", "--c-min", "0", "--c-max", "4", "--steps", "81",
                       "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "bifurcation.csv").read_text().splitlines()
        assert lines[0] == "c,x_star,stable,multiplier"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        folds = manifest["fold_points"]
        assert 1.0 < folds["c_low"] < 1.95
        assert 2.45 < folds["c_high"] < 3.1
        # rows with three positive equilibria lie inside the fold band
        from collections import Counter

        per_c = Counter()
        for line in lines[1:]:
            c, x_star = line.split(",")[:2]
            if float(x_star) > 0:
                per_c[float(c)] += 1
        bistable_cs = sorted(c for c, k in per_c.items() if k == 3)
        assert bistable_cs
        assert folds["c_low"] < bistable_cs[0] < bistable_cs[-1] < folds["c_high"]

    def test_bifurcation_without_a_band_records_the_fold_error(self, tmp_path):
        assert run_cli("bifurcation", "--c-min", "0", "--c-max", "0.5", "--steps", "3",
                       "--out-dir", tmp_path) == 0
        folds = json.loads((tmp_path / "manifest.json").read_text())["fold_points"]
        assert list(folds) == ["error"]
        assert folds["error"].startswith("no bistable extraction interval in [0.0, 0.5]")

    def test_sweep_row_count_and_workers(self, tmp_path, monkeypatch):
        args = ("sweep", "--preset", "fig5", "--seeds", "2", "--t-max", "300",
                "--burn-in", "50")
        assert run_cli(*args, "--out-dir", tmp_path / "w1") == 0
        # 80 rows in groups of 40 on two usable CPUs: two processes
        monkeypatch.setattr(analytics, "MIN_GROUP_ROWS", 40)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run_cli(*args, "--out-dir", tmp_path / "w2") == 0
        lines = (tmp_path / "w1/sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 40
        assert (tmp_path / "w1/sweep.csv").read_bytes() == \
               (tmp_path / "w2/sweep.csv").read_bytes()

    def test_sweep_custom_grid(self, tmp_path):
        code = run_cli("sweep", "--c-min", "0.5", "--c-max", "1.5", "--steps", "3",
                       "--l", "0.01", "--l", "0.1", "--seeds", "2",
                       "--t-max", "300", "--burn-in", "50", "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3

    @pytest.mark.parametrize("command,preset", [("sweep", "fig5"), ("transform", "fig6")])
    def test_zero_seeds_fail_fast(self, tmp_path, capsys, command, preset):
        code = run_cli(command, "--preset", preset, "--seeds", "0", "--t-max", "300",
                       "--burn-in", "50", "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "n_seeds must be >= 1" in err["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,separatrix,min_dwell", [
        ("--min-dwell", "0", None, 0),
        ("--separatrix", "-1", -1.0, 5),
        ("--separatrix", "inf", math.inf, 5),
    ])
    def test_bad_flicker_args_fail_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                      flag, value, separatrix, min_dwell):
        def no_simulation(*args):
            raise AssertionError("a simulation ran")

        monkeypatch.setattr(simulate, "stream_spans", no_simulation)
        code = run_cli("flicker", "--preset", "fig4b", "--seeds", "20", flag, value,
                       "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        with pytest.raises(ValueError) as expected:
            flicker_stats([1.0], separatrix or separatrix_for(get_preset("fig4b").eco),
                          min_dwell)
        assert err == {"error": "ValueError", "message": str(expected.value)}
        assert not (tmp_path / "flicker.json").exists()

    @pytest.mark.parametrize("command,preset,flags", [
        ("bifurcation", "fig2", ["--c-max", "3", "--steps", "5"]),
        ("sweep", "fig5", ["--steps", "3"]),
        ("transform", "fig6", ["--c-min", "1.0"]),
    ])
    def test_range_flags_rejected_with_preset_range(self, tmp_path, capsys, command,
                                                    preset, flags):
        code = run_cli(command, "--preset", preset, *flags, "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert all(flag in err["message"] for flag in flags if flag.startswith("--"))
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,preset,data", [
        ("sweep", "fig5", "sweep.csv"),
        ("transform", "fig6", "transform.csv"),
    ])
    def test_no_preset_runs_the_preset_grid(self, tmp_path, command, preset, data):
        small = ("--seeds", "1", "--t-max", "60", "--burn-in", "10")
        for name, flags in (("default", ()), ("preset", ("--preset", preset))):
            assert run_cli(command, *flags, *small, "--out-dir", tmp_path / name) == 0
        outs = [tmp_path / "default", tmp_path / "preset"]
        assert len({(out / data).read_bytes() for out in outs}) == 1
        assert len({json.loads((out / "manifest.json").read_text())["config_fingerprint"]
                    for out in outs}) == 1

    @pytest.mark.parametrize("argv,seed", [
        (["simulate", "--preset", "fig4b", "--seed", "7"], 7),
        (["bifurcation", "--steps", "9"], None),
        (["sweep", "--steps", "3", "--seeds", "1", "--seed", "8"], 8),
        (["transform", "--steps", "3", "--seeds", "1"], simulate.DEFAULT_SEED),
        (["flicker", "--preset", "fig4b", "--seed", "9"], 9),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_manifest_lists_the_printed_data_files(self, tmp_path, capsys, argv, seed):
        if argv[0] != "bifurcation":
            argv = [*argv, "--t-max", "60", "--burn-in", "10"]
        assert run_cli(*argv, "--out-dir", tmp_path) == 0
        printed = capsys.readouterr().out.splitlines()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert printed == [*manifest["outputs"], str(tmp_path / "manifest.json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in printed)
        assert (manifest["command"], manifest["master_seed"]) == (argv[0], seed)

    def test_range_flags_allowed_with_a_config_file(self, tmp_path):
        """A config file holds a SimConfig and never a c range, so the flags set it."""
        cfg_path = tmp_path / "c.yaml"
        write_config(SimConfig(t_max=60, burn_in=10), cfg_path)
        assert run_cli("sweep", "--config", cfg_path, "--c-min", "1", "--c-max", "2",
                       "--steps", "3", "--seeds", "1", "--out-dir", tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["c_grid"] == [1.0, 1.5, 2.0]
        assert manifest["config"]["base"]["sim"]["t_max"] == 60

    def test_transform_outputs(self, tmp_path):
        code = run_cli("transform", "--c-min", "1.0", "--c-max", "3.0", "--steps", "4",
                       "--seeds", "2", "--t-max", "400", "--burn-in", "100",
                       "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "transform.csv").read_text().splitlines()
        assert len(lines) == 5
        cross = json.loads((tmp_path / "crossover.json").read_text())
        assert set(cross) == {"c_cross_perfect", "regime_perfect", "c_cross_adaptive",
                              "regime_adaptive", "band_perfect", "band_adaptive"}

    def test_flicker_output(self, tmp_path):
        code = run_cli("flicker", "--preset", "fig4b", "--t-max", "4000", "--burn-in", "0",
                       "--seeds", "2", "--out-dir", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "flicker.json").read_text())
        assert doc["separatrix"] == pytest.approx(1.855055977, abs=1e-6)
        assert doc["min_dwell"] == 5
        assert len(doc["replicates"]) == 2
        for rep in doc["replicates"]:
            total = sum(rep["residence_high"]) + sum(rep["residence_low"])
            assert total == 4000

    def test_flicker_needs_separatrix_outside_band(self, tmp_path, capsys):
        code = run_cli("flicker", "--preset", "fig4a", "--t-max", "1000", "--burn-in", "0",
                       "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "interior" in err["message"]
        code = run_cli("flicker", "--preset", "fig4a", "--t-max", "1000", "--burn-in", "0",
                       "--separatrix", "2.0", "--out-dir", tmp_path)
        assert code == 0

    def test_structured_error_on_bad_config(self, tmp_path, capsys):
        code = run_cli("simulate", "--config", tmp_path / "none.yaml",
                       "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.yaml"
        write_config(SimConfig(), cfg_path)
        code = run_cli("simulate", "--preset", "fig4a", "--config", cfg_path,
                       "--out-dir", tmp_path)
        assert code == 1
        assert "not both" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_negative_seed_fails_before_writing(self, tmp_path, capsys, command):
        code = run_cli(command, "--seed", "-1", "--t-max", "300", "--burn-in", "50",
                       "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "sim.seed must be >= 0, got -1"}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("section,cls,name", FLOAT_PARAMETERS, ids=FLOAT_PARAMETER_IDS)
    def test_non_finite_parameter_fails_before_writing(self, tmp_path, capsys, section, cls,
                                                       name, text):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(f"{section}:\n  {name}: {text}\nsim:\n  t_max: 40\n  burn_in: 0\n")
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith(f"{section}.{name} must be finite")
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_h_whose_fourth_power_underflows_fails_by_name(self, tmp_path, capsys):
        # h * h > 0, but (x^2 + h^2)^2 is 0.0 at x = 0, where the map's multiplier divides by it
        cfg_path = tmp_path / "tiny_h.yaml"
        cfg_path.write_text("eco:\n  h: 1.0e-100\nsim:\n  t_max: 40\n  burn_in: 0\n")
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EquilibriumError"
        assert "ZeroDivisionError" in err["message"] and "h=1e-100" in err["message"]
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_bifurcation_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(["bifurcation", "--preset", "fig2", "--seed", "5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_sweep_takes_no_workers(self, capsys):
        # a grid picks its own process count
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(["sweep", "--preset", "fig5", "--workers", "2"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_flicker_takes_no_l(self, capsys):
        # flicker follows no adaptive capacity, so --l would change no data
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(["flicker", "--preset", "fig4b", "--l", "0.5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --l 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["-1", "0"])
    @pytest.mark.parametrize("command", ["sweep", "transform"])
    def test_steps_below_one_named(self, tmp_path, capsys, command, steps):
        out = tmp_path / "out"
        code = run_cli(command, "--steps", steps, "--seeds", "1", "--t-max", "40",
                       "--burn-in", "0", "--out-dir", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": f"--steps must be >= 1, got {steps}"}
        assert not out.exists()

    @pytest.mark.parametrize("c_max", [None, "0.5"], ids=["alone", "equal"])
    @pytest.mark.parametrize("command,name", [("sweep", "sweep.csv"),
                                              ("transform", "transform.csv")])
    def test_one_step_runs_c_min(self, tmp_path, command, name, c_max):
        extra = () if c_max is None else ("--c-max", c_max)
        code = run_cli(command, "--steps", "1", "--c-min", "0.5", *extra, "--seeds", "1",
                       "--t-max", "50", "--burn-in", "0", "--out-dir", tmp_path)
        assert code == 0
        with open(tmp_path / name, newline="") as f:
            assert {row["c"] for row in csv.DictReader(f)} == {"0.5"}

    @pytest.mark.parametrize("command", ["sweep", "transform"])
    def test_one_step_rejects_another_c_max(self, tmp_path, capsys, command):
        # one c cannot span [--c-min, --c-max]: the range is not dropped silently
        out = tmp_path / "out"
        code = run_cli(command, "--steps", "1", "--c-min", "0.5", "--c-max", "2", "--seeds",
                       "1", "--t-max", "50", "--burn-in", "0", "--out-dir", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message":
                       "--steps 1 runs c = 0.5 alone, not --c-max 2.0"}
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,message", [
        ("bifurcation", ["--c-max", "inf"], "--c-max must be finite, got inf"),
        ("bifurcation", ["--c-min", "nan"], "--c-min must be finite, got nan"),
        ("sweep", ["--c-max", "inf", "--steps", "3"], "--c-max must be finite, got inf"),
        ("transform", ["--c-min=-inf"], "--c-min must be finite, got -inf"),
        *((command, ["--c-min=-1e308", "--c-max", "1e308", "--steps", "3"],
           "--c-max - --c-min must be finite, got 1e+308 - -1e+308")
          for command in ("sweep", "transform")),
    ], ids=["bifurcation-inf", "bifurcation-nan", "sweep-inf", "transform-minus-inf",
            "sweep-huge-span", "transform-huge-span"])
    def test_non_finite_c_range_named(self, tmp_path, capsys, command, flags, message):
        # rejected before np.linspace, which would warn and fill the grid with nan,
        # also where both ends are finite but their difference is not
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, *flags, "--out-dir", out)
        assert code == 1
        assert caught == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": message}
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["sweep", "transform"]), c_range=c_ranges(),
           steps=st.integers(1, 64))
    @example(command="sweep", c_range=(-1e308, 1e308), steps=3)  # the span overflows
    @example(command="sweep", c_range=(0.25, 3.5), steps=40)  # presets._SWEEP_GRID
    # 12 * step overflows inside np.linspace, which puts stop in its place
    @example(command="transform", c_range=(0.0, sys.float_info.max), steps=13)
    @example(command="transform", c_range=(1.0, math.nextafter(1.0, 2.0)), steps=64)
    @example(command="transform", c_range=(-0.0, 0.0), steps=2)
    def test_c_grid_has_linspace_bits(self, command, c_range, steps):
        """The --c-min/--c-max/--steps grid holds np.linspace's bits as Python
        floats where --c-max - --c-min is finite, with no warning (the suite
        raises RuntimeWarnings), and is a ConfigError where it is not or where
        one c would drop --c-max.  Only the spec is built."""
        c_min, c_max = c_range
        args = cli.build_parser(command).parse_args(
            [command, f"--c-min={c_min!r}", f"--c-max={c_max!r}", "--steps", str(steps)])
        kind = SweepConfig if command == "sweep" else TransformConfig
        if not math.isfinite(c_max - c_min) or (steps == 1 and c_max != c_min):
            with pytest.raises(io.ConfigError, match=r"^--"):
                cli._grid_spec(args, kind)
            return
        grid = cli._grid_spec(args, kind).c_grid
        assert all(type(c) is float for c in grid)
        assert np.array(grid).tobytes() == linspace_bytes(c_min, c_max, steps)

    def test_every_built_c_grid_has_linspace_bits(self):
        # the preset grid and a scan's rates come from the same builder as the flags' grid
        assert np.array(SweepConfig().c_grid).tobytes() == linspace_bytes(0.25, 3.5, 40)
        assert TransformConfig().c_grid == SweepConfig().c_grid
        for c_min, c_max, n in ((1.0, 3.5, 400), (-0.0, 4.0, 41), (0.0, 1.7e308, 7),
                                (0.0, sys.float_info.max, 13)):
            cs = [row.c for row in bifurcation_scan(EcoParams(), c_min, c_max, n)]
            assert all(type(c) is float for c in cs)
            assert np.array(cs).tobytes() == linspace_bytes(c_min, c_max, n)

    def test_repeated_l_fails_before_writing(self, tmp_path, capsys):
        # a repeated --l is named as a repeated c is, rather than writing each row twice
        out = tmp_path / "out"
        code = run_cli("sweep", "--l", "0.1", "--l", "0.1", "--steps", "2", "--seeds", "1",
                       "--t-max", "50", "--burn-in", "0", "--out-dir", out)
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "GridError", "message": "l_values has repeated values: [0.1, 0.1]"}
        assert not out.exists()

    def test_readme_cli_examples_parse(self):
        # every `flickersim ...` line of the README is a valid command line
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = [shlex.split(line, comments=True)
                 for line in readme.read_text().splitlines() if line.startswith("flickersim ")]
        assert len(lines) >= 5
        parser = cli.build_parser()
        for argv in lines:
            assert parser.parse_args(argv[1:]).command == argv[1]

    def test_readme_code_references_resolve(self):
        # every backticked `module.name` of a flickersim module names something it has
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        modules = {m.name for m in pkgutil.iter_modules(flickersim.__path__)}
        refs = {ref.groups() for span in re.findall(r"`([^`\n]+)`", readme)
                if (ref := re.match(r"(\w+)\.(\w+)", span)) and ref[1] in modules}
        assert len(refs) >= 25
        missing = [f"{module}.{name}" for module, name in sorted(refs)
                   if not hasattr(importlib.import_module(f"flickersim.{module}"), name)]
        assert missing == []

    def test_preset_choices_follow_preset_kinds(self):
        kinds = {"simulate": SimConfig, "flicker": SimConfig, "bifurcation": ScanConfig,
                 "sweep": SweepConfig, "transform": TransformConfig}
        subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        assert set(subs) == set(kinds)
        choices = {name: next(a.choices for a in sub._actions if a.dest == "preset")
                   for name, sub in subs.items()}
        for name, kind in kinds.items():
            assert choices[name] == [p for p, cfg in PRESETS.items() if isinstance(cfg, kind)]
        assert set().union(*choices.values()) == set(PRESETS)

    @pytest.mark.parametrize("tail", [["--help"], ["--no-such-flag"], ["--preset", "wrong-kind"]],
                             ids=["help", "unknown-flag", "wrong-kind-preset"])
    @pytest.mark.parametrize("command", ["simulate", "bifurcation", "sweep", "transform",
                                         "flicker"])
    def test_command_parser_exits_as_the_full_parser(self, capsys, command, tail):
        # main builds the named command's arguments alone; argparse's answer is unchanged
        if tail[-1] == "wrong-kind":
            tail = ["--preset", "fig2" if command in ("simulate", "flicker") else "fig4b"]
        outcomes = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exit_:
                parse([command, *tail])
            outcomes.append((exit_.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (0 if tail == ["--help"] else 2)

    @pytest.mark.parametrize("command", ["simulate", "bifurcation", "sweep", "transform",
                                         "flicker"])
    def test_command_parser_parses_as_the_full_parser(self, command):
        assert (cli.build_parser(command).parse_args([command])
                == cli.build_parser().parse_args([command]))

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLICKERSIM_OUT_DIR", str(tmp_path / "envout"))
        from flickersim.cli import build_parser

        args = build_parser().parse_args(["simulate", "--preset", "fig4a"])
        assert args.out_dir == str(tmp_path / "envout")

    def test_non_finite_start_fails_before_writing(self, tmp_path, capsys):
        cfg_path = tmp_path / "start.yaml"
        cfg_path.write_text("sim:\n  x0: .inf\n  t_max: 40\n  burn_in: 0\n")
        code = run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path / "out")
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    @pytest.mark.parametrize("argv,updates", [
        (["simulate", "--preset", "fig4b", "--c", "2.45", "--l", "0.1", "--case", "generalist"],
         {"eco": EcoParams(c=2.45), "adapt": AdaptationParams(l=0.1), "wellbeing": GENERALIST}),
        (["flicker", "--preset", "fig4a", "--c", "1.95", "--seeds", "2"],
         {"eco": EcoParams(c=1.95)}),
    ], ids=["simulate", "flicker"])
    def test_run_overrides_give_the_library_bytes(self, tmp_path, argv, updates):
        """--c, --l and --case set the config the library then runs on."""
        assert run_cli(*argv, "--t-max", "300", "--burn-in", "50",
                       "--out-dir", tmp_path / "cli") == 0
        cfg = replace(get_preset(argv[2]), t_max=300, burn_in=50, **updates)
        if argv[0] == "simulate":
            name = "trajectory.csv"
            tr = run_trajectory(cfg)
            write_trajectory_csv(tmp_path / name, tr.t0, [(tr.xs, tr.ys, tr.noise)],
                                 cfg.wellbeing.params)
        else:
            name, separatrix = "flicker.json", separatrix_for(cfg.eco)
            stats = flicker_replicates(cfg, 2, separatrix)
            write_flicker_json(tmp_path / name, stats, separatrix, 5)
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()
        manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
        assert manifest["config_fingerprint"] == config_fingerprint(cfg)

    @pytest.mark.parametrize("command,kind", [("sweep", SweepConfig),
                                              ("transform", TransformConfig)])
    def test_grid_base_with_no_start_is_recorded_as_given(self, tmp_path, capsys, command, kind):
        """A grid runs the rates of its c_grid, so a base config with no start at
        its own eco.c (r = 2.5 overcompensates at c = 0.5) still gets a manifest."""
        cfg_path = tmp_path / "r25.yaml"
        cfg_path.write_text("eco: {r: 2.5, c: 0.5}\n")
        assert run_cli(command, "--config", cfg_path, "--c-min", "2", "--c-max", "3",
                       "--steps", "3", "--seeds", "2", "--t-max", "300", "--burn-in", "50",
                       "--out-dir", tmp_path / "out") == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        base = manifest["config"]["base"]
        assert (base["eco"]["c"], base["sim"]["x0"], base["sim"]["y0"]) == (0.5, None, None)
        spec = kind(base=replace(load_config(cfg_path), t_max=300, burn_in=50),
                    c_grid=(2.0, 2.5, 3.0), n_seeds=2)
        assert manifest["config_fingerprint"] == config_fingerprint(spec)

    def test_overflowing_penalty_scores_zero_utility(self, tmp_path):
        """(x - y)^2 overflows at x ~ 1.3e154; the penalty is then exp(-inf)
        = 0, its limit, and simulate neither warns nor fails."""
        cfg_path = tmp_path / "huge.yaml"
        write_config(config_from_dict(HUGE_CONFIG), cfg_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path)
        assert code == 0
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert last[0] == "77"
        assert float(last[1]) > 1e154
        assert last[3] == "0.0" and last[5] == "0.0"

    def test_simulate_is_not_bound_by_the_kept_series_cap(self, tmp_path, monkeypatch):
        """simulate streams its pieces to the writer and keeps no series, so
        a cap that stops run_trajectory leaves its bytes unchanged."""
        args = ("simulate", "--preset", "fig4b", "--t-max", "6000", "--burn-in", "100")
        assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
        monkeypatch.setattr(simulate, "KEPT_SERIES_MAX_BYTES", 8)
        with pytest.raises(ValueError, match="above KEPT_SERIES_MAX_BYTES = 8"):
            run_trajectory(replace(get_preset("fig4b"), t_max=6000, burn_in=100))
        assert run_cli(*args, "--out-dir", tmp_path / "b") == 0
        assert (tmp_path / "b/trajectory.csv").read_bytes() == \
               (tmp_path / "a/trajectory.csv").read_bytes()

    def test_overflow_mid_stream_leaves_no_file(self, tmp_path, capsys):
        """x grows ~9 % a step until it overflows at step 8179, after the
        writer has taken the first pieces: simulate exits 1 naming the step,
        and neither trajectory.csv nor its temp file is left."""
        cfg_path = tmp_path / "late.yaml"
        cfg_path.write_text("eco: {r: 0.001, K: 1.0e+308, c: 0, h: 1.0}\n"
                            "noise: {beta: 0, mu: 0.003}\n"
                            "sim: {x0: 1, t_max: 20000, burn_in: 0}\n")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 1
        error = json.loads(capsys.readouterr().err)
        assert error == {"error": "NonFiniteStateError",
                         "message": "the environment state overflowed to inf at step 8179 "
                                    "(c=0.0, x0=1.0, i0=0.0)"}
        assert list(out.iterdir()) == []

    def test_config_file_drives_simulation(self, tmp_path):
        cfg = SimConfig(eco=get_preset("fig4b").eco, t_max=200, burn_in=10, seed=4)
        cfg_path = tmp_path / "my.yaml"
        write_config(cfg, cfg_path)
        code = run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 191


def _loaded_by_cli_import(package: str) -> str:
    """package and its submodules in sys.modules of a fresh interpreter after
    import flickersim.cli, as a printed sorted list."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import flickersim.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == sys.argv[2] or m.startswith(sys.argv[2] + '.')))")
    return subprocess.run([sys.executable, "-c", probe, str(src), package], capture_output=True,
                          text=True, check=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    """scipy.signal alone took ~1.5 s of every CLI start-up; keep it out."""
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_yaml():
    """Only --config runs read or write YAML, so only they import PyYAML."""
    assert _loaded_by_cli_import("yaml") == "[]"


def test_cli_import_loads_no_orjson():
    """Only the CSV writers format with orjson, so only they import it."""
    assert _loaded_by_cli_import("orjson") == "[]"


def check_golden(tmp_path, dispatch: str) -> None:
    """Rerun every command of tests/golden.json and compare its files' sha256
    with the set recorded under "any", else under dispatch.  Fails naming a
    dispatch with no set, and on a mismatch, printing every digest got."""
    golden = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())
    want, got = {}, {}
    for k, entry in enumerate(golden["commands"]):
        label, sets = " ".join(entry["argv"]), entry["sha256"]
        assert run_cli(*entry["argv"], "--out-dir", tmp_path / str(k)) == 0
        want[label] = sets.get("any", sets.get(dispatch))
        got[label] = {name: hashlib.sha256((tmp_path / str(k) / name).read_bytes()).hexdigest()
                      for name in next(iter(sets.values()))}
    missing = [label for label, files in want.items() if files is None]
    assert not missing, (f"numpy dispatch {dispatch!r} has no digests in tests/golden.json for "
                         f"{missing}; record these:\n" + json.dumps(got, indent=2))
    assert got == want, "digests now:\n" + json.dumps(got, indent=2)


def test_golden_digests(tmp_path):
    """Data files keep their bytes: bifurcation.csv and flicker.json on any
    host, and trajectory.csv, sweep.csv (scalar and block kernel sizes),
    transform.csv and crossover.json on each recorded numpy dispatch."""
    check_golden(tmp_path, " ".join(_numpy_dispatch()))


def test_golden_digests_fail_on_an_unrecorded_dispatch(tmp_path):
    with pytest.raises(AssertionError, match="numpy dispatch 'X86_V2' has no digests"):
        check_golden(tmp_path, "X86_V2")
