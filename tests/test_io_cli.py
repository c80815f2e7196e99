import csv
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flickersim import (
    GENERALIST,
    PRESETS,
    SPECIALIST,
    AdaptationParams,
    EcoParams,
    NoiseParams,
    SimConfig,
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
from flickersim import cli
from flickersim.analytics import ComparisonRow, CrossoverReport, FlickerStats, SweepRow
from flickersim.cli import main
from flickersim.equilibria import Regime
from flickersim.io import (
    ParseError,
    ValidationError,
    _csv_text,
    analysis_fingerprint,
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
from flickersim.wellbeing import PROFILES, CaseProfile, WellbeingParams

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


@st.composite
def sim_configs(draw) -> SimConfig:
    """Valid SimConfigs: x0/y0 None or a start, built-in or custom wellbeing."""
    eco = EcoParams(r=draw(POSITIVE), K=draw(POSITIVE), c=draw(NON_NEGATIVE), h=draw(POSITIVE))
    noise = NoiseParams(T=draw(st.floats(min_value=1.0, allow_infinity=False)),
                        beta=draw(NON_NEGATIVE), mu=draw(FINITE))
    custom = st.builds(CaseProfile, st.text(),
                       st.builds(WellbeingParams, m=POSITIVE, n=FINITE, a=POSITIVE))
    burn_in = draw(st.integers(min_value=0, max_value=10**9))
    start = st.none() | NON_NEGATIVE
    return SimConfig(
        eco=eco, noise=noise,
        adapt=AdaptationParams(l=draw(st.floats(min_value=0.0, max_value=1.0))),
        wellbeing=draw(st.sampled_from(list(PROFILES.values())) | custom),
        t_max=draw(st.integers(min_value=burn_in + 1, max_value=burn_in + 10**9)),
        burn_in=burn_in, x0=draw(start), y0=draw(start), i0=draw(FINITE),
        seed=draw(st.integers(min_value=0, max_value=2**64)),
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
        assert load_config(tmp_path / "run.yaml") == cfg

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
        assert analysis_fingerprint(cfg) == analysis_fingerprint(SimConfig(seed=1))
        assert analysis_fingerprint(cfg) != analysis_fingerprint(SimConfig(seed=2))

    def test_fingerprint_for_grid_specs(self):
        a = get_preset("fig5")
        b = SweepConfig(base=a.base, c_grid=a.c_grid, l_values=(0.001,), n_seeds=a.n_seeds)
        assert analysis_fingerprint(a) != analysis_fingerprint(b)

    def test_manifest_contents(self):
        cfg = SimConfig(seed=9)
        doc = build_manifest("simulate", cfg, 9, [])
        assert doc["tool"] == "flickersim"
        assert doc["master_seed"] == 9
        assert doc["config"]["eco"]["c"] == 1.0
        assert doc["config_fingerprint"] == analysis_fingerprint(cfg)
        assert "created_utc" in doc
        assert set(doc["environment"]) == {"python", "numpy", "platform"}

    def test_sim_config_fingerprints_alike_alone_and_nested(self):
        spec = get_preset("fig5")
        nested = build_manifest("sweep", spec, 0, [])["config"]["base"]
        alone = build_manifest("simulate", spec.base, 0, [])
        assert alone["config"] == nested
        digest = hashlib.sha256(json.dumps(nested, sort_keys=True).encode()).hexdigest()[:16]
        assert digest == alone["config_fingerprint"] == config_fingerprint(spec.base)

    def test_one_fingerprint_function(self):
        assert analysis_fingerprint is config_fingerprint
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
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


@pytest.mark.parametrize("preset", ["fig4a", "fig4b", "fig4c", "fig4d"])
def test_trajectory_csv_equals_per_point_scoring(tmp_path, preset):
    """The writer scores payoff and utility as whole arrays (numpy's vector
    exp); its bytes equal rows scored point by point with scalar calls and
    formatted cell by cell, so every column is bit-equal to scalar scoring."""
    cfg = replace(get_preset(preset), t_max=1500, burn_in=100, seed=13)
    tr = run_trajectory(cfg)
    w = cfg.wellbeing.params
    rows = [
        [tr.t0 + k, x, y, i, float(payoff(x, w)), float(utility(x, y, w))]
        for k, (x, y, i) in enumerate(zip(tr.xs, tr.ys, tr.noise))
    ]
    path = write_trajectory_csv(tmp_path / "trajectory.csv", tr, w)
    assert path.read_text() == _csv_text(["t", "x", "y", "i", "payoff", "utility"], rows)


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

    def test_sweep_row_count_and_workers(self, tmp_path):
        args = ("sweep", "--preset", "fig5", "--seeds", "2", "--t-max", "300",
                "--burn-in", "50")
        assert run_cli(*args, "--workers", "1", "--out-dir", tmp_path / "w1") == 0
        assert run_cli(*args, "--workers", "2", "--out-dir", tmp_path / "w2") == 0
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_rejects_workers_below_one(self, tmp_path, capsys, workers):
        code = run_cli("sweep", "--steps", "3", "--seeds", "1", "--t-max", "300",
                       "--burn-in", "50", "--workers", workers, "--out-dir", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"workers must be >= 1, got {workers}"}
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,separatrix,min_dwell", [
        ("--min-dwell", "0", None, 0),
        ("--separatrix", "-1", -1.0, 5),
    ])
    def test_bad_flicker_args_fail_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                      flag, value, separatrix, min_dwell):
        def no_simulation(*args):
            raise AssertionError("environment_series ran")

        monkeypatch.setattr(cli, "environment_series", no_simulation)
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

    def test_bifurcation_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(["bifurcation", "--preset", "fig2", "--seed", "5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

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

    def test_config_file_drives_simulation(self, tmp_path):
        cfg = SimConfig(eco=get_preset("fig4b").eco, t_max=200, burn_in=10, seed=4)
        cfg_path = tmp_path / "my.yaml"
        write_config(cfg, cfg_path)
        code = run_cli("simulate", "--config", cfg_path, "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 191


def test_cli_import_loads_no_scipy():
    """scipy.signal alone took ~1.5 s of every CLI start-up; keep it out."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import flickersim.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
