import csv
import hashlib
import json
import math
import os
import shlex
import stat
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
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
from flickersim import cli, simulate
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
    _csv_text,
    _atomic_write,
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
    # h * h must not underflow to 0
    eco = EcoParams(r=draw(POSITIVE), K=draw(POSITIVE), c=draw(NON_NEGATIVE),
                    h=draw(POSITIVE.filter(lambda h: h * h > 0.0)))
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
        assert set(doc["environment"]) == {"python", "numpy", "platform"}

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


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_honour_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        path = _atomic_write(tmp_path / "out.csv", "x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        _atomic_write(tmp_path / "out.csv", b"not text")
    assert list(tmp_path.iterdir()) == []


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

    def test_readme_cli_examples_parse(self):
        # every `flickersim ...` line of the README is a valid command line
        readme = Path(__file__).resolve().parent.parent / "README.md"
        lines = [shlex.split(line, comments=True)
                 for line in readme.read_text().splitlines() if line.startswith("flickersim ")]
        assert len(lines) >= 5
        parser = cli.build_parser()
        for argv in lines:
            assert parser.parse_args(argv[1:]).command == argv[1]

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
            write_trajectory_csv(tmp_path / name, run_trajectory(cfg), cfg.wellbeing.params)
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
