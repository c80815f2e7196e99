import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from flickersim import (
    PRESETS,
    SimConfig,
    config_fingerprint,
    flicker_stats,
    get_preset,
    payoff,
    run_trajectory,
    separatrix_for,
    utility,
)
from flickersim import cli
from flickersim.cli import main
from flickersim.io import (
    ParseError,
    ValidationError,
    _csv_text,
    analysis_fingerprint,
    build_manifest,
    config_from_dict,
    config_to_dict,
    load_config,
    write_config,
    write_trajectory_csv,
)
from flickersim.presets import ScanConfig, SweepConfig, TransformConfig


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
