"""Configuration files, CSV/JSON export, and run manifests.

Configs are YAML documents with nested sections (eco / noise / adapt /
wellbeing / sim); JSON is accepted as an alternative input since every JSON
config is also valid YAML.  Unknown keys are rejected by name.  Floats are
written with shortest round-trip formatting, so loading a written config or
CSV reproduces the exact 64-bit values, independent of locale.

All file writes go through a write-temp-then-rename helper, so partially
written outputs are never observed.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import __version__
from .analytics import ComparisonRow, CrossoverReport, FlickerStats, SweepRow
from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import ScanRow
from .presets import get_preset
from .simulate import (
    SimConfig,
    Trajectory,
    config_fingerprint,
    config_to_dict,
    resolve_config,
)
from .wellbeing import PROFILES, CaseProfile, WellbeingParams, payoff, utility


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    """The config file could not be read or parsed at all."""


class ValidationError(ConfigError):
    """The config parsed but a field is unknown or invalid."""


# ---------------------------------------------------------------------------
# config serialization

_SECTION_FIELDS = {
    "eco": ("r", "K", "c", "h"),
    "noise": ("T", "beta", "mu"),
    "adapt": ("l",),
    "wellbeing": ("case", "label", "m", "n", "a"),
    "sim": ("t_max", "burn_in", "x0", "y0", "i0", "seed"),
}


def _check_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    for key in data:
        if key not in allowed:
            raise ValidationError(f"unknown key {section}.{key}")


def _num(section: str, key: str, value, cls=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{section}.{key} must be a number, got {value!r}")
    return cls(value)


def _build_section(section: str, data: dict, cls, defaults) -> Any:
    _check_keys(section, data, _SECTION_FIELDS[section])
    kwargs = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(cls)}
    for key, value in data.items():
        kwargs[key] = _num(section, key, value)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _build_wellbeing(data: dict) -> CaseProfile:
    _check_keys("wellbeing", data, _SECTION_FIELDS["wellbeing"])
    if "case" in data:
        if len(data) > 1:
            raise ValidationError("wellbeing.case cannot be combined with explicit m/n/a")
        name = data["case"]
        if name not in PROFILES:
            raise ValidationError(
                f"wellbeing.case must be one of {sorted(PROFILES)}, got {name!r}"
            )
        return PROFILES[name]
    label = data.get("label", "custom")
    if not isinstance(label, str):
        raise ValidationError(f"wellbeing.label must be a string, got {label!r}")
    defaults = PROFILES["specialist"].params
    kwargs = {
        key: _num("wellbeing", key, data.get(key, getattr(defaults, key)))
        for key in ("m", "n", "a")
    }
    try:
        return CaseProfile(label, WellbeingParams(**kwargs))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Validate a nested config dict and fill defaults; rejects unknown keys."""
    if not isinstance(data, dict):
        raise ValidationError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys("config", data, tuple(_SECTION_FIELDS))
    for section, content in data.items():
        if not isinstance(content, dict):
            raise ValidationError(f"section {section} must be a mapping, got {content!r}")
    cfg = SimConfig()
    eco = _build_section("eco", data.get("eco", {}), EcoParams, cfg.eco)
    noise = _build_section("noise", data.get("noise", {}), NoiseParams, cfg.noise)
    adapt = _build_section("adapt", data.get("adapt", {}), AdaptationParams, cfg.adapt)
    wellbeing = _build_wellbeing(data.get("wellbeing", {"case": "specialist"}))
    sim = dict(data.get("sim", {}))
    _check_keys("sim", sim, _SECTION_FIELDS["sim"])
    kwargs: dict[str, Any] = {}
    for key in ("t_max", "burn_in", "seed"):
        if key in sim:
            kwargs[key] = _num("sim", key, sim[key], int)
    for key in ("x0", "y0"):
        if key in sim and sim[key] is not None:
            kwargs[key] = _num("sim", key, sim[key])
    if "i0" in sim:
        kwargs["i0"] = _num("sim", "i0", sim["i0"])
    try:
        return SimConfig(eco=eco, noise=noise, adapt=adapt, wellbeing=wellbeing, **kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def load_config(path: str | os.PathLike) -> SimConfig:
    """Load and validate a YAML or JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from None
    return config_from_dict(data if data is not None else {})


def write_config(cfg: SimConfig, path: str | os.PathLike) -> None:
    """Write a config as YAML; load_config(write_config(cfg)) == cfg."""
    _atomic_write(path, yaml.safe_dump(config_to_dict(cfg), sort_keys=True))


# ---------------------------------------------------------------------------
# output files

def _fmt(value) -> str:
    """Locale-independent cell formatting; floats round-trip exactly."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _atomic_write(path: str | os.PathLike, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path, tr: Trajectory, w: WellbeingParams) -> Path:
    """One row per retained step; payoff and utility scored as whole arrays.

    Floats are formatted as _fmt does (repr of the Python float), so the
    bytes equal a per-cell _csv_text of the same values.
    """
    columns = (range(tr.t0, tr.t0 + len(tr)), tr.xs.tolist(), tr.ys.tolist(),
               tr.noise.tolist(), payoff(tr.xs, w).tolist(),
               utility(tr.xs, tr.ys, w).tolist())
    lines = ["t,x,y,i,payoff,utility"]
    lines.extend("%d,%r,%r,%r,%r,%r" % row for row in zip(*columns))
    return _atomic_write(path, "\n".join(lines) + "\n")


def write_bifurcation_csv(path, scan: list[ScanRow]) -> Path:
    header = ["c", "x_star", "stable", "multiplier"]
    rows = [
        [row.c, eq.x_star, eq.stable, eq.multiplier]
        for row in scan
        for eq in row.equilibria
    ]
    return _atomic_write(path, _csv_text(header, rows))


def write_sweep_csv(path, rows: list[SweepRow]) -> Path:
    header = ["c", "l", "regime", "avg_payoff", "avg_utility",
              "stderr_payoff", "stderr_utility", "error"]
    out = [
        [row.c, row.l, None if row.regime is None else int(row.regime),
         row.avg_payoff, row.avg_utility, row.stderr_payoff, row.stderr_utility,
         row.error]
        for row in rows
    ]
    return _atomic_write(path, _csv_text(header, out))


def write_comparison_csv(path, rows: tuple[ComparisonRow, ...]) -> Path:
    header = [
        "c", "regime", "mean_x",
        "avg_payoff_baseline", "stderr_payoff_baseline",
        "avg_payoff_transform", "stderr_payoff_transform",
        "avg_utility_baseline", "stderr_utility_baseline",
        "avg_utility_transform", "stderr_utility_transform",
        "x_digest_baseline", "x_digest_transform", "error",
    ]
    out = [
        [row.c, None if row.regime is None else int(row.regime), row.mean_x,
         row.avg_payoff_baseline, row.stderr_payoff_baseline,
         row.avg_payoff_transform, row.stderr_payoff_transform,
         row.avg_utility_baseline, row.stderr_utility_baseline,
         row.avg_utility_transform, row.stderr_utility_transform,
         row.x_digest_baseline, row.x_digest_transform, row.error]
        for row in rows
    ]
    return _atomic_write(path, _csv_text(header, out))


def write_crossover_json(path, report: CrossoverReport) -> Path:
    doc = {
        "c_cross_perfect": report.c_cross_perfect,
        "regime_perfect": None if report.regime_perfect is None else int(report.regime_perfect),
        "c_cross_adaptive": report.c_cross_adaptive,
        "regime_adaptive": None if report.regime_adaptive is None else int(report.regime_adaptive),
        "band_perfect": report.band_perfect,
        "band_adaptive": report.band_adaptive,
    }
    return _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_flicker_json(path, stats: list[FlickerStats], separatrix: float,
                       min_dwell: int) -> Path:
    doc = {
        "separatrix": separatrix,
        "min_dwell": min_dwell,
        "replicates": [
            {
                "n_transitions": s.n_transitions,
                "fraction_high": s.fraction_high,
                "residence_high": list(s.residence_high),
                "residence_low": list(s.residence_low),
            }
            for s in stats
        ],
    }
    return _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# manifests

def analysis_fingerprint(obj) -> str:
    """Fingerprint for any of the run configurations (SimConfig or grid specs)."""
    if isinstance(obj, SimConfig):
        return config_fingerprint(obj)
    payload = json.dumps(_jsonable(obj), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, SimConfig):
            return config_to_dict(resolve_config(obj))
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def build_manifest(command: str, config_obj, seed, outputs: list[Path],
                   extra: dict | None = None) -> dict:
    """Run manifest: resolved configuration, tool and library versions, seed, outputs."""
    doc = {
        "tool": "flickersim",
        "version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "command": command,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "master_seed": seed,
        "config": _jsonable(config_obj),
        "config_fingerprint": analysis_fingerprint(config_obj),
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path, manifest: dict) -> Path:
    return _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_run_config(preset: str | None, config_path: str | None):
    """Resolve the CLI's --preset / --config pair into a run configuration."""
    if preset and config_path:
        raise ConfigError("give either --preset or --config, not both")
    if preset:
        try:
            return get_preset(preset)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    if config_path:
        return load_config(config_path)
    return None
