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
import json
import operator
import os
import platform
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analytics import ComparisonRow, CrossoverReport, FlickerStats, SweepRow
from .equilibria import Equilibrium, Regime, ScanRow
from .presets import get_preset
from .simulate import (
    CONFIG_SECTIONS,
    SIM_FIELDS,
    SimConfig,
    Trajectory,
    _jsonable,
    config_fingerprint,
    config_to_dict,
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

# the sections of a config file; eco/noise/adapt take the fields of their
# CONFIG_SECTIONS dataclass, and sim the SIM_FIELDS of SimConfig
_SECTIONS = (*CONFIG_SECTIONS, "wellbeing", "sim")
_WELLBEING_KEYS = ("case", "label", *(f.name for f in dataclasses.fields(WellbeingParams)))


def _check_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    for key in data:
        if key not in allowed:
            raise ValidationError(f"unknown key {section}.{key}")


def _num(section: str, key: str, value, cls=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{section}.{key} must be a number, got {value!r}")
    if cls is int and isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{section}.{key} must be a whole number, got {value!r}")
    return cls(value)


def _values(section: str, data: dict, fields) -> dict:
    """data's values converted to the annotated types of the same-named fields.

    int fields take whole numbers only; None stays None where the default is.
    """
    by_name = {f.name: f for f in fields}
    _check_keys(section, data, tuple(by_name))
    return {key: None if value is None and by_name[key].default is None
            else _num(section, key, value, int if by_name[key].type in (int, "int") else float)
            for key, value in data.items()}


def _build(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _build_wellbeing(data: dict) -> CaseProfile:
    _check_keys("wellbeing", data, _WELLBEING_KEYS)
    if "case" in data:
        if len(data) > 1:
            raise ValidationError("wellbeing.case cannot be combined with explicit m/n/a")
        name = data["case"]
        if name not in PROFILES:
            raise ValidationError(
                f"wellbeing.case must be one of {sorted(PROFILES)}, got {name!r}"
            )
        return PROFILES[name]
    params = dict(data)
    label = params.pop("label", "custom")
    if not isinstance(label, str):
        raise ValidationError(f"wellbeing.label must be a string, got {label!r}")
    values = {**dataclasses.asdict(PROFILES["specialist"].params),
              **_values("wellbeing", params, dataclasses.fields(WellbeingParams))}
    return CaseProfile(label, _build(WellbeingParams, **values))


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    """Validate a nested config dict and fill defaults; rejects unknown keys."""
    if not isinstance(data, dict):
        raise ValidationError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys("config", data, _SECTIONS)
    for section, content in data.items():
        if not isinstance(content, dict):
            raise ValidationError(f"section {section} must be a mapping, got {content!r}")
    sections = {
        name: _build(cls, **_values(name, data.get(name, {}), dataclasses.fields(cls)))
        for name, cls in CONFIG_SECTIONS.items()
    }
    wellbeing = _build_wellbeing(data.get("wellbeing", {"case": "specialist"}))
    sim = _values("sim", data.get("sim", {}), SIM_FIELDS)
    return _build(SimConfig, wellbeing=wellbeing, **sections, **sim)


def load_config(path: str | os.PathLike) -> SimConfig:
    """Load and validate a YAML or JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    import yaml  # only --config runs read or write YAML

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from None
    return config_from_dict(data if data is not None else {})


def write_config(cfg: SimConfig, path: str | os.PathLike) -> None:
    """Write a config as YAML; load_config(write_config(cfg)) == cfg."""
    import yaml

    _atomic_write(path, yaml.safe_dump(config_to_dict(cfg), sort_keys=True))


# ---------------------------------------------------------------------------
# output files

# characters that make csv.QUOTE_MINIMAL quote a cell
_QUOTED = frozenset(',"\r\n')


def _fmt(value) -> str:
    """Locale-independent cell formatting; floats round-trip exactly.

    Text holding a comma, quote or line break is quoted, with inner quotes
    doubled, as csv.QUOTE_MINIMAL writes it, so every row parses to the
    header's width.
    """
    if type(value) is float:  # most cells: tested first
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    # a Regime too: before Python 3.11, str() of an IntEnum member is its name
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if _QUOTED.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _atomic_write(path: str | os.PathLike, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _csv_text(header: list[str], rows) -> str:
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


def _record(obj) -> dict:
    """A dataclass's fields by name, in declaration order; a Regime becomes its int."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {k: int(v) if isinstance(v, Regime) else v for k, v in values.items()}


def _columns(cls) -> tuple[list[str], operator.attrgetter]:
    """cls's field names in declaration order, and a getter of those fields' values."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, operator.attrgetter(*names)


def _write_rows(path, rows, cls) -> Path:
    """CSV with one column per field of cls, in declaration order."""
    names, cells = _columns(cls)
    return _atomic_write(path, _csv_text(names, [cells(row) for row in rows]))


def _write_json(path, doc) -> Path:
    return _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_bifurcation_csv(path, scan: list[ScanRow]) -> Path:
    """One row per equilibrium: c, then the Equilibrium fields."""
    names, cells = _columns(Equilibrium)
    rows = [(row.c, *cells(eq)) for row in scan for eq in row.equilibria]
    return _atomic_write(path, _csv_text(["c", *names], rows))


def write_sweep_csv(path, rows: list[SweepRow]) -> Path:
    return _write_rows(path, rows, SweepRow)


def write_comparison_csv(path, rows: tuple[ComparisonRow, ...]) -> Path:
    return _write_rows(path, rows, ComparisonRow)


def write_crossover_json(path, report: CrossoverReport) -> Path:
    """Every CrossoverReport field except its rows (those go to write_comparison_csv)."""
    doc = _record(report)
    del doc["rows"]
    return _write_json(path, doc)


def write_flicker_json(path, stats: list[FlickerStats], separatrix: float,
                       min_dwell: int) -> Path:
    return _write_json(path, {"separatrix": separatrix, "min_dwell": min_dwell,
                              "replicates": [_record(s) for s in stats]})


# ---------------------------------------------------------------------------
# manifests

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
        "config_fingerprint": config_fingerprint(config_obj),
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path, manifest: dict) -> Path:
    return _write_json(path, manifest)


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
