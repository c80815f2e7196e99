"""Configuration files, CSV/JSON export, and run manifests.

Configs are YAML documents with nested sections (eco / noise / adapt /
wellbeing / sim); JSON is accepted as an alternative input since every JSON
config is also valid YAML.  Unknown keys are rejected by name.  Floats are
written with shortest round-trip formatting, so loading a written config or
CSV reproduces the exact 64-bit values, independent of locale.  A config
file's schema is also the record a manifest writes, and config_fingerprint
hashes that record.

All file writes go through a write-temp-then-rename helper, so partially
written outputs are never observed.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
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
from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import Equilibrium, EquilibriumError, ScanRow
from .presets import get_preset
from .simulate import SimConfig, Trajectory, resolve_config
from .wellbeing import PROFILES, CaseProfile, WellbeingParams, payoff, utility


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    """The config file could not be read or parsed at all."""


class ValidationError(ConfigError):
    """The config parsed but a field is unknown or invalid."""


# ---------------------------------------------------------------------------
# the config record: one schema for config files, manifests and fingerprints

# Config-file sections holding one parameter dataclass each, named after the
# SimConfig field they fill.  The wellbeing section holds the profile's label
# and WellbeingParams fields, and the sim section SIM_FIELDS.
CONFIG_SECTIONS = {"eco": EcoParams, "noise": NoiseParams, "adapt": AdaptationParams}
SIM_FIELDS = tuple(f for f in dataclasses.fields(SimConfig)
                   if f.name not in CONFIG_SECTIONS and f.name != "wellbeing")
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


def config_to_dict(cfg: SimConfig) -> dict:
    """Nested plain-dict form of a SimConfig (the config file schema)."""
    doc = {name: dataclasses.asdict(getattr(cfg, name)) for name in CONFIG_SECTIONS}
    doc["wellbeing"] = {"label": cfg.wellbeing.label, **dataclasses.asdict(cfg.wellbeing.params)}
    doc["sim"] = {f.name: getattr(cfg, f.name) for f in SIM_FIELDS}
    return doc


def _jsonable(obj):
    """Plain JSON form of a run configuration, as manifests record it.

    A SimConfig, alone or nested in a grid spec, becomes its resolved
    :func:`config_to_dict`.  One with no start at its own eco.c (a grid's
    base, whose rates come from the grid) is recorded as given, x0 and y0
    null.  Other dataclasses become dicts of their fields.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, SimConfig):
            try:
                obj = resolve_config(obj)
            except (ValueError, EquilibriumError):
                pass
            return config_to_dict(obj)
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _fingerprint(record) -> str:
    """sha256 hex (16 chars) of a :func:`_jsonable` record."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def config_fingerprint(obj) -> str:
    """Hash of a fully resolved run configuration (sha256 hex, 16 chars).

    obj is a SimConfig or a grid spec (presets.ScanConfig, SweepConfig,
    TransformConfig).  Hashes :func:`_jsonable`, the record manifests
    write, so a SimConfig fingerprints alike alone and nested in a grid
    spec.  Changes iff any configuration value changes.
    """
    return _fingerprint(_jsonable(obj))


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
    """A dataclass's fields by name, in declaration order (json writes a Regime as its int)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


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
    record = _jsonable(config_obj)
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
        "config": record,
        "config_fingerprint": _fingerprint(record),
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
