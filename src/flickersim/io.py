"""Configuration files, CSV/JSON export, and run manifests.

Configs are YAML documents with nested sections (eco / noise / adapt /
wellbeing / sim), or the same document as JSON in a file named *.json,
which is read by json: PyYAML follows YAML 1.1, whose floats need a decimal
point, so it would read json.dumps's 1e+153 or 1e-05 as a string.  Unknown
keys are rejected by name.  Floats are written with shortest round-trip
formatting, so loading a written config or CSV reproduces the exact 64-bit
values, independent of locale.  Every CSV float is spelled as repr spells
it, from orjson's digits (Ryu's shortest round-trip output) and, for each
nonzero value outside 1e-3 <= |v| < 1e15, from repr: trajectory.csv is
written from a run's pieces a block of rows at a time, one orjson call per
block, and the results CSVs a block of rows and then a column at a time,
one orjson call for all the float columns of a block.  A config file's
schema is also the record a manifest writes, and config_fingerprint
hashes that record.

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
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analytics import ComparisonRow, CrossoverReport, FlickerStats, SweepRow
from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import Equilibrium, EquilibriumError, ScanRow
from .presets import get_preset
from .simulate import SimConfig, resolve_config
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


def _values(section: str, data: dict, fields) -> dict:
    """data with each whole float of an int field as an int; the dataclass checks the rest."""
    ints = {f.name for f in fields if f.type in (int, "int")}
    _check_keys(section, data, tuple(f.name for f in fields))
    values = dict(data)
    for key, value in data.items():
        if key in ints and isinstance(value, float):
            if not value.is_integer():
                raise ValidationError(f"{section}.{key} must be a whole number, got {value!r}")
            values[key] = int(value)
    return values


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
    """Plain JSON form of a run configuration or result, as manifests and results write it.

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
    """Load and validate a config file: JSON if its name ends in .json, else YAML."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"cannot parse {path}: {exc}") from None
    else:
        import yaml  # only --config runs read or write YAML

        try:
            data = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int beyond str()'s limit
            raise ParseError(f"cannot parse {path}: {exc}") from None
    return config_from_dict(data if data is not None else {})


def write_config(cfg: SimConfig, path: str | os.PathLike) -> None:
    """Write a config as YAML; load_config(write_config(cfg)) == cfg."""
    import yaml

    _atomic_write(path, [yaml.safe_dump(config_to_dict(cfg), sort_keys=True)])


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


def _atomic_write(path: str | os.PathLike, chunks: Iterable[str]) -> Path:
    """Write the text chunks, in order, to a temp file renamed onto path.

    Chunks are written as they come, so a caller that builds them one at a
    time holds one at a time.  The file gets the mode open() would give it.
    On any error, the error propagates, the temp file is removed and an
    existing file at path is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
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


# Rows of a results CSV formatted at a time: the writer holds one block's cells.
_CSV_ROWS = 256


def _csv_blocks(columns: dict[str, list]) -> Iterator[str]:
    """The CSV text of the header, columns' names, then of their rows a
    block of _CSV_ROWS at a time, each cell as _fmt spells it.

    columns are equally long.  In a block, the columns of Python floats
    alone are formatted by one _rows call, as the rows of one array, and
    every other column cell by cell with _fmt.
    """
    yield ",".join(columns) + "\n"
    columns = list(columns.values())
    for start in range(0, len(columns[0]), _CSV_ROWS):
        block = [column[start:start + _CSV_ROWS] for column in columns]
        floats = [j for j, column in enumerate(block) if set(map(type, column)) == {float}]
        cells = [None if j in floats else list(map(_fmt, column)) for j, column in enumerate(block)]
        for j, text in zip(floats, _rows(np.array([block[j] for j in floats]))):
            cells[j] = text.split(",")
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


# Rows of trajectory.csv built and written at a time: the writer holds the
# text of one block, not of the whole series.
_TRAJECTORY_ROWS = 1024

# Where _RYU_MIN <= |v| < _RYU_MAX, or v is zero, orjson's shortest digits
# are spelled as repr spells them.  The band stops short of repr's exponent
# forms (below 1e-4 and from 1e16, where orjson writes 1e16 for repr's
# 1e+16), and orjson writes nan and inf as null.
_RYU_MIN, _RYU_MAX = 1e-3, 1e15


def _rows(a) -> list[str]:
    """[",".join(map(repr, row)) for row in a.tolist()] for a 2-D float array,
    from one orjson call.

    orjson writes each float's shortest round-trip digits (Ryu); a value
    outside the band above is formatted again by repr, in its row's text,
    which is split and joined once however many of its cells are.
    """
    import orjson  # only the CSV writers need it, for their float columns

    a = np.ascontiguousarray(a, dtype=np.float64)
    if not len(a):
        return []
    rows = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    mag = np.abs(a)
    ks, js = np.nonzero(((mag < _RYU_MIN) | ~(mag < _RYU_MAX)) & (a != 0))
    # repr of a 17-digit float costs ~1.5 us: only the cells outside the band
    split: dict[int, list[str]] = {}
    for k, j, v in zip(ks.tolist(), js.tolist(), a[ks, js].tolist()):
        if k not in split:
            split[k] = rows[k].split(",")
        split[k][j] = repr(v)
    for k, cells in split.items():
        rows[k] = ",".join(cells)
    return rows


def _trajectory_blocks(t0: int, pieces, w: WellbeingParams) -> Iterator[str]:
    yield "t,x,y,i,payoff,utility\n"
    t = t0
    for xs, ys, noise in pieces:
        for start in range(0, xs.size, _TRAJECTORY_ROWS):
            block = slice(start, start + _TRAJECTORY_ROWS)
            x, y = xs[block], ys[block]
            rows = _rows(np.stack([x, y, noise[block], payoff(x, w), utility(x, y, w)], axis=1))
            # each row after its step: one join and one %-format, no per-row call
            yield ("%d," + "\n%d,".join(rows) + "\n") % tuple(range(t, t + x.size))
            t += x.size


def write_trajectory_csv(path, t0: int, pieces: Iterable, w: WellbeingParams) -> Path:
    """One row per step of pieces, the first at step t0, written in blocks.

    pieces are (xs, ys, noise) arrays of consecutive steps, taken one at a
    time, as simulate.trajectory_pieces yields them; a Trajectory tr passes
    as the one piece [(tr.xs, tr.ys, tr.noise)].  Each piece is cut into
    blocks of at most _TRAJECTORY_ROWS rows.  A block's payoff and utility
    are scored as arrays, its five float columns are stacked into one
    (rows, 5) array formatted by one orjson call (Ryu's shortest round-trip
    digits), and each nonzero value outside 1e-3 <= |v| < 1e15 (nan and
    inf included) again by repr of the Python float, so the bytes equal
    each cell's _fmt.  The write holds one piece and one block; an error
    from pieces removes the temp file.
    """
    return _atomic_write(path, _trajectory_blocks(t0, pieces, w))


def _columns(cls, objs) -> dict[str, list]:
    """Each field of the dataclass cls by name, in declaration order: its values over objs."""
    return {f.name: [getattr(obj, f.name) for obj in objs] for f in dataclasses.fields(cls)}


def _write_rows(path, rows, cls) -> Path:
    """CSV with one column per field of cls, in declaration order."""
    return _atomic_write(path, _csv_blocks(_columns(cls, rows)))


def _write_json(path, doc) -> Path:
    return _atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def write_bifurcation_csv(path, scan: list[ScanRow]) -> Path:
    """One row per equilibrium: c, then the Equilibrium fields."""
    columns = {"c": [row.c for row in scan for _ in row.equilibria],
               **_columns(Equilibrium, [eq for row in scan for eq in row.equilibria])}
    return _atomic_write(path, _csv_blocks(columns))


def write_sweep_csv(path, rows: list[SweepRow]) -> Path:
    return _write_rows(path, rows, SweepRow)


def write_comparison_csv(path, rows: tuple[ComparisonRow, ...]) -> Path:
    return _write_rows(path, rows, ComparisonRow)


def write_crossover_json(path, report: CrossoverReport) -> Path:
    """Every CrossoverReport field except its rows (those go to write_comparison_csv)."""
    doc = _jsonable(dataclasses.replace(report, rows=()))  # converting 40 rows takes ~0.8 ms
    del doc["rows"]
    return _write_json(path, doc)


def write_flicker_json(path, stats: list[FlickerStats], separatrix: float,
                       min_dwell: int) -> Path:
    return _write_json(path, {"separatrix": separatrix, "min_dwell": min_dwell,
                              "replicates": _jsonable(stats)})


# ---------------------------------------------------------------------------
# manifests

def _numpy_dispatch() -> list[str]:
    """numpy's SIMD dispatch targets that are on at run time, in numpy's order.

    numpy picks some kernels (np.exp among them) by CPU feature when it is
    imported, and NPY_DISABLE_CPU_FEATURES switches targets off, so the
    utility columns' last bits depend on this list.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy before 2.0
        from numpy.core import _multiarray_umath
    features = _multiarray_umath.__cpu_features__
    return [target for target in _multiarray_umath.__cpu_dispatch__ if features.get(target)]


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
            "numpy_dispatch": _numpy_dispatch(),
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
