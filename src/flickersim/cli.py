"""Command-line interface.

Subcommands:

    simulate     one trajectory -> trajectory.csv
    bifurcation  equilibria across extraction rates -> bifurcation.csv
    sweep        utility over (c, l) grid -> sweep.csv
    transform    specialist-vs-generalist comparison -> transform.csv + crossover.json
    flicker      basin-transition statistics -> flicker.json

Every run also writes manifest.json recording the resolved configuration,
seed, version, and output paths.  Given the same seed, the data files are
byte-identical across runs and process groups.  The default output directory
comes from $FLICKERSIM_OUT_DIR, falling back to ./flickersim-out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import analytics, io
from .dynamics import AdaptationParams, _linspace
from .analytics import separatrix_for
from .equilibria import NoBistabilityError, bifurcation_scan, fold_points
from .presets import PRESETS, ScanConfig, SweepConfig, TransformConfig
from .simulate import SimConfig, trajectory_pieces
from .wellbeing import PROFILES

ENV_OUT_DIR = "FLICKERSIM_OUT_DIR"

# the grid-spec field that each flag sets, by the flag's argparse dest
_SPEC_FLAGS = {"seeds": "n_seeds", "l_values": "l_values", "l": "l"}


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "flickersim-out")


def _add_common(sub: argparse.ArgumentParser, kind: type) -> None:
    """--preset (every preset of type kind), --config and --out-dir."""
    sub.add_argument("--preset", choices=[name for name, p in PRESETS.items()
                                          if isinstance(p, kind)],
                     help="named parameter bundle")
    sub.add_argument("--config", help="YAML or JSON config file")
    sub.add_argument("--out-dir", default=_default_out_dir(),
                     help=f"output directory (default ${ENV_OUT_DIR} or ./flickersim-out)")


def _add_c_range(sub: argparse.ArgumentParser, kind: type) -> None:
    """--c-min/--c-max/--steps, defaulting to kind's range; rejected with a preset."""
    c_min, c_max, steps = _c_range(kind())
    note = "; not with a preset"
    sub.add_argument("--c-min", type=float,
                     help=f"lowest extraction rate (default {c_min}{note})")
    sub.add_argument("--c-max", type=float,
                     help=f"highest extraction rate (default {c_max}{note})")
    sub.add_argument("--steps", type=int,
                     help=f"number of extraction rates (default {steps}{note})")


def _add_sim_overrides(sub: argparse.ArgumentParser) -> None:
    _add_run_flags(sub)
    sub.add_argument("--c", type=float, help="extraction rate override")


def _simulate_args(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, SimConfig)
    _add_sim_overrides(sub)
    sub.add_argument("--l", type=float, help="adaptation rate override")
    sub.add_argument("--case", choices=sorted(PROFILES), help="wellbeing profile override")


def _bifurcation_args(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, ScanConfig)
    _add_c_range(sub, ScanConfig)


def _sweep_args(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, SweepConfig)
    _add_run_flags(sub)
    _add_c_range(sub, SweepConfig)
    sub.add_argument("--l", type=float, action="append", dest="l_values",
                     help="adaptation rate (repeatable)")
    sub.add_argument("--seeds", type=int, help="replicates per cell")


def _transform_args(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, TransformConfig)
    _add_run_flags(sub)
    _add_c_range(sub, TransformConfig)
    sub.add_argument("--l", type=float, help="adaptation rate")
    sub.add_argument("--seeds", type=int, help="replicates per cell")


def _flicker_args(sub: argparse.ArgumentParser) -> None:
    _add_common(sub, SimConfig)
    _add_sim_overrides(sub)
    sub.add_argument("--seeds", type=int, default=1, help="replicates")
    sub.add_argument("--min-dwell", type=int, default=analytics.DEFAULT_MIN_DWELL,
                     help="steps a new basin must persist to count as a switch")
    sub.add_argument("--separatrix", type=float,
                     help="basin threshold override (required outside the bistable regime)")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: every subcommand with its help line, and the
    arguments of command alone, or of every subcommand when command is None.

    argparse parses one subcommand's arguments only, so the parser built
    for the command that argv names parses argv as the full one does.
    """
    parser = argparse.ArgumentParser(prog="flickersim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if command in (None, name):
            add_args(sub)
    return parser


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """--seed/--t-max/--burn-in, which _run_overrides reads."""
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--t-max", type=int, help="simulation horizon override")
    sub.add_argument("--burn-in", type=int, help="discarded prefix override")


def _run_overrides(args) -> dict:
    """The --seed/--t-max/--burn-in values given, as SimConfig field updates."""
    return {name: getattr(args, name) for name in ("seed", "t_max", "burn_in")
            if getattr(args, name) is not None}


def _c_range(spec) -> tuple[float, float, int]:
    """spec's (c_min, c_max, steps): a ScanConfig's fields, or its c grid's ends and length."""
    if isinstance(spec, ScanConfig):
        return spec.c_min, spec.c_max, spec.n_steps
    return spec.c_grid[0], spec.c_grid[-1], len(spec.c_grid)


def _grid_spec(args, kind: type):
    """The --preset spec, else kind's defaults around the --config (or default)
    SimConfig; then the flags given, applied by field name.

    --c-min/--c-max/--steps default to the spec's own range and rebuild it;
    with a preset, any of them is a ConfigError instead of being ignored,
    as is a non-finite --c-min or --c-max, or a pair whose difference is not,
    a grid of fewer than one c, or one c dropping a given --c-max.
    """
    spec = io.load_run_config(args.preset, args.config) or SimConfig()
    if not isinstance(spec, kind):
        spec = kind(eco=spec.eco) if kind is ScanConfig else kind(base=spec)
    flags = dict(zip(("--c-min", "--c-max", "--steps"), (args.c_min, args.c_max, args.steps)))
    given = [flag for flag, v in flags.items() if v is not None]
    if args.preset and given:
        raise io.ConfigError(f"{', '.join(given)} cannot override the c range of "
                             f"preset {args.preset!r}")
    updates = {field: tuple(v) if isinstance(v, list) else v
               for dest, field in _SPEC_FLAGS.items()
               if (v := getattr(args, dest, None)) is not None}
    if given:
        for flag in ("--c-min", "--c-max"):
            if flags[flag] is not None and not math.isfinite(flags[flag]):
                raise io.ConfigError(f"{flag} must be finite, got {flags[flag]}")
        c_min, c_max, steps = (d if v is None else v
                               for v, d in zip(flags.values(), _c_range(spec)))
        if not math.isfinite(c_max - c_min):
            raise io.ConfigError(f"--c-max - --c-min must be finite, got {c_max} - {c_min}")
        if kind is ScanConfig:
            updates.update(c_min=c_min, c_max=c_max, n_steps=steps)
        elif steps < 1:
            raise io.ConfigError(f"--steps must be >= 1, got {steps}")
        elif steps == 1 and args.c_max is not None and c_max != c_min:
            raise io.ConfigError(f"--steps 1 runs c = {c_min} alone, not --c-max {c_max}")
        else:
            updates["c_grid"] = tuple(_linspace(c_min, c_max, steps))
    if kind is not ScanConfig:
        updates["base"] = dataclasses.replace(spec.base, **_run_overrides(args))
    return dataclasses.replace(spec, **updates)


def _sim_config(args) -> SimConfig:
    cfg = io.load_run_config(args.preset, args.config) or SimConfig()
    updates = _run_overrides(args)
    if getattr(args, "c", None) is not None:
        updates["eco"] = dataclasses.replace(cfg.eco, c=args.c)
    if getattr(args, "l", None) is not None:
        updates["adapt"] = AdaptationParams(l=args.l)
    if getattr(args, "case", None):
        updates["wellbeing"] = PROFILES[args.case]
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_simulate(args):
    cfg = _sim_config(args)
    # resolved before the file opens; the run steps as the writer takes its pieces
    t0, pieces = trajectory_pieces(cfg)
    path = io.write_trajectory_csv(Path(args.out_dir) / "trajectory.csv", t0, pieces,
                                   cfg.wellbeing.params)
    return cfg, [path], None


def _cmd_bifurcation(args):
    cfg = _grid_spec(args, ScanConfig)
    scan = bifurcation_scan(cfg.eco, cfg.c_min, cfg.c_max, cfg.n_steps)
    csv_path = io.write_bifurcation_csv(Path(args.out_dir) / "bifurcation.csv", scan)
    extra: dict = {"scan_errors": [{"c": r.c, "error": r.error} for r in scan if r.error]}
    try:
        folds = fold_points(cfg.eco, cfg.c_min, cfg.c_max)
        extra["fold_points"] = {"c_low": folds.c_low, "c_high": folds.c_high}
    except NoBistabilityError as exc:
        extra["fold_points"] = {"error": str(exc)}
    return cfg, [csv_path], extra


def _cmd_sweep(args):
    cfg = _grid_spec(args, SweepConfig)
    rows = analytics.utility_sweep(cfg.base, cfg.c_grid, cfg.l_values, cfg.n_seeds)
    return cfg, [io.write_sweep_csv(Path(args.out_dir) / "sweep.csv", rows)], None


def _cmd_transform(args):
    cfg = _grid_spec(args, TransformConfig)
    report = analytics.transform_comparison(cfg.base, cfg.baseline_case,
                                            cfg.transform_case, cfg.c_grid,
                                            cfg.l, cfg.n_seeds)
    out = Path(args.out_dir)
    return cfg, [io.write_comparison_csv(out / "transform.csv", report.rows),
                 io.write_crossover_json(out / "crossover.json", report)], None


def _cmd_flicker(args):
    cfg = _sim_config(args)
    separatrix = args.separatrix if args.separatrix is not None else separatrix_for(cfg.eco)
    # replicate k is the (seed, k) substream, as in run_trajectory(cfg, k)
    stats = analytics.flicker_replicates(cfg, args.seeds, separatrix, args.min_dwell)
    json_path = io.write_flicker_json(Path(args.out_dir) / "flicker.json", stats, separatrix,
                                      args.min_dwell)
    return cfg, [json_path], None


# each subcommand's help line, the function adding its arguments, and the one
# running it, which returns (spec, data file paths, extra manifest keys or None)
_COMMANDS = {
    "simulate": ("run one trajectory", _simulate_args, _cmd_simulate),
    "bifurcation": ("equilibria across extraction rates", _bifurcation_args, _cmd_bifurcation),
    "sweep": ("utility over a (c, l) grid", _sweep_args, _cmd_sweep),
    "transform": ("specialist-vs-generalist comparison", _transform_args, _cmd_transform),
    "flicker": ("basin-transition statistics", _flicker_args, _cmd_flicker),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        spec, outputs, extra = run(args)
        # a ScanConfig simulates nothing, so it has no seed
        seed = None if isinstance(spec, ScanConfig) else getattr(spec, "base", spec).seed
        manifest = io.build_manifest(args.command, spec, seed, outputs, extra=extra)
        outputs = [*outputs, io.write_manifest(Path(args.out_dir) / "manifest.json", manifest)]
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
