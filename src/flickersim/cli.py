"""Command-line interface.

Subcommands:

    simulate     one trajectory -> trajectory.csv
    bifurcation  equilibria across extraction rates -> bifurcation.csv
    sweep        utility over (c, l) grid -> sweep.csv
    transform    specialist-vs-generalist comparison -> transform.csv + crossover.json
    flicker      basin-transition statistics -> flicker.json

Every run also writes manifest.json recording the resolved configuration,
seed, version, and output paths.  Given the same seed, the data files are
byte-identical across runs and worker counts.  The default output directory
comes from $FLICKERSIM_OUT_DIR, falling back to ./flickersim-out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analytics, io
from .dynamics import AdaptationParams, EcoParams
from .analytics import separatrix_for
from .equilibria import NoBistabilityError, bifurcation_scan, fold_points
from .presets import PRESETS, ScanConfig, SweepConfig, TransformConfig
from .simulate import SimConfig, run_trajectory
from .wellbeing import PROFILES

ENV_OUT_DIR = "FLICKERSIM_OUT_DIR"

# (c_min, c_max, steps) when neither a preset nor a config sets the range
BIFURCATION_RANGE = (0.0, 4.0, 400)
GRID_RANGE = (0.25, 3.5, 40)


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


def _add_c_range(sub: argparse.ArgumentParser, defaults: tuple[float, float, int]) -> None:
    """--c-min/--c-max/--steps; rejected when the preset or config sets the range."""
    c_min, c_max, steps = defaults
    note = "; not with a preset or config that sets the range"
    sub.add_argument("--c-min", type=float,
                     help=f"lowest extraction rate (default {c_min}{note})")
    sub.add_argument("--c-max", type=float,
                     help=f"highest extraction rate (default {c_max}{note})")
    sub.add_argument("--steps", type=int,
                     help=f"number of extraction rates (default {steps}{note})")


def _add_sim_overrides(sub: argparse.ArgumentParser) -> None:
    _add_run_flags(sub)
    sub.add_argument("--c", type=float, help="extraction rate override")
    sub.add_argument("--l", type=float, help="adaptation rate override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flickersim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one trajectory")
    _add_common(sim, SimConfig)
    _add_sim_overrides(sim)
    sim.add_argument("--case", choices=sorted(PROFILES),
                     help="wellbeing profile override")

    bif = subs.add_parser("bifurcation", help="equilibria across extraction rates")
    _add_common(bif, ScanConfig)
    _add_c_range(bif, BIFURCATION_RANGE)

    sweep = subs.add_parser("sweep", help="utility over a (c, l) grid")
    _add_common(sweep, SweepConfig)
    _add_run_flags(sweep)
    _add_c_range(sweep, GRID_RANGE)
    sweep.add_argument("--l", type=float, action="append", dest="l_values",
                       help="adaptation rate (repeatable)")
    sweep.add_argument("--seeds", type=int, help="replicates per cell")
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel workers, each over a contiguous group of c values")

    trans = subs.add_parser("transform", help="specialist-vs-generalist comparison")
    _add_common(trans, TransformConfig)
    _add_run_flags(trans)
    _add_c_range(trans, GRID_RANGE)
    trans.add_argument("--l", type=float, help="adaptation rate")
    trans.add_argument("--seeds", type=int, help="replicates per cell")

    flick = subs.add_parser("flicker", help="basin-transition statistics")
    _add_common(flick, SimConfig)
    _add_sim_overrides(flick)
    flick.add_argument("--seeds", type=int, default=1, help="replicates")
    flick.add_argument("--min-dwell", type=int, default=analytics.DEFAULT_MIN_DWELL,
                       help="steps a new basin must persist to count as a switch")
    flick.add_argument("--separatrix", type=float,
                       help="basin threshold override (required outside the bistable regime)")

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


def _c_range(args, supplied: bool, defaults: tuple[float, float, int]):
    """(c_min, c_max, steps) from the flags given, else defaults.

    When the preset or config already supplies the range (supplied), any of
    --c-min/--c-max/--steps is a ConfigError instead of being ignored.
    """
    values = (args.c_min, args.c_max, args.steps)
    given = [flag for flag, v in zip(("--c-min", "--c-max", "--steps"), values) if v is not None]
    if supplied and given:
        source = f"preset {args.preset!r}" if args.preset else f"config {args.config!r}"
        raise io.ConfigError(f"{', '.join(given)} cannot override the c range of {source}")
    return tuple(d if v is None else v for v, d in zip(values, defaults))


def _c_grid(args, c_grid: tuple[float, ...]) -> tuple[float, ...]:
    """The preset's or config's c grid, or the one the flags describe."""
    c_min, c_max, steps = _c_range(args, bool(c_grid), GRID_RANGE)
    return c_grid or tuple(float(c) for c in np.linspace(c_min, c_max, steps))


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


def _cmd_simulate(args) -> list[Path]:
    cfg = _sim_config(args)
    tr = run_trajectory(cfg)
    out = Path(args.out_dir)
    csv_path = io.write_trajectory_csv(out / "trajectory.csv", tr, cfg.wellbeing.params)
    manifest = io.build_manifest("simulate", cfg, cfg.seed, [csv_path])
    return [csv_path, io.write_manifest(out / "manifest.json", manifest)]


def _cmd_bifurcation(args) -> list[Path]:
    cfg = io.load_run_config(args.preset, args.config)
    c_min, c_max, steps = _c_range(args, isinstance(cfg, ScanConfig), BIFURCATION_RANGE)
    if not isinstance(cfg, ScanConfig):
        cfg = ScanConfig(eco=cfg.eco if cfg else EcoParams(), c_min=c_min, c_max=c_max,
                         n_steps=steps)
    scan = bifurcation_scan(cfg.eco, cfg.c_min, cfg.c_max, cfg.n_steps)
    out = Path(args.out_dir)
    csv_path = io.write_bifurcation_csv(out / "bifurcation.csv", scan)
    extra: dict = {"scan_errors": [{"c": r.c, "error": r.error} for r in scan if r.error]}
    try:
        folds = fold_points(cfg.eco, cfg.c_min, cfg.c_max)
        extra["fold_points"] = {"c_low": folds.c_low, "c_high": folds.c_high}
    except NoBistabilityError as exc:
        extra["fold_points"] = {"error": str(exc)}
    manifest = io.build_manifest("bifurcation", cfg, None, [csv_path], extra=extra)
    return [csv_path, io.write_manifest(out / "manifest.json", manifest)]


def _sweep_config(args) -> SweepConfig:
    cfg = io.load_run_config(args.preset, args.config)
    if not isinstance(cfg, SweepConfig):
        cfg = SweepConfig(base=cfg or SimConfig(), c_grid=(), l_values=())
    c_grid = _c_grid(args, cfg.c_grid)
    l_values = tuple(args.l_values) if args.l_values else (cfg.l_values or (0.001, 0.01, 0.1))
    base = dataclasses.replace(cfg.base, **_run_overrides(args))
    return SweepConfig(base=base, c_grid=c_grid, l_values=l_values,
                       n_seeds=cfg.n_seeds if args.seeds is None else args.seeds)


def _cmd_sweep(args) -> list[Path]:
    cfg = _sweep_config(args)
    rows = analytics.utility_sweep(cfg.base, cfg.c_grid, cfg.l_values, cfg.n_seeds,
                                   workers=args.workers)
    out = Path(args.out_dir)
    csv_path = io.write_sweep_csv(out / "sweep.csv", rows)
    manifest = io.build_manifest("sweep", cfg, cfg.base.seed, [csv_path])
    return [csv_path, io.write_manifest(out / "manifest.json", manifest)]


def _cmd_transform(args) -> list[Path]:
    cfg = io.load_run_config(args.preset, args.config)
    if not isinstance(cfg, TransformConfig):
        cfg = TransformConfig(base=cfg or SimConfig(), baseline_case=PROFILES["specialist"],
                              transform_case=PROFILES["generalist"], c_grid=(), l=0.001)
    base = dataclasses.replace(cfg.base, **_run_overrides(args))
    cfg = TransformConfig(base=base, baseline_case=cfg.baseline_case,
                          transform_case=cfg.transform_case, c_grid=_c_grid(args, cfg.c_grid),
                          l=args.l if args.l is not None else cfg.l,
                          n_seeds=cfg.n_seeds if args.seeds is None else args.seeds)
    report = analytics.transform_comparison(cfg.base, cfg.baseline_case,
                                            cfg.transform_case, cfg.c_grid,
                                            cfg.l, cfg.n_seeds)
    out = Path(args.out_dir)
    csv_path = io.write_comparison_csv(out / "transform.csv", report.rows)
    json_path = io.write_crossover_json(out / "crossover.json", report)
    manifest = io.build_manifest("transform", cfg, cfg.base.seed, [csv_path, json_path])
    return [csv_path, json_path, io.write_manifest(out / "manifest.json", manifest)]


def _cmd_flicker(args) -> list[Path]:
    cfg = _sim_config(args)
    separatrix = args.separatrix if args.separatrix is not None else separatrix_for(cfg.eco)
    # replicate k is the (seed, k) substream, as in run_trajectory(cfg, k)
    stats = analytics.flicker_replicates(cfg, args.seeds, separatrix, args.min_dwell)
    out = Path(args.out_dir)
    json_path = io.write_flicker_json(out / "flicker.json", stats, separatrix,
                                      args.min_dwell)
    manifest = io.build_manifest("flicker", cfg, cfg.seed, [json_path])
    return [json_path, io.write_manifest(out / "manifest.json", manifest)]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "bifurcation": _cmd_bifurcation,
    "sweep": _cmd_sweep,
    "transform": _cmd_transform,
    "flicker": _cmd_flicker,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outputs = _COMMANDS[args.command](args)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
