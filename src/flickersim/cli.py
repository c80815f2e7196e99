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
from .equilibria import bifurcation_scan, fold_points
from .presets import ScanConfig, SweepConfig, TransformConfig
from .simulate import SimConfig, environment_series, resolve_config, run_trajectory
from .wellbeing import PROFILES

ENV_OUT_DIR = "FLICKERSIM_OUT_DIR"


def _default_out_dir() -> str:
    return os.environ.get(ENV_OUT_DIR, "flickersim-out")


def _add_common(sub: argparse.ArgumentParser, presets: list[str]) -> None:
    sub.add_argument("--preset", choices=presets, help="named parameter bundle")
    sub.add_argument("--config", help="YAML or JSON config file")
    sub.add_argument("--out-dir", default=_default_out_dir(),
                     help=f"output directory (default ${ENV_OUT_DIR} or ./flickersim-out)")
    sub.add_argument("--seed", type=int, help="master seed override")


def _add_sim_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t-max", type=int, help="simulation horizon override")
    sub.add_argument("--burn-in", type=int, help="discarded prefix override")
    sub.add_argument("--c", type=float, help="extraction rate override")
    sub.add_argument("--l", type=float, help="adaptation rate override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flickersim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run one trajectory")
    _add_common(sim, ["fig4a", "fig4b", "fig4c", "fig4d"])
    _add_sim_overrides(sim)
    sim.add_argument("--case", choices=sorted(PROFILES),
                     help="wellbeing profile override")

    bif = subs.add_parser("bifurcation", help="equilibria across extraction rates")
    _add_common(bif, ["fig2"])
    bif.add_argument("--c-min", type=float, default=0.0)
    bif.add_argument("--c-max", type=float, default=4.0)
    bif.add_argument("--steps", type=int, default=400)

    sweep = subs.add_parser("sweep", help="utility over a (c, l) grid")
    _add_common(sweep, ["fig5"])
    sweep.add_argument("--c-min", type=float, default=0.25)
    sweep.add_argument("--c-max", type=float, default=3.5)
    sweep.add_argument("--steps", type=int, default=40)
    sweep.add_argument("--l", type=float, action="append", dest="l_values",
                       help="adaptation rate (repeatable)")
    sweep.add_argument("--seeds", type=int, help="replicates per cell")
    sweep.add_argument("--t-max", type=int)
    sweep.add_argument("--burn-in", type=int)
    sweep.add_argument("--workers", type=int, default=1,
                       help="parallel workers, each over a contiguous group of c values")

    trans = subs.add_parser("transform", help="specialist-vs-generalist comparison")
    _add_common(trans, ["fig6"])
    trans.add_argument("--c-min", type=float, default=0.25)
    trans.add_argument("--c-max", type=float, default=3.5)
    trans.add_argument("--steps", type=int, default=40)
    trans.add_argument("--l", type=float, help="adaptation rate")
    trans.add_argument("--seeds", type=int, help="replicates per cell")
    trans.add_argument("--t-max", type=int)
    trans.add_argument("--burn-in", type=int)

    flick = subs.add_parser("flicker", help="basin-transition statistics")
    _add_common(flick, ["fig4a", "fig4b", "fig4c", "fig4d"])
    _add_sim_overrides(flick)
    flick.add_argument("--seeds", type=int, default=1, help="replicates")
    flick.add_argument("--min-dwell", type=int, default=analytics.DEFAULT_MIN_DWELL,
                       help="steps a new basin must persist to count as a switch")
    flick.add_argument("--separatrix", type=float,
                       help="basin threshold override (required outside the bistable regime)")

    return parser


def _sim_config(args, default: SimConfig | None = None) -> SimConfig:
    cfg = io.load_run_config(args.preset, args.config)
    if cfg is None:
        cfg = default if default is not None else SimConfig()
    if not isinstance(cfg, SimConfig):
        raise io.ConfigError(f"preset {args.preset!r} is not a trajectory configuration")
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "t_max", None) is not None:
        updates["t_max"] = args.t_max
    if getattr(args, "burn_in", None) is not None:
        updates["burn_in"] = args.burn_in
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
    manifest = io.build_manifest("simulate", cfg, cfg.seed, [csv_path],
                                 extra={"trajectory_fingerprint": tr.fingerprint})
    return [csv_path, io.write_manifest(out / "manifest.json", manifest)]


def _cmd_bifurcation(args) -> list[Path]:
    cfg = io.load_run_config(args.preset, args.config)
    if cfg is None:
        cfg = ScanConfig(eco=EcoParams(), c_min=args.c_min, c_max=args.c_max,
                         n_steps=args.steps)
    elif isinstance(cfg, SimConfig):
        cfg = ScanConfig(eco=cfg.eco, c_min=args.c_min, c_max=args.c_max,
                         n_steps=args.steps)
    if not isinstance(cfg, ScanConfig):
        raise io.ConfigError(f"preset {args.preset!r} is not a bifurcation configuration")
    scan = bifurcation_scan(cfg.eco, cfg.c_min, cfg.c_max, cfg.n_steps)
    out = Path(args.out_dir)
    csv_path = io.write_bifurcation_csv(out / "bifurcation.csv", scan)
    extra: dict = {"scan_errors": [{"c": r.c, "error": r.error} for r in scan if r.error]}
    try:
        folds = fold_points(cfg.eco, cfg.c_min, cfg.c_max)
        extra["fold_points"] = {"c_low": folds.c_low, "c_high": folds.c_high}
    except Exception as exc:
        extra["fold_points"] = {"error": str(exc)}
    manifest = io.build_manifest("bifurcation", cfg, None, [csv_path], extra=extra)
    return [csv_path, io.write_manifest(out / "manifest.json", manifest)]


def _sweep_config(args) -> SweepConfig:
    cfg = io.load_run_config(args.preset, args.config)
    if isinstance(cfg, SimConfig):
        cfg = SweepConfig(base=cfg, c_grid=(), l_values=())
    if cfg is None:
        cfg = SweepConfig(base=SimConfig(), c_grid=(), l_values=())
    if not isinstance(cfg, SweepConfig):
        raise io.ConfigError(f"preset {args.preset!r} is not a sweep configuration")
    c_grid = cfg.c_grid or tuple(float(c) for c in np.linspace(args.c_min, args.c_max, args.steps))
    l_values = tuple(args.l_values) if args.l_values else (cfg.l_values or (0.001, 0.01, 0.1))
    base = cfg.base
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.t_max is not None:
        updates["t_max"] = args.t_max
    if args.burn_in is not None:
        updates["burn_in"] = args.burn_in
    if updates:
        base = dataclasses.replace(base, **updates)
    return SweepConfig(base=base, c_grid=c_grid, l_values=l_values,
                       n_seeds=args.seeds if args.seeds else cfg.n_seeds)


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
    if cfg is None or isinstance(cfg, SimConfig):
        base = cfg if isinstance(cfg, SimConfig) else SimConfig()
        cfg = TransformConfig(base=base, baseline_case=PROFILES["specialist"],
                              transform_case=PROFILES["generalist"],
                              c_grid=(), l=0.001)
    if not isinstance(cfg, TransformConfig):
        raise io.ConfigError(f"preset {args.preset!r} is not a transform configuration")
    c_grid = cfg.c_grid or tuple(float(c) for c in np.linspace(args.c_min, args.c_max, args.steps))
    base = cfg.base
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.t_max is not None:
        updates["t_max"] = args.t_max
    if args.burn_in is not None:
        updates["burn_in"] = args.burn_in
    if updates:
        base = dataclasses.replace(base, **updates)
    cfg = TransformConfig(base=base, baseline_case=cfg.baseline_case,
                          transform_case=cfg.transform_case, c_grid=c_grid,
                          l=args.l if args.l is not None else cfg.l,
                          n_seeds=args.seeds if args.seeds else cfg.n_seeds)
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
    xs = environment_series([resolve_config(cfg)], args.seeds)[0]
    stats = [analytics.flicker_stats(row, separatrix, min_dwell=args.min_dwell) for row in xs]
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
