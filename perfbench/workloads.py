"""The benchmark's workloads: inputs built from a seed, one pass of operations,
and the checks that the pass's outputs are correct.

Why each workload exists (see README.md for the layer table):

    trajectory  one replicate per command, so every recurrence step handles a
                single row and the trajectory.csv write is a large share; the
                bypass for any replicate or grid batching change.
    replicates  many replicates at one bistable c, once through the CLI (one
                row at a time) and once through run_ensemble (batched).
    grid        the fig5 sweep and the fig6 comparison: 40 c values x 10
                replicates, recurrence-bound, identical environment blocks.
    regime_map  equilibria, folds and regimes only; no simulation at all.

Horizons and replicate counts are fixed here, identical on every commit.
Every other parameter is the preset's own.  The workload seed is the master
seed of every simulation and the seed of the (r, K, h) draws.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io as _io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import flickersim.cli
from flickersim import dynamics, presets, simulate, wellbeing

# The package re-exports the function equilibria() under the submodule's name.
equilibria = importlib.import_module("flickersim.equilibria")


@dataclass(frozen=True)
class Sizes:
    traj_t: int
    traj_burn: int
    repl_n: int
    repl_t: int
    repl_burn: int
    grid_t: int
    grid_burn: int
    grid_seeds: int
    regime_draws: int
    replay_steps: int


FULL = Sizes(traj_t=10_000, traj_burn=1_000, repl_n=8, repl_t=5_000, repl_burn=500,
             grid_t=1_000, grid_burn=100, grid_seeds=10, regime_draws=16,
             replay_steps=1_000)
# For the benchmark's own smoke test only.
TINY = Sizes(traj_t=300, traj_burn=30, repl_n=2, repl_t=300, repl_burn=30,
             grid_t=60, grid_burn=10, grid_seeds=2, regime_draws=2, replay_steps=50)


class CliError(RuntimeError):
    """A CLI command exited non-zero."""


@dataclass(frozen=True)
class Op:
    name: str
    fn: Callable[[], object]


def run_cli(argv: list[str]) -> list[Path]:
    """Run one CLI command in process; returns the output paths it printed."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = flickersim.cli.main(argv)
    if code != 0:
        raise CliError(f"flickersim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return [Path(line) for line in out.getvalue().splitlines()]


def data_files(paths: list[Path]) -> list[Path]:
    """Output files of a command except the manifest, which carries a timestamp."""
    return [p for p in paths if p.name != "manifest.json"]


def _sha(parts) -> str:
    h = hashlib.sha256()

    def feed(part):
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, (list, tuple)):
            for item in part:
                feed(item)
        else:
            h.update(repr(part).encode())

    feed(parts)
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One workload: ``ops()`` is a pass, ``checks(results)`` its output checks."""

    name: str
    unit: str  # what work_per_s counts
    calibration: tuple[str, ...]  # calibration.LOOPS closest to the hot path

    def __init__(self, seed: int, sizes: Sizes, out_dir: Path) -> None:
        """Build the inputs; out_dir is where the CLI commands write."""
        self.seed = seed
        self.sizes = sizes

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def work(self) -> int:
        """Units of work in one pass."""
        raise NotImplementedError

    def fingerprint(self, results: dict) -> str:
        """Digest of a pass's data: equal across passes with the same seed."""
        parts = []
        for name in sorted(results):
            value = results[name]
            if isinstance(value, list) and value and isinstance(value[0], Path):
                parts.extend(p.read_bytes() for p in data_files(value))
            else:
                parts.append(value)
        return _sha(parts)

    def checks(self, results: dict) -> list[tuple[str, Callable[[], None]]]:
        raise NotImplementedError

    def stamp(self) -> dict:
        raise NotImplementedError


def _sim_args(preset: str, seed: int, t_max: int, burn_in: int) -> list[str]:
    return ["--preset", preset, "--seed", str(seed), "--t-max", str(t_max),
            "--burn-in", str(burn_in)]


class Trajectory(Workload):
    name = "trajectory"
    unit = "replicate steps"
    calibration = ("recurrence_1row", "format")
    PRESETS = ("fig4a", "fig4b", "fig4c", "fig4d")
    REPLAY_PRESET = "fig4b"

    def __init__(self, seed, sizes, out_dir):
        super().__init__(seed, sizes, out_dir)
        s = sizes
        self.argv = {
            p: ["simulate", *_sim_args(p, seed, s.traj_t, s.traj_burn),
                "--out-dir", str(out_dir / p)]
            for p in self.PRESETS
        }

    def ops(self):
        return [Op(f"simulate {p}", lambda argv=argv: run_cli(argv))
                for p, argv in self.argv.items()]

    def work(self):
        return len(self.PRESETS) * self.sizes.traj_t

    def config(self, preset: str) -> simulate.SimConfig:
        return dataclasses.replace(presets.get_preset(preset), seed=self.seed,
                                   t_max=self.sizes.traj_t, burn_in=self.sizes.traj_burn)

    def _columns(self, results, preset):
        path = data_files(results[f"simulate {preset}"])[0]
        rows = _read_csv(path)
        return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}

    def checks(self, results):
        def replay():
            """The first steps replay bit-exactly through dynamics.step_coupled."""
            cfg = simulate.resolve_config(self.config(self.REPLAY_PRESET))
            cols = self._columns(results, self.REPLAY_PRESET)
            etas = simulate.innovation_stream(cfg.seed, 0).normal(
                cfg.noise.mu, cfg.noise.beta, size=cfg.t_max)
            state = dynamics.SystemState(x=float(cols["x"][0]), i=float(cols["i"][0]),
                                         y=float(cols["y"][0]))
            for k in range(1, self.sizes.replay_steps + 1):
                state = dynamics.step_coupled(state, cfg.eco, cfg.noise, cfg.adapt,
                                              float(etas[cfg.burn_in + k - 1]))
                got = (float(cols["x"][k]), float(cols["i"][k]), float(cols["y"][k]))
                if (state.x, state.i, state.y) != got:
                    raise AssertionError(f"replay differs at step {k}: "
                                         f"{(state.x, state.i, state.y)} != {got}")

        def round_trip():
            """Every trajectory.csv parses back to the library's exact doubles."""
            for preset in self.PRESETS:
                cfg = self.config(preset)
                tr = simulate.run_trajectory(cfg)
                cols = self._columns(results, preset)
                w = cfg.wellbeing.params
                expected = {
                    "t": np.arange(tr.t0, tr.t0 + len(tr), dtype=float),
                    "x": tr.xs, "y": tr.ys, "i": tr.noise,
                    # scalar calls, as the writer makes them
                    "payoff": np.array([float(wellbeing.payoff(x, w)) for x in tr.xs]),
                    "utility": np.array([float(wellbeing.utility(x, y, w))
                                         for x, y in zip(tr.xs, tr.ys)]),
                }
                for key, want in expected.items():
                    if not np.array_equal(cols[key], want):
                        raise AssertionError(f"{preset} column {key} does not round-trip")

        return [("trajectory replays through step_coupled", replay),
                ("trajectory.csv round-trips exactly", round_trip)]

    def stamp(self):
        return {"t_max": self.sizes.traj_t, "burn_in": self.sizes.traj_burn, "replicates": 1,
                "presets": list(self.PRESETS)}


class Replicates(Workload):
    name = "replicates"
    unit = "replicate steps"
    calibration = ("recurrence_1row",)
    PRESET = "fig4b"

    def __init__(self, seed, sizes, out_dir):
        super().__init__(seed, sizes, out_dir)
        s = sizes
        self.argv = ["flicker", *_sim_args(self.PRESET, seed, s.repl_t, s.repl_burn),
                     "--seeds", str(s.repl_n), "--out-dir", str(out_dir / "flicker")]
        self.cfg = dataclasses.replace(presets.get_preset(self.PRESET), seed=seed,
                                       t_max=s.repl_t, burn_in=s.repl_burn)

    def ops(self):
        return [
            Op("flicker", lambda: run_cli(self.argv)),
            Op("run_ensemble", lambda: _ensemble_arrays(
                simulate.run_ensemble(self.cfg, self.sizes.repl_n))),
        ]

    def work(self):
        return 2 * self.sizes.repl_n * self.sizes.repl_t

    def checks(self, results):
        n, length = self.sizes.repl_n, self.sizes.repl_t - self.sizes.repl_burn

        def dwells():
            """Every replicate's dwell times sum to the trajectory length."""
            doc = json.loads(data_files(results["flicker"])[0].read_text())
            reps = doc["replicates"]
            if len(reps) != n:
                raise AssertionError(f"{len(reps)} replicates in flicker.json, expected {n}")
            for k, rep in enumerate(reps):
                high, low = rep["residence_high"], rep["residence_low"]
                if sum(high) + sum(low) != length:
                    raise AssertionError(f"replicate {k}: dwells sum to "
                                         f"{sum(high) + sum(low)}, not {length}")
                if rep["n_transitions"] != len(high) + len(low) - 1:
                    raise AssertionError(f"replicate {k}: transitions do not match dwells")
                if rep["fraction_high"] != sum(high) / length:
                    raise AssertionError(f"replicate {k}: fraction_high is not the high share")

        def ensemble():
            """run_ensemble returns n finite payoff and utility averages."""
            pays, utils = results["run_ensemble"]
            if pays.shape != (n,) or utils.shape != (n,):
                raise AssertionError(f"ensemble shapes {pays.shape}, {utils.shape}")
            if not (np.isfinite(pays).all() and np.isfinite(utils).all()):
                raise AssertionError("non-finite ensemble average")

        return [("flicker dwell sums equal the trajectory length", dwells),
                ("run_ensemble averages are complete and finite", ensemble)]

    def stamp(self):
        return {"t_max": self.sizes.repl_t, "burn_in": self.sizes.repl_burn,
                "replicates": self.sizes.repl_n, "preset": self.PRESET}


def _ensemble_arrays(summary: simulate.EnsembleSummary):
    return summary.avg_payoffs, summary.avg_utilities


class Grid(Workload):
    name = "grid"
    unit = "replicate steps"
    calibration = ("recurrence_10rows",)

    def __init__(self, seed, sizes, out_dir):
        super().__init__(seed, sizes, out_dir)
        s = sizes
        common = ["--seed", str(seed), "--t-max", str(s.grid_t), "--burn-in", str(s.grid_burn),
                  "--seeds", str(s.grid_seeds)]
        self.sweep_argv = ["sweep", "--preset", "fig5", *common,
                           "--out-dir", str(out_dir / "sweep")]
        self.transform_argv = ["transform", "--preset", "fig6", *common,
                               "--out-dir", str(out_dir / "transform")]
        self.sweep_cfg = presets.get_preset("fig5")
        self.transform_cfg = presets.get_preset("fig6")

    def ops(self):
        return [Op("sweep", lambda: run_cli(self.sweep_argv)),
                Op("transform", lambda: run_cli(self.transform_argv))]

    def work(self):
        cells = len(self.sweep_cfg.c_grid) + len(self.transform_cfg.c_grid)
        return cells * self.sizes.grid_seeds * self.sizes.grid_t

    def checks(self, results):
        def sweep_rows():
            """sweep.csv has one row per (c, l) cell and no unflagged NaN."""
            rows = _read_csv(data_files(results["sweep"])[0])
            cfg = self.sweep_cfg
            cells = sorted((float(r["l"]), float(r["c"])) for r in rows)
            expected = sorted((l, c) for l in cfg.l_values for c in cfg.c_grid)
            if cells != expected:
                raise AssertionError(f"sweep has {len(rows)} rows, expected "
                                     f"{len(cfg.c_grid)} x {len(cfg.l_values)} cells")
            _no_unflagged_nan(rows)

        def transform_rows():
            """transform.csv scores both profiles on the same x series."""
            rows = _read_csv(data_files(results["transform"])[0])
            if len(rows) != len(self.transform_cfg.c_grid):
                raise AssertionError(f"transform has {len(rows)} rows")
            for r in rows:
                if not r["error"] and r["x_digest_baseline"] != r["x_digest_transform"]:
                    raise AssertionError(f"x digests differ at c={r['c']}")
            _no_unflagged_nan(rows)

        return [("sweep covers |c| x |l| cells without unflagged NaN", sweep_rows),
                ("transform shares x series without unflagged NaN", transform_rows)]

    def stamp(self):
        return {"t_max": self.sizes.grid_t, "burn_in": self.sizes.grid_burn,
                "replicates": self.sizes.grid_seeds, "c_values": len(self.sweep_cfg.c_grid),
                "l_values": list(self.sweep_cfg.l_values)}


def _no_unflagged_nan(rows: list[dict]) -> None:
    for r in rows:
        if r["error"]:
            continue
        for key, value in r.items():
            if value.lower() == "nan":
                raise AssertionError(f"NaN in {key} at c={r['c']} without an error")


def closed_form_folds(eco: dynamics.EcoParams) -> tuple[float, float]:
    """Fold extraction rates from the stationary points of c(x).

    On the nonzero equilibria c(x) = r(1 - x/K)(x^2 + h^2)/x, whose
    stationary points are the positive roots of 2x^3/K - x^2 + h^2 = 0.
    """
    r, K, h = eco.r, eco.K, eco.h
    roots = sorted(z.real for z in np.roots([2.0 / K, -1.0, 0.0, h * h])
                   if abs(z.imag) < 1e-12 and z.real > 0)
    if len(roots) != 2:
        raise ValueError(f"no fold pair for {eco}")
    polished = []
    for x in roots:
        for _ in range(3):
            x -= (2.0 * x ** 3 / K - x * x + h * h) / (6.0 * x * x / K - 2.0 * x)
        polished.append(x)
    c_of = [r * (1.0 - x / K) * (x * x + h * h) / x for x in polished]
    return min(c_of), max(c_of)


def _expected_regime(c: float, folds: tuple[float, float]) -> int | None:
    c_low, c_high = folds
    if min(abs(c - c_low), abs(c - c_high)) < 1e-6:
        return None
    if c < c_low:
        return int(equilibria.Regime.SINGLE_HIGH)
    return int(equilibria.Regime.BISTABLE if c < c_high else equilibria.Regime.SINGLE_LOW)


class RegimeMap(Workload):
    name = "regime_map"
    unit = "extraction rates solved"
    calibration = ("bisect",)
    FOLD_RANGE = (0.0, 8.0)    # contains the band for every draw
    NARROW_RANGE = (0.0, 0.5)  # below every draw's band: NoBistabilityError
    FOLD_TOL = 1e-5
    SCAN = (0.25, 4.0, 100)
    CLASSIFY_PER_DRAW = 16

    def __init__(self, seed, sizes, out_dir):
        super().__init__(seed, sizes, out_dir)
        self.argv = ["bifurcation", "--preset", "fig2", "--out-dir", str(out_dir / "bifurcation")]
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(sizes.regime_draws):
            eco = dynamics.EcoParams(r=float(rng.uniform(0.8, 1.2)),
                                     K=float(rng.uniform(8.0, 12.0)), c=1.0,
                                     h=float(rng.uniform(0.8, 1.2)))
            cs = tuple(float(c) for c in rng.uniform(0.25, 4.0, self.CLASSIFY_PER_DRAW))
            self.draws.append((eco, cs))

    def ops(self):
        ops = [Op("bifurcation", lambda: run_cli(self.argv))]
        for k, (eco, cs) in enumerate(self.draws):
            ops += [
                Op(f"fold_points {k}", lambda eco=eco: _documented(
                    equilibria.fold_points, eco, *self.FOLD_RANGE, tol=self.FOLD_TOL)),
                Op(f"fold_points narrow {k}", lambda eco=eco: _documented(
                    equilibria.fold_points, eco, *self.NARROW_RANGE)),
                Op(f"bifurcation_scan {k}", lambda eco=eco: [
                    (row.c, len(row.equilibria), row.error)
                    for row in equilibria.bifurcation_scan(eco, *self.SCAN)]),
                Op(f"classify_regime {k}", lambda eco=eco, cs=cs: [
                    _documented(equilibria.classify_regime, dataclasses.replace(eco, c=c))
                    for c in cs]),
            ]
        return ops

    def work(self):
        fig2 = presets.get_preset("fig2")
        per_draw = self.SCAN[2] + self.CLASSIFY_PER_DRAW
        return fig2.n_steps + len(self.draws) * per_draw

    def checks(self, results):
        def folds():
            """fold_points agrees with the closed form; the narrow range has no band."""
            for k, (eco, _) in enumerate(self.draws):
                want = closed_form_folds(eco)
                got = results[f"fold_points {k}"]
                if not isinstance(got, equilibria.FoldPoints):
                    raise AssertionError(f"draw {k}: fold_points gave {got!r}")
                err = max(abs(got.c_low - want[0]), abs(got.c_high - want[1]))
                if err > 1e-5:
                    raise AssertionError(f"draw {k}: folds off by {err:.2e}")
                narrow = results[f"fold_points narrow {k}"]
                if narrow != "NoBistabilityError":
                    raise AssertionError(f"draw {k}: narrow range gave {narrow!r}")

        def cli_folds():
            """The bifurcation command's manifest folds are within its tolerance."""
            paths = results["bifurcation"]
            manifest = json.loads(next(p for p in paths if p.name == "manifest.json").read_text())
            got = manifest["fold_points"]
            want = closed_form_folds(presets.get_preset("fig2").eco)
            err = max(abs(got["c_low"] - want[0]), abs(got["c_high"] - want[1]))
            if err > 1e-4:
                raise AssertionError(f"bifurcation manifest folds off by {err:.2e}")

        def regimes():
            """Regimes and root counts match the closed-form band."""
            for k, (eco, cs) in enumerate(self.draws):
                band = closed_form_folds(eco)
                for c, got in zip(cs, results[f"classify_regime {k}"]):
                    want = _expected_regime(c, band)
                    if want is not None and got != want:
                        raise AssertionError(f"draw {k}: c={c} classified {got}, not {want}")
                for c, n_eq, error in results[f"bifurcation_scan {k}"]:
                    want = _expected_regime(c, band)
                    if want is None:
                        continue
                    if error or n_eq != (4 if want == int(equilibria.Regime.BISTABLE) else 2):
                        raise AssertionError(f"draw {k}: c={c} has {n_eq} equilibria ({error})")

        return [("fold_points matches the closed form", folds),
                ("bifurcation manifest folds match the closed form", cli_folds),
                ("regimes match the closed-form band", regimes)]

    def stamp(self):
        return {"draws": len(self.draws), "fold_tol": self.FOLD_TOL, "scan": list(self.SCAN),
                "classify_per_draw": self.CLASSIFY_PER_DRAW}


def _documented(fn, *args, **kwargs):
    """Call fn, returning the named equilibria errors as results, not failures."""
    try:
        result = fn(*args, **kwargs)
    except (equilibria.NoBistabilityError, equilibria.RegimeError) as exc:
        return type(exc).__name__
    return int(result) if isinstance(result, equilibria.Regime) else result


WORKLOADS = {w.name: w for w in (Trajectory, Replicates, Grid, RegimeMap)}


def build(name: str, seed: int, sizes: Sizes, out_dir: Path) -> Workload:
    return WORKLOADS[name](seed, sizes, out_dir)
