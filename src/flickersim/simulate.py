"""Seeded stochastic trajectory generation for the coupled system.

Innovations come from Philox, a counter-based generator, so replicate k of a
run draws from an independent substream derived from (master seed, k) and
ensembles are reproducible regardless of execution order or worker count.
The state recurrence itself is evaluated with exactly the same floating
point expressions as the scalar step functions in
:mod:`flickersim.dynamics`, batched across replicates; a replay through
``step_coupled`` reproduces any trajectory bit for bit.

Every route runs on one span driver, :func:`stream_spans`: it advances all
(c, replicate) rows of a run together, x, i and the adapted state y of every
adaptive capacity in the same time loop, and yields fixed spans of
STREAM_SPAN steps.  Every c reuses the same replicate substreams, and Philox
draws are counter-based, so a span-by-span draw equals a whole-series draw.
:func:`run_trajectory`, :func:`run_ensemble` and :func:`environment_series`
(flicker) share one collector that keeps the post-burn-in states and checks
every span as it arrives, so an overflowed run fails at its first
non-finite step; the sweep and transform accumulators consume the spans as
they come, in O(rows x STREAM_SPAN) memory whatever the horizon.
:func:`adaptation_paths` is the unchunked reference for the adapted states.

stream_spans has two kernels with the same draws and the same output.  A numpy
step costs about the same ~20-35 us whether it advances 1 row or 64, while a
Python-float step costs about 1 us per row, so runs of fewer than
SCALAR_ROWS rows advance each row in Python floats (:func:`_scalar_spans`)
and larger ones as one numpy block (:func:`_block_spans`).  The scalar
kernel binds each row's parameters to locals and evaluates the expressions
of step_noise, step_environment and step_adaptation inline, with the same
operands in the same association; the block kernel evaluates them too, so
both agree bit for bit with each other and with a step_coupled replay,
overflowed (nan) states and -0.0 included.  The per-row crossover that sets
SCALAR_ROWS is tabulated in the README ("How simulations stream") and
recorded in BENCH_10.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, is_dataclass, replace

import numpy as np

from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import equilibria
from .wellbeing import SPECIALIST, CaseProfile, average_payoff, average_utility

DEFAULT_T_MAX = 50_000
DEFAULT_BURN_IN = 5_000
DEFAULT_SEED = 42

# Steps per span of the streamed engine.  Span arrays hold rows x STREAM_SPAN
# values: 12 800 for the 40-value, 10-replicate fig5 grid.
STREAM_SPAN = 32
# Runs of fewer (c, replicate) rows than this advance each row in Python
# floats; larger ones run as one numpy block.  36 is where the block kernel
# catches up when every row steps its own noise level (one c, many
# replicates); grid rows share their noise and cross later, near 48-64.  The
# crossover table is in BENCH_10.json.
SCALAR_ROWS = 36


class NonFiniteStateError(ValueError):
    """A simulated state overflowed to inf or nan (a huge but finite start)."""


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one stochastic run.

    x0/y0 of None mean "start at the preferred equilibrium for eco": the
    high-biomass stable state when it exists, otherwise the collapsed one
    (and y0 defaults to x0).  Use :func:`resolve_config` to materialize
    them.
    """

    eco: EcoParams = EcoParams()
    noise: NoiseParams = NoiseParams()
    adapt: AdaptationParams = AdaptationParams()
    wellbeing: CaseProfile = SPECIALIST
    t_max: int = DEFAULT_T_MAX
    burn_in: int = DEFAULT_BURN_IN
    x0: float | None = None
    y0: float | None = None
    i0: float = 0.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.burn_in >= 0:
            raise ValueError(f"sim.burn_in must be >= 0, got {self.burn_in}")
        if not self.t_max > self.burn_in:
            raise ValueError(
                f"sim.t_max must exceed burn_in, got t_max={self.t_max} burn_in={self.burn_in}"
            )
        for name in ("x0", "y0"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"sim.{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.i0):
            raise ValueError(f"sim.i0 must be finite, got {self.i0}")
        if not self.seed >= 0:
            raise ValueError(f"sim.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Trajectory:
    """Post-burn-in state series; sample k is time step t0 + k."""

    xs: np.ndarray
    ys: np.ndarray
    noise: np.ndarray
    t0: int
    fingerprint: str

    def __len__(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-replicate trajectory averages and their cross-seed spread."""

    avg_payoffs: np.ndarray
    avg_utilities: np.ndarray
    mean_payoff: float
    mean_utility: float
    stderr_payoff: float
    stderr_utility: float


def default_initial_state(eco: EcoParams) -> float:
    """The preferred starting environment: the highest stable equilibrium."""
    stable = [e.x_star for e in equilibria(eco) if e.stable and e.x_star > 0]
    if not stable:
        raise ValueError(f"no stable positive equilibrium for {eco}; set x0 explicitly")
    return max(stable)


def resolve_config(cfg: SimConfig) -> SimConfig:
    """Fill x0/y0 defaults so every run parameter is explicit."""
    x0 = cfg.x0 if cfg.x0 is not None else default_initial_state(cfg.eco)
    y0 = cfg.y0 if cfg.y0 is not None else x0
    return replace(cfg, x0=x0, y0=y0)


# Config-file sections holding one parameter dataclass each, named after the
# SimConfig field they fill.  The wellbeing section holds the profile's label
# and WellbeingParams fields, and the sim section SIM_FIELDS.
CONFIG_SECTIONS = {"eco": EcoParams, "noise": NoiseParams, "adapt": AdaptationParams}
SIM_FIELDS = tuple(f for f in fields(SimConfig)
                   if f.name not in CONFIG_SECTIONS and f.name != "wellbeing")


def config_to_dict(cfg: SimConfig) -> dict:
    """Nested plain-dict form of a SimConfig (the config file schema)."""
    doc = {name: asdict(getattr(cfg, name)) for name in CONFIG_SECTIONS}
    doc["wellbeing"] = {"label": cfg.wellbeing.label, **asdict(cfg.wellbeing.params)}
    doc["sim"] = {f.name: getattr(cfg, f.name) for f in SIM_FIELDS}
    return doc


def _jsonable(obj):
    """Plain JSON form of a run configuration, as manifests record it.

    A SimConfig, alone or nested in a grid spec, becomes its resolved
    :func:`config_to_dict`; other dataclasses become dicts of their fields.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        if isinstance(obj, SimConfig):
            return config_to_dict(resolve_config(obj))
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def config_fingerprint(obj) -> str:
    """Hash of a fully resolved run configuration (sha256 hex, 16 chars).

    obj is a SimConfig or a grid spec (presets.ScanConfig, SweepConfig,
    TransformConfig).  Hashes :func:`_jsonable`, which is what manifests
    record, so a SimConfig fingerprints alike alone and nested in a grid
    spec.  Changes iff any configuration value changes.
    """
    payload = json.dumps(_jsonable(obj), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def innovation_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replicate of a run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_innovations(noise: NoiseParams, streams, size: int) -> np.ndarray:
    """The next size innovations of every stream, one row per stream."""
    return np.stack([s.normal(noise.mu, noise.beta, size=size) for s in streams])


def _simulate_paths(
    eco: EcoParams, noise: NoiseParams, c: np.ndarray, l: np.ndarray, x: np.ndarray,
    i: np.ndarray, y: np.ndarray, etas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous recurrence over one span; row k of etas drives noise level k.

    c and x are (n_c, n_seeds) arrays of per-row extraction rates and
    states; the noise levels i do not depend on c and stay (n_seeds,); l is
    (n_l, 1, 1) and y the (n_l, n_c, n_seeds) adapted states.  X, I and Y
    hold the states at steps 0..n of the span: n + 1 columns, the last of
    which starts the next span.

    Expressions mirror growth_increment / step_environment / step_noise /
    step_adaptation exactly (np.maximum(0.0, v) clamps as step_environment
    does, nan included) so that scalar replay is bit-identical.
    """
    n = etas.shape[1]
    r, K, h = eco.r, eco.K, eco.h
    X = np.empty(x.shape + (n + 1,))
    I = np.empty(i.shape + (n + 1,))
    Y = np.empty(y.shape + (n + 1,))
    phi = 1.0 - 1.0 / noise.T
    for t in range(n):
        X[..., t] = x
        I[:, t] = i
        if l.size:  # environment_series asks for no capacity: skip empty y steps
            Y[..., t] = y
            y = l * (x - y) + y
        x = np.maximum(0.0, (r * x * (1.0 - x / K) - c * x * x / (x * x + h * h)) + (1.0 + i) * x)
        i = phi * i + etas[:, t]
    X[..., n] = x
    I[:, n] = i
    Y[..., n] = y
    return X, I, Y


def stream_spans(configs: list[SimConfig], replicates, l_values):
    """Run the given replicates of every config together, span by span.

    The configs are resolved and differ only in eco.c, x0 and y0, as
    :func:`grid_configs` returns them.  They share the replicate substreams,
    so one set of innovation rows drives every c, and every adaptive
    capacity in l_values follows every (c, replicate) row from its config's
    y0.  Yields (skip, X, I, Y) for each span of n <= STREAM_SPAN steps: the
    environment states X, shape (len(configs), len(replicates), n), the noise
    levels I, shape (len(replicates), n), and the adapted states Y, shape
    (len(l_values),) + X.shape, at the span's steps.  The first skip columns
    are burn-in (skip may exceed n).

    Fewer than SCALAR_ROWS rows run on the Python-float kernel, the rest on
    the numpy block kernel; both yield the same spans bit for bit.
    """
    adapts = [AdaptationParams(float(l)) for l in l_values]  # rejects l outside [0, 1]
    rows = len(configs) * len(replicates)
    kernel = _scalar_spans if rows < SCALAR_ROWS else _block_spans
    return kernel(configs, replicates, adapts)


def _block_spans(configs: list[SimConfig], replicates, adapts: list[AdaptationParams]):
    """:func:`stream_spans` with every row advanced as one numpy block."""
    first = configs[0]
    n_rows = len(replicates)
    # c at the full state shape: an (n_c, 1) column broadcasts ~40% slower
    c = np.repeat([[cfg.eco.c] for cfg in configs], n_rows, axis=1)
    x = np.repeat([[cfg.x0] for cfg in configs], n_rows, axis=1)
    i = np.full(n_rows, first.i0, dtype=float)
    l = np.reshape([adapt.l for adapt in adapts], (-1, 1, 1))
    y = np.broadcast_to(np.repeat([[cfg.y0] for cfg in configs], n_rows, axis=1),
                        (len(adapts),) + x.shape)
    streams = [innovation_stream(first.seed, k) for k in replicates]
    for t in range(0, first.t_max, STREAM_SPAN):
        etas = _draw_innovations(first.noise, streams, min(STREAM_SPAN, first.t_max - t))
        X, I, Y = _simulate_paths(first.eco, first.noise, c, l, x, i, y, etas)
        x, i, y = X[..., -1], I[:, -1], Y[..., -1]
        yield max(first.burn_in - t, 0), X[..., :-1], I[:, :-1], Y[..., :-1]


def _scalar_spans(configs: list[SimConfig], replicates, adapts: list[AdaptationParams]):
    """:func:`stream_spans` with each row advanced in Python floats.

    Draws the same innovation rows as the block kernel.  Each row's
    parameters are bound to locals once per run, and every step evaluates
    step_noise's, step_environment's and step_adaptation's expressions
    inline, with the same operands in the same association, so the spans
    agree bit for bit with the block kernel and with a step_coupled replay.
    """
    first = configs[0]
    phi = 1.0 - 1.0 / first.noise.T
    shape = (len(configs), len(replicates))
    # the (c, replicate) rows in C order with their growth and harvest
    # constants, and the states at the first step of the next span: per
    # replicate, per row and per (l, row)
    rows = [(cfg.eco.r, cfg.eco.K, cfg.eco.c, cfg.eco.h * cfg.eco.h, k)
            for cfg in configs for k in range(len(replicates))]
    ls = [adapt.l for adapt in adapts]
    i_next = [float(first.i0)] * len(replicates)
    x_next = [float(cfg.x0) for cfg in configs for _ in replicates]
    y_next = [[float(cfg.y0) for cfg in configs for _ in replicates] for _ in adapts]
    streams = [innovation_stream(first.seed, k) for k in replicates]
    for t in range(0, first.t_max, STREAM_SPAN):
        n = min(STREAM_SPAN, first.t_max - t)
        etas = _draw_innovations(first.noise, streams, n)
        I = []
        for k, row in enumerate(etas.tolist()):
            i, Ik = i_next[k], []
            for eta in row:
                Ik.append(i)
                i = phi * i + eta
            i_next[k] = i
            I.append(Ik)
        X, Y = [], [[] for _ in adapts]
        for j, (r, K, c, hh, k) in enumerate(rows):
            x, Xr = x_next[j], []
            for i in I[k]:
                Xr.append(x)
                v = r * x * (1.0 - x / K) - c * x * x / (x * x + hh) + (1.0 + i) * x
                x = 0.0 if v < 0.0 else v
            x_next[j] = x
            X.append(Xr)
            # y_t reads x_t, so the span's x states drive every capacity
            for l, ys, Yl in zip(ls, y_next, Y):
                y, Yr = ys[j], []
                for xt in Xr:
                    Yr.append(y)
                    y = l * (xt - y) + y
                ys[j] = y
                Yl.append(Yr)
        yield (max(first.burn_in - t, 0), np.array(X).reshape(shape + (n,)), np.array(I),
               np.array(Y).reshape((len(adapts),) + shape + (n,)))


def _check_finite(configs: list[SimConfig], X: np.ndarray, t0: int) -> None:
    """NonFiniteStateError naming the earliest non-finite state in X.

    X has shape (len(configs), rows, n) and holds steps t0 onward.  An
    overflowed state stays nan, so a finite last column clears the span.
    """
    if not all(map(math.isfinite, X[..., -1].ravel().tolist())):
        bad = ~np.isfinite(X)
        t = int(bad.any(axis=(0, 1)).argmax())
        j, k = (int(index[0]) for index in np.nonzero(bad[..., t]))
        cfg = configs[j]
        raise NonFiniteStateError(
            f"the environment state overflowed to {X[j, k, t]} at step {t0 + t} "
            f"(c={cfg.eco.c}, x0={cfg.x0}, i0={cfg.i0})"
        )


def _kept_series(configs: list[SimConfig], replicates, l_values=(), noise: bool = False):
    """The post-burn-in X, I and Y of :func:`stream_spans`, joined.

    Shapes are those of the spans over the t_max - burn_in kept steps; I
    is kept only with noise, and is otherwise empty.  The arrays are filled
    in place, since joining the spans at the end would hold the series
    twice.  Each span is checked as it arrives, burn-in included, so an
    overflowed run raises NonFiniteStateError at its first non-finite step.
    """
    first = configs[0]
    n_kept = first.t_max - first.burn_in
    X = np.empty((len(configs), len(replicates), n_kept))
    I = np.empty((len(replicates), n_kept if noise else 0))
    Y = np.empty((len(l_values),) + X.shape)
    t = filled = 0
    for skip, Xs, Is, Ys in stream_spans(configs, replicates, l_values):
        _check_finite(configs, Xs, t)
        t += Xs.shape[-1]
        kept = slice(filled, filled + max(Xs.shape[-1] - skip, 0))
        X[..., kept], Y[..., kept] = Xs[..., skip:], Ys[..., skip:]
        if noise:
            I[:, kept] = Is[:, skip:]
        filled = kept.stop
    return X, I, Y


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.  Raises NonFiniteStateError as
    soon as the state overflows (a huge finite x0 or i0), so no nan reaches
    a results file.
    """
    rcfg = resolve_config(cfg)
    X, I, Y = _kept_series([rcfg], [replicate], [rcfg.adapt.l], noise=True)
    return Trajectory(
        xs=X[0, 0],
        ys=Y[0, 0, 0],
        noise=I[0],
        t0=rcfg.burn_in,
        fingerprint=config_fingerprint(rcfg),
    )


def stderr_of_mean(values: np.ndarray) -> float:
    """Cross-replicate standard error; 0 for a single replicate."""
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_ensemble(cfg: SimConfig, n_seeds: int) -> EnsembleSummary:
    """Trajectory averages over n_seeds independent replicates.

    Replicate k draws its innovations from the (seed, k) substream, so the
    summary does not depend on evaluation order; replicate 0 reproduces
    run_trajectory(cfg) exactly.  Raises NonFiniteStateError as
    run_trajectory does.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rcfg = resolve_config(cfg)
    X, _, Y = _kept_series([rcfg], range(n_seeds), [rcfg.adapt.l])
    w = rcfg.wellbeing.params
    pays = np.array([average_payoff(xs, w) for xs in X[0]])
    utils = np.array([average_utility(xs, ys, w) for xs, ys in zip(X[0], Y[0, 0])])
    return EnsembleSummary(
        avg_payoffs=pays,
        avg_utilities=utils,
        mean_payoff=float(pays.mean()),
        mean_utility=float(utils.mean()),
        stderr_payoff=stderr_of_mean(pays),
        stderr_utility=stderr_of_mean(utils),
    )


def adaptation_paths(X: np.ndarray, y0: float, l: float) -> np.ndarray:
    """Adapted-state series for each row of X under adaptive capacity l.

    Iterates step_adaptation's y_{t+1} = l*(x_t - y_t) + y_t over the whole
    series at once, vectorised across rows, so every row equals a scalar
    replay bit for bit.  The unchunked reference for the adapted states
    that stream_spans carries span by span.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    l = AdaptationParams(float(l)).l  # rejects l outside [0, 1]
    Y = np.empty_like(X)
    y = np.full(X.shape[:-1], float(y0))
    for t in range(X.shape[-1]):
        Y[..., t] = y
        y = l * (X[..., t] - y) + y
    return Y


def grid_configs(base: SimConfig, c_values) -> list[SimConfig | Exception]:
    """The resolved configuration of base at each extraction rate.

    c is stored as a Python float whatever its input type, so the scalar
    kernel steps in float arithmetic.  A rate that cannot be resolved (a
    negative c, or no stable state to start from) yields its exception in
    place of a configuration.
    """
    configs: list[SimConfig | Exception] = []
    for c in c_values:
        try:
            configs.append(resolve_config(replace(base, eco=replace(base.eco, c=float(c)))))
        except Exception as exc:  # recorded per cell, not fatal
            configs.append(exc)
    return configs


def environment_series(configs: list[SimConfig], n_seeds: int) -> np.ndarray:
    """Post-burn-in environment states, shape (len(configs), n_seeds, t_max - burn_in).

    Row (j, k) equals ``run_trajectory(configs[j], k).xs`` bit for bit.
    Raises NonFiniteStateError as soon as a state overflows.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    return _kept_series(configs, range(n_seeds))[0]
