"""Seeded stochastic trajectory generation for the coupled system.

Innovations come from Philox, a counter-based generator, so replicate k of a
run draws from an independent substream derived from (master seed, k) and
ensembles are reproducible regardless of execution order or worker count.
The state recurrence itself is evaluated with exactly the same floating
point expressions as the scalar step functions in
:mod:`flickersim.dynamics`, batched across replicates; a replay through
``step_coupled`` reproduces any trajectory bit for bit.

Every route runs on one span driver, :func:`stream_spans`: it draws each
span of STREAM_SPAN steps from the replicate substreams, and its kernel
advances all (c, replicate) rows of a run together, x, i and the adapted
state y of every adaptive capacity in one time loop.  Every c reuses the
same substreams; Philox is counter-based, so span-by-span draws equal a
whole-series draw.  One loop, :func:`_consume`, checks each span for the
routes that fail at the first non-finite step, drops the burn-in and feeds
the rest to a consumer's add(X, I, Y): :class:`_KeptSeries` keeps it for
run_trajectory; in O(rows x STREAM_SPAN) memory, ``analytics._Dwells``
counts basin dwells for flicker and :class:`_CellSums` sums each row for
run_ensemble (one cell) and the sweep and transform grids.

stream_spans has two kernels with the same draws and the same output.  A numpy
step costs about the same ~20-35 us whether it advances 1 row or 64, while a
Python-float step costs about 1 us per row, so runs of fewer than
SCALAR_ROWS rows advance each row in Python floats (:func:`_scalar_spans`)
and larger ones as one numpy block (:func:`_block_spans`).  The scalar
kernel binds the run's one model to locals and evaluates the expressions
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
from operator import attrgetter

import numpy as np

from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import equilibria
from .wellbeing import SPECIALIST, CaseProfile, payoff, utility

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
# Most bytes that _KeptSeries may allocate for the full post-burn-in X, I and
# Y series: 1 GiB holds ~44.7 million steps of one run_trajectory.  Above
# it, a run fails with a named ValueError instead of an unnamed MemoryError.
KEPT_SERIES_MAX_BYTES = 1 << 30


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
    return np.array([s.normal(noise.mu, noise.beta, size=size) for s in streams])


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
    phi = noise.memory
    for t in range(n):
        X[..., t] = x
        I[:, t] = i
        if l.size:  # flicker asks for no capacity: skip empty y steps
            Y[..., t] = y
            y = l * (x - y) + y
        x = np.maximum(0.0, (r * x * (1.0 - x / K) - c * x * x / (x * x + h * h)) + (1.0 + i) * x)
        i = phi * i + etas[:, t]
    X[..., n] = x
    I[:, n] = i
    Y[..., n] = y
    return X, I, Y


# The fields that the rows of one stream_spans run share: all but eco.c, x0, y0.
_SHARED_FIELDS = tuple([f"eco.{f.name}" for f in fields(EcoParams) if f.name != "c"]
                       + [f.name for f in fields(SimConfig) if f.name not in ("eco", "x0", "y0")])
_shared = attrgetter(*_SHARED_FIELDS)


def stream_spans(configs: list[SimConfig], replicates, l_values):
    """Run the given replicates of every config together, span by span.

    The configs are resolved and step one model: they differ only in eco.c,
    x0 and y0, as :func:`grid_configs` returns them, and a ValueError names
    any other field that differs before anything is drawn.  They share the
    replicate substreams, so one set of innovation rows drives every c, and
    every adaptive capacity in l_values follows every (c, replicate) row
    from its config's y0.  Yields (X, I, Y) for each span of n <= STREAM_SPAN
    steps up to t_max, burn-in included: the environment states X, shape
    (len(configs), len(replicates), n), the noise levels I, shape
    (len(replicates), n), and the adapted states Y, (len(l_values),) + X.shape.

    The driver draws each span's innovation block; its kernel only steps, in
    Python floats below SCALAR_ROWS rows, else as one numpy block, bit-equal.
    """
    ls = [AdaptationParams(float(l)).l for l in l_values]  # rejects l outside [0, 1]
    model = configs[0]
    shared = _shared(model)
    for j, cfg in enumerate(configs):
        if (values := _shared(cfg)) != shared:
            name, a, b = next(d for d in zip(_SHARED_FIELDS, shared, values) if d[1] != d[2])
            raise ValueError(f"the configs of one run may differ only in eco.c, x0 and y0, "
                             f"but {name} is {a!r} in config 0 and {b!r} in config {j}")
    starts = [(cfg.eco.c, cfg.x0, cfg.y0) for cfg in configs]
    streams = [innovation_stream(model.seed, k) for k in replicates]
    blocks = (_draw_innovations(model.noise, streams, min(STREAM_SPAN, model.t_max - t))
              for t in range(0, model.t_max, STREAM_SPAN))
    kernel = _scalar_spans if len(configs) * len(streams) < SCALAR_ROWS else _block_spans
    return kernel(model, starts, len(streams), ls, blocks)


def _block_spans(model: SimConfig, starts, n_rows: int, ls: list[float], blocks):
    """:func:`stream_spans` with every row advanced as one numpy block."""
    # c at the full state shape: an (n_c, 1) column broadcasts ~40% slower
    c, x, y = (np.repeat(np.reshape(v, (-1, 1)), n_rows, axis=1) for v in zip(*starts))
    i = np.full(n_rows, model.i0, dtype=float)
    l = np.reshape(ls, (-1, 1, 1))
    y = np.broadcast_to(y, (len(ls),) + x.shape)
    for etas in blocks:
        X, I, Y = _simulate_paths(model.eco, model.noise, c, l, x, i, y, etas)
        x, i, y = X[..., -1], I[:, -1], Y[..., -1]
        yield X[..., :-1], I[:, :-1], Y[..., :-1]


def _scalar_spans(model: SimConfig, starts, n_rows: int, ls: list[float], blocks):
    """:func:`stream_spans` with each row advanced in Python floats.

    The model's constants are bound to locals once per run, and every step
    evaluates step_noise's, step_environment's and step_adaptation's
    expressions inline, with the same operands in the same association, so
    the spans agree bit for bit with the block kernel and with a
    step_coupled replay.
    """
    r, K, hh, phi = model.eco.r, model.eco.K, model.eco.h * model.eco.h, model.noise.memory
    shape = (len(starts), n_rows)
    # the (c, replicate) rows in C order, and the states at the first step of
    # the next span: per replicate, per row and per (l, row)
    rows = [(c, k) for c, _, _ in starts for k in range(n_rows)]
    i_next = [float(model.i0)] * n_rows
    x_next = [float(x0) for _, x0, _ in starts for _ in range(n_rows)]
    y_next = [[float(y0) for _, _, y0 in starts for _ in range(n_rows)] for _ in ls]
    for etas in blocks:
        n = etas.shape[1]
        I = []
        for k, row in enumerate(etas.tolist()):
            i, Ik = i_next[k], []
            for eta in row:
                Ik.append(i)
                i = phi * i + eta
            i_next[k] = i
            I.append(Ik)
        X, Y = [], [[] for _ in ls]
        for j, (c, k) in enumerate(rows):
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
        yield (np.array(X).reshape(shape + (n,)), np.array(I),
               np.array(Y).reshape((len(ls),) + shape + (n,)))


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


class _KeptSeries:
    """Span consumer that joins the post-burn-in X, I and Y of the spans.

    Shapes are those of the spans over the t_max - burn_in kept steps, filled
    in place: joining the spans at the end would hold the series twice.
    Raises ValueError when they would take more than KEPT_SERIES_MAX_BYTES.
    """

    def __init__(self, configs: list[SimConfig], n_rows: int, n_l: int) -> None:
        n_kept = configs[0].t_max - configs[0].burn_in
        # float64 X and every Y over (c, row), and I over rows
        n_bytes = 8 * n_rows * n_kept * (len(configs) * (1 + n_l) + 1)
        if n_bytes > KEPT_SERIES_MAX_BYTES:
            raise ValueError(
                f"keeping sim.t_max - sim.burn_in = {n_kept} steps needs {n_bytes} bytes, "
                f"above KEPT_SERIES_MAX_BYTES = {KEPT_SERIES_MAX_BYTES}; "
                "lower sim.t_max or raise sim.burn_in")
        self.X = np.empty((len(configs), n_rows, n_kept))
        self.I = np.empty((n_rows, n_kept))
        self.Y = np.empty((n_l,) + self.X.shape)
        self.filled = 0

    def add(self, X: np.ndarray, I: np.ndarray, Y: np.ndarray) -> None:
        kept = slice(self.filled, self.filled + X.shape[-1])
        self.X[..., kept], self.I[:, kept], self.Y[..., kept] = X, I, Y
        self.filled = kept.stop


class _CellSums:
    """Span consumer summing each row over the n_kept steps it is fed.

    Rows are (c, replicate), shape (n_c, n_seeds).  Sums payoff per profile
    and utility per (l, profile), reading each capacity's adapted states
    from the span's Y.  With environment, which transform_comparison reads,
    x is summed too and each c's x series hashed span by span.
    """

    def __init__(self, configs: list[SimConfig], n_seeds: int, n_l: int, profiles,
                 environment: bool) -> None:
        shape = (len(configs), n_seeds)
        self.n_kept = 0
        self.profiles = [p.params for p in profiles]
        self.x = np.zeros(shape) if environment else None
        self.payoff = [np.zeros(shape) for _ in profiles]
        self.utility = [[np.zeros(shape) for _ in profiles] for _ in range(n_l)]
        self.digests = [hashlib.sha256() for _ in configs] if environment else []

    def add(self, X: np.ndarray, I: np.ndarray, Y: np.ndarray) -> None:
        # one l at a time: utility broadcast over the stacked Y is ~2.5x slower
        for Yl, sums in zip(Y, self.utility):
            for total, w in zip(sums, self.profiles):
                total += utility(X, Yl, w).sum(axis=-1)
        if self.x is not None:
            self.x += X.sum(axis=-1)
        for total, w in zip(self.payoff, self.profiles):
            total += payoff(X, w).sum(axis=-1)
        for digest, rows in zip(self.digests, X):
            digest.update(np.ascontiguousarray(rows).tobytes())
        self.n_kept += X.shape[-1]

    def averages(self, totals: np.ndarray) -> tuple[np.ndarray, float, float]:
        """One cell's per-replicate time averages from their sums, their mean and its stderr."""
        avgs = totals / self.n_kept
        return avgs, float(avgs.mean()), stderr_of_mean(avgs)


def _consume(configs: list[SimConfig], replicates, l_values, sink, check: bool):
    """Feed the post-burn-in steps of each span to sink.add(X, I, Y); returns sink.

    With check, each span is checked as it arrives, burn-in included, so an
    overflowed run raises NonFiniteStateError at its first non-finite step;
    without, non-finite states reach the sink, as grid cells flag them.
    """
    t, burn_in = 0, configs[0].burn_in
    for X, I, Y in stream_spans(configs, replicates, l_values):
        if check:
            _check_finite(configs, X, t)
        skip, t = max(burn_in - t, 0), t + X.shape[-1]
        if t > burn_in:
            sink.add(X[..., skip:], I[..., skip:], Y[..., skip:])
    return sink


def _stream_cells(base: SimConfig, c_values, n_seeds: int, l_values, profiles,
                  environment: bool = False, check: bool = False):
    """Resolved config (or error) per c, and the _CellSums of the resolved ones.

    check is :func:`_consume`'s: on for run_ensemble, off for the grids.
    """
    configs = grid_configs(base, c_values)
    ok = [cfg for cfg in configs if isinstance(cfg, SimConfig)]
    if not ok:
        return configs, None
    sums = _CellSums(ok, n_seeds, len(l_values), profiles, environment)
    return configs, _consume(ok, range(n_seeds), l_values, sums, check)


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.  Raises NonFiniteStateError as
    soon as the state overflows (a huge finite x0 or i0), so no nan reaches
    a results file.
    """
    rcfg = resolve_config(cfg)
    kept = _consume([rcfg], [replicate], [rcfg.adapt.l], _KeptSeries([rcfg], 1, 1), check=True)
    return Trajectory(
        xs=kept.X[0, 0],
        ys=kept.Y[0, 0, 0],
        noise=kept.I[0],
        t0=rcfg.burn_in,
    )


def stderr_of_mean(values: np.ndarray) -> float:
    """Cross-replicate standard error; 0 for a single replicate."""
    values = np.asarray(values, dtype=float)
    if values.size <= 1:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_ensemble(cfg: SimConfig, n_seeds: int) -> EnsembleSummary:
    """Trajectory averages over n_seeds independent replicates.

    One cell of the sweep engine: the result equals the
    ``utility_sweep(cfg, [cfg.eco.c], [cfg.adapt.l], n_seeds)`` cell bit for
    bit, each average a sum of per-span sums, in memory that does not grow
    with t_max.  Replicate k draws its innovations from the (seed, k)
    substream, so the summary does not depend on evaluation order, and
    replicate 0 runs run_trajectory(cfg)'s states.  Raises
    NonFiniteStateError as run_trajectory does.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    configs, sums = _stream_cells(cfg, [cfg.eco.c], n_seeds, [cfg.adapt.l], [cfg.wellbeing],
                                  check=True)
    if sums is None:
        raise configs[0]
    pays, mean_payoff, stderr_payoff = sums.averages(sums.payoff[0][0])
    utils, mean_utility, stderr_utility = sums.averages(sums.utility[0][0][0])
    return EnsembleSummary(pays, utils, mean_payoff, mean_utility, stderr_payoff, stderr_utility)


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

