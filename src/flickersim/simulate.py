"""Seeded stochastic trajectory generation for the coupled system.

Innovations come from Philox, a counter-based generator, so replicate k of a
run draws from an independent substream derived from (master seed, k) and
ensembles are reproducible regardless of execution order or worker count.
The state recurrence itself is evaluated with exactly the same floating
point expressions as the scalar step functions in
:mod:`flickersim.dynamics`, batched across replicates; a replay through
``step_coupled`` reproduces any trajectory bit for bit.

Given one environment path, adaptation paths for many adaptive capacities
can be recovered cheaply because adaptation never feeds back on x: one
:class:`AdaptationFilter` advances the adapted states of every capacity
together, with step_adaptation's expression, so these too replay bit for
bit; see :func:`adaptation_paths`.

Every route runs on one span driver, :func:`stream_spans`: it advances all
(c, replicate) rows of a run together and yields fixed spans of STREAM_SPAN
steps.  Every c reuses the same replicate substreams, and Philox draws are
counter-based, so a span-by-span draw equals a whole-series draw.
:func:`run_trajectory` and :func:`run_ensemble` join the spans into full
series; :func:`environment_series` (flicker) keeps the post-burn-in x; the
sweep and transform accumulators consume the spans as they come, in
O(rows x STREAM_SPAN) memory whatever the horizon.

stream_spans has two kernels with the same draws and the same output.  A numpy
step costs about the same ~20 us whether it advances 1 row or 100, while a
Python-float step through the dynamics step functions costs about 1 us per
row, so runs of fewer than SCALAR_ROWS rows advance each row in Python
floats (:func:`_scalar_spans`) and larger ones as one numpy block
(:func:`_block_spans`).  The scalar kernel calls step_environment and
step_noise, so it is the replay reference itself; the block kernel evaluates
the same expressions, so both agree bit for bit, overflowed (nan) states
included.  The per-row crossover that sets SCALAR_ROWS is tabulated in the
README ("How simulations stream") and recorded in BENCH_7.json.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dynamics import AdaptationParams, EcoParams, NoiseParams, step_environment, step_noise
from .equilibria import equilibria
from .wellbeing import SPECIALIST, CaseProfile, average_payoff, average_utility

DEFAULT_T_MAX = 50_000
DEFAULT_BURN_IN = 5_000
DEFAULT_SEED = 42

# Steps per span of the streamed engine.  Span arrays hold rows x STREAM_SPAN
# values: 12 800 for the 40-value, 10-replicate fig5 grid.
STREAM_SPAN = 32
# Runs of fewer (c, replicate) rows than this advance each row in Python
# floats; larger ones run as one numpy block.  24 is where the block kernel
# catches up when every row steps its own noise level (one c, many
# replicates); grid rows share their noise and cross later, near 40.  The
# crossover table is in BENCH_7.json.
SCALAR_ROWS = 24


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


def config_to_dict(cfg: SimConfig) -> dict:
    """Nested plain-dict form of a SimConfig (the config file schema)."""
    return {
        "eco": asdict(cfg.eco),
        "noise": asdict(cfg.noise),
        "adapt": asdict(cfg.adapt),
        "wellbeing": {
            "label": cfg.wellbeing.label,
            "m": cfg.wellbeing.params.m,
            "n": cfg.wellbeing.params.n,
            "a": cfg.wellbeing.params.a,
        },
        "sim": {
            "t_max": cfg.t_max,
            "burn_in": cfg.burn_in,
            "x0": cfg.x0,
            "y0": cfg.y0,
            "i0": cfg.i0,
            "seed": cfg.seed,
        },
    }


def config_fingerprint(cfg: SimConfig) -> str:
    """Hash of the fully resolved configuration (sha256 hex, 16 chars).

    Hashes the config file schema, :func:`config_to_dict`, which is also
    what manifests record, alone or nested in a grid spec.  Changes iff any
    configuration value changes.
    """
    payload = json.dumps(config_to_dict(resolve_config(cfg)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def innovation_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replicate of a run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_innovations(noise: NoiseParams, streams, size: int) -> np.ndarray:
    """The next size innovations of every stream, one row per stream."""
    return np.stack([s.normal(noise.mu, noise.beta, size=size) for s in streams])


def _simulate_paths(
    eco: EcoParams, noise: NoiseParams, c: np.ndarray, x: np.ndarray, i: np.ndarray,
    etas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous recurrence over one span; row k of etas drives noise level k.

    c and x are (n_c, n_seeds) arrays of per-row extraction rates and
    states; the noise levels i do not depend on c and stay (n_seeds,).  X
    and I hold the states at steps 0..n of the span: n + 1 columns, the last
    of which starts the next span.

    Expressions mirror growth_increment / step_environment / step_noise
    exactly (np.maximum(0.0, v) clamps as step_environment does, nan
    included) so that scalar replay is bit-identical.
    """
    n = etas.shape[1]
    r, K, h = eco.r, eco.K, eco.h
    X = np.empty(x.shape + (n + 1,))
    I = np.empty(i.shape + (n + 1,))
    phi = 1.0 - 1.0 / noise.T
    for t in range(n):
        X[..., t] = x
        I[:, t] = i
        x = np.maximum(0.0, (r * x * (1.0 - x / K) - c * x * x / (x * x + h * h)) + (1.0 + i) * x)
        i = phi * i + etas[:, t]
    X[..., n] = x
    I[:, n] = i
    return X, I


def stream_spans(configs: list[SimConfig], replicates):
    """Run the given replicates of every config together, span by span.

    The configs are resolved and differ only in eco.c, x0 and y0, as
    :func:`grid_configs` returns them.  They share the replicate substreams,
    so one set of innovation rows drives every c.  Yields (skip, X, I) for
    each span of n <= STREAM_SPAN steps: the environment states X, shape
    (len(configs), len(replicates), n), and the noise levels I, shape
    (len(replicates), n), at the span's steps.  The first skip columns are
    burn-in (skip may exceed n).

    Fewer than SCALAR_ROWS rows run on the Python-float kernel, the rest on
    the numpy block kernel; both yield the same spans bit for bit.
    """
    rows = len(configs) * len(replicates)
    kernel = _scalar_spans if rows < SCALAR_ROWS else _block_spans
    return kernel(configs, replicates)


def _block_spans(configs: list[SimConfig], replicates):
    """:func:`stream_spans` with every row advanced as one numpy block."""
    first = configs[0]
    n_rows = len(replicates)
    # c at the full state shape: an (n_c, 1) column broadcasts ~40% slower
    c = np.repeat([[cfg.eco.c] for cfg in configs], n_rows, axis=1)
    x = np.repeat([[cfg.x0] for cfg in configs], n_rows, axis=1)
    i = np.full(n_rows, first.i0, dtype=float)
    streams = [innovation_stream(first.seed, k) for k in replicates]
    for t in range(0, first.t_max, STREAM_SPAN):
        etas = _draw_innovations(first.noise, streams, min(STREAM_SPAN, first.t_max - t))
        X, I = _simulate_paths(first.eco, first.noise, c, x, i, etas)
        x, i = X[..., -1], I[:, -1]
        yield max(first.burn_in - t, 0), X[..., :-1], I[:, :-1]


def _scalar_spans(configs: list[SimConfig], replicates):
    """:func:`stream_spans` with each row advanced in Python floats.

    Draws the same innovation rows as the block kernel and steps every row
    through step_noise and step_environment, whose float64 arithmetic the
    block kernel mirrors, so the spans agree bit for bit.
    """
    first = configs[0]
    noise = first.noise
    ecos = [cfg.eco for cfg in configs]
    # states at the first step of the next span, per replicate and per (c, replicate)
    i_next = [float(first.i0)] * len(replicates)
    x_next = [[float(cfg.x0)] * len(replicates) for cfg in configs]
    streams = [innovation_stream(first.seed, k) for k in replicates]
    for t in range(0, first.t_max, STREAM_SPAN):
        etas = _draw_innovations(noise, streams, min(STREAM_SPAN, first.t_max - t))
        I = []
        for k, row in enumerate(etas.tolist()):
            i, Ik = i_next[k], []
            for eta in row:
                Ik.append(i)
                i = step_noise(i, noise, eta)
            i_next[k] = i
            I.append(Ik)
        X = []
        for eco, xs in zip(ecos, x_next):
            Xc = []
            for k, Ik in enumerate(I):
                x, Xk = xs[k], []
                for i in Ik:
                    Xk.append(x)
                    x = step_environment(x, i, eco)
                xs[k] = x
                Xc.append(Xk)
            X.append(Xc)
        yield max(first.burn_in - t, 0), np.array(X), np.array(I)


def _adapted_states(X: np.ndarray, y0: float, l: float) -> np.ndarray:
    """Adapted state at every step of each row of X, starting from y0.

    Iterates step_adaptation's l*(x - y) + y in Python floats, which round
    exactly as the float64 expression does, so scalar replay is bit-identical.
    Rows are converted STREAM_SPAN steps at a time to keep the float lists short.
    """
    Y = np.empty_like(X)
    for row, xs in zip(Y, X):
        y = y0
        for t in range(0, xs.size, STREAM_SPAN):
            ys = []
            for x in xs[t:t + STREAM_SPAN].tolist():
                ys.append(y)
                y = l * (x - y) + y
            row[t:t + STREAM_SPAN] = ys
    return Y


def _check_finite(configs: list[SimConfig], X: np.ndarray, t0: int = 0) -> None:
    """NonFiniteStateError unless every state in X is finite.

    X has shape (len(configs), rows, n) and holds steps t0 onward.
    """
    bad = ~np.isfinite(X)
    if bad.any():
        j, k, t = (int(index[0]) for index in np.nonzero(bad))
        cfg = configs[j]
        raise NonFiniteStateError(
            f"the environment state overflowed to {X[j, k, t]} at step {t0 + t} "
            f"(c={cfg.eco.c}, x0={cfg.x0}, i0={cfg.i0})"
        )


def _full_series(rcfg: SimConfig, replicates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, noise level and adapted state of each replicate at every step, burn-in
    included: three (len(replicates), t_max) arrays.  Raises
    NonFiniteStateError if a state overflows."""
    X, I = np.empty((2, len(replicates), rcfg.t_max))
    filled = 0
    for _, Xs, Is in stream_spans([rcfg], replicates):
        n = Is.shape[-1]
        X[:, filled:filled + n], I[:, filled:filled + n] = Xs[0], Is
        filled += n
    _check_finite([rcfg], X[None])
    return X, I, _adapted_states(X, rcfg.y0, rcfg.adapt.l)


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.  Raises NonFiniteStateError if the
    state overflows (a huge finite x0 or i0), so no nan reaches a results file.
    """
    rcfg = resolve_config(cfg)
    X, I, Y = _full_series(rcfg, [replicate])
    keep = slice(rcfg.burn_in, rcfg.t_max)
    return Trajectory(
        xs=X[0, keep].copy(),
        ys=Y[0, keep].copy(),
        noise=I[0, keep].copy(),
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
    X, _, Y = _full_series(rcfg, range(n_seeds))
    keep = slice(rcfg.burn_in, rcfg.t_max)
    w = rcfg.wellbeing.params
    pays = np.array([average_payoff(X[j, keep], w) for j in range(n_seeds)])
    utils = np.array([average_utility(X[j, keep], Y[j, keep], w) for j in range(n_seeds)])
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

    Iterates step_adaptation's y_{t+1} = l*(x_t - y_t) + y_t, vectorised
    across rows, so every row equals a scalar replay bit for bit.  Used to
    compare many l values against one shared environment path.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return AdaptationFilter(np.full(X.shape[:-1], float(y0)), l)(X)


class AdaptationFilter:
    """:func:`adaptation_paths` continued span by span.

    l is one adaptive capacity or an array of them that broadcasts against
    y0: with y0 of shape (n_c, n_seeds) and l of shape (n_l, 1, 1), one
    filter advances every capacity together.  Each call takes the
    environment states of the next span of steps, shape y0.shape + (n,), and
    returns the adapted states at the same steps, shape
    broadcast(l, y0).shape + (n,).  The adapted state is carried from call
    to call, so the spans joined equal adaptation_paths of the joined series
    bit for bit, and a stacked filter equals one filter per l.
    """

    def __init__(self, y0, l) -> None:
        self.l = np.asarray(l, dtype=float)
        if not np.all((0.0 <= self.l) & (self.l <= 1.0)):
            raise ValueError(f"l must be within [0, 1], got {l}")
        # adapted state at the first step of the next span
        y0 = np.asarray(y0, dtype=float)
        self.y = np.broadcast_to(y0, np.broadcast_shapes(self.l.shape, y0.shape))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        l, y = self.l, self.y
        Y = np.empty(y.shape + X.shape[-1:])
        for t in range(X.shape[-1]):
            Y[..., t] = y
            y = l * (X[..., t] - y) + y
        self.y = y
        return Y


def grid_configs(base: SimConfig, c_values) -> list[SimConfig | Exception]:
    """The resolved configuration of base at each extraction rate.

    A rate that cannot be resolved (a negative c, or no stable state to
    start from) yields its exception in place of a configuration.
    """
    configs: list[SimConfig | Exception] = []
    for c in c_values:
        try:
            configs.append(resolve_config(replace(base, eco=replace(base.eco, c=c))))
        except Exception as exc:  # recorded per cell, not fatal
            configs.append(exc)
    return configs


def environment_series(configs: list[SimConfig], n_seeds: int) -> np.ndarray:
    """Post-burn-in environment states, shape (len(configs), n_seeds, t_max - burn_in).

    Row (j, k) equals ``run_trajectory(configs[j], k).xs`` bit for bit.
    Raises NonFiniteStateError if a kept state overflowed.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    first = configs[0]
    # filled in place: joining the spans at the end would hold the series twice
    xs = np.empty((len(configs), n_seeds, first.t_max - first.burn_in))
    filled = 0
    for skip, X, _ in stream_spans(configs, range(n_seeds)):
        kept = X[..., skip:]
        xs[..., filled:filled + kept.shape[-1]] = kept
        filled += kept.shape[-1]
    _check_finite(configs, xs, first.burn_in)
    return xs
