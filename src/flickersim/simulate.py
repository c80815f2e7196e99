"""Seeded stochastic trajectory generation for the coupled system.

Innovations come from Philox, a counter-based generator, so replicate k of a
run draws from an independent substream derived from (master seed, k) and
ensembles are reproducible regardless of execution order or worker count.
The state recurrence itself is evaluated with exactly the same floating
point expressions as the scalar step functions in
:mod:`flickersim.dynamics`, batched across replicates; a replay through
``step_coupled`` reproduces any trajectory bit for bit.

Given one environment path, adaptation paths for many adaptive capacities
can be recovered cheaply because the adapted state is a one-way exponential
filter of x; see :func:`adaptation_paths` and :class:`AdaptationFilter`.

Grids over the extraction rate stream: every c reuses the same replicate
substreams, so :func:`stream_environment` advances all (c, replicate) rows
as one block and hands fixed spans of STREAM_SPAN steps to accumulators.
Its memory is O(rows x STREAM_SPAN), whatever the horizon.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import equilibria
from .wellbeing import SPECIALIST, CaseProfile, average_payoff, average_utility

DEFAULT_T_MAX = 50_000
DEFAULT_BURN_IN = 5_000
DEFAULT_SEED = 42

# Steps per span of the streamed engine.  Span arrays hold rows x STREAM_SPAN
# values: 12 800 for the 40-value, 10-replicate fig5 grid.
STREAM_SPAN = 32


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
        if self.x0 is not None and not self.x0 >= 0:
            raise ValueError(f"sim.x0 must be >= 0, got {self.x0}")
        if self.y0 is not None and not self.y0 >= 0:
            raise ValueError(f"sim.y0 must be >= 0, got {self.y0}")


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


def config_fingerprint(cfg: SimConfig) -> str:
    """Hash of the fully resolved configuration (sha256 hex, 16 chars).

    Changes iff any configuration value changes.
    """
    payload = json.dumps(asdict(resolve_config(cfg)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def innovation_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replicate of a run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _streams(seed: int, n_seeds: int) -> list[np.random.Generator]:
    return [innovation_stream(seed, k) for k in range(n_seeds)]


def _draw_innovations(noise: NoiseParams, streams, size: int) -> np.ndarray:
    """The next size innovations of every stream, one row per stream."""
    return np.stack([s.normal(noise.mu, noise.beta, size=size) for s in streams])


def _simulate_paths(
    eco: EcoParams,
    noise: NoiseParams,
    adapt: AdaptationParams | None,
    x0,
    y0,
    i0,
    etas: np.ndarray,
    c=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Synchronous recurrence over one span; row k of etas drives noise level k.

    The extraction rate c (default eco.c), x0 and y0 broadcast against the
    (..., n_seeds) state, so an (n_c, n_seeds) array of rates advances
    n_c x n_seeds rows at once; the noise level does not depend on c and
    stays (n_seeds,).  X, I and Y hold the states at steps 0..n of the span:
    n + 1 columns, the last of which starts the next span.  Y is None (and y0
    unused) when adapt is None.

    Expressions mirror growth_increment / step_environment / step_noise /
    step_adaptation exactly so that scalar replay is bit-identical.
    """
    n_seeds, n = etas.shape
    r, K, h = eco.r, eco.K, eco.h
    c = eco.c if c is None else c
    shape = np.broadcast_shapes(np.shape(c), np.shape(x0), (n_seeds,))
    x = np.full(shape, x0, dtype=float)
    i = np.full(n_seeds, i0, dtype=float)
    X = np.empty(shape + (n + 1,))
    I = np.empty((n_seeds, n + 1))
    Y = None
    if adapt is not None:
        y = np.full(shape, y0, dtype=float)
        Y = np.empty(shape + (n + 1,))
        l = adapt.l
    phi = 1.0 - 1.0 / noise.T
    for t in range(n):
        X[..., t] = x
        I[:, t] = i
        x_new = np.maximum(0.0, (r * x * (1.0 - x / K) - c * x * x / (x * x + h * h)) + (1.0 + i) * x)
        i = phi * i + etas[:, t]
        if Y is not None:
            Y[..., t] = y
            y = l * (x - y) + y
        x = x_new
    X[..., n] = x
    I[:, n] = i
    if Y is not None:
        Y[..., n] = y
    return X, I, Y


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.
    """
    rcfg = resolve_config(cfg)
    etas = _draw_innovations(rcfg.noise, [innovation_stream(rcfg.seed, replicate)], rcfg.t_max)
    X, I, Y = _simulate_paths(rcfg.eco, rcfg.noise, rcfg.adapt, rcfg.x0, rcfg.y0, rcfg.i0, etas)
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
    run_trajectory(cfg) exactly.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    rcfg = resolve_config(cfg)
    etas = _draw_innovations(rcfg.noise, _streams(rcfg.seed, n_seeds), rcfg.t_max)
    X, _, Y = _simulate_paths(rcfg.eco, rcfg.noise, rcfg.adapt, rcfg.x0, rcfg.y0, rcfg.i0, etas)
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

    Evaluates y_{t+1} = l*x_t + (1-l)*y_t as an exponential filter (C speed),
    which matches iterating step_adaptation to rounding error.  Used to
    compare many l values against one shared environment path.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return AdaptationFilter(np.full(X.shape[:-1], float(y0)), l)(X)


class AdaptationFilter:
    """:func:`adaptation_paths` continued span by span.

    Each call takes the environment states of the next span of steps, shape
    y0.shape + (n,), and returns the adapted states at the same steps.  The
    ``lfilter`` state is carried from call to call, so the spans joined equal
    adaptation_paths of the joined series bit for bit.
    """

    def __init__(self, y0, l: float) -> None:
        if not 0.0 <= l <= 1.0:
            raise ValueError(f"l must be within [0, 1], got {l}")
        self.b, self.a = [l], [1.0, -(1.0 - l)]
        # adapted state at the first step of the next span
        self.y = np.asarray(y0, dtype=float)[..., None]
        self.zi = (1.0 - l) * self.y

    def __call__(self, X: np.ndarray) -> np.ndarray:
        out, self.zi = lfilter(self.b, self.a, X, axis=-1, zi=self.zi)
        Y = np.concatenate((self.y, out[..., :-1]), axis=-1)
        self.y = out[..., -1:].copy()
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


def stream_environment(configs: list[SimConfig], n_seeds: int, accumulators) -> None:
    """Run replicates 0..n_seeds-1 of every config as one block, span by span.

    The configs are resolved and differ only in eco.c, x0 and y0, as
    :func:`grid_configs` returns them.  They share the replicate substreams,
    so one set of innovation rows drives every c, and row (j, k) equals
    ``run_trajectory(configs[j], k).xs`` bit for bit.  The environment states
    of each span, shape (len(configs), n_seeds, n) with n <= STREAM_SPAN, go
    to ``add(X, skip)`` of every accumulator; the first skip columns are
    burn-in (skip may be n).
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    first = configs[0]
    # c at the full state shape: an (n_c, 1) column broadcasts ~40% slower
    c = np.repeat([[cfg.eco.c] for cfg in configs], n_seeds, axis=1)
    x = np.repeat([[cfg.x0] for cfg in configs], n_seeds, axis=1)
    i = first.i0
    streams = _streams(first.seed, n_seeds)
    for t in range(0, first.t_max, STREAM_SPAN):
        etas = _draw_innovations(first.noise, streams, min(STREAM_SPAN, first.t_max - t))
        X, I, _ = _simulate_paths(first.eco, first.noise, None, x, None, i, etas, c=c)
        x, i = X[..., -1].copy(), I[:, -1].copy()
        for acc in accumulators:
            acc.add(X[..., :-1], max(first.burn_in - t, 0))


class _KeptStates:
    """Accumulator that keeps the post-burn-in states."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.xs = np.empty(shape)
        self.filled = 0

    def add(self, X: np.ndarray, skip: int) -> None:
        kept = X[..., skip:]
        self.xs[..., self.filled:self.filled + kept.shape[-1]] = kept
        self.filled += kept.shape[-1]


def environment_series(configs: list[SimConfig], n_seeds: int) -> np.ndarray:
    """Post-burn-in environment states, shape (len(configs), n_seeds, t_max - burn_in).

    Streams the block like :func:`stream_environment` and keeps only x.
    """
    first = configs[0]
    kept = _KeptStates((len(configs), n_seeds, first.t_max - first.burn_in))
    stream_environment(configs, n_seeds, [kept])
    return kept.xs
