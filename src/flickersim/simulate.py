"""Seeded stochastic trajectory generation for the coupled system.

Innovations come from Philox, a counter-based generator, so replicate k of a
run draws from an independent substream derived from (master seed, k) and
ensembles are reproducible regardless of execution order or worker count.
The state recurrence itself is evaluated with exactly the same floating
point expressions as the scalar step functions in
:mod:`flickersim.dynamics`, batched across replicates; a replay through
``step_coupled`` reproduces any trajectory bit for bit.

Every route runs on one span driver, :func:`stream_spans`: a run is one
model and a list of (c, x0, y0) starts, one per extraction rate, so its rows
share a model by construction.  The driver draws each block of innovations
from the replicate substreams, and its kernel advances all (c, replicate)
rows of a run together, x, i and the adapted state y of every adaptive
capacity in one time loop, yielding each block of whole STREAM_SPAN-step
spans as one piece.  Every c reuses the same substreams;
Philox is counter-based, so block-by-block draws equal a whole-series draw.
One loop, :func:`_consume`, checks each piece for the routes that fail at
the first non-finite step, drops the burn-in and feeds the rest to a
consumer's add(X, I, Y), which gives the same result wherever the series
is cut: :class:`_KeptSeries` keeps it for run_trajectory; in memory that
does not grow with t_max, ``analytics._Dwells`` counts basin dwells for
flicker and :class:`_CellSums` sums each row for run_ensemble (one cell)
and the sweep and transform grids, scoring each profile's payoff once per
piece and each capacity's utility as that payoff times its
wellbeing.penalty, and adding the sums span by span on the STREAM_SPAN grid.

stream_spans has two kernels with the same draws and the same output.  A numpy
step costs about the same ~12-30 us whether it advances 1 row or 64, while a
Python-float step costs about 0.5-1 us per row, so runs of fewer than
SCALAR_ROWS rows advance each row in Python floats (:func:`_scalar_spans`)
and larger ones as one numpy block (:func:`_block_spans`).  A numpy block
is one span and a scalar one as many spans as fit in SCALAR_BLOCK = 4 096
row-steps, so a scalar draw, its set-up, its conversion to arrays and each
consumer call are paid once per block.
The scalar kernel binds the run's one model to locals and evaluates the
expressions of step_noise, step_environment and step_adaptation inline, with
the same operands in the same association; the block kernel evaluates them
too, so both agree bit for bit with each other and with a step_coupled
replay, overflowed (nan) states and -0.0 included.  The block kernel holds
x, i and every y in time-major buffers allocated once per run, steps every
ufunc into them with out=, so no step allocates, and yields each span
time-last through one fresh C-contiguous copy per array.  The per-row
crossover that sets SCALAR_ROWS is tabulated in the README ("How
simulations stream") and recorded in BENCH_10.json and BENCH_16.json.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import AdaptationParams, EcoParams, NoiseParams
from .equilibria import Regime, _classify, equilibria
from .wellbeing import SPECIALIST, CaseProfile, payoff, penalty

DEFAULT_T_MAX = 50_000
DEFAULT_BURN_IN = 5_000
DEFAULT_SEED = 42

# Steps per span of the streamed engine.  Span arrays hold rows x STREAM_SPAN
# values: 12 800 for the 40-value, 10-replicate fig5 grid.
STREAM_SPAN = 32
# Runs of fewer (c, replicate) rows than this advance each row in Python
# floats; larger ones run as one numpy block.  By 32 the block kernel has
# caught up when every row steps its own noise level (one c, many
# replicates); grid rows share their noise and cross later, near 36-48.  The
# crossover tables are in BENCH_16.json.
SCALAR_ROWS = 32
# Most row-steps the scalar kernel draws, steps and yields at once, in whole
# spans: 128 spans at 1 row, 16 at 8 rows, 4 at 31 rows.  It is fixed, not
# derived from SCALAR_ROWS, so a block stays this small whatever row count
# routes to the scalar kernel.
SCALAR_BLOCK = 4096
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
    return _highest_stable(eco, equilibria(eco))


def _highest_stable(eco: EcoParams, eqs) -> float:
    """default_initial_state of eco from its equilibria eqs, so a caller solves once."""
    stable = [e.x_star for e in eqs if e.stable and e.x_star > 0]
    if not stable:
        raise ValueError(f"no stable positive equilibrium for {eco}; set x0 explicitly")
    return max(stable)


def resolve_config(cfg: SimConfig) -> SimConfig:
    """Fill x0/y0 defaults so every run parameter is explicit."""
    x0 = cfg.x0 if cfg.x0 is not None else default_initial_state(cfg.eco)
    return replace(cfg, x0=x0, y0=_y0(cfg, x0))


def _y0(cfg: SimConfig, x0: float) -> float:
    """The y0 of cfg started from x0: its own, else x0."""
    return cfg.y0 if cfg.y0 is not None else x0


def innovation_stream(seed: int, replicate: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one replicate of a run."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_innovations(noise: NoiseParams, streams, size: int) -> np.ndarray:
    """The next size innovations of every stream, one row per stream."""
    return np.array([s.normal(noise.mu, noise.beta, size=size) for s in streams])


def _simulate_paths(c: np.ndarray, l: np.ndarray, X: np.ndarray, I: np.ndarray, Y: np.ndarray,
                    scratch, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synchronous recurrence over one span, in place; row k of etas drives noise level k.

    X, I and Y are time-major buffers of STREAM_SPAN + 1 steps: X[t] holds
    the (n_c, n_seeds) states, I[t] the (n_seeds,) noise levels, which do
    not depend on c, and Y[t] the (n_l, n_c, n_seeds) adapted states.  Step
    0 holds the span's start; steps 1..n are written, and step n starts the
    next span.  c is (n_c, n_seeds) and l (n_l, 1, 1).  scratch is what
    _block_spans allocates once per run beside them, so that no step
    allocates: r, K, h*h, phi, 1.0 and 0.0 as 0-d arrays (a float operand
    costs each ufunc call a conversion), three state-shaped arrays, one
    shaped as Y[0], 1 + I, and the step rows of X, I, Y and 1 + I as lists
    of views (a view made per step costs ~4 % of the kernel).  Returns the
    n + 1 steps of X, I and Y.

    Expressions mirror growth_increment / step_environment / step_noise /
    step_adaptation exactly (np.maximum(0.0, v) clamps as step_environment
    does, nan included) so that scalar replay is bit-identical.
    """
    n = etas.shape[1]
    r, K, hh, phi, one, zero, a, b, d, s, one_i, (Xs, Is, Ys, one_is) = scratch
    for i, i1, eta in zip(Is, Is[1:n + 1], etas.T):
        np.multiply(phi, i, out=i1)
        np.add(i1, eta, out=i1)
    np.add(one, I[:n], out=one_i[:n])
    # r*x*(1 - x/K) - c*x*x/(x*x + h*h) + (1 + i)*x, clamped at 0
    for x, x1, oi in zip(Xs, Xs[1:n + 1], one_is):
        np.multiply(r, x, out=a)
        np.divide(x, K, out=b)
        np.subtract(one, b, out=b)
        np.multiply(a, b, out=a)
        np.multiply(c, x, out=b)
        np.multiply(b, x, out=b)
        np.multiply(x, x, out=d)
        np.add(d, hh, out=d)
        np.divide(b, d, out=b)
        np.subtract(a, b, out=a)
        np.multiply(oi, x, out=b)
        np.add(a, b, out=a)
        np.maximum(zero, a, out=x1)  # out by keyword: positional out is deprecated, ~3x slower
    if l.size:  # flicker asks for no capacity: skip empty y steps
        for x, y, y1 in zip(Xs, Ys, Ys[1:n + 1]):
            np.subtract(x, y, out=s)
            np.multiply(l, s, out=s)
            np.add(s, y, out=y1)
    return X[:n + 1], I[:n + 1], Y[:n + 1]


def stream_spans(model: SimConfig, starts, replicates, l_values):
    """Run the given replicates of model from every (c, x0, y0) start together, span by span.

    Every row steps model (r, K, h, noise, i0, seed and horizon) at its
    start's extraction rate c, from its start's x0, and every adaptive
    capacity in l_values follows it from its start's y0; model's own eco.c,
    x0 and y0 are not read.  The starts share the replicate substreams, so
    one set of innovation rows drives every c.  Yields (X, I, Y) for each
    block of n steps up to t_max, burn-in included: the environment states
    X, shape (len(starts), len(replicates), n), the noise levels I, shape
    (len(replicates), n), and the adapted states Y, (len(l_values),) + X.shape.
    Every block starts on the STREAM_SPAN grid from step 0 and holds whole
    spans, except the run's last.

    This function draws the innovations and its kernel only steps, bit-equal
    either way: below SCALAR_ROWS rows in Python floats, with one draw and
    one block per SCALAR_BLOCK // (STREAM_SPAN x rows) spans, at least one;
    else as one numpy block, with one draw and one block per span.
    Raises ValueError, before any draw, when starts or replicates is empty.
    """
    if not starts or not len(replicates):
        raise ValueError(f"a run needs at least one start and one replicate, "
                         f"got {len(starts)} starts and {len(replicates)} replicates")
    ls = [AdaptationParams(float(l)).l for l in l_values]  # rejects l outside [0, 1]
    streams = [innovation_stream(model.seed, k) for k in replicates]
    rows = len(starts) * len(streams)
    kernel = _scalar_spans if rows < SCALAR_ROWS else _block_spans
    spans = max(1, SCALAR_BLOCK // (STREAM_SPAN * rows)) if kernel is _scalar_spans else 1
    steps = STREAM_SPAN * spans
    blocks = (_draw_innovations(model.noise, streams, min(steps, model.t_max - t))
              for t in range(0, model.t_max, steps))
    return kernel(model, starts, len(streams), ls, blocks)


def _block_spans(model: SimConfig, starts, n_rows: int, ls: list[float], blocks):
    """:func:`stream_spans` with every row advanced as one numpy block.

    The states live in time-major buffers allocated once per run, so a step
    writes whole contiguous rows; each span is yielded time-last through one
    fresh C-contiguous copy per array, which a sum over its last axis adds up
    as it would a time-last block.
    """
    # c at the full state shape: an (n_c, 1) column broadcasts ~40% slower
    c, x, y = (np.repeat(np.reshape(v, (-1, 1)), n_rows, axis=1) for v in zip(*starts))
    l = np.reshape(ls, (-1, 1, 1))
    X = np.empty((STREAM_SPAN + 1,) + x.shape)
    I = np.empty((STREAM_SPAN + 1, n_rows))
    Y = np.empty((STREAM_SPAN + 1, len(ls)) + x.shape)
    one_i = np.empty_like(I[1:])
    consts = (model.eco.r, model.eco.K, model.eco.h * model.eco.h, model.noise.memory, 1.0, 0.0)
    scratch = (*map(np.array, consts), *(np.empty_like(x) for _ in range(3)), np.empty_like(Y[0]),
               one_i, [list(A) for A in (X, I, Y, one_i)])
    X[0], I[0], Y[0] = x, model.i0, y
    for etas in blocks:
        n = etas.shape[1]
        _simulate_paths(c, l, X, I, Y, scratch, etas)
        # time-last; np.moveaxis costs ~6 us more per call than transpose
        yield tuple(A[:n].transpose((*range(1, A.ndim), 0)).copy() for A in (X, I, Y))
        X[0], I[0], Y[0] = X[n], I[n], Y[n]


def _scalar_spans(model: SimConfig, starts, n_rows: int, ls: list[float], blocks):
    """:func:`stream_spans` with each row advanced in Python floats.

    The model's constants are bound to locals once per run, and every step
    evaluates step_noise's, step_environment's and step_adaptation's
    expressions inline, with the same operands in the same association, so
    the spans agree bit for bit with the block kernel and with a
    step_coupled replay.  Each block is stepped whole, converted to arrays
    once and yielded whole.
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
        yield (np.array(X, dtype=float).reshape(shape + (n,)), np.array(I, dtype=float),
               np.array(Y, dtype=float).reshape((len(ls),) + shape + (n,)))


def _check_finite(model: SimConfig, starts, X: np.ndarray, t0: int) -> None:
    """NonFiniteStateError naming the earliest non-finite state in X.

    X has shape (len(starts), rows, n) and holds steps t0 onward.  An
    overflowed state stays nan, so a finite last column clears the span.
    """
    if not all(map(math.isfinite, X[..., -1].ravel().tolist())):
        bad = ~np.isfinite(X)
        t = int(bad.any(axis=(0, 1)).argmax())
        j, k = (int(index[0]) for index in np.nonzero(bad[..., t]))
        c, x0, _ = starts[j]
        raise NonFiniteStateError(
            f"the environment state overflowed to {X[j, k, t]} at step {t0 + t} "
            f"(c={c}, x0={x0}, i0={model.i0})"
        )


class _KeptSeries:
    """Span consumer that joins the post-burn-in X, I and Y of the spans.

    Shapes are those of the spans over the t_max - burn_in kept steps, filled
    in place: joining the spans at the end would hold the series twice.
    Raises ValueError when they would take more than KEPT_SERIES_MAX_BYTES.
    """

    def __init__(self, model: SimConfig, n_c: int, n_rows: int, n_l: int) -> None:
        n_kept = model.t_max - model.burn_in
        # float64 X and every Y over (c, row), and I over rows
        n_bytes = 8 * n_rows * n_kept * (n_c * (1 + n_l) + 1)
        if n_bytes > KEPT_SERIES_MAX_BYTES:
            raise ValueError(
                f"keeping sim.t_max - sim.burn_in = {n_kept} steps needs {n_bytes} bytes, "
                f"above KEPT_SERIES_MAX_BYTES = {KEPT_SERIES_MAX_BYTES}; "
                "lower sim.t_max or raise sim.burn_in")
        self.X = np.empty((n_c, n_rows, n_kept))
        self.I = np.empty((n_rows, n_kept))
        self.Y = np.empty((n_l,) + self.X.shape)
        self.filled = 0

    def add(self, X: np.ndarray, I: np.ndarray, Y: np.ndarray) -> None:
        kept = slice(self.filled, self.filled + X.shape[-1])
        self.X[..., kept], self.I[:, kept], self.Y[..., kept] = X, I, Y
        self.filled = kept.stop


def _spans(A: np.ndarray, cuts) -> list[np.ndarray]:
    """A cut along its last axis at the span edges cuts; [A] itself when none lies inside."""
    if not cuts:
        return [A]
    edges = [0, *cuts, A.shape[-1]]
    return [A[..., a:b] for a, b in zip(edges, edges[1:])]


def _add_span_sums(total: np.ndarray, A: np.ndarray, cuts) -> None:
    """total += the sum of A over its last axis, span by span in time order,
    so total gets the bits of feeding A's spans one at a time."""
    for span in _spans(A, cuts):
        total += span.sum(axis=-1)


class _CellSums:
    """Span consumer summing each row over the n_kept steps it is fed.

    Rows are (c, replicate), shape (n_c, n_seeds).  Sums payoff per profile
    and utility per (l, profile), reading each capacity's adapted states
    from the piece's Y.  With environment, which transform_comparison reads,
    x is summed too and each c's x series hashed.  A piece may hold many
    spans: each profile's payoff and penalty are scored once over it, and
    every sum and digest update still follows the STREAM_SPAN grid counted
    from step 0, so the totals and digests have the same bits however the
    kept steps are cut into pieces.
    """

    def __init__(self, burn_in: int, n_c: int, n_seeds: int, n_l: int, profiles,
                 environment: bool) -> None:
        shape = (n_c, n_seeds)
        self.n_kept = 0
        self.burn_in = burn_in  # the step of the first kept one
        self.profiles = [p.params for p in profiles]
        self.x = np.zeros(shape) if environment else None
        self.payoff = [np.zeros(shape) for _ in profiles]
        self.utility = [[np.zeros(shape) for _ in profiles] for _ in range(n_l)]
        self.digests = [hashlib.sha256() for _ in range(n_c)] if environment else []

    def add(self, X: np.ndarray, I: np.ndarray, Y: np.ndarray) -> None:
        n = X.shape[-1]
        # the span edges inside this piece, which starts at step burn_in + n_kept
        cuts = range(-(self.burn_in + self.n_kept) % STREAM_SPAN or STREAM_SPAN, n, STREAM_SPAN)
        # utility(X, Yl, w) is payoff(X, w) * penalty(X - Yl, w): each payoff
        # once per piece, each misadaptation once per l (one l at a time: a
        # broadcast over the stacked Y is ~2.5x slower)
        pays = [payoff(X, w) for w in self.profiles]
        for Yl, sums in zip(Y, self.utility):
            d = X - Yl
            for total, pay, w in zip(sums, pays, self.profiles):
                _add_span_sums(total, pay * penalty(d, w), cuts)
        if self.x is not None:
            _add_span_sums(self.x, X, cuts)
        for total, pay in zip(self.payoff, pays):
            _add_span_sums(total, pay, cuts)
        for digest, rows in zip(self.digests, X):  # each span's (n_seeds, steps) bytes
            for span in _spans(rows, cuts):
                digest.update(np.ascontiguousarray(span))
        self.n_kept += n

    def averages(self, totals: np.ndarray) -> tuple[np.ndarray, list[float], list[float]]:
        """Time averages of an (n_c, n_seeds) block of sums, each row's mean and its stderr."""
        avgs = totals / self.n_kept
        return avgs, avgs.mean(axis=-1).tolist(), _stderrs(avgs)


def _consume(model: SimConfig, starts, replicates, l_values, sink, check: bool):
    """Feed the post-burn-in steps of each block to sink.add(X, I, Y); returns sink.

    A block holds one span or, on the scalar kernel, up to SCALAR_BLOCK
    row-steps of whole spans, and the first piece fed may start mid-span;
    every sink gives the same result wherever its series is cut.  With
    check, each block is checked as it arrives, burn-in included, so an
    overflowed run raises NonFiniteStateError naming its first non-finite
    step; without, non-finite states reach the sink, as grid cells flag them.
    """
    t = 0
    for X, I, Y in stream_spans(model, starts, replicates, l_values):
        if check:
            _check_finite(model, starts, X, t)
        skip, t = max(model.burn_in - t, 0), t + X.shape[-1]
        if t > model.burn_in:
            sink.add(X[..., skip:], I[..., skip:], Y[..., skip:])
    return sink


def _stream_cells(base: SimConfig, c_values, n_seeds: int, l_values, profiles,
                  environment: bool = False, check: bool = False):
    """The _GridCell of each c, and the _CellSums of base run from their starts.

    check is :func:`_consume`'s: on for run_ensemble, off for the grids.
    """
    cells = [_grid_cell(base, c) for c in c_values]
    starts = [cell.start for cell in cells if isinstance(cell.start, tuple)]
    sums = _CellSums(base.burn_in, len(starts), n_seeds, len(l_values), profiles, environment)
    if starts:
        _consume(base, starts, range(n_seeds), l_values, sums, check)
    return cells, sums


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.  Raises NonFiniteStateError as
    soon as the state overflows (a huge finite x0 or i0), so no nan reaches
    a results file.
    """
    rcfg = resolve_config(cfg)
    kept = _consume(rcfg, [(rcfg.eco.c, rcfg.x0, rcfg.y0)], [replicate], [rcfg.adapt.l],
                    _KeptSeries(rcfg, 1, 1, 1), check=True)
    return Trajectory(
        xs=kept.X[0, 0],
        ys=kept.Y[0, 0, 0],
        noise=kept.I[0],
        t0=rcfg.burn_in,
    )


def _stderrs(avgs: np.ndarray) -> list[float]:
    """The cross-replicate standard error of each row's mean, from one std over
    the last axis; 0 for a single replicate."""
    n = avgs.shape[-1]
    return (avgs.std(axis=-1, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [0.0] * len(avgs)


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
    [cell], sums = _stream_cells(cfg, [cfg.eco.c], n_seeds, [cfg.adapt.l], [cfg.wellbeing],
                                 check=True)
    if isinstance(cell.start, Exception):
        raise cell.start
    [pays], [mean_payoff], [stderr_payoff] = sums.averages(sums.payoff[0])
    [utils], [mean_utility], [stderr_utility] = sums.averages(sums.utility[0][0])
    return EnsembleSummary(pays, utils, mean_payoff, mean_utility, stderr_payoff, stderr_utility)


@dataclass(frozen=True)
class _GridCell:
    """One rate's (c, x0, y0) start (or the exception in its place), regime, and row error."""

    start: tuple[float, float, float] | Exception
    regime: Regime | None
    error: str | None  # the start's message, else why the rate has no regime


def _grid_cell(base: SimConfig, c) -> _GridCell:
    """base's start at extraction rate c from one equilibria solve, each failure recorded."""
    x0 = None
    try:
        eco = replace(base.eco, c=c)
        x0 = base.x0
        eqs = equilibria(eco)
        x0 = x0 if x0 is not None else _highest_stable(eco, eqs)
        return _GridCell((eco.c, x0, _y0(base, x0)), _classify(eco, eqs), None)
    except Exception as exc:  # no regime, and no start until there is an x0
        return _GridCell(exc if x0 is None else (eco.c, x0, _y0(base, x0)), None, str(exc))
