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
One loop, :func:`_kept_pieces`, checks each piece for the routes that fail
at the first non-finite step, drops the burn-in and yields the rest; the
routes that run a config's own start resolve it first, in
:func:`_single_start_pieces`.  :func:`trajectory_pieces` hands one
replicate's pieces to the trajectory.csv writer as they come, so ``flickersim
simulate`` holds one piece at a time, and run_trajectory fills one
preallocated series from the same pieces.  The other consumers take each
piece in an add(X, I, Y) that gives the same result wherever the series is
cut, in memory that does not grow with t_max: ``analytics._Dwells`` counts
basin dwells for flicker and :class:`_CellSums` sums each row's x and
utilities for run_ensemble (one cell) and the sweep and transform grids,
span by span on the STREAM_SPAN grid; each utility is a profile's payoff,
scored once per piece, times a wellbeing.penalty, and each replicate's
payoff average is the (affine) payoff at its mean x.

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
x, i and every y in time-major buffers allocated once per run, with every
operand at full shape, steps every ufunc into them in place, so no step
allocates but for the ~10 KB iterator buffer of the y step's x - y
broadcast, and yields each span time-last through one fresh C-contiguous
copy per array.  The per-row crossover that sets SCALAR_ROWS is tabulated
in the README ("How simulations stream") and recorded in BENCH_10.json,
BENCH_16.json, BENCH_38.json and BENCH_40.json.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import AdaptationParams, EcoParams, NoiseParams, _check_count, _check_real
from .equilibria import Regime, _classify, equilibria
from .wellbeing import SPECIALIST, CaseProfile, payoff, penalty

DEFAULT_T_MAX = 50_000
DEFAULT_BURN_IN = 5_000
DEFAULT_SEED = 42

# Steps per span of the streamed engine.  Span arrays hold rows x STREAM_SPAN
# values: 12 800 for the 40-value, 10-replicate fig5 grid.
STREAM_SPAN = 32
# Runs of fewer (c, replicate) rows than this advance each row in Python
# floats; larger ones run as one numpy block.  From 26 rows the block kernel
# is the faster for rows that each step their own noise level (one c, many
# replicates; crossing near 24-26), and below it the scalar kernel is the
# faster for grid rows, which share their noise and cross later (near 28).
# The crossover tables are in BENCH_16.json, BENCH_38.json and BENCH_40.json.
SCALAR_ROWS = 26
# Most row-steps the scalar kernel draws, steps and yields at once, in whole
# spans: 128 spans at 1 row, 16 at 8 rows, 5 at 25 rows.  It is fixed, not
# derived from SCALAR_ROWS, so a block stays this small whatever row count
# routes to the scalar kernel.
SCALAR_BLOCK = 4096
# Most bytes that run_trajectory may allocate for its post-burn-in xs, ys and
# noise: 1 GiB holds ~44.7 million steps.  Above it, a run fails with a named
# ValueError instead of an unnamed MemoryError.
# trajectory_pieces keeps no series, so the cap does not bound simulate.
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
        for name, least in (("t_max", None), ("burn_in", 0), ("seed", 0)):
            object.__setattr__(self, name, _check_count(f"sim.{name}", getattr(self, name), least))
        if not self.t_max > self.burn_in:
            raise ValueError(
                f"sim.t_max must exceed burn_in, got t_max={self.t_max} burn_in={self.burn_in}"
            )
        for name, bound in (("x0", ">= 0"), ("y0", ">= 0"), ("i0", None)):
            value = getattr(self, name)
            if value is not None or name == "i0":  # x0/y0 None: see resolve_config
                object.__setattr__(self, name, _check_real(f"sim.{name}", value, bound))


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
    """Independent counter-based stream for one replicate of a run.

    Every route's replicates pass through here, so a bad one is named before any draw.
    """
    replicate = _check_count("replicate", replicate, 0)
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
    next span.  c is (n_c, n_seeds) and l shaped as Y[0].  scratch is what
    _block_spans allocates once per run beside them, every operand at the
    shape of the array it meets (a broadcast operand costs each ufunc call
    up to ~2.5x): r, K, h*h, 1.0 and 0.0 at the state shape, phi at the
    noise shape, three state-shaped arrays, one shaped as Y[0], 1.0 and the
    span's 1 + I at I[1:]'s shape, 1 + I at the state shape per step, and
    the step rows of X, I, Y and 1 + I as lists of views (a view made per
    step costs ~4 % of the kernel).  No step allocates but the y step, whose
    x - y broadcast takes a ~10 KB iterator buffer (x made Y[0]'s shape
    first costs more).  Returns the n + 1 steps of X, I and Y.

    Expressions mirror growth_increment / step_environment / step_noise /
    step_adaptation exactly (np.maximum(0.0, v) clamps as step_environment
    does, nan included) so that scalar replay is bit-identical.  The ufuncs
    are bound to locals, and in-place operators keep each operand order
    (a *= b is np.multiply(a, b, out=a)); only l * s runs as s *= l, which
    has the same bits because l is finite.
    """
    n = etas.shape[1]
    r, K, hh, phi, one, zero, a, b, d, s, one_rows, one_i_rows, one_i, views = scratch
    Xs, Is, Ys, one_is = views
    add, subtract, multiply = np.add, np.subtract, np.multiply
    divide, maximum = np.divide, np.maximum
    for i, i1, eta in zip(Is, Is[1:n + 1], etas.T):
        multiply(phi, i, out=i1)
        i1 += eta
    # 1 + i once per span at the noise shape, then copied across c: a
    # broadcasting add into one_i allocates a ~130 KB iterator buffer
    add(one_rows[:n], I[:n], out=one_i_rows[:n])
    np.copyto(one_i[:n], one_i_rows[:n, None])
    # r*x*(1 - x/K) - c*x*x/(x*x + h*h) + (1 + i)*x, clamped at 0
    for x, x1, oi in zip(Xs, Xs[1:n + 1], one_is):
        multiply(r, x, out=a)
        divide(x, K, out=b)
        subtract(one, b, out=b)
        a *= b
        multiply(c, x, out=b)
        b *= x
        multiply(x, x, out=d)
        d += hh
        b /= d
        a -= b
        multiply(oi, x, out=b)
        a += b
        maximum(zero, a, out=x1)  # out by keyword: positional out is deprecated, ~3x slower
    if l.size:  # flicker asks for no capacity: skip empty y steps
        for x, y, y1 in zip(Xs, Ys, Ys[1:n + 1]):
            subtract(x, y, out=s)
            s *= l
            add(s, y, out=y1)
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
    ls = [AdaptationParams(l).l for l in l_values]  # rejects l outside [0, 1]
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
    # every operand at the shape it meets: an (n_c, 1) column or a 0-d
    # array broadcasts ~10% to ~2.5x slower per ufunc call
    c, x, y = (np.repeat(np.reshape(v, (-1, 1)), n_rows, axis=1) for v in zip(*starts))
    X = np.empty((STREAM_SPAN + 1,) + x.shape)
    I = np.empty((STREAM_SPAN + 1, n_rows))
    Y = np.empty((STREAM_SPAN + 1, len(ls)) + x.shape)
    l = np.empty_like(Y[0])
    l[...] = np.reshape(ls, (-1, 1, 1))
    one_i = np.empty_like(X[1:])
    consts = (model.eco.r, model.eco.K, model.eco.h * model.eco.h)
    scratch = (*(np.full(x.shape, v) for v in consts), np.full(n_rows, model.noise.memory),
               np.ones(x.shape), np.zeros(x.shape), *(np.empty_like(x) for _ in range(3)),
               np.empty_like(Y[0]), np.ones(I[1:].shape), np.empty_like(I[1:]), one_i,
               [list(A) for A in (X, I, Y, one_i)])
    X[0], I[0], Y[0] = x, model.i0, y
    for etas in blocks:
        n = etas.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # overflows are named or flagged
            _simulate_paths(c, l, X, I, Y, scratch, etas)
        # time-last; np.moveaxis costs ~6 us more per call than transpose
        yield tuple(A[:n].transpose((*range(1, A.ndim), 0)).copy() for A in (X, I, Y))
        X[0], I[0], Y[0] = X[n], I[n], Y[n]


def _scalar_spans(model: SimConfig, starts, n_rows: int, ls: list[float], blocks):
    """:func:`stream_spans` with each row advanced in Python floats.

    The model's constants are bound to locals once per block, and every step
    evaluates step_noise's, step_environment's and step_adaptation's
    expressions inline, with the same operands in the same association, so
    the spans agree bit for bit with the block kernel and with a
    step_coupled replay.  Each block is stepped whole, converted to arrays
    once and yielded whole.
    """
    consts = model.eco.r, model.eco.K, model.eco.h * model.eco.h, model.noise.memory
    shape = (len(starts), n_rows)
    # the (c, replicate) rows in C order, and the states at the first step of
    # the next span: per replicate, per row and per (l, row)
    rows = [(c, k) for c, _, _ in starts for k in range(n_rows)]
    i_next = [float(model.i0)] * n_rows
    x_next = [float(x0) for _, x0, _ in starts for _ in range(n_rows)]
    y_next = [[float(y0) for _, _, y0 in starts for _ in range(n_rows)] for _ in ls]

    def block(etas):  # its Python lists die on return, so none is alive at the yield
        r, K, hh, phi = consts
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
        return (np.array(X, dtype=float).reshape(shape + (n,)), np.array(I, dtype=float),
                np.array(Y, dtype=float).reshape((len(ls),) + shape + (n,)))
    for etas in blocks:
        yield block(etas)


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

    Rows are (c, replicate), shape (n_c, n_seeds).  Sums x, whose averages
    give each profile's payoff (:meth:`averages`), and utility per (l,
    profile), reading each capacity's adapted states from the piece's Y.
    With digests, which transform_comparison reads, each c's x series is
    hashed.  A piece may hold many spans: each profile's payoff and penalty
    are scored once over it, and every sum and digest update still follows
    the STREAM_SPAN grid counted from step 0, so the totals and digests have
    the same bits however the kept steps are cut into pieces.
    """

    def __init__(self, burn_in: int, n_c: int, n_seeds: int, n_l: int, profiles,
                 digests: bool) -> None:
        shape = (n_c, n_seeds)
        self.n_kept = 0
        self.burn_in = burn_in  # the step of the first kept one
        self.profiles = [p.params for p in profiles]
        self.x = np.zeros(shape)
        self.utility = [[np.zeros(shape) for _ in profiles] for _ in range(n_l)]
        self.digests = [hashlib.sha256() for _ in range(n_c)] if digests else []

    def add(self, X: np.ndarray, I: np.ndarray, Y: np.ndarray) -> None:
        n = X.shape[-1]
        # the span edges inside this piece, which starts at step burn_in + n_kept
        cuts = range(-(self.burn_in + self.n_kept) % STREAM_SPAN or STREAM_SPAN, n, STREAM_SPAN)
        # utility(X, Yl, w) is payoff(X, w) * penalty(X - Yl, w): each payoff
        # once per piece, each misadaptation once per l into one buffer (one l
        # at a time: a broadcast over the stacked Y is ~2.5x slower), and each
        # penalty scaled by its payoff in place
        with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow: the row is flagged
            pays = [payoff(X, w) for w in self.profiles]
            d = np.empty_like(X)
            for Yl, sums in zip(Y, self.utility):
                np.subtract(X, Yl, out=d)
                for total, pay, w in zip(sums, pays, self.profiles):
                    u = penalty(d, w)
                    _add_span_sums(total, np.multiply(pay, u, out=u), cuts)
            _add_span_sums(self.x, X, cuts)
        for digest, rows in zip(self.digests, X):  # each span's (n_seeds, steps) bytes
            for span in _spans(rows, cuts):
                digest.update(np.ascontiguousarray(span))
        self.n_kept += n

    def averages(self, totals: np.ndarray, w=None) -> tuple[np.ndarray, list[float], list[float]]:
        """Time averages of an (n_c, n_seeds) block of sums, each row's mean and its stderr.

        With w, a profile's WellbeingParams, totals are x sums and each average
        the payoff at that mean x (payoff is affine in x).  A huge or overflowed
        sum may give a non-finite mean or stderr, with no warning; grid rows flag it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            avgs = totals / self.n_kept if w is None else payoff(totals / self.n_kept, w)
            return avgs, avgs.mean(axis=-1).tolist(), _stderrs(avgs)


def _kept_pieces(model: SimConfig, starts, replicates, l_values, check: bool):
    """The post-burn-in steps (X, I, Y) of each block of :func:`stream_spans`, in order.

    A block holds one span or, on the scalar kernel, up to SCALAR_BLOCK
    row-steps of whole spans, and the first piece may start mid-span.  With
    check, each block is checked as it arrives, burn-in included, so an
    overflowed run raises NonFiniteStateError naming its first non-finite
    step; without, non-finite states are yielded, as grid cells flag them.
    """
    t = 0
    for X, I, Y in stream_spans(model, starts, replicates, l_values):
        if check:
            _check_finite(model, starts, X, t)
        skip, t = max(model.burn_in - t, 0), t + X.shape[-1]
        if t > model.burn_in:
            yield X[..., skip:], I[..., skip:], Y[..., skip:]


def _single_start_pieces(cfg: SimConfig, replicates, l_values):
    """:func:`_kept_pieces` of cfg's own (eco.c, x0, y0) start, checked.

    cfg is resolved now, so a config error raises here, before any draw;
    the run steps as the pieces are taken.
    """
    cfg = resolve_config(cfg)
    return _kept_pieces(cfg, [(cfg.eco.c, cfg.x0, cfg.y0)], replicates, l_values, check=True)


def trajectory_pieces(cfg: SimConfig, replicate: int = 0):
    """run_trajectory(cfg, replicate)'s series as (t0, pieces), without keeping it.

    cfg is resolved now, so a config error raises here.  pieces is a
    generator of (xs, ys, noise) arrays, each a block of the stream's
    consecutive post-burn-in steps, the first at step t0 = burn_in; joined,
    they equal the Trajectory's xs, ys and noise bit for bit.  The run steps
    as the pieces are taken, one block at a time, and raises
    NonFiniteStateError from the generator at the block where a state
    overflows.  It holds no full series, so KEPT_SERIES_MAX_BYTES does not
    apply.
    """
    pieces = _single_start_pieces(cfg, [replicate], [cfg.adapt.l])
    return cfg.burn_in, ((X[0, 0], Y[0, 0, 0], I[0]) for X, I, Y in pieces)


def run_trajectory(cfg: SimConfig, replicate: int = 0) -> Trajectory:
    """Simulate one trajectory and discard the burn-in prefix.

    Identical (cfg, replicate) gives a bit-identical result.  The first
    retained sample is time step burn_in.  Raises NonFiniteStateError as
    soon as the state overflows (a huge finite x0 or i0), so no nan reaches
    a results file, and ValueError, before any draw, when the kept series
    would take more than KEPT_SERIES_MAX_BYTES.
    """
    t0, pieces = trajectory_pieces(cfg, replicate)
    n_kept = cfg.t_max - t0
    n_bytes = 24 * n_kept  # float64 xs, ys and noise
    if n_bytes > KEPT_SERIES_MAX_BYTES:
        raise ValueError(
            f"keeping sim.t_max - sim.burn_in = {n_kept} steps needs {n_bytes} bytes, "
            f"above KEPT_SERIES_MAX_BYTES = {KEPT_SERIES_MAX_BYTES}; "
            "lower sim.t_max or raise sim.burn_in")
    # filled in place: joining the pieces at the end would hold the series twice
    kept, t = np.empty((3, n_kept)), 0
    for piece in pieces:
        n = piece[0].size
        for row, values in zip(kept, piece):
            row[t:t + n] = values
        t += n
    return Trajectory(*kept, t0)


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
    NonFiniteStateError as run_trajectory does; a sum that overflows gives
    a non-finite average, with no warning.
    """
    n_seeds = _check_count("n_seeds", n_seeds, 1)
    sums = _CellSums(cfg.burn_in, 1, n_seeds, 1, [cfg.wellbeing], False)
    for piece in _single_start_pieces(cfg, range(n_seeds), [cfg.adapt.l]):
        sums.add(*piece)
    [pays], [mean_payoff], [stderr_payoff] = sums.averages(sums.x, cfg.wellbeing.params)
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
