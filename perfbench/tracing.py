"""Per-layer tracing installed from outside the package.

The program is not instrumented.  Instead, :meth:`Tracer.install` replaces
selected functions by timing wrappers in every ``flickersim`` module that
binds them, which covers both the names a module imports from another
module (``flickersim.cli.run_trajectory``,
``flickersim.analytics._simulate_paths``) and a module's calls to its own
functions (``run_trajectory`` calling ``_simulate_paths``).

Spans are aggregated in memory by (parent, name) instead of being kept one
by one: ``write_trajectory_csv`` alone calls ``payoff`` once per row, and a
list of every span would grow without bound over a run.  A span's self time
is its duration minus the time of the spans directly under it.

To add a span, append ``(module, function, span name)`` to :data:`SPANS`
and its ``.self_s`` and ``.calls`` metrics to BENCHMARK.json; a count that
needs the call's arguments or result goes in :meth:`Tracer._counters` and
:data:`COUNT_NAMES`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, span name).  build_manifest and write_manifest share
# one span: together they are the manifest cost of a command.
SPANS = [
    ("cli", "main", "cli"),
    ("io", "load_run_config", "io.load_run_config"),
    ("io", "write_trajectory_csv", "io.write_trajectory_csv"),
    ("io", "write_sweep_csv", "io.write_sweep_csv"),
    ("io", "write_comparison_csv", "io.write_comparison_csv"),
    ("io", "write_crossover_json", "io.write_crossover_json"),
    ("io", "write_flicker_json", "io.write_flicker_json"),
    ("io", "write_bifurcation_csv", "io.write_bifurcation_csv"),
    ("io", "build_manifest", "io.manifest"),
    ("io", "write_manifest", "io.manifest"),
    ("analytics", "utility_sweep", "analytics.utility_sweep"),
    ("analytics", "transform_comparison", "analytics.transform_comparison"),
    ("analytics", "flicker_stats", "analytics.flicker_stats"),
    ("analytics", "separatrix_for", "analytics.separatrix_for"),
    ("simulate", "run_trajectory", "simulate.run_trajectory"),
    ("simulate", "run_ensemble", "simulate.run_ensemble"),
    ("simulate", "resolve_config", "simulate.resolve_config"),
    ("simulate", "_draw_innovations", "simulate.draw"),
    ("simulate", "_simulate_paths", "simulate.recurrence"),
    ("simulate", "adaptation_paths", "simulate.filter"),
    ("wellbeing", "payoff", "wellbeing.payoff"),
    ("wellbeing", "utility", "wellbeing.utility"),
    ("equilibria", "equilibria", "equilibria.equilibria"),
    ("equilibria", "fold_points", "equilibria.fold_points"),
    ("equilibria", "bifurcation_scan", "equilibria.bifurcation_scan"),
    ("equilibria", "classify_regime", "equilibria.classify_regime"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in SPANS))

# Per-pass counts reported next to the spans.
COUNT_NAMES = [
    "simulate.replicate_steps",
    "simulate.recurrence.rows_per_call",
    "simulate.retained_frac",
    "simulate.block_mb",
    "wellbeing.points",
    "analytics.cells",
    "analytics.error_cells",
    "equilibria.named_errors",
    "io.bytes_written",
    "io.files_written",
]

_NAMED_ERRORS = ("EquilibriumError", "RegimeError", "NoBistabilityError")


class Tracer:
    """Span and count aggregation for one benchmark process."""

    def __init__(self) -> None:
        # name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # (parent, name) -> [calls, total_s]
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_s] per open span
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None, on_error=None):
        stack, spans, edges = self._stack, self.spans, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(parent, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                try:
                    after(parent, args, kwargs, result)
                except Exception:  # a changed signature must not fail the program
                    self.counts["_count_errors"] += 1
            return result

        return wrapper

    def _counters(self):
        counts = self.counts

        def draw(parent, args, kwargs, etas):
            cfg, replicates = args
            counts["_retained_steps"] += len(replicates) * (cfg.t_max - cfg.burn_in)

        def recurrence(parent, args, kwargs, paths):
            rows, t_max = args[-1].shape
            counts["simulate.replicate_steps"] += rows * t_max
            counts["_recurrence_rows"] += rows
            counts["_block_mb_max"] = max(counts["_block_mb_max"],
                                          sum(a.nbytes for a in paths) / 1e6)

        def scored(parent, args, kwargs, result):
            if not parent.startswith("wellbeing."):
                counts["wellbeing.points"] += getattr(args[0], "size", 1)

        def cells(parent, args, kwargs, result):
            rows = result if isinstance(result, list) else result.rows
            counts["analytics.cells"] += len(rows)
            counts["analytics.error_cells"] += sum(1 for row in rows if row.error)

        def named_error(parent, exc):
            if type(exc).__name__ in _NAMED_ERRORS and not parent.startswith("equilibria."):
                counts["equilibria.named_errors"] += 1

        return {
            "simulate.draw": (draw, None),
            "simulate.recurrence": (recurrence, None),
            "wellbeing.payoff": (scored, None),
            "wellbeing.utility": (scored, None),
            "analytics.utility_sweep": (cells, None),
            "analytics.transform_comparison": (cells, None),
            "equilibria.equilibria": (None, named_error),
            "equilibria.fold_points": (None, named_error),
            "equilibria.bifurcation_scan": (None, named_error),
            "equilibria.classify_regime": (None, named_error),
        }

    def install(self) -> None:
        """Wrap every SPANS function wherever a flickersim module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "flickersim" or key.startswith("flickersim."))]
        counters = self._counters()
        for mod_name, attr, span in SPANS:
            # A function that a later version removes or renames gets no span;
            # its metrics read 0 calls.
            original = getattr(sys.modules.get(f"flickersim.{mod_name}"), attr, None)
            if original is None:
                continue
            after, on_error = counters.get(span, (None, None))
            self._replace(modules, original, self._wrap(span, original, after, on_error))
        io_mod = sys.modules["flickersim.io"]
        if hasattr(io_mod, "_atomic_write"):
            self._replace([io_mod], io_mod._atomic_write, self._count_writes(io_mod._atomic_write))

    def _count_writes(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = fn(*args, **kwargs)
            counts["io.files_written"] += 1
            counts["io.bytes_written"] += path.stat().st_size
            return path

        return wrapper

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span self times, call counts and counts."""
        out = {}
        for name in SPAN_NAMES:
            calls, _, self_s = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.self_s"] = self_s / passes
            out[f"{name}.calls"] = calls / passes
        counts = self.counts
        rec_calls = self.spans.get("simulate.recurrence", (0,))[0]
        steps = counts["simulate.replicate_steps"]
        derived = {
            "simulate.recurrence.rows_per_call":
                counts["_recurrence_rows"] / rec_calls if rec_calls else 0.0,
            "simulate.retained_frac": counts["_retained_steps"] / steps if steps else 0.0,
            "simulate.block_mb": counts["_block_mb_max"],
        }
        for name in COUNT_NAMES:
            out[name] = derived[name] if name in derived else counts[name] / passes
        return out

    def edge_table(self, passes: int) -> list[dict]:
        return [
            {"parent": parent or None, "name": name, "calls": calls / passes,
             "total_s": total / passes}
            for (parent, name), (calls, total) in sorted(self.edges.items())
        ]
