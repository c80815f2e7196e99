"""flickersim benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 12 --trace 0

With --trace 0 a run reports the end-to-end metrics (setup_s, wall_s,
work_per_s, peak_mem_mb); with --trace 1 it installs the timing wrappers of
tracing.py and reports per-layer self times and counts instead.  Either way
it checks the outputs, prints a readable summary and a stamp line, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

A run is one single-threaded process.  It builds the workload's inputs from
--seed, runs one untimed warm-up pass (peak_mem_mb is the process's peak RSS
through it), then repeats timed passes until --seconds have gone by.
wall_s is the median pass and setup_s the median over fresh interpreters
started by setup_probe.py, both scaled to a reference CPU speed by the
calibration loops of calibration.py; the raw seconds are kept in the result
file under _work/.  Every operation and check runs under a time budget, and
one that raises, overruns or fails counts in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
SETUP_BUDGET_S = 30.0
OP_BUDGET_S = 30.0
# Operations stop being started after this, so a run ends within 180 s.
RUN_DEADLINE_S = 165.0


class OpTimeout(BaseException):
    """An operation ran past its budget.

    A BaseException, so that the program's own ``except Exception`` handlers
    cannot swallow it and carry on past the budget.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


class Runner:
    """Runs operations under a time budget and records the failures."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, name: str, fn) -> tuple[bool, object]:
        self.attempted += 1
        budget = min(OP_BUDGET_S, self.deadline - time.monotonic())
        if budget <= 0:
            self.failures.append(f"{name}: not started, run deadline passed")
            return False, None
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                return True, fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            self.failures.append(f"{name}: over its {budget:.1f} s budget")
        except Exception as exc:  # any error the program raises is a failed operation
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        return False, None


def import_program():
    """Import flickersim from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "flickersim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no flickersim sources under {src}")
    sys.path.insert(0, str(src))
    import flickersim.cli

    if Path(flickersim.__file__).resolve().parent != src / "flickersim":
        raise SystemExit(f"perfbench: imported flickersim from {flickersim.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure_setup(workload: str, seed: int, tiny: bool, runner: Runner) -> list[float]:
    """setup_s samples at reference speed, each from a fresh interpreter."""
    import calibration

    env = {**os.environ, **SINGLE_THREAD_ENV}
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(int(tiny))]
    samples = []
    for k in range(SETUP_REPEATS):
        runner.attempted += 1
        speed = calibration.Speed(calibration.SETUP_LOOPS)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_BUDGET_S)
        except subprocess.TimeoutExpired:
            runner.failures.append(f"setup probe {k}: over its {SETUP_BUDGET_S} s budget")
            continue
        if proc.returncode != 0:
            runner.failures.append(f"setup probe {k}: exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
            continue
        samples.append(speed.to_reference(float(proc.stdout.split()[-1])))
    return samples


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.stamp(),
    }


def run_pass(workload, runner: Runner) -> tuple[dict, float]:
    """One pass; returns its results and the seconds its operations took."""
    results, seconds = {}, 0.0
    for op in workload.ops():
        t0 = time.perf_counter()
        ok, value = runner.call(op.name, op.fn)
        seconds += time.perf_counter() - t0
        if ok:
            results[op.name] = value
    return results, seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["trajectory", "replicates", "grid", "regime_map"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny horizons and replicate counts (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    os.environ.update(SINGLE_THREAD_ENV)
    import_program()
    import calibration
    import tracing
    import workloads

    out_dir = WORK / f"{args.workload}-{os.getpid()}"
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workload = workloads.build(args.workload, args.seed, sizes, out_dir)
    info = stamp(args, workload)
    runner = Runner(started + RUN_DEADLINE_S)
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed, args.tiny, runner)
        if not args.trace and not setup:
            raise SystemExit("perfbench: no setup probe succeeded:\n" + "\n".join(runner.failures))

        reference, _ = run_pass(workload, runner)
        peak_mem = peak_rss_mb()
        expected = workload.fingerprint(reference)

        tracer = tracing.Tracer()
        walls, scaled, untraced, mismatched = [], [], [], 0
        window_end = time.monotonic() + args.seconds
        while True:
            if args.trace:
                # Traced passes alternate with untraced ones, so that their
                # difference, the tracing overhead, is taken at the same host
                # speed.  Not calibrated: raw seconds, like the span times.
                traced = len(walls) == len(untraced)
                if traced:
                    tracer.install()
                try:
                    results, seconds = run_pass(workload, runner)
                finally:
                    tracer.uninstall()
                (walls if traced else untraced).append(seconds)
            else:
                with calibration.Speed(workload.calibration) as speed:
                    results, seconds = run_pass(workload, runner)
                seconds -= speed.spent
                scaled.append(speed.to_reference(seconds))
                walls.append(seconds)
            if workload.fingerprint(results) != expected:
                mismatched += 1
            if time.monotonic() >= runner.deadline or (
                    time.monotonic() >= window_end and (untraced or not args.trace)):
                break

        checks = list(workload.checks(reference))
        checks.append(("data files identical across passes", lambda: _identical(mismatched)))
        failed_before_checks = len(runner.failures)
        for name, check in checks:
            runner.call(f"check: {name}", check)
        correct = len(runner.failures) == failed_before_checks

        if args.trace:
            # means, like the per-pass self times they bound
            traced_wall = statistics.mean(walls)
            overhead = traced_wall - statistics.mean(untraced) if untraced else 0.0
            metrics = {"traced.wall_s": (traced_wall, "s"),
                       "traced.overhead_s": (overhead, "s")}
            for name, value in tracer.metrics(len(walls)).items():
                metrics[name] = (value, _layer_unit(name))
            _write(WORK / f"trace-{args.workload}-seed{args.seed}.json",
                   {"stamp": info, "passes": len(walls),
                    "count_errors": tracer.counts["_count_errors"],
                    "edges": tracer.edge_table(len(walls))})
        else:
            wall = statistics.median(scaled)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (wall, "s"),
                "work_per_s": (workload.work() / wall, "1/s"),
                "peak_mem_mb": (peak_mem, "MB"),
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    _write(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
           {"stamp": info, "failures": runner.failures, "walls": walls,
            "untraced_walls": untraced, "scaled_walls": scaled, "setup": setup, **result})
    _summary(args, workload, walls, metrics, runner, info)
    print(json.dumps(result))
    return 0


def _identical(mismatched: int) -> None:
    if mismatched:
        raise AssertionError(f"{mismatched} passes wrote different data than the warm-up pass")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _summary(args, workload, walls, metrics, runner, info) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(walls)} timed passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if not args.trace:
        steps = workload.unit == "replicate steps"
        print(f"  {'replicate_steps_per_s':40s} "
              + (f"{metrics['work_per_s'][0]:14.6g} 1/s" if steps else f"{'n/a':>14s}"))
        print(f"  {'raw median pass':40s} {statistics.median(walls):14.6g} s (not scaled)")
    print(f"  {'failed_frac':40s} {len(runner.failures) / runner.attempted:14.6g} "
          f"({len(runner.failures)} of {runner.attempted} operations and checks)")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print("stamp " + json.dumps(info, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
