"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the CPU speed flips between modes about 2x apart, for
stretches from milliseconds to tens of seconds, so raw medians follow the
mix of modes during a run more than they follow the program.  The benchmark
therefore times fixed calibration loops before, during (every CAL_EVERY_S of
CPU time) and after the work, and reports

    seconds at reference speed = measured seconds * reference / mean calibration

where reference is the loops' time in the fast mode of the host the
baseline was taken on (2 vCPUs, Python 3.11, numpy 2.4).  The modes do not
slow every kind of code by the same factor, so each workload is calibrated
with the loops closest to its own hot path.  The loops are benchmark code:
no change to flickersim can move them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_EVERY_S = 0.2


def _recurrence(rows: int, steps: int = 200) -> None:
    """Small-array numpy steps driven from Python, like the state recurrence."""
    x = np.full(rows, 5.0)
    i = np.zeros(rows)
    y = x.copy()
    X = np.empty((rows, steps))
    for t in range(steps):
        X[:, t] = x
        x_new = np.maximum(0.0, (x * (1.0 - x / 10.0) - 2.0 * x * x / (x * x + 1.0)) + (1.0 + i) * x)
        i = 0.9 * i + 0.001
        y = 0.01 * (x - y) + y
        x = x_new


def _format(n: int = 3000) -> None:
    """Shortest round-trip float formatting, like the CSV writers."""
    ",".join(repr(k * 0.1234567) for k in range(n))


def _bisect(repeats: int = 40) -> None:
    """A grid sign scan and scalar bisection, like the equilibria root finder."""
    for _ in range(repeats):
        xs = np.linspace(0.0, 20.0, 4096)
        np.sign(xs * (1.0 - xs / 10.0) - 1.0)
        lo, hi = 0.0, 2.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if mid * (1.0 - mid / 10.0) - 1.0 > 0.0:
                hi = mid
            else:
                lo = mid


# name -> (loop, reference seconds)
LOOPS = {
    "recurrence_1row": (lambda: _recurrence(1), 0.0019),
    "recurrence_10rows": (lambda: _recurrence(10), 0.0019),
    "format": (_format, 0.0015),
    "bisect": (_bisect, 0.0011),
}
# For setup_s, whose work (imports) is the same on every workload.
SETUP_LOOPS = ("format", "bisect")


def calibrate(loops: tuple[str, ...]) -> float:
    """Seconds for one calibration: each loop's best of two, summed."""
    total = 0.0
    for name in loops:
        loop, _ = LOOPS[name]
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total


class Speed:
    """Calibration times taken before, during and after one stretch of work.

    Used as a context manager around the work, it also calibrates every
    CAL_EVERY_S of CPU time from a SIGPROF handler, so that speed changes in
    the middle of a long operation are seen.  The handler's own time is kept
    in ``spent`` for the caller to subtract.
    """

    def __init__(self, loops: tuple[str, ...]) -> None:
        self.loops = loops
        self.reference = sum(LOOPS[name][1] for name in loops)
        self.samples = [calibrate(loops)]
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(calibrate(self.loops))
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def to_reference(self, seconds: float) -> float:
        """Close the stretch and scale its measured seconds to the reference speed."""
        self.samples.append(calibrate(self.loops))
        return seconds * self.reference / statistics.mean(self.samples)
