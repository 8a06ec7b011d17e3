"""Host measurements: speed calibration and memory sampling.

On a small shared host the same job can take 1.5x longer for seconds at a
time when a neighbour loads the core.  The benchmark therefore times a
fixed pure-Python loop right before and after each job it runs in its own
process, and rescales the job's time by ``REFERENCE_S / loop seconds``: a
*reference second* is what the job would have taken had the loop run at
its reference speed.  The loop lives here, outside the program, so no
change to the simulator moves it.

A pass through a process pool is timed from this process too, with the
loops run before the pool starts and after it has shut down, but it is
rescaled once per run (:class:`Calibration`).  One pass's own loops track
the speed the pool workers met poorly -- on the reference host, rescaling
each pass by them widened the pass-to-pass spread of the ``campaign``
pass from 0.11 to 0.21 ((q3 - q1) / median over ten passes) -- while the
mean over a run's loops follows the slower drift of the host.

:class:`Monitor` samples the resident set size of this process and its
pool workers.
"""

import os
import statistics
import threading
from time import perf_counter

#: Seconds the calibration loop takes on the reference host (a 2 GHz
#: Xeon vCPU of a 2-core VM, unloaded), so reference seconds read close
#: to wall seconds there.
REFERENCE_S = 0.0143
LOOP_ITERATIONS = 100_000
#: Loops run on each side of a pooled pass.
POOL_LOOPS = 15


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = perf_counter()
    total, table = 0, {}
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return perf_counter() - start


def measured(func):
    """Run ``func`` between two calibrations.

    Returns ``(result, wall seconds, reference seconds)``.
    """
    before = calibrate()
    start = perf_counter()
    result = func()
    wall = perf_counter() - start
    return result, wall, reference(wall, before, calibrate())


def reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given calibrations around them."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


class Calibration:
    """Calibration loops pooled over the pooled passes of one run.

    :meth:`timed` runs :data:`POOL_LOOPS` loops on each side of the work;
    :meth:`reference` rescales by the mean of every loop timed so far.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _mark(self) -> None:
        self.samples += [calibrate() for _ in range(POOL_LOOPS)]

    def timed(self, func):
        """Run ``func`` between two marks; returns ``(result, wall s)``."""
        self._mark()
        start = perf_counter()
        result = func()
        wall = perf_counter() - start
        self._mark()
        return result, wall

    def reference(self, seconds: float) -> float:
        """Wall ``seconds`` in reference seconds."""
        return seconds * REFERENCE_S / statistics.mean(self.samples)


def _rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass            # the process has just exited
    return 0


def _children(pid: int) -> list:
    pids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                pids += [int(child) for child in handle.read().split()]
        except OSError:
            pass
    return pids


class Monitor(threading.Thread):
    """Samples the summed RSS of this process and its children (pool
    workers) every 0.2 s while work runs, keeping the peak.  Use as a
    context manager around one pass."""

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.peak_rss_kib = 0
        self._stop_event = threading.Event()

    def _sample(self) -> None:
        pids = [os.getpid()] + _children(os.getpid())
        self.peak_rss_kib = max(self.peak_rss_kib,
                                sum(_rss_kib(pid) for pid in pids))

    def run(self) -> None:
        self._sample()
        while not self._stop_event.wait(self.INTERVAL_S):
            self._sample()

    def __enter__(self) -> "Monitor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop_event.set()
        self.join()

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_rss_kib / 1024.0
