"""Simulator wall-clock speed: parked-PE wakeups.

The **parked-PE wakeup scheduler** (``repro/arch/wakeup.py``) elides
idle PEs' empty poll events.  It is measured on an idle-heavy workload,
a long serial dependency chain on a 16-PE machine, against a
bit-exactness assertion so the speedup cannot come from changed
semantics.

Run with ``-s`` to see the measured event counts and speedup.
"""

import time

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import flex_config
from repro.core.context import Worker
from repro.core.task import HOST_CONTINUATION, Task


class SerialChainWorker(Worker):
    """A pure serial tail: each task computes, then spawns one successor.

    Fifteen of the sixteen PEs have nothing to do for the whole run —
    they poll and fail steals (or park) for every one of the chain's
    compute cycles.  This is the serial-phase behaviour of fib's final
    SUM reductions, distilled.
    """

    name = "serial-chain"
    task_types = ("CHAIN",)

    def __init__(self, compute_cycles: int) -> None:
        self.compute_cycles = compute_cycles

    def execute(self, task, ctx):
        remaining = task.arg(0)
        ctx.compute(self.compute_cycles)
        if remaining > 0:
            ctx.spawn(Task("CHAIN", task.k, (remaining - 1,)))
        else:
            ctx.send_arg(task.k, 0)


def _run_chain(park: bool, links: int = 500, compute: int = 400):
    config = flex_config(16, memory="perfect", park_idle_pes=park)
    accel = FlexAccelerator(config, SerialChainWorker(compute))
    start = time.perf_counter()
    result = accel.run(Task("CHAIN", HOST_CONTINUATION, (links,)))
    elapsed = time.perf_counter() - start
    return accel, result, elapsed


def test_parked_wakeup_speedup_on_serial_tail(bench_metrics):
    polled_accel, polled, polled_s = _run_chain(park=False)
    parked_accel, parked, parked_s = _run_chain(park=True)

    # Semantics first: identical simulated timeline and steal statistics.
    assert parked.cycles == polled.cycles
    assert [
        (s.tasks_executed, s.busy_cycles, s.steal_attempts, s.steal_hits,
         s.tasks_stolen_from) for s in parked.pe_stats
    ] == [
        (s.tasks_executed, s.busy_cycles, s.steal_attempts, s.steal_hits,
         s.tasks_stolen_from) for s in polled.pe_stats
    ]
    assert parked.value == polled.value == 0

    # The elided events are the whole point: the idle PEs' failed-steal
    # cadence runs at three engine events per ~12 cycles per PE, so the
    # polled run is dominated by them.
    elided = parked.counters["park.events_elided"]
    assert elided > 50_000

    speedup = polled_s / parked_s
    bench_metrics.gauge("simspeed.polled_seconds",
                        "busy-poll wall-clock", volatile=True).set(polled_s)
    bench_metrics.gauge("simspeed.parked_seconds",
                        "parked-PE wall-clock", volatile=True).set(parked_s)
    bench_metrics.gauge("simspeed.speedup", "polled/parked wall-clock",
                        volatile=True).set(speedup)
    bench_metrics.gauge("simspeed.events_elided",
                        "empty poll events skipped").set(elided)
    bench_metrics.gauge("simspeed.cycles", "simulated cycles").set(
        parked.cycles)
    print(f"\nsimspeed: polled {polled_s:.2f}s, parked {parked_s:.2f}s "
          f"({speedup:.1f}x), {elided} events elided, "
          f"{parked.cycles} simulated cycles")
    assert speedup >= 2.0, (
        f"expected >=2x wall-clock speedup, got {speedup:.2f}x "
        f"(polled {polled_s:.3f}s, parked {parked_s:.3f}s)"
    )
