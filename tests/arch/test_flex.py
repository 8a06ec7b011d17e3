"""Integration tests for the FlexArch timed engine."""

import pytest

from repro.arch.accelerator import FlexAccelerator
from repro.arch.config import flex_config, lite_config
from repro.core.context import Worker
from repro.core.exceptions import (
    ConfigError,
    DeadlockError,
    TaskQueueOverflowError,
)
from repro.core.task import HOST_CONTINUATION, Task
from repro.exec import QUICK_PARAMS
from repro.workers.bbgemm import BbgemmBenchmark
from repro.workers.fib import FibWorker, fib_reference


def fib_task(n):
    return Task("FIB", HOST_CONTINUATION, (n,))


def run_fib(n=14, pes=4, **overrides):
    overrides.setdefault("memory", "perfect")
    accel = FlexAccelerator(flex_config(pes, **overrides), FibWorker())
    return accel.run(fib_task(n))


@pytest.mark.parametrize("pes", [1, 2, 4, 8, 16, 32])
def test_fib_correct_across_pe_counts(pes):
    assert run_fib(13, pes).value == fib_reference(13)


def test_requires_flex_config():
    with pytest.raises(ConfigError):
        FlexAccelerator(lite_config(4), FibWorker())


def test_speedup_with_more_pes():
    t1 = run_fib(15, 1).cycles
    t8 = run_fib(15, 8).cycles
    assert t1 / t8 > 5.0


def test_deterministic_cycles():
    assert run_fib(13, 4).cycles == run_fib(13, 4).cycles


def test_steals_occur_and_include_interface():
    result = run_fib(14, 8)
    assert result.total_steals > 0
    # The root task is always stolen from the IF block.
    assert sum(p.steal_hits for p in result.pe_stats) >= 1


def test_single_pe_no_peer_steals():
    result = run_fib(12, 1)
    # Only the IF block is a victim for a single PE.
    assert result.tasks_executed > 0


def test_utilization_bounded():
    result = run_fib(14, 4)
    assert 0.0 < result.utilization() <= 1.0


def test_run_result_properties():
    result = run_fib(12, 2)
    assert result.ns == pytest.approx(result.cycles * 5.0)  # 200 MHz
    assert result.seconds == pytest.approx(result.ns * 1e-9)
    assert result.clock_mhz == 200.0
    assert "flex2" in result.label
    assert result.speedup_over(result) == pytest.approx(1.0)


def test_cannot_rerun_engine():
    accel = FlexAccelerator(flex_config(2, memory="perfect"), FibWorker())
    accel.run(fib_task(8))
    with pytest.raises(ConfigError):
        accel.run(fib_task(8))


def test_task_queue_overflow_detected():
    class WideSpawn(Worker):
        task_types = ("W", "LEAF", "SUM")

        def execute(self, task, ctx):
            if task.task_type == "W":
                k = ctx.make_successor("SUM", task.k, 50)
                for i in range(50):
                    ctx.spawn(Task("LEAF", k.with_slot(i)))
            elif task.task_type == "LEAF":
                ctx.send_arg(task.k, 1)
            else:
                ctx.send_arg(task.k, sum(task.args))

    accel = FlexAccelerator(
        flex_config(1, memory="perfect", task_queue_entries=8),
        WideSpawn(),
    )
    with pytest.raises(TaskQueueOverflowError):
        accel.run(Task("W", HOST_CONTINUATION))


def test_deadlock_detected_by_cycle_limit():
    class Stuck(Worker):
        task_types = ("S",)

        def execute(self, task, ctx):
            ctx.make_successor("NEVER", task.k, 1)  # never filled

    accel = FlexAccelerator(flex_config(2, memory="perfect"), Stuck())
    with pytest.raises(DeadlockError):
        accel.run(Task("S", HOST_CONTINUATION), max_cycles=10_000)


def test_ablation_configs_still_correct():
    for overrides in (
        {"local_order": "fifo", "task_queue_entries": 1 << 16,
         "pstore_entries": 1 << 16},
        {"steal_end": "tail"},
        {"greedy": False},
        {"central_pstore": True, "pstore_entries": 1 << 16},
    ):
        assert run_fib(12, 4, **overrides).value == fib_reference(12)


def test_greedy_vs_nongreedy_differ_in_timing():
    greedy = run_fib(14, 8, greedy=True)
    lazy = run_fib(14, 8, greedy=False)
    assert greedy.value == lazy.value
    assert greedy.cycles != lazy.cycles


def test_coherent_memory_mode_runs():
    accel = FlexAccelerator(flex_config(4, memory="coherent"), FibWorker())
    result = accel.run(fib_task(12))
    assert result.value == fib_reference(12)
    assert "l1_hits" in result.mem_summary


def test_l1_port_interval_adds_stall_through_accelerator():
    """A nonzero per-line L1 port interval makes a tile's PEs contend for
    their shared L1, which ``mem_stall_cycles`` must pass on as stall."""
    def total_stall(**overrides):
        bench = BbgemmBenchmark(**QUICK_PARAMS["bbgemm"])
        accel = FlexAccelerator(flex_config(8, memory="coherent", **overrides),
                                bench.flex_worker())
        result = accel.run(bench.root_task())
        assert bench.verify(result.value)
        return sum(p.mem_stall_cycles for p in result.pe_stats)

    assert total_stall(l1_port_interval_ns=10.0) > total_stall()


def test_stream_memory_mode_runs():
    accel = FlexAccelerator(flex_config(4, memory="stream"), FibWorker())
    result = accel.run(fib_task(12))
    assert result.value == fib_reference(12)


def test_multiple_root_tasks():
    roots = [Task("FIB", HOST_CONTINUATION.with_slot(i), (8 + i,))
             for i in range(3)]
    accel = FlexAccelerator(flex_config(4, memory="perfect"), FibWorker())
    result = accel.run(roots)
    assert result.host.slots == {
        0: fib_reference(8), 1: fib_reference(9), 2: fib_reference(10),
    }


def test_pe_stats_consistency():
    result = run_fib(13, 4)
    assert sum(p.tasks_executed for p in result.pe_stats) == \
        result.tasks_executed
    for p in result.pe_stats:
        assert p.busy_cycles <= result.cycles
        assert p.steal_hits <= p.steal_attempts


def test_offload_latency_charged():
    """Whole-program time includes the memory-mapped inject/readback
    transfers (Section III-E / Section V-B methodology)."""
    cheap = run_fib(12, 2, offload_inject_cycles=0, offload_read_cycles=0)
    priced = run_fib(12, 2, offload_inject_cycles=500,
                     offload_read_cycles=500)
    assert priced.value == cheap.value
    # ~500 inject + 500 readback, modulo idle-poll quantisation at start.
    assert priced.cycles >= cheap.cycles + 950
