"""Bit-exactness regression for the parked-PE wakeup scheduler.

The wakeup scheduler (``repro/arch/wakeup.py``) is a pure simulator
optimisation: parking idle PEs and replaying their elided poll/steal
cadence on wakeup must leave every observable of the run — simulated
cycles, per-PE steal statistics, LFSR-driven victim choices, queue
high-water marks, network message counts — identical to the polling
execution.  These tests run each workload twice, with parking disabled
and enabled, and require the signatures to match exactly.
"""

import pytest

from repro.harness.runners import run_cpu, run_flex, run_lite
from repro.sched import POLICY_NAMES


def signature(result):
    """Every steal/timing observable the scheduler could perturb."""
    return {
        "cycles": result.cycles,
        "pe_stats": [
            (s.tasks_executed, s.busy_cycles, s.steal_attempts,
             s.steal_hits, s.steal_hits_remote, s.tasks_stolen_from,
             s.queue_high_water)
            for s in result.pe_stats
        ],
        "steal_requests": result.counters["steal_requests"],
        "arg_messages_local": result.counters["arg_messages_local"],
        "arg_messages_remote": result.counters["arg_messages_remote"],
        "value": result.value,
    }


@pytest.mark.parametrize("kernel", ["reference"], indirect=True)
@pytest.mark.parametrize("name,params", [
    ("fib", {"n": 20}),
    ("quicksort", None),
    ("uts", None),
])
def test_flex8_bit_exact_with_parking(name, params, kernel):
    # Parking exercises resume_at's virtual ancestry — the trickiest
    # ordering path in the kernel.
    polled = run_flex(name, 8, quick=True, params=params,
                      park_idle_pes=False)
    parked = run_flex(name, 8, quick=True, params=params,
                      park_idle_pes=True)
    assert signature(parked) == signature(polled)
    # The speedup is real, not semantic: events were actually elided.
    assert parked.counters["park.events_elided"] > 0
    assert "park.events_elided" not in polled.counters


@pytest.mark.parametrize("policy", POLICY_NAMES)
@pytest.mark.parametrize("name,pes", [("uts", 8), ("fib", 16)])
def test_every_policy_bit_exact_with_parking(policy, name, pes):
    """The wakeup replay must reproduce *any* policy's elided picks.

    The replay contract (``repro/sched/base.py``): while a PE is
    parked every probe it would have run is a guaranteed miss, and the
    registry feeds each elided ``pick_victim``/``note_steal(victim,0,0)``
    pair back through the PE's scheduler.  A policy whose state could
    drift while parked (e.g. hints mutated by received messages) would
    diverge here.
    """
    polled = run_flex(name, pes, quick=True, steal_policy=policy,
                      park_idle_pes=False)
    parked = run_flex(name, pes, quick=True, steal_policy=policy,
                      park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_lite_bit_exact_with_parking():
    polled = run_lite("quicksort", 8, quick=True, park_idle_pes=False)
    parked = run_lite("quicksort", 8, quick=True, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_lite_full_size_bit_exact_with_parking():
    """Full-size lite quicksort under coherent memory.

    Regression for a wake-ordering bug the quick-size runs cannot see:
    long-idle LiteArch PEs collide on identical poll ancestry, so their
    wakeup resumes must be issued in the polling heap's tie order (chain
    history, then park order).  Getting that order wrong flips same-tick
    memory-access interleavings between concurrently executing PEs, and
    only a working set large enough for bandwidth contention (the full
    input) turns the flip into a cycle-count difference.
    """
    polled = run_lite("quicksort", 8, park_idle_pes=False)
    parked = run_lite("quicksort", 8, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0


def test_cpu_baseline_bit_exact_with_parking():
    polled = run_cpu("fib", 8, quick=True, park_idle_pes=False)
    parked = run_cpu("fib", 8, quick=True, park_idle_pes=True)
    assert signature(parked) == signature(polled)
    assert parked.counters["park.events_elided"] > 0
