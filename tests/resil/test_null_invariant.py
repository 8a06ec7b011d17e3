"""Bit-exactness regressions for the resilience subsystem.

Every resilience feature is nil-check guarded (fault plan) or changes
only failure paths (recovery knobs), and the watchdog's chunked engine
runs advance the same event heap to the same timestamps — so with no
faults injected, a run with all of it enabled must be *bit-identical*
to a plain run.  Same style as ``tests/arch/test_wakeup_determinism.py``.
"""

import pytest

from repro.harness.runners import run_flex
from repro.resil.faults import FaultSpec
from repro.sched import POLICY_NAMES

#: Recovery knobs at full strength (park off: fault plans require it).
KNOBS = dict(
    park_idle_pes=False,
    steal_retry=True,
    arg_retransmit=True,
    pe_fault_retry=True,
    pstore_backpressure=True,
    pstore_ecc=True,
    spawn_overflow_inline=True,
)


def signature(result):
    """Every observable a resilience hook could perturb."""
    return {
        "cycles": result.cycles,
        "pe_stats": [
            (s.tasks_executed, s.busy_cycles, s.steal_attempts,
             s.steal_hits, s.steal_hits_remote, s.tasks_stolen_from,
             s.queue_high_water, s.steal_retries, s.pe_faults,
             s.pstore_nacks, s.inline_spawns)
            for s in result.pe_stats
        ],
        "steal_requests": result.counters["steal_requests"],
        "arg_messages_local": result.counters["arg_messages_local"],
        "arg_messages_remote": result.counters["arg_messages_remote"],
        "value": result.value,
    }


@pytest.mark.parametrize("kernel", ["reference"], indirect=True)
@pytest.mark.parametrize("name", ["fib", "uts"])
def test_zero_rate_plan_is_bit_exact(name, kernel):
    plain = run_flex(name, 8, quick=True, park_idle_pes=False)
    nulled = run_flex(name, 8, quick=True, park_idle_pes=False,
                      faults=FaultSpec())
    assert signature(nulled) == signature(plain)
    # The plan was attached and consulted zero times.
    assert nulled.counters["faults.injected"] == 0
    assert "faults.injected" not in plain.counters


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_zero_rate_plan_is_bit_exact_under_every_policy(policy):
    """LFSR stream isolation, per scheduling policy.

    The fault plan draws from its own LFSR and every policy draws
    victims from the scheduling LFSRs only (``repro/sched/base.py``),
    so attaching a zero-rate plan must be bit-identical to no plan no
    matter which ``steal_policy`` shapes the victim sequence — the two
    streams never interleave.
    """
    plain = run_flex("uts", 8, quick=True, park_idle_pes=False,
                     steal_policy=policy)
    nulled = run_flex("uts", 8, quick=True, park_idle_pes=False,
                      steal_policy=policy, faults=FaultSpec())
    assert signature(nulled) == signature(plain)
    assert nulled.counters["faults.injected"] == 0


@pytest.mark.parametrize("name", ["fib", "uts"])
def test_recovery_knobs_bit_exact_without_faults(name):
    plain = run_flex(name, 8, quick=True, park_idle_pes=False)
    armed = run_flex(name, 8, quick=True, **KNOBS)
    assert signature(armed) == signature(plain)


@pytest.mark.parametrize("name", ["fib", "uts"])
def test_watchdog_bit_exact(name):
    plain = run_flex(name, 8, quick=True, park_idle_pes=False)
    watched = run_flex(name, 8, quick=True, park_idle_pes=False,
                       watchdog_interval=500)
    assert signature(watched) == signature(plain)


def test_watchdog_composes_with_parking():
    plain = run_flex("fib", 8, quick=True, park_idle_pes=True)
    watched = run_flex("fib", 8, quick=True, park_idle_pes=True,
                       watchdog_interval=500)
    assert signature(watched) == signature(plain)


def test_same_seed_faulted_runs_identical():
    spec = FaultSpec.uniform(0.005, seed=0xBEEF)
    knobs = dict(KNOBS, watchdog_interval=100_000)
    a = run_flex("fib", 4, quick=True, faults=spec, **knobs)
    b = run_flex("fib", 4, quick=True, faults=spec, **knobs)
    assert signature(a) == signature(b)
    fault_counters = lambda r: {k: v for k, v in r.counters.items()
                                if k.startswith("faults.")}
    assert fault_counters(a) == fault_counters(b)
    assert a.counters["faults.injected"] > 0
