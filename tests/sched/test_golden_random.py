"""Golden pinning: ``steal_policy="random"`` is the pre-refactor engine.

The policy layer extracted the paper's hard-coded scheduling protocol
into ``repro.sched``; ``random`` must remain *bit-exact* with the
pre-refactor engine.  The constants below were captured from the last
commit before the extraction (same workloads, quick sizes): end-to-end
cycles, the number of recorded steal events, and a digest over the
time-ordered ``(ts, kind, pe, victim)`` steal event stream, for
fib/quicksort/uts at 1/4/16 PEs with parking off and on.

Notes:

* Cycle counts are park-invariant; the event *digests* differ between
  park modes at >=4 PEs only because ``sorted_events`` is a stable sort
  and replay-emitted events append in a different relative order for
  identical timestamps — the polling digest is the canonical stream,
  the parked digest is pinned as its own golden.
* The 1-PE rows pin the steal-bookkeeping fix: the cycle counts and
  event streams are unchanged from the pre-refactor capture (the IF
  root fetches are still timed and traced), but ``steal_attempts`` /
  ``steal_hits`` now read zero where the old engine reported the IF
  handshakes as steals.

Any diff here means the ``random`` reimplementation drifted from the
paper's protocol — fix the code, do not re-record the goldens.
"""

import hashlib

import pytest

from repro.harness.runners import run_flex

#: (cycles, steal_events, steal_digest, attempts, hits, stolen_from)
#: per "benchmark-pes-park{0,1}", quick sizes.
GOLDEN = {
    "fib-1-park0": (11656, 10, "677cc73de419d999", 0, 0, 0),
    "fib-1-park1": (11656, 10, "677cc73de419d999", 0, 0, 0),
    "fib-4-park0": (3154, 262, "fe3bc50c9c6dab2a", 131, 25, 24),
    "fib-4-park1": (3154, 262, "09fd249753530742", 131, 25, 24),
    "fib-16-park0": (1117, 1074, "67045c9091355337", 537, 95, 94),
    "fib-16-park1": (1117, 1074, "2608b4f936628dce", 537, 95, 94),
    "quicksort-1-park0": (58159, 10, "d52553e1ddf83140", 0, 0, 0),
    "quicksort-1-park1": (58159, 10, "d52553e1ddf83140", 0, 0, 0),
    "quicksort-4-park0": (19272, 4490, "7d7609a4f4c01590", 2245, 40, 39),
    "quicksort-4-park1": (19272, 4490, "552fe434c753032f", 2245, 40, 39),
    "quicksort-16-park0": (14660, 29834, "f546021baddeda2b",
                           14917, 130, 129),
    "quicksort-16-park1": (14660, 29834, "0f4d232f03954e63",
                           14917, 130, 129),
    "uts-1-park0": (11428, 10, "d65819963aacb08d", 0, 0, 0),
    "uts-1-park1": (11428, 10, "d65819963aacb08d", 0, 0, 0),
    "uts-4-park0": (3339, 544, "45804b0056bcf1fd", 272, 74, 73),
    "uts-4-park1": (3339, 544, "601f704b2095f79f", 272, 74, 73),
    "uts-16-park0": (1866, 3278, "0baeef02f1c06f8c", 1639, 265, 264),
    "uts-16-park1": (1866, 3278, "4958d565fb11fff9", 1639, 265, 264),
}

STEAL_KINDS = ("steal-req", "steal-hit", "steal-miss")


def steal_digest(sink):
    """Digest of the time-ordered steal event stream (as captured)."""
    events = [(e.ts, e.kind, e.pe, e.data.get("victim"))
              for e in sink.sorted_events() if e.kind in STEAL_KINDS]
    return (hashlib.sha256(repr(events).encode()).hexdigest()[:16],
            len(events))


@pytest.mark.parametrize("kernel", ["reference"], indirect=True)
@pytest.mark.parametrize("park", [False, True], ids=["park0", "park1"])
@pytest.mark.parametrize("pes", [1, 4, 16])
@pytest.mark.parametrize("name", ["fib", "quicksort", "uts"])
def test_random_policy_matches_pre_refactor_golden(name, pes, park, kernel):
    result = run_flex(name, pes, quick=True, steal_policy="random",
                      park_idle_pes=park, telemetry=True)
    digest, num_events = steal_digest(result.telemetry)
    key = f"{name}-{pes}-park{int(park)}"
    cycles, events, want_digest, attempts, hits, stolen = GOLDEN[key]
    assert result.cycles == cycles, key
    assert num_events == events, key
    assert digest == want_digest, key
    assert sum(s.steal_attempts for s in result.pe_stats) == attempts, key
    assert sum(s.steal_hits for s in result.pe_stats) == hits, key
    assert sum(s.tasks_stolen_from for s in result.pe_stats) == stolen, key


def test_default_policy_is_random():
    """Omitting ``steal_policy`` must select the paper's protocol."""
    default = run_flex("fib", 4, quick=True)
    pinned = run_flex("fib", 4, quick=True, steal_policy="random")
    assert default.cycles == pinned.cycles == GOLDEN["fib-4-park1"][0]
