"""Open-system determinism and admission-control integration tests.

The contract (docs/WORKLOADS.md): an open-system run is a pure function
of its spec.  The same workload produces bit-identical results across
park modes and serial-vs-parallel runners — the same invariances every
closed-system run already guarantees — and a recorded arrival stream
replays exactly.
"""

import pytest

from repro.core.exceptions import ConfigError
from repro.exec import JobRunner, make_spec, simulate
from repro.exec.record import RunRecord
from repro.workload import DEFAULT_ARRIVAL_SEED, make_source

WORKLOAD = dict(kind="stochastic", rate=4.0, num_jobs=12, seed=0xBEEF)


def _spec(workload=WORKLOAD, **overrides):
    return make_spec("fib", 4, quick=True, workload=workload, **overrides)


def _records(*specs, jobs=None):
    runner = JobRunner(jobs=jobs) if jobs else JobRunner()
    return runner.run_checked(list(specs))


# ---------------------------------------------------------------------------
# determinism
def test_same_seed_reproduces_record_digest():
    a, = _records(_spec())
    b, = _records(_spec())
    assert a.digest == b.digest
    assert len(a.jobs) == WORKLOAD["num_jobs"]


def test_different_seed_changes_jobs():
    a, = _records(_spec())
    b, = _records(_spec(workload=dict(WORKLOAD, seed=0xACE1)))
    assert [j["arrival"] for j in a.jobs] != [j["arrival"] for j in b.jobs]


def test_park_mode_invariance():
    # park_idle_pes is a spec field, so digests differ by construction;
    # the simulated outcome (timing and every job's lifecycle) must not.
    a, = _records(_spec(park_idle_pes=False))
    b, = _records(_spec(park_idle_pes=True))
    assert a.cycles == b.cycles
    assert a.jobs == b.jobs


def test_trace_replay_matches_stochastic_run():
    # The stochastic stream's arrivals, replayed as a trace workload
    # with the same tenants and window, must reproduce the run exactly;
    # only the spec (and so its digest) differs.
    tenants = [dict(name="gold", weight=3), dict(name="silver", weight=1)]
    stochastic = dict(kind="stochastic", rate=6.0, num_jobs=24,
                      seed=DEFAULT_ARRIVAL_SEED, tenants=tenants, window=2)
    trace = dict(kind="trace", tenants=tenants, window=2, arrivals=[
        [a.time, a.tenant] for a in make_source(stochastic).arrivals()])
    live, replay = _records(_spec(workload=stochastic),
                            _spec(workload=trace))
    assert live.spec_digest != replay.spec_digest
    assert len(live.jobs) == 24
    assert (dict(replay.to_dict(), spec_digest=None)
            == dict(live.to_dict(), spec_digest=None))


def test_parallel_runner_matches_serial():
    specs = [_spec(), _spec(workload=dict(WORKLOAD, rate=8.0))]
    serial = _records(*specs)
    parallel = _records(*specs, jobs=2)
    assert [r.digest for r in serial] == [r.digest for r in parallel]


# ---------------------------------------------------------------------------
# record semantics
def test_job_records_are_monotone_and_complete():
    record, = _records(_spec())
    assert [j["job"] for j in record.jobs] == list(range(12))
    for job in record.jobs:
        assert 0 < job["arrival"] < job["injected"]
        assert job["injected"] <= job["admitted"] <= job["completed"]
        assert job["latency"] == job["completed"] - job["arrival"]
        assert job["completed"] < record.cycles   # readback is on top


def test_record_round_trip_preserves_jobs():
    record, = _records(_spec())
    clone = RunRecord.from_dict(record.to_dict())
    assert clone.jobs == record.jobs
    assert clone.digest == record.digest


def test_closed_workload_matches_legacy_closed_run():
    open_result = simulate(_spec(workload=dict(kind="closed", num_jobs=1)))
    closed_result = simulate(make_spec("fib", 4, quick=True))
    assert open_result.cycles == closed_result.cycles


# ---------------------------------------------------------------------------
# admission control
TENANTED = dict(
    kind="stochastic", rate=8.0, num_jobs=10, seed=0xBEEF,
    tenants=[dict(name="gold", weight=3), dict(name="silver", weight=1)],
    window=1,
)


def test_admission_window_queues_jobs():
    gated, = _records(_spec(workload=TENANTED))
    free, = _records(_spec(workload=dict(TENANTED, window=None)))
    assert gated.counters["admission_high_water"] > 0
    assert "admission_high_water" not in free.counters
    # With a one-deep window some job must wait in its tenant queue.
    assert any(j["admitted"] > j["injected"] for j in gated.jobs)
    assert all(j["admitted"] == j["injected"] for j in free.jobs)
    for job in gated.jobs:
        assert job["injected"] <= job["admitted"] <= job["completed"]


def test_admission_is_deterministic():
    a, = _records(_spec(workload=TENANTED))
    b, = _records(_spec(workload=TENANTED))
    assert a.digest == b.digest


def test_non_reentrant_benchmark_rejected():
    spec = make_spec("quicksort", 4, quick=True,
                     workload=dict(WORKLOAD, num_jobs=2))
    with pytest.raises(ConfigError, match="re-entrant"):
        simulate(spec)


def test_open_workload_needs_flex_engine():
    with pytest.raises(ConfigError, match="flex or zynq"):
        make_spec("fib", 4, engine="cpu", workload=WORKLOAD)


def test_workload_is_part_of_the_spec_digest():
    assert _spec().digest != make_spec("fib", 4, quick=True).digest
    assert _spec().digest != _spec(
        workload=dict(WORKLOAD, rate=5.0)).digest
