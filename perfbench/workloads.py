"""The benchmark's three workloads: their job specs and how a pass runs them.

* ``membound`` -- full-size nw, bbgemm, bfsqueue and spmvcrs on a 16-PE
  FlexArch with the default coherent caches, run serially in-process.
* ``schedbound`` -- full-size fib, uts, queens and knapsack on the same
  machine, plus one short two-tenant stochastic fib arrival stream behind
  an admission window, run serially in-process.
* ``campaign`` -- the quick-mode Figure 7 batch (134 specs over the cpu,
  lite and flex engines at 1-32 PEs) through ``run_fig7`` with
  ``JobRunner(jobs=2)``, a fresh result cache and a fresh ledger.

The seed reaches every benchmark that has a ``seed`` parameter (offset
from that benchmark's library default, so seed 0 is the library's own
instance) and the arrival stream.  The campaign batch is fixed by
``run_fig7`` and has no seed input.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

from repro.exec import JobFailedError, JobRunner, ResultCache, make_spec
from repro.harness.fig7 import run_fig7

MEMBOUND = ("nw", "bbgemm", "bfsqueue", "spmvcrs")
SCHEDBOUND = ("fib", "uts", "queens", "knapsack")
NUM_PES = 16
CAMPAIGN_JOBS = 2

#: Library default ``seed`` of each benchmark class that takes one.
BENCH_SEEDS = {"nw": 4, "bbgemm": 5, "bfsqueue": 6, "spmvcrs": 7,
               "knapsack": 3}
#: Library default seed of a stochastic arrival stream (the LFSR16 reset).
ARRIVAL_SEED = 0xACE1


def arrival_stream(seed: int) -> dict:
    """A short two-tenant stochastic fib stream behind a window of 4."""
    stream_seed = ARRIVAL_SEED + seed
    if not stream_seed & 0xFFFF:        # the LFSR16 needs a nonzero state
        stream_seed += 1
    return dict(kind="stochastic", rate=8.0, num_jobs=16, seed=stream_seed,
                window=4, tenants=[dict(name="gold", weight=3),
                                   dict(name="silver", weight=1)])


def _closed(name: str, seed: int):
    params = ({"seed": BENCH_SEEDS[name] + seed}
              if name in BENCH_SEEDS else None)
    return make_spec(name, NUM_PES, params=params)


class _Captured(Exception):
    def __init__(self, specs) -> None:
        super().__init__("specs captured")
        self.specs = list(specs)


class _SpecCapture(JobRunner):
    """Stops ``run_fig7`` at its batch, before anything runs."""

    def run(self, specs):
        raise _Captured(specs)


def campaign_specs() -> list:
    try:
        run_fig7(runner=_SpecCapture())
    except _Captured as captured:
        return captured.specs
    raise AssertionError("run_fig7 never submitted its batch")


def specs(workload: str, seed: int) -> list:
    """The job specs one pass of ``workload`` runs, in order."""
    if workload == "membound":
        return [_closed(name, seed) for name in MEMBOUND]
    if workload == "schedbound":
        return ([_closed(name, seed) for name in SCHEDBOUND]
                + [make_spec("fib", NUM_PES, quick=True,
                             workload=arrival_stream(seed))])
    if workload == "campaign":
        return campaign_specs()
    raise ValueError(f"unknown workload {workload!r}")


def runner_jobs(workload: str) -> int:
    return CAMPAIGN_JOBS if workload == "campaign" else 1


class RecordingRunner(JobRunner):
    """A :class:`JobRunner` that keeps the outcomes of its last batch."""

    outcomes: Optional[list] = None

    def run(self, specs):
        self.outcomes = super().run(specs)
        return self.outcomes


def run_batch(workload: str, batch: Sequence, runner: RecordingRunner
              ) -> list:
    """Run one pass through ``runner``; returns its outcomes.

    ``campaign`` goes through ``run_fig7`` (which also builds the figure
    from the records); the other workloads hand their specs straight to
    the runner.  Failed jobs come back as ``JobFailure`` outcomes.
    """
    if workload == "campaign":
        try:
            run_fig7(runner=runner)
        except JobFailedError:
            pass            # the failed outcomes are in runner.outcomes
        return runner.outcomes
    return runner.run(list(batch))


def cached_pass(workload: str, batch: Sequence, cache_root
                ) -> RecordingRunner:
    """One pass served from the filled cache at ``cache_root``."""
    runner = RecordingRunner(jobs=runner_jobs(workload),
                             cache=ResultCache(cache_root))
    run_batch(workload, batch, runner)
    return runner


def outcome_digest(digests: List[Optional[str]]) -> str:
    """One digest over the record digests of a pass, in spec order
    (``None`` marks a failed job)."""
    return hashlib.sha256("\n".join(
        digest or "failed" for digest in digests).encode()).hexdigest()[:32]
