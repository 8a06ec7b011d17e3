"""Repository benchmark: end-to-end and per-layer host cost of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload membound --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics with no spans or profiler;
times are reference seconds, calibrated against a fixed loop so that a
neighbour loading the host does not read as a regression (``host.py``).
``--seconds`` sets the number of passes, so both sides of a comparison do
the same work.  ``--trace 1`` makes one instrumented run of the same batch
for the per-layer metrics: spans from ``spans.py`` around the layer entry
points, one cProfile pass for self-time shares, and the runner's own
statistics.  Workloads, metrics and the layer each metric should move are
recorded in ``perfbench/workloads.json``.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A job counts as failed when it raises (a wrong result raises
``VerificationError``) or when its record digest differs from the one
pinned in ``perfbench/pins.json`` for that seed; unpinned seeds are held
to the digests of their own first pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

from host import Calibration, Monitor, measured

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Reference seconds one pass takes (used only to turn ``--seconds`` into
#: a fixed pass count, so both sides of a comparison do the same work).
NOMINAL_PASS_S = {"membound": 4.6, "schedbound": 2.8, "campaign": 5.8}
#: Fewest passes a timed run makes.
MIN_PASSES = {"membound": 3, "schedbound": 3, "campaign": 6}
#: Fresh interpreters started per timed run to time set-up and warm
#: passes (a pass from the cache takes milliseconds, and how long depends
#: on the interpreter's memory layout, so it is timed across processes).
SETUP_PROBES = 10
#: Telemetry on/off pairs in a traced run.
TELEMETRY_PAIRS = 5
#: The spec each workload times with telemetry on and off.
TELEMETRY_SPEC = {"membound": ("bbgemm", "flex", 16),
                  "schedbound": ("fib", "flex", 16),
                  "campaign": ("uts", "flex", 16)}
#: cProfile self-time groups: layer -> ``repro`` sub-packages.
SHARE_GROUPS = {"kernel": ("kernel", "sim"),
                "arch": ("arch", "sched", "cpu"),
                "mem": ("mem",),
                "workers": ("workers", "core")}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("sim_tasks_per_s", "1/s"),
              ("warm_s", "s"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("import.repro_s", "s"), ("import.numpy_s", "s"),
    ("arch.run_s", "s"), ("arch.self_s", "s"),
    ("kernel.self_share", "share"), ("arch.self_share", "share"),
    ("arch.tasks", "count"), ("arch.sim_cycles", "cycles"),
    ("arch.steal_attempts", "count"), ("arch.steal_hit_ratio", "share"),
    ("mem.access_s", "s"), ("mem.access_calls", "count"),
    ("mem.ns_per_access", "ns"), ("mem.self_share", "share"),
    ("mem.l1_hit_rate", "share"),
    ("workers.execute_s", "s"), ("workers.execute_calls", "count"),
    ("workers.self_share", "share"),
    ("workload.jobs", "count"), ("workload.admission_high_water", "count"),
    ("workload.p99_latency_cycles", "cycles"),
    ("exec.run_s", "s"), ("exec.cache_s", "s"), ("exec.overhead_s", "s"),
    ("exec.jobs_simulated", "count"), ("exec.jobs_cached", "count"),
    ("obs.telemetry_ratio", "ratio"), ("trace.overhead_ratio", "ratio"),
    ("failed_share", "share"),
]


class Checks:
    """Job outcomes and correctness problems seen during one run."""

    def __init__(self, workload: str, seed: int, batch: list) -> None:
        self.batch = batch
        pins = json.loads((HERE / "pins.json").read_text())
        key = "any" if workload == "campaign" else str(seed)
        self.pinned = pins.get(workload, {}).get(key)
        self.expected = self.pinned["jobs"] if self.pinned else None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def jobs(self, outcomes: list, what: str) -> list:
        """Check one simulated pass; returns its record digests."""
        from repro.exec import RunRecord

        digests = [o.digest if isinstance(o, RunRecord) else None
                   for o in outcomes]
        if self.expected is None:
            self.expected = digests
        self.expect(len(digests) == len(self.expected),
                    f"{what}: {len(digests)} jobs, pinned "
                    f"{len(self.expected)}")
        self.attempted += len(outcomes)
        for spec, outcome, digest, want in zip(self.batch, outcomes,
                                               digests, self.expected):
            if digest is None:
                self.failed += 1
                self.problems.append(f"{what}: {spec.label} failed: "
                                     f"{outcome}")
            elif digest != want:
                self.failed += 1
                self.problems.append(f"{what}: {spec.label} digest "
                                     f"{digest} != {want}")
        return digests

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int, count: int,
                cache_root: Optional[Path] = None) -> list:
    """Run ``probe.py`` in ``count`` fresh interpreters."""
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    if cache_root is not None:
        command.append(str(cache_root))
    return [json.loads(subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=90).stdout.strip().splitlines()[-1]) for _ in range(count)]


def tail(samples: list) -> float:
    """Highest nearest-rank percentile with ten samples beyond it (the
    smallest sample when there are fewer than eleven)."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload],
               round(seconds / NOMINAL_PASS_S[workload]))


def fresh_runner(work: Path, name: str, workload: str, cache: bool = True,
                 **kwargs):
    from repro.exec import ResultCache
    from repro.obs.ledger import RunLedger
    from workloads import RecordingRunner, runner_jobs

    root = work / name
    return RecordingRunner(
        jobs=runner_jobs(workload),
        cache=ResultCache(root / "cache") if cache else None,
        ledger=RunLedger(root / "ledger"), **kwargs)


def warm_pass(workload: str, batch: list, cache_root: Path, checks: Checks,
              digests: list):
    """Serve ``batch`` from a filled cache and check it; returns the
    runner."""
    from workloads import cached_pass

    runner = cached_pass(workload, batch, cache_root)
    checks.expect(runner.stats.cached == len(batch),
                  f"warm pass served {runner.stats.cached} of "
                  f"{len(batch)} jobs from the cache")
    checks.expect([getattr(o, "digest", None) for o in runner.outcomes]
                  == digests, "warm pass returned different records")
    return runner


def timed_batch(workload: str, batch: list, runner) -> tuple:
    """One pass through ``runner``: ``(outcomes, wall seconds)``."""
    from workloads import run_batch

    start = perf_counter()
    outcomes = run_batch(workload, batch, runner)
    return outcomes, perf_counter() - start


def simulate_job(spec):
    from repro.exec import JobFailure, RunRecord, simulate

    try:
        return RunRecord.from_result(spec.digest, simulate(spec))
    except Exception as exc:    # counted as a failed job; the run goes on
        return JobFailure.from_exception(spec.digest, spec.label, exc)


def timed_run(workload: str, seed: int, seconds: int, work: Path) -> tuple:
    from repro.exec import ResultCache, RunRecord
    from workloads import outcome_digest, run_batch, runner_jobs, specs

    batch = specs(workload, seed)
    checks = Checks(workload, seed, batch)
    jobs = runner_jobs(workload)
    calibration = Calibration()
    walls, raw_walls, job_seconds, rss, tasks = [], [], [], [], 0
    for index in range(passes_for(workload, seconds)):
        gc.collect()
        what = f"pass {index}"
        with Monitor() as monitor:
            if jobs > 1:
                runner = fresh_runner(work, what, workload)
                outcomes, raw = calibration.timed(
                    lambda: run_batch(workload, batch, runner))
                wall = raw      # rescaled once the run's loops are in
                job_seconds += [entry["run_seconds"]
                                for entry in runner.ledger.entries()
                                if not entry["cached"]]
                cache_root = runner.cache.root
            else:
                outcomes, raw, wall = [], 0.0, 0.0
                for spec in batch:
                    outcome, job_raw, job_wall = measured(
                        lambda: simulate_job(spec))
                    outcomes.append(outcome)
                    job_seconds.append(job_wall)
                    raw += job_raw
                    wall += job_wall
        walls.append(wall)
        raw_walls.append(raw)
        rss.append(monitor.peak_rss_mb)
        digests = checks.jobs(outcomes, what)
        tasks += sum(o.tasks_executed for o in outcomes
                     if isinstance(o, RunRecord))
    if jobs > 1:
        walls = [calibration.reference(wall) for wall in walls]
        job_seconds = [calibration.reference(s) for s in job_seconds]
    if checks.failed:
        cache_root = None   # failed jobs are not cached: warm passes would
                            # simulate them again
    elif jobs == 1:
        cache = ResultCache(work / "warm")
        for spec, outcome in zip(batch, outcomes):
            cache.put(spec, outcome)
        cache_root = cache.root
    probes = probe_setup(workload, seed, SETUP_PROBES, cache_root)
    for probe in probes if cache_root else ():
        checks.expect(probe["cached"] == [len(batch)],
                      f"warm passes served {probe['cached']} of "
                      f"{len(batch)} jobs from the cache")
        checks.expect(probe["outcomes"] == [outcome_digest(digests)],
                      "warm passes returned different records")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(walls),
        "sim_tasks_per_s": tasks / sum(walls),
        "warm_s": (statistics.median(p["warm_s"] for p in probes)
                   if cache_root else 0.0),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [
        f"outcome_digest {outcome_digest(digests)}",
        f"pinned {checks.pinned is not None}",
        f"wall_s samples {len(walls)} passes: "
        + " ".join(f"{wall:.4f}" for wall in walls),
        f"raw_wall_s median {statistics.median(raw_walls):.4f} s "
        f"(uncalibrated)",
        f"job_tail_s {tail(job_seconds):.6g} s (nearest rank "
        f"{max(1, len(job_seconds) - 10)} of {len(job_seconds)} per-job "
        f"samples)",
        f"warm_s samples {len(probes) if cache_root else 0} interpreters",
        f"setup_s samples {len(probes)}, raw median "
        f"{statistics.median(p['raw_s'] for p in probes):.4f} s",
    ]
    return metrics, END_TO_END, checks, notes


# ----------------------------------------------------------------------
def self_shares(profile_dir: Path) -> dict:
    """cProfile self-time share of each layer's ``repro`` packages."""
    from repro.obs.profile import aggregate, profile_paths

    stats = aggregate(profile_paths(profile_dir))
    by_package: dict = {}
    total = 0.0
    for (filename, _line, _name), row in stats.stats.items():
        tottime = row[2]
        total += tottime
        parts = Path(filename).parts
        if "repro" in parts[:-1]:
            package = parts[parts.index("repro") + 1]
            by_package[package] = by_package.get(package, 0.0) + tottime
    return {layer: sum(by_package.get(p, 0.0) for p in packages) / total
            for layer, packages in SHARE_GROUPS.items()}


def telemetry_ratio(workload: str, batch: list) -> float:
    from repro.exec import simulate

    spec = next(s for s in batch
                if (s.benchmark, s.engine, s.num_pes)
                == TELEMETRY_SPEC[workload])
    seconds = {}
    ratios = []
    for _ in range(TELEMETRY_PAIRS):
        for telemetry in (False, True):
            gc.collect()        # telemetry garbage must not bill the next run
            seconds[telemetry] = measured(
                lambda: simulate(spec, telemetry=telemetry))[2]
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios)


def traced_run(workload: str, seed: int, work: Path) -> tuple:
    from repro.exec import RunRecord
    from repro.obs.report import job_summary
    import spans
    from workloads import runner_jobs, run_batch, specs

    batch = specs(workload, seed)
    checks = Checks(workload, seed, batch)
    jobs = runner_jobs(workload)
    probes = probe_setup(workload, seed, 3)

    # The profiled pass goes first: it also pays the one-time costs (lazy
    # imports, heap growth) that would otherwise bill the untraced pass.
    profile_dir = work / "profiles"
    profiled = fresh_runner(work, "profiled", workload, cache=False,
                            profile_dir=profile_dir)
    checks.jobs(run_batch(workload, batch, profiled), "profiled pass")
    shares = self_shares(profile_dir)

    gc.collect()
    cold = fresh_runner(work, "cold", workload)
    outcomes, untraced = timed_batch(workload, batch, cold)
    digests = checks.jobs(outcomes, "untraced pass")
    warm = warm_pass(workload, batch, cold.cache.root, checks, digests)

    gc.collect()
    span_file = work / "spans.jsonl"
    traced = fresh_runner(work, "traced", workload)
    _, undo = spans.install(span_file)
    try:
        outcomes_traced, traced_wall = timed_batch(workload, batch,
                                                   traced)
    finally:
        spans.uninstall(undo)
    checks.jobs(outcomes_traced, "traced pass")
    layer, per_job = spans.read_spans(span_file)

    records = [o for o in outcomes if isinstance(o, RunRecord)]
    attempts = sum(r.total_steal_attempts for r in records)
    l1_hits = sum(r.mem_summary.get("l1_hits", 0) for r in records)
    l1_all = l1_hits + sum(r.mem_summary.get("l1_misses", 0)
                           for r in records)
    all_jobs = [job for r in records for job in r.jobs]
    mem_calls = layer["mem"]["calls"]
    metrics = {
        "import.repro_s": statistics.median(p["repro_s"] for p in probes),
        "import.numpy_s": statistics.median(p["numpy_s"] for p in probes),
        "arch.run_s": layer["arch"]["total"],
        "arch.self_s": layer["arch"]["self"],
        "kernel.self_share": shares["kernel"],
        "arch.self_share": shares["arch"],
        "arch.tasks": sum(r.tasks_executed for r in records),
        "arch.sim_cycles": sum(r.cycles for r in records),
        "arch.steal_attempts": attempts,
        "arch.steal_hit_ratio": (sum(r.total_steals for r in records)
                                 / attempts if attempts else 0.0),
        "mem.access_s": layer["mem"]["total"],
        "mem.access_calls": mem_calls,
        "mem.ns_per_access": (1e9 * layer["mem"]["total"] / mem_calls
                              if mem_calls else 0.0),
        "mem.self_share": shares["mem"],
        "mem.l1_hit_rate": l1_hits / l1_all if l1_all else 0.0,
        "workers.execute_s": layer["workers"]["total"],
        "workers.execute_calls": layer["workers"]["calls"],
        "workers.self_share": shares["workers"],
        "workload.jobs": len(all_jobs),
        "workload.admission_high_water": max(
            r.counters.get("admission_high_water", 0) for r in records),
        "workload.p99_latency_cycles": job_summary(all_jobs)["all"]["p99"],
        "exec.run_s": cold.stats.run_seconds,
        "exec.cache_s": cold.stats.cache_seconds + warm.stats.cache_seconds,
        "exec.overhead_s": untraced - cold.stats.run_seconds / jobs,
        "exec.jobs_simulated": cold.stats.executed,
        "exec.jobs_cached": warm.stats.cached,
        "obs.telemetry_ratio": telemetry_ratio(workload, batch),
        "trace.overhead_ratio": traced_wall / untraced,
        "failed_share": checks.failed / checks.attempted,
    }
    checks.expect(len(per_job) == len(batch),
                  f"spans from {len(per_job)} of {len(batch)} jobs")
    labels = {spec.digest: spec.label for spec in batch}
    notes = [f"untraced_wall_s {untraced:.4f}",
             f"traced_wall_s {traced_wall:.4f}",
             f"mem.access_s/arch.run_s "
             f"{layer['mem']['total'] / layer['arch']['total']:.4f}"]
    if workload != "campaign":
        notes += [f"job {labels[job]} mem.access_calls {calls['mem'][2]} "
                  f"workers.execute_calls {calls['workers'][2]}"
                  for job, calls in per_job.items()]
    return metrics, PER_LAYER, checks, notes


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("membound", "schedbound", "campaign"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Probes and pool workers must import this checkout, nothing else,
    # and every run times the default (reference) kernel backend.
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("REPRO_BACKEND", None)
    from repro.kernel import resolve_backend

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, declared, checks, notes = traced_run(
                args.workload, args.seed, work)
        else:
            metrics, declared, checks, notes = timed_run(
                args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass        # another run still uses it

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"backend {resolve_backend()}")
    for note in notes:
        print(note)
    for problem in checks.problems:
        print(f"PROBLEM {problem}")
    units = dict(declared)
    for name, unit in declared:
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"failed_share {checks.failed / checks.attempted:.6g} share")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
