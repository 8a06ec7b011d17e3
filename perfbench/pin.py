"""Regenerate ``perfbench/pins.json``: the outcome digests run.py checks.

Run from the repository root only on a commit whose simulated results are
known to be right::

    PYTHONPATH=src python3 perfbench/pin.py

Pins seeds ``0 .. PINNED_SEEDS - 1`` for ``membound`` and ``schedbound``,
and the (seed-independent) ``campaign`` batch once.
"""

import json
from pathlib import Path

from repro.exec import RunRecord, simulate

import workloads

HERE = Path(__file__).resolve().parent
PINNED_SEEDS = 64


def pin(digests: list) -> dict:
    return {"outcome": workloads.outcome_digest(digests), "jobs": digests}


def main() -> None:
    pins = {}
    for workload in ("membound", "schedbound"):
        pins[workload] = {}
        for seed in range(PINNED_SEEDS):
            pins[workload][str(seed)] = pin([
                RunRecord.from_result(spec.digest, simulate(spec)).digest
                for spec in workloads.specs(workload, seed)])
            print(workload, seed, pins[workload][str(seed)]["outcome"],
                  flush=True)
    runner = workloads.RecordingRunner(jobs=workloads.CAMPAIGN_JOBS)
    outcomes = workloads.run_batch("campaign", (), runner)
    pins["campaign"] = {"any": pin([o.digest for o in outcomes])}
    print("campaign", pins["campaign"]["any"]["outcome"])
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
