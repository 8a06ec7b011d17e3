"""Host-side robustness: the retry policy.

The simulator itself is deterministic, but the *host* running a
campaign is not: workers get OOM-killed, pools break, and a job can
overrun its deadline on a loaded machine.  :class:`RetryPolicy` gives
:class:`~repro.exec.runner.JobRunner` bounded re-attempts with
exponential backoff and *deterministic seeded jitter* (a pure function
of ``(seed, spec digest, attempt)``, so two hosts replaying the same
campaign back off identically), plus the pool-rebuild budget
(docs/EXECUTION.md, "Failure handling & recovery").

Classification is by :attr:`~repro.exec.record.JobFailure.kind`:
timeouts are retried with a raised deadline, crashes are retried on a
fresh pool, and deterministic simulator exceptions (``sim-error``) are
never retried — re-running a pure function on the same input cannot
change the answer.

A killed campaign needs no checkpoint of its own: re-running it with
the result cache on re-simulates only the jobs the cache does not hold.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.exec.record import JobFailure

#: Failure kinds a policy retries (host-caused, so worth re-running).
TRANSIENT_KINDS = ("timeout", "crash")


def unit_roll(*parts: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from hashed parts.

    Shared by the retry jitter and the chaos plan: decisions are pure
    functions of their inputs, never of host entropy, so a replayed
    campaign makes identical choices.
    """
    digest = hashlib.sha256(
        "|".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass
class RetryPolicy:
    """Bounded, failure-class-aware retry rules for one runner.

    ``max_attempts`` counts *total* attempts per job (1 = never retry).
    The backoff before attempt ``k``'s retry is
    ``backoff_seconds * backoff_factor**k``, scaled by a deterministic
    jitter factor in ``[1 - jitter, 1 + jitter)`` drawn from
    ``(seed, digest, attempt)``.  ``timeout_scale`` raises the per-job
    deadline on each timeout retry, so a job that was genuinely slow
    (not hung) gets room to finish.  ``max_pool_restarts`` bounds how
    often a broken process pool is rebuilt before the batch degrades to
    serial in-process execution.  ``sleep`` is injectable so tests run
    with a fake clock.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    timeout_scale: float = 2.0
    max_pool_restarts: int = 2
    sleep: Callable[[float], None] = time.sleep

    def retryable(self, failure: JobFailure) -> bool:
        """Whether this *class* of failure may ever be retried."""
        return failure.kind in TRANSIENT_KINDS

    def should_retry(self, failure: JobFailure, attempt: int) -> bool:
        """Whether attempt index ``attempt`` (0-based) gets a retry."""
        return attempt + 1 < self.max_attempts and self.retryable(failure)

    def delay(self, digest: str, attempt: int) -> float:
        """Backoff before re-running ``digest`` after attempt ``attempt``."""
        base = self.backoff_seconds * self.backoff_factor ** attempt
        if not self.jitter:
            return base
        roll = unit_roll(self.seed, "retry-jitter", digest, attempt)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * roll)

    def timeout_for(self, base: Optional[float],
                    attempt: int) -> Optional[float]:
        """Per-job deadline for attempt ``attempt`` (raised on retries)."""
        if base is None or attempt == 0:
            return base
        return base * self.timeout_scale ** attempt
