"""The simulation kernel: the discrete-event engine every model runs on.

The kernel is the one layer allowed to know how events are represented
and dispatched.  Everything above it (``arch``, ``sched``, ``obs``,
``resil``, ``exec``, the CLI) constructs an :class:`Engine` and
programs against it; ``docs/KERNEL.md`` states the contract.
"""

from __future__ import annotations

from repro.kernel.engine import (
    Channel,
    Engine,
    Event,
    Get,
    Park,
    Process,
    SimulationError,
    Timeout,
)


def resolve_backend() -> str:
    """Name of the kernel implementation, for benchmark report lines.

    There is a single engine, so this is always ``"reference"`` — the
    name earlier benchmark records used for it.
    """
    return "reference"


__all__ = [
    "Channel",
    "Engine",
    "Event",
    "Get",
    "Park",
    "Process",
    "SimulationError",
    "Timeout",
    "resolve_backend",
]
