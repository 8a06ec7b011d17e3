"""Outside-in layer spans: timing wrappers around public layer entry points.

The benchmark times each layer of the simulator from its own files,
without touching the program: :func:`install` replaces a few public
methods with timing wrappers and :func:`uninstall` puts them back.

Layers and the calls that bound them:

* ``simulate`` -- :func:`repro.exec.engines.simulate`, one span per job;
* ``arch`` -- ``FlexAccelerator.run``/``run_workload``,
  ``LiteAccelerator.run`` and ``MulticoreCPU.run``;
* ``mem`` -- ``MemoryHierarchy.access``;
* ``workers`` -- ``execute`` of every :class:`repro.core.Worker` subclass.

A span that opens while a span of the same layer is already open (a
subclass calling ``super().run``, a worker group delegating to its
members) is not timed again.  A span's *self* time is its duration minus
the time its child spans cover.

Pool workers are forked after :func:`install`, so they inherit the
wrappers.  Each finished ``simulate`` span appends that job's layer
totals to a JSON-lines file (one line per job, keyed by spec digest), so
spans from every process reach the parent.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("simulate", "arch", "mem", "workers")


class Tracer:
    """Per-process span accumulator for one job at a time."""

    def __init__(self, out_path: Path) -> None:
        self.out_path = out_path
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._open = dict.fromkeys(LAYERS, 0)
        # Child time accumulated under each open span, innermost last.
        self._children: List[float] = []

    def wrap(self, layer: str, func: Callable) -> Callable:
        total, self_time, calls = self.total, self.self_time, self.calls
        is_open, children = self._open, self._children

        def span(*args, **kwargs):
            if is_open[layer]:
                return func(*args, **kwargs)
            is_open[layer] = 1
            children.append(0.0)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = children.pop()
                is_open[layer] = 0
                if children:
                    children[-1] += duration
                total[layer] += duration
                self_time[layer] += duration - inner
                calls[layer] += 1

        span.__wrapped__ = func
        return span

    def wrap_simulate(self, func: Callable) -> Callable:
        """The job-level span: starts clean, writes its totals out."""
        inner = self.wrap("simulate", func)

        def simulate(spec, *args, **kwargs):
            for layer in LAYERS:
                self.total[layer] = self.self_time[layer] = 0.0
                self.calls[layer] = 0
            try:
                return inner(spec, *args, **kwargs)
            finally:
                self.flush(spec.digest)

        simulate.__wrapped__ = func
        return simulate

    def flush(self, job: str) -> None:
        line = json.dumps({
            "job": job,
            "pid": os.getpid(),
            "layers": {layer: [self.total[layer], self.self_time[layer],
                               self.calls[layer]] for layer in LAYERS},
        }) + "\n"
        with open(self.out_path, "a", encoding="utf-8") as handle:
            handle.write(line)


def _targets() -> List[Tuple[str, object, str]]:
    """(layer, owner, attribute) for every wrapped entry point."""
    import repro.arch.hetero  # noqa: F401  (registers its Worker subclasses)
    import repro.exec.engines as engines
    import repro.workers  # noqa: F401
    from repro.arch.accelerator import FlexAccelerator
    from repro.arch.lite import LiteAccelerator
    from repro.core.context import Worker
    from repro.cpu.multicore import MulticoreCPU
    from repro.mem.hierarchy import MemoryHierarchy

    targets = [
        ("simulate", engines, "simulate"),
        ("arch", FlexAccelerator, "run"),
        ("arch", FlexAccelerator, "run_workload"),
        ("arch", LiteAccelerator, "run"),
        ("arch", MulticoreCPU, "run"),
        ("mem", MemoryHierarchy, "access"),
    ]
    pending, seen = [Worker], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if "execute" in cls.__dict__:
            targets.append(("workers", cls, "execute"))
        pending.extend(cls.__subclasses__())
    return targets


def install(out_path: Path) -> Tuple[Tracer, List[Tuple[object, str, object]]]:
    """Wrap every layer entry point; returns the tracer and an undo list."""
    tracer = Tracer(out_path)
    undo = []
    for layer, owner, attr in _targets():
        original = owner.__dict__[attr]
        wrapped = (tracer.wrap_simulate(original) if layer == "simulate"
                   else tracer.wrap(layer, original))
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
    return tracer, undo


def uninstall(undo: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def read_spans(path: Path) -> Tuple[Dict[str, Dict[str, float]],
                                   Dict[str, Dict[str, list]]]:
    """Layer totals summed over jobs (``{layer: {total, self, calls}}``)
    and each job's own ``{layer: [total, self, calls]}`` by spec digest."""
    per_job = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        per_job[entry["job"]] = entry["layers"]
    sums = {layer: {"total": sum(j[layer][0] for j in per_job.values()),
                    "self": sum(j[layer][1] for j in per_job.values()),
                    "calls": sum(j[layer][2] for j in per_job.values())}
            for layer in LAYERS}
    return sums, per_job
