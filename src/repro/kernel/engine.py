"""The discrete-event engine: request types, channels, and `Engine`.

Everything above this layer — ``arch`` (PEs, networks, pstores, the
wakeup scheduler), ``sched`` policies, ``obs`` telemetry, ``resil``
fault injection, the execution harness — talks to the simulator through
the classes defined here and nothing else (see ``docs/KERNEL.md``).

The hot operations
------------------

1. **Event scheduling and ordering.**  :meth:`Engine.schedule` runs a
   callback ``delay`` ticks from now; heap entries are ordered by the
   composite key ``(time, scheduled_at, parent_scheduled_at, seq)``.
   The two ancestry fields are redundant for normally scheduled events
   (``seq`` alone sorts them) but are load-bearing for
   :meth:`Engine.resume_at`, which re-inserts an event that a paused
   component *would have* scheduled in the past: passing the virtual
   ancestry makes it order against same-tick events exactly as it would
   have, had it been scheduled on time.

2. **Process stepping.**  :meth:`Engine.process` registers a generator;
   the engine drives it by calling ``send`` and dispatching on the
   yielded request — :class:`Timeout`, :class:`Get`, :class:`Event`,
   :class:`Park`, or another :class:`Process` (join).

3. **Channel get/put.**  :meth:`Engine.channel` builds a
   latency/bandwidth :class:`Channel`; processes block on it via
   :class:`Get`.

4. **Park/wakeup.**  A process yields :class:`Park` to suspend holding
   *no* engine resources; the park issuer keeps the :class:`Process`
   and later calls :meth:`Engine.resume_at` with a virtual ancestry
   derived from :attr:`Engine.current_key`.

All delays are integral ticks.  Non-integral delays raise
:class:`ValueError` rather than truncating silently — a ``2.5``-cycle
latency is a modelling bug, not a rounding decision the engine should
make.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


def validated_delay(delay: Any) -> int:
    """Return ``delay`` as an int tick count, rejecting bad values.

    Negative delays and non-integral delays (``2.5``) both raise
    :class:`ValueError`; ``2.0`` is accepted as ``2``.
    """
    d = int(delay)
    if d != delay:
        raise ValueError(f"non-integral delay: {delay!r}")
    if d < 0:
        raise ValueError(f"negative delay: {delay}")
    return d


class Timeout:
    """Request to sleep for a fixed number of ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        self.delay = validated_delay(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Event:
    """One-shot event that processes can wait on.

    Triggering an event resumes every waiter with the trigger payload.  An
    event may only be triggered once; waiting on an already-triggered event
    resumes immediately.
    """

    __slots__ = ("engine", "_waiters", "triggered", "payload", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._waiters: List["Process"] = []
        self.triggered = False
        self.payload: Any = None

    def trigger(self, payload: Any = None) -> None:
        """Fire the event, resuming all waiters at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.payload = payload
        for proc in self._waiters:
            self.engine._schedule_resume(proc, 0, payload)
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.engine._schedule_resume(proc, 0, self.payload)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class Get:
    """Request for the next item from a channel."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel") -> None:
        self.channel = channel

    def __repr__(self) -> str:
        return f"Get({self.channel!r})"


class Park:
    """Request to suspend the process until an external wakeup.

    Unlike :class:`Timeout` or :class:`Event`, a parked process holds no
    engine resources at all — no heap entry, no waiter list.  The issuer
    (e.g. the accelerator's park registry) is responsible for keeping a
    reference to the :class:`Process` and resuming it with
    :meth:`Engine.resume_at` when the condition it sleeps on changes.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "Park()"


class Process:
    """A running generator process managed by the engine."""

    __slots__ = ("engine", "generator", "name", "done", "result",
                 "_joiners")

    def __init__(self, engine: "Engine", generator: Generator,
                 name: str) -> None:
        self.engine = engine
        self.generator = generator
        self.name = name
        self.done = False
        self.result: Any = None
        self._joiners: List["Process"] = []

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        for joiner in self._joiners:
            self.engine._schedule_resume(joiner, 0, result)
        self._joiners.clear()

    def _add_joiner(self, proc: "Process") -> None:
        if self.done:
            self.engine._schedule_resume(proc, 0, self.result)
        else:
            self._joiners.append(proc)

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Channel:
    """FIFO channel with delivery latency and optional serialisation.

    ``put`` makes an item visible to getters after the channel's
    latency, and an optional bandwidth limit serialises deliveries so
    that at most one item lands per ``interval`` ticks (used for shared
    links such as the Zedboard ACP port).

    Parameters
    ----------
    engine:
        Owning simulation engine.
    latency:
        Ticks between ``put`` and the item becoming available to a getter.
    interval:
        Minimum ticks between consecutive deliveries (bandwidth limit);
        ``0`` means unlimited.
    name:
        Debug label.
    """

    __slots__ = ("engine", "latency", "interval", "name", "_items",
                 "_getters", "_next_free", "put_count", "get_count")

    def __init__(self, engine: "Engine", latency: int = 0,
                 interval: int = 0, name: str = "") -> None:
        self.engine = engine
        self.latency = validated_delay(latency)
        self.interval = validated_delay(interval)
        self.name = name
        self._items: Any = deque()
        self._getters: List[Process] = []
        self._next_free = 0  # next tick a serialised delivery may land
        self.put_count = 0
        self.get_count = 0

    def put(self, item: Any) -> None:
        """Send ``item``; it arrives after latency (and bandwidth slotting)."""
        self.put_count += 1
        now = self.engine.now
        arrival = now + self.latency
        if self.interval:
            arrival = max(arrival, self._next_free)
            self._next_free = arrival + self.interval
        self.engine.schedule(arrival - now, lambda: self._deliver(item))

    def _deliver(self, item: Any) -> None:
        if self._getters:
            proc = self._getters.pop(0)
            self.get_count += 1
            self.engine._schedule_resume(proc, 0, item)
        else:
            self._items.append(item)

    def _add_getter(self, proc: Process) -> None:
        if self._items:
            item = self._items.popleft()
            self.get_count += 1
            self.engine._schedule_resume(proc, 0, item)
        else:
            self._getters.append(proc)

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: return an available item or ``None``."""
        if self._items:
            self.get_count += 1
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return (
            f"Channel({self.name!r}, latency={self.latency}, "
            f"queued={len(self._items)})"
        )


#: ``scheduled_at`` sentinel for events scheduled before the first event
#: executes (setup code runs outside any event).
_PRE_RUN = -1


class Engine:
    """Discrete-event engine with an integer tick clock.

    Heap entries are ``(time, scheduled_at, parent_scheduled_at, seq,
    callback)``; a process resumption is a closure over
    ``(proc, value)``.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple] = []
        self._seq = 0
        self._live_processes = 0
        # Optional telemetry sink (repro.obs); record-only, so attaching
        # one cannot change event ordering or simulated time.
        self.telemetry = None
        # Ancestry of the currently executing event: the tick it was
        # scheduled at, and the tick *that* event was scheduled at.
        self._cur_s_at = _PRE_RUN
        self._cur_p_s_at = _PRE_RUN
        # Time of the last event actually executed by run() — unlike
        # `now`, never padded forward to a run's `until` horizon.
        self.last_event_time: int = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` ``delay`` ticks from now."""
        self._seq += 1
        heapq.heappush(
            self._heap,
            (self.now + validated_delay(delay), self.now, self._cur_s_at,
             self._seq, fn),
        )

    def resume_at(self, proc: Process, time: int, value: Any,
                  s_at: int, p_s_at: int) -> None:
        """Resume a parked ``proc`` at absolute ``time`` with ``value``.

        ``s_at``/``p_s_at`` give the *virtual* ancestry of the resumption:
        the tick at which the event would have been scheduled had the
        process never parked, and the scheduling tick of that scheduler in
        turn.  Same-tick ordering against other events then matches the
        never-parked execution (up to three-deep scheduling-tick ties,
        which no longer occur once ancestries diverge).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot resume {proc.name!r} at {time} (now {self.now})"
            )
        if not (p_s_at <= s_at <= time):
            raise SimulationError(
                f"inconsistent resume ancestry {p_s_at} <= {s_at} <= {time}"
            )
        self._seq += 1
        heapq.heappush(
            self._heap,
            (time, s_at, p_s_at, self._seq, lambda: self._step(proc, value)),
        )

    def process(self, generator: Generator, name: str = "proc") -> Process:
        """Register ``generator`` as a process and start it immediately."""
        proc = Process(self, generator, name)
        self._live_processes += 1
        if self.telemetry is not None:
            self.telemetry.proc_start(name)
        self.schedule(0, lambda: self._step(proc, None))
        return proc

    def _schedule_resume(self, proc: Process, delay: int, value: Any) -> None:
        """Schedule ``proc`` to be stepped with ``value`` after ``delay``."""
        self.schedule(delay, lambda: self._step(proc, value))

    def _step(self, proc: Process, value: Any) -> None:
        try:
            request = proc.generator.send(value)
        except StopIteration as stop:
            self._live_processes -= 1
            if self.telemetry is not None:
                self.telemetry.proc_end(proc.name)
            proc._finish(getattr(stop, "value", None))
            return
        self._dispatch(proc, request)

    def _dispatch(self, proc: Process, request: Any) -> None:
        if isinstance(request, Timeout):
            self._schedule_resume(proc, request.delay, None)
        elif isinstance(request, Get):
            request.channel._add_getter(proc)
        elif isinstance(request, Event):
            request._add_waiter(proc)
        elif isinstance(request, Process):
            request._add_joiner(proc)
        elif isinstance(request, Park):
            pass  # suspended; the park issuer resumes via resume_at
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported request {request!r}"
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the event heap drains (or ``until`` / ``max_events``).

        Returns the final simulation time.  ``until`` is an absolute tick
        bound; ``max_events`` guards against runaway simulations.  A
        bounded run always ends with ``now == until`` (whether it stopped
        early or drained the heap); :attr:`last_event_time` records the
        tick of the last event actually executed.  Remaining events stay
        on the heap (visible via :attr:`pending_events`); calling
        :meth:`run` again resumes where the previous call stopped.
        """
        events = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            time = entry[0]
            if until is not None and time > until:
                break
            pop(heap)
            if time < self.now:
                raise SimulationError("time went backwards")
            self.now = time
            self._cur_s_at = entry[1]
            self._cur_p_s_at = entry[2]
            entry[4]()
            events += 1
            if max_events is not None and events >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if events:
            self.last_event_time = self.now
        # A bounded run always ends at its horizon, whether it stopped
        # early or drained the heap.
        if until is not None and until > self.now:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new one-shot :class:`Event`."""
        return Event(self, name)

    def channel(self, latency: int = 0, interval: int = 0,
                name: str = "") -> Channel:
        """Create a latency/bandwidth :class:`Channel` on this engine."""
        return Channel(self, latency, interval, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_key(self) -> Tuple[int, int, int]:
        """``(time, scheduled_at, parent_scheduled_at)`` of the executing
        event — the ordering key a wakeup scheduler compares virtual
        timelines against."""
        return (self.now, self._cur_s_at, self._cur_p_s_at)

    @property
    def current_ancestry(self) -> Tuple[int, int]:
        """``(scheduled_at, parent_scheduled_at)`` of the executing event."""
        return (self._cur_s_at, self._cur_p_s_at)

    @property
    def pending_events(self) -> int:
        """Number of events still on the heap (parked processes hold none)."""
        return len(self._heap)

    @property
    def finished(self) -> bool:
        """True when the event heap has fully drained."""
        return not self._heap

    @property
    def live_processes(self) -> int:
        """Number of processes that have started but not finished."""
        return self._live_processes

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self.pending_events})"
