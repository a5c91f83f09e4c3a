"""The event calendar and simulated clock.

The :class:`Simulator` owns a binary-heap event calendar keyed by
``(time, priority, sequence)``.  The sequence number makes event ordering
total and deterministic, which in turn makes every experiment in this
repository reproducible bit-for-bit under a fixed seed.

Hot-path notes: :meth:`Simulator.run` and
:meth:`Simulator.run_until_complete` inline the pop-and-fire loop of
:meth:`Simulator.step` with the heap bound to locals, the telemetry
event class is imported once and cached at module level (the per-event
``from ... import`` was measurable), and ``repr(event)`` is only built
when a telemetry consumer actually exists.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.events import Event, Process, Timeout
    from repro.telemetry.bus import TelemetryBus


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


# Lazily-imported collaborator classes.  ``repro.sim.events`` and
# ``repro.telemetry.events`` both import this module, so the imports
# cannot sit at module scope; caching them here keeps the per-call
# import machinery out of the hot paths.
_EVENT_CLS = None
_TIMEOUT_CLS = None
_PROCESS_CLS = None
_SIM_EVENT_EXECUTED_CLS = None


def _event_classes():
    global _EVENT_CLS, _TIMEOUT_CLS, _PROCESS_CLS
    if _EVENT_CLS is None:
        from repro.sim.events import Event, Process, Timeout

        _EVENT_CLS, _TIMEOUT_CLS, _PROCESS_CLS = Event, Timeout, Process
    return _EVENT_CLS, _TIMEOUT_CLS, _PROCESS_CLS


def _sim_event_executed_cls():
    global _SIM_EVENT_EXECUTED_CLS
    if _SIM_EVENT_EXECUTED_CLS is None:
        from repro.telemetry.events import SimEventExecuted

        _SIM_EVENT_EXECUTED_CLS = SimEventExecuted
    return _SIM_EVENT_EXECUTED_CLS


class Simulator:
    """A deterministic discrete-event simulator.

    To observe executed events, attach a
    :class:`~repro.telemetry.bus.TelemetryBus` with a subscriber on the
    ``"sim"`` category (see :meth:`attach_telemetry`).
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq: int = 0
        self._running = False
        #: Number of events executed so far (diagnostic counter).
        self.events_executed: int = 0
        #: The attached telemetry bus, or ``None`` (the default): every
        #: layer reaches the bus through ``sim.telemetry``, and emission
        #: sites reduce to a pointer check when nothing is attached.
        self.telemetry: Optional["TelemetryBus"] = None

    def attach_telemetry(self, bus: "TelemetryBus") -> None:
        """Attach *bus* as this simulator's telemetry bus."""
        self.telemetry = bus

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0, priority: int = 0) -> None:
        """Schedule *event* to fire ``delay`` seconds from now.

        Negative delays are rejected: the calendar never travels back in
        time.  ``priority`` breaks ties at equal timestamps (lower runs
        first); the insertion sequence breaks any remaining ties.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay!r})")
        if event.scheduled:
            raise SimulationError(f"event {event!r} is already scheduled")
        event.scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def timeout(self, delay: float, value: Any = None) -> "Timeout":
        """Return a :class:`Timeout` event firing after *delay* seconds."""
        return _event_classes()[1](self, delay, value)

    def event(self) -> "Event":
        """Return a fresh, untriggered :class:`Event`."""
        return _event_classes()[0](self)

    def process(
        self, generator: Generator["Event", Any, Any], name: Optional[str] = None
    ) -> "Process":
        """Wrap *generator* in a :class:`Process` and start it immediately."""
        proc = _event_classes()[2](self, generator, name=name)
        tel = self.telemetry
        if tel is not None and tel.sim_events_wanted:
            from repro.telemetry.events import ProcessFinished, ProcessStarted

            tel.emit(ProcessStarted(time=self._now, name=proc.name))
            proc.callbacks.append(
                lambda ev: tel.emit(
                    ProcessFinished(time=self._now, name=proc.name, failed=ev.failed)
                )
            )
        return proc

    def call_at(self, when: float, fn: Callable[[], None]) -> "Event":
        """Invoke *fn* at absolute simulated time *when* (>= now)."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, when: float, event: "Event") -> None:
        """Bookkeeping + firing for one live event (clock already popped)."""
        self._now = when
        self.events_executed += 1
        tel = self.telemetry
        if tel is not None and tel.sim_events_wanted:
            tel.emit(_sim_event_executed_cls()(time=when, description=repr(event)))
        event.fire()

    def step(self) -> bool:
        """Execute the next event.  Returns False when the calendar is empty."""
        queue = self._queue
        while queue:
            when, _prio, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._execute(when, event)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the calendar is
            left intact, and ``now`` is set to ``until``).  ``None``
            drains the calendar.
        max_events:
            Safety valve against runaway simulations.

        Returns
        -------
        float
            The simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heappop = heapq.heappop
        queue = self._queue
        execute = self._execute
        try:
            executed = 0
            while queue:
                if until is not None and queue[0][0] > until:
                    self._now = until
                    break
                # Inlined step(): pop until one live event fires.
                fired = False
                while queue:
                    when, _prio, _seq, event = heappop(queue)
                    if event.cancelled:
                        continue
                    execute(when, event)
                    fired = True
                    break
                if not fired:
                    break
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a runaway simulation"
                    )
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def run_until_complete(self, event: "Event", max_events: int = 50_000_000) -> Any:
        """Run until *event* has fired, then return its value.

        Raises the event's exception if it failed, and
        :class:`SimulationError` if the calendar drains first.
        """
        heappop = heapq.heappop
        queue = self._queue
        execute = self._execute
        executed = 0
        while not event.triggered:
            # Inlined step(): pop until one live event fires.
            fired = False
            while queue:
                when, _prio, _seq, popped = heappop(queue)
                if popped.cancelled:
                    continue
                execute(when, popped)
                fired = True
                break
            if not fired:
                raise SimulationError(
                    f"event calendar drained before {event!r} triggered"
                )
            executed += 1
            if executed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if event.failed:
            raise event.exception  # type: ignore[misc]
        return event.value

    @property
    def pending_events(self) -> int:
        """Number of events still on the calendar (including cancelled)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Simulator now={self._now:.3f} pending={len(self._queue)}>"
