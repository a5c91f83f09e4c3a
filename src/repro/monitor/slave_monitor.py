"""Per-node slave monitors, sampled by one shared tick per start instant."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable, List, Optional

from repro.monitor.statistics import NodeStats
from repro.sim.engine import Simulator
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - avoids a monitor <-> yarn cycle
    from repro.yarn.node_manager import NodeManager

DEFAULT_SAMPLE_INTERVAL = 5.0


class SlaveMonitor:
    """Gathers node statistics and forwards them to the central monitor.

    Mirrors the paper's slave monitors running inside each node manager
    (Section 3): they sample local CPU/memory/network state and push it
    upstream on a fixed period.  With an explicit *sink* the sample is
    handed to that callable; without one, each sample is published on
    the simulator's telemetry bus as a ``node``-category
    :class:`~repro.telemetry.events.NodeSampled` event (dropped when no
    bus -- or no subscriber -- is attached).

    The sampling itself is driven by a :class:`MonitorTick`:
    :meth:`start` puts this monitor on a tick of its own, and
    :func:`start_together` puts several monitors on one shared tick.
    """

    def __init__(
        self,
        sim: Simulator,
        node_manager: "NodeManager",
        sink: Optional[Callable[[NodeStats], None]] = None,
        interval: float = DEFAULT_SAMPLE_INTERVAL,
        network=None,
    ) -> None:
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.nm = node_manager
        self.sink = sink
        self.interval = interval
        self.network = network
        #: The tick sampling this monitor; ``None`` while stopped.
        self._tick: Optional[MonitorTick] = None

    def start(self) -> None:
        """Start sampling now, on a tick of one (no-op when running)."""
        start_together((self,))

    def stop(self) -> None:
        """Stop sampling; a later :meth:`start` joins a fresh tick."""
        if self._tick is not None:
            self._tick.members.remove(self)
            self._tick = None

    def sample(self) -> NodeStats:
        rx = tx = 0.0
        if self.network is not None:
            rx, tx = self.network.nic_utilizations((self.nm.node,))[0]
        return self._stats(rx, tx)

    def _stats(self, rx: float, tx: float) -> NodeStats:
        nm = self.nm
        return NodeStats(
            nm.node.node_id,
            self.sim.now,
            nm.cpu_utilization(),
            nm.memory_utilization(),
            nm.running_containers,
            rx,
            tx,
        )


class MonitorTick:
    """One sampling process for the slave monitors started together.

    Each wake-up reads every member's NIC rx/tx in one flow-list pass,
    builds the :class:`NodeStats`, and publishes them in member (start)
    order.  This is exactly what one process per monitor would do:
    monitors started back to back schedule nothing between their first
    wake-ups, so their periodic wake-ups stay consecutive on the
    calendar forever, and one event at the first member's position
    fires the same samples, in the same order, with the same values.

    A stopped member leaves the tick; the tick ends once it is empty.
    """

    def __init__(self, monitors: List[SlaveMonitor]) -> None:
        first = monitors[0]
        shared = (first.sim, first.interval, first.network)
        if any((mon.sim, mon.interval, mon.network) != shared for mon in monitors):
            raise ValueError(
                "monitors sharing a tick need the same simulator, interval and network"
            )
        self.sim = first.sim
        self.interval = first.interval
        self.network = first.network
        self.members: List[SlaveMonitor] = list(monitors)

    def _loop(self) -> Generator[Event, object, None]:
        # Imported here: repro.telemetry.events imports this package.
        from repro.telemetry.events import NodeSampled

        sim = self.sim
        members = self.members
        network = self.network
        while members:
            live = tuple(members)
            if network is None:
                nics = [(0.0, 0.0)] * len(live)
            else:
                nics = network.nic_utilizations([mon.nm.node for mon in live])
            tel = sim.telemetry
            bus = tel if tel is not None and tel.wants("node") else None
            for mon, (rx, tx) in zip(live, nics):
                sample = mon._stats(rx, tx)
                if mon.sink is not None:
                    mon.sink(sample)
                elif bus is not None:
                    bus.emit(NodeSampled(time=sample.time, stats=sample))
            yield sim.timeout(self.interval)


def start_together(monitors: Iterable[SlaveMonitor]) -> Optional[MonitorTick]:
    """Start the idle ones of *monitors* now, on one shared tick.

    Monitors that are already running keep their own tick.  Returns the
    new tick, or ``None`` when every monitor was already running.
    """
    idle = [mon for mon in monitors if mon._tick is None]
    if not idle:
        return None
    tick = MonitorTick(idle)
    for mon in idle:
        mon._tick = tick
    first = idle[0].nm.node.node_id
    tick.sim.process(tick._loop(), name=f"slave-mon-{first}")
    return tick
