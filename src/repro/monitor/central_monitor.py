"""The central monitor: aggregates task and node statistics.

The per-node slave monitors push :class:`NodeStats` samples here; app
masters push :class:`TaskStats` on task completion.  The tuner reads
both through query methods -- it never touches simulator internals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.mapreduce.jobspec import TaskType
from repro.monitor.statistics import NodeStats, TaskStats, UtilizationTimeline
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import TelemetryBus
    from repro.telemetry.events import TelemetryEvent


class CentralMonitor:
    """Aggregation point for all runtime statistics.

    Ingestion happens two ways: direct calls to :meth:`on_task_stats` /
    :meth:`on_node_stats` (standalone use, tests), or as a telemetry-bus
    subscriber on the ``stats`` and ``node`` categories (how
    :class:`~repro.experiments.harness.SimCluster` wires it).
    """

    def __init__(self, sim: Simulator, bus: Optional["TelemetryBus"] = None) -> None:
        self.sim = sim
        self.task_stats: List[TaskStats] = []
        self.node_samples: List[NodeStats] = []
        self.cpu_timelines: Dict[int, UtilizationTimeline] = defaultdict(UtilizationTimeline)
        self.mem_timelines: Dict[int, UtilizationTimeline] = defaultdict(UtilizationTimeline)
        #: Subscribers notified of every completed task (the tuner).
        self.task_listeners: List[Callable[[TaskStats], None]] = []
        #: Per-job count of fetch-retry-inflated measurements; these are
        #: flagged so the tuner's cost evaluation can discount them.
        self.fetch_inflated_count: Dict[str, int] = defaultdict(int)
        #: Elastic membership: node_id -> time it left / joined.  Fed by
        #: ``capacity_change`` telemetry so aggregation tracks the live
        #: set instead of averaging over ghosts.
        self.departed_nodes: Dict[int, float] = {}
        self.joined_nodes: Dict[int, float] = {}
        #: Blackout windows ``(node_id-or-None, start, end)`` opened by
        #: injected monitor outages / stats gaps.  Node samples inside
        #: an applicable window are dropped on ingestion.
        self.gaps: List[Tuple[Optional[int], float, float]] = []
        if bus is not None:
            self.subscribe_to(bus)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def subscribe_to(self, bus: "TelemetryBus") -> None:
        """Consume the monitor feeds (``stats`` + ``node``) from *bus*."""
        bus.subscribe(self.on_event, categories=("stats", "node"))

    def on_event(self, event: "TelemetryEvent") -> None:
        # Dispatch on the event's kind tag, most frequent first: node
        # samples outnumber everything else on these two categories.
        kind = event.kind
        if kind == "node_sample":
            self.on_node_stats(event.stats)
        elif kind == "task_stats":
            self.on_task_stats(event.stats)
        elif kind == "capacity_change":
            self.on_capacity_change(event.node_id, event.action, event.time)

    def on_capacity_change(self, node_id: int, action: str, time: float) -> None:
        """Track elastic membership so queries follow the live set."""
        if action == "depart":
            self.departed_nodes.setdefault(node_id, time)
        elif action == "join":
            self.joined_nodes.setdefault(node_id, time)

    def on_task_stats(self, stats: TaskStats) -> None:
        self.task_stats.append(stats)
        if stats.fetch_retries > 0:
            self.fetch_inflated_count[stats.task_id.job_id] += 1
        for listener in self.task_listeners:
            listener(stats)

    def begin_gap(
        self, start: float, end: float, node_id: Optional[int] = None
    ) -> None:
        """Black out node-sample ingestion over ``[start, end]``.

        ``node_id=None`` means cluster-wide (a central-monitor outage);
        a specific id silences one slave monitor.  Task statistics keep
        flowing -- they arrive through the app masters' completion path,
        which buffers until the monitor answers -- but utilization
        samples inside the window are lost for good, so the timelines
        bridge the gap with the last pre-window level.
        """
        self.gaps.append((node_id, start, end))

    def _in_gap(self, node_id: int, time: float) -> bool:
        return any(
            (gap_node is None or gap_node == node_id) and start <= time <= end
            for gap_node, start, end in self.gaps
        )

    def on_node_stats(self, sample: NodeStats) -> None:
        if self.gaps and self._in_gap(sample.node_id, sample.time):
            return
        self.node_samples.append(sample)
        self.cpu_timelines[sample.node_id].add(sample.time, sample.cpu_utilization)
        self.mem_timelines[sample.node_id].add(sample.time, sample.memory_utilization)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stats_for_job(self, job_id: str, task_type: Optional[TaskType] = None) -> List[TaskStats]:
        out = [s for s in self.task_stats if s.task_id.job_id == job_id]
        if task_type is not None:
            out = [s for s in out if s.task_type is task_type]
        return out

    def fetch_inflated_fraction(self, job_id: str) -> float:
        """Fraction of *job_id*'s measurements inflated by fetch retries."""
        total = sum(1 for s in self.task_stats if s.task_id.job_id == job_id)
        if total == 0:
            return 0.0
        return self.fetch_inflated_count[job_id] / total

    def mean_cpu_utilization(self, since: float = 0.0) -> float:
        return self._mean_over(self.cpu_timelines, since)

    def mean_memory_utilization(self, since: float = 0.0) -> float:
        return self._mean_over(self.mem_timelines, since)

    def _mean_over(
        self, timelines: Dict[int, UtilizationTimeline], since: float
    ) -> float:
        """Per-node time-weighted means averaged over *current* capacity.

        A node that departed before the window opened contributes
        nothing; one that departed mid-window contributes only up to its
        departure.  Joined nodes start contributing from their first
        sample, so the denominator always tracks the live membership.
        """
        values = []
        for node_id in sorted(timelines):
            departed = self.departed_nodes.get(node_id)
            if departed is not None and departed <= since:
                continue
            values.append(timelines[node_id].mean(since, until=departed))
        return sum(values) / len(values) if values else 0.0

    def hot_nodes(self, cpu_threshold: float = 0.9) -> List[int]:
        """Nodes whose latest CPU sample exceeds *cpu_threshold* (hot spots)."""
        hot = []
        for node_id, tl in self.cpu_timelines.items():
            if node_id in self.departed_nodes:
                continue  # a ghost's stale last sample is not a hot spot
            latest = tl.latest()
            if latest is not None and latest >= cpu_threshold:
                hot.append(node_id)
        return sorted(hot)
