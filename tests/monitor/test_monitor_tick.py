"""The shared monitor tick against the per-node sampling loop it replaced.

``LegacySlaveMonitor`` keeps the old one-process-per-node generator
verbatim, except that it reads rx and tx with one per-link call each
(the per-node batched read it used went away with it).  Each scenario
runs one job twice -- once with the legacy monitors wired into
:class:`SimCluster` the old way, once with the shared tick -- and
requires the same ``node`` bus stream (every ``NodeSampled`` and
``CapacityChange``, in order, field for field) and the same samples
ingested by the central monitor.
"""

from dataclasses import asdict, astuple

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.experiments import harness
from repro.faults import Fault, FaultPlan
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.monitor.statistics import NodeStats
from repro.workloads.datasets import DatasetSpec
from repro.yarn.app_master import FaultToleranceSettings

MB = 1024**2


class LegacySlaveMonitor:
    """The per-node slave monitor before the shared tick (reference)."""

    def __init__(self, sim, node_manager, sink=None, interval=5.0, network=None):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.nm = node_manager
        self.sink = sink
        self.interval = interval
        self.network = network
        self._running = False

    def start(self):
        if self._running:
            return
        self._running = True
        self.sim.process(self._loop(), name=f"slave-mon-{self.nm.node.node_id}")

    def stop(self):
        self._running = False

    def sample(self):
        node = self.nm.node
        rx = tx = 0.0
        if self.network is not None:
            # Unbatched per-link reads: the batched tick must match them.
            rx = self.network.rx_utilization(node)
            tx = self.network.tx_utilization(node)
        return NodeStats(
            node_id=node.node_id,
            time=self.sim.now,
            cpu_utilization=self.nm.cpu_utilization(),
            memory_utilization=self.nm.memory_utilization(),
            running_containers=self.nm.running_containers,
            rx_utilization=rx,
            tx_utilization=tx,
        )

    def _publish(self, sample):
        if self.sink is not None:
            self.sink(sample)
            return
        tel = self.sim.telemetry
        if tel is not None and tel.wants("node"):
            from repro.telemetry.events import NodeSampled

            tel.emit(NodeSampled(time=sample.time, stats=sample))

    def _loop(self):
        while self._running:
            self._publish(self.sample())
            yield self.sim.timeout(self.interval)


def _legacy_start(monitors):
    for sm in monitors:
        sm.start()


def _spec(sc):
    DatasetSpec("d", num_blocks=12).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.02, partition_skew=0.1,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=4,
        base_config=Configuration(), slowstart=0.05,
    )


def _run(plan, interval):
    sc = harness.SimCluster(
        seed=3,
        cluster_spec=ClusterSpec(num_slaves=6, racks=(3, 3)),
        monitor_interval=interval,
        fault_tolerance=FaultToleranceSettings(),
    )
    stream = []
    sc.telemetry.subscribe(stream.append, categories=("node",))
    if plan is not None:
        sc.inject_faults(plan=plan)
    am = sc.submit(_spec(sc))
    result = sc.sim.run_until_complete(am.completion, max_events=20_000_000)
    return {
        "stream": [(type(ev).__name__, asdict(ev)) for ev in stream],
        "ingested": [astuple(s) for s in sc.monitor.node_samples],
        "duration": result.duration,
        "events": sc.sim.events_executed,
    }


SCENARIOS = {
    "plain": None,
    "join": FaultPlan(
        (
            # Two joins at one instant: each joined node gets its own tick.
            Fault(time=7.0, kind="node_join", node_id=0),
            Fault(time=7.0, kind="node_join", node_id=4),
            Fault(time=23.5, kind="node_join", node_id=2),
        )
    ),
    "decommission": FaultPlan(
        (
            # Node 0 leads the shared tick; the tick must keep its
            # calendar position after its first member leaves.
            Fault(time=12.0, kind="node_decommission", node_id=0),
            Fault(time=30.0, kind="node_decommission", node_id=3),
        )
    ),
    "gaps": FaultPlan(
        (
            Fault(time=4.0, kind="stats_gap", node_id=2, duration=20.0),
            Fault(time=10.0, kind="monitor_outage", node_id=0, duration=15.0),
        )
    ),
}


@pytest.mark.parametrize("interval", [2.0, 5.0])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_tick_matches_per_node_loops(monkeypatch, scenario, interval):
    plan = SCENARIOS[scenario]
    with monkeypatch.context() as m:
        m.setattr(harness, "SlaveMonitor", LegacySlaveMonitor)
        m.setattr(harness, "start_together", _legacy_start)
        legacy = _run(plan, interval)
    tick = _run(plan, interval)

    samples = [ev for name, ev in legacy["stream"] if name == "NodeSampled"]
    assert len(samples) > 20
    # The scenario really moves data, so rx/tx are compared, not zeros.
    assert any(ev["stats"]["rx_utilization"] > 0 for ev in samples)
    assert tick["stream"] == legacy["stream"]
    assert tick["ingested"] == legacy["ingested"]
    assert tick["duration"] == legacy["duration"]
    # One wake-up per instant instead of one per monitor.
    assert tick["events"] < legacy["events"]


def test_scenarios_exercise_membership_and_gaps():
    """Guard the fixtures: joins, departures and gaps really happen."""
    join = _run(SCENARIOS["join"], 5.0)
    joined = {ev["node_id"] for name, ev in join["stream"] if name == "CapacityChange"}
    assert len(joined) == 3
    sampled = {ev["stats"]["node_id"] for name, ev in join["stream"] if name == "NodeSampled"}
    assert joined <= sampled

    gone = _run(SCENARIOS["decommission"], 5.0)
    late = [
        ev["stats"]["node_id"]
        for name, ev in gone["stream"]
        if name == "NodeSampled" and ev["time"] > 40.0
    ]
    assert late and 0 not in late and 3 not in late

    gaps = _run(SCENARIOS["gaps"], 5.0)
    assert len(gaps["ingested"]) < sum(1 for name, _ in gaps["stream"] if name == "NodeSampled")
