"""Tests for the monitoring stack."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.mapreduce.jobspec import TaskId, TaskType
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor, start_together
from repro.monitor.statistics import NodeStats, TaskStats, UtilizationTimeline
from repro.sim import Simulator
from repro.yarn.node_manager import NodeManager

MB = 1024**2


def stats(job="j1", task_type=TaskType.MAP, index=0, **over):
    base = dict(
        task_id=TaskId(job, task_type, index),
        task_type=task_type,
        node_id=0,
        attempt=1,
        config={},
        start_time=0.0,
        end_time=10.0,
        cpu_seconds=5.0,
        allocated_cores=1.0,
        working_set_bytes=512 * MB,
        container_memory_bytes=1024 * MB,
        spilled_records=100,
        map_output_records=100,
    )
    base.update(over)
    return TaskStats(**base)


class TestTaskStats:
    def test_duration(self):
        assert stats(start_time=2.0, end_time=12.0).duration == 10.0

    def test_memory_utilization_capped(self):
        s = stats(working_set_bytes=2048 * MB)
        assert s.memory_utilization == 1.0

    def test_cpu_utilization(self):
        assert stats().cpu_utilization == pytest.approx(0.5)

    def test_cpu_utilization_zero_duration(self):
        assert stats(end_time=0.0).cpu_utilization == 0.0

    def test_spill_ratio_map_prefers_combine_records(self):
        s = stats(spilled_records=200, map_output_records=400, combine_output_records=100)
        assert s.spill_ratio == pytest.approx(2.0)

    def test_spill_ratio_zero_denominator(self):
        assert stats(map_output_records=0, spilled_records=0).spill_ratio == 0.0
        assert stats(map_output_records=0, spilled_records=5).spill_ratio == 1.0

    def test_spill_ratio_reduce_uses_shuffled_records(self):
        # A reduce attempt's denominator is its shuffled record count --
        # map-side counters must not leak into the reduce ratio.
        s = stats(
            task_type=TaskType.REDUCE,
            spilled_records=50,
            map_output_records=1000,
            combine_output_records=500,
            reduce_input_records=200,
        )
        assert s.spill_ratio == pytest.approx(0.25)

    def test_spill_ratio_reduce_zero_denominator(self):
        s = stats(task_type=TaskType.REDUCE, reduce_input_records=0, spilled_records=0)
        assert s.spill_ratio == 0.0
        s = stats(task_type=TaskType.REDUCE, reduce_input_records=0, spilled_records=9)
        assert s.spill_ratio == 1.0

    def test_cpu_utilization_zero_cores(self):
        assert stats(allocated_cores=0.0).cpu_utilization == 0.0

    def test_cpu_utilization_capped(self):
        assert stats(cpu_seconds=1e6).cpu_utilization == 1.0

    def test_negative_duration_clamped(self):
        # A failed attempt can record end_time == start_time (or, with
        # clock skew in a real deployment, even earlier); never negative.
        assert stats(start_time=10.0, end_time=4.0).duration == 0.0


class TestTimeline:
    def test_time_weighted_mean(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)  # value 0 held for 10s
        tl.add(20.0, 1.0)  # value 1 held for 10s
        assert tl.mean() == pytest.approx(0.5)

    def test_since_filter(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=10.0) == pytest.approx(1.0)

    def test_single_sample(self):
        tl = UtilizationTimeline()
        tl.add(5.0, 0.7)
        assert tl.mean() == 0.7

    def test_empty(self):
        assert UtilizationTimeline().mean() == 0.0
        assert UtilizationTimeline().latest() is None

    def test_window_carries_pre_window_level(self):
        # The level in effect when the window opens comes from the last
        # pre-window sample: value 0 still holds over [5, 10).
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=5.0) == pytest.approx(2.0 / 3.0)

    def test_window_aligned_with_sample_needs_no_boundary(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.0)
        tl.add(10.0, 1.0)
        tl.add(20.0, 1.0)
        assert tl.mean(since=10.0) == pytest.approx(1.0)

    def test_window_past_last_sample_holds_the_level(self):
        tl = UtilizationTimeline()
        tl.add(0.0, 0.2)
        tl.add(10.0, 0.8)
        assert tl.mean(since=25.0) == pytest.approx(0.8)


class TestProgressBoard:
    def make_board(self):
        from repro.monitor.statistics import ProgressBoard

        return ProgressBoard()

    def tid(self, index=0, task_type=TaskType.MAP):
        return TaskId("j1", task_type, index)

    def test_start_update_finish_lifecycle(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.update(self.tid(), 1, 0.5)
        (entry,) = board.running()
        assert entry.fraction == 0.5
        board.finish(self.tid(), 1)
        assert board.running() == []

    def test_update_is_monotonic_and_capped(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.update(self.tid(), 1, 0.6)
        board.update(self.tid(), 1, 0.3)  # stale report never regresses
        assert board.running()[0].fraction == 0.6
        board.update(self.tid(), 1, 7.0)
        assert board.running()[0].fraction == 1.0

    def test_update_unknown_attempt_ignored(self):
        board = self.make_board()
        board.update(self.tid(), 1, 0.5)  # never started
        assert board.running() == []

    def test_attempts_of_orders_speculative_backups(self):
        board = self.make_board()
        board.start(self.tid(), 2, TaskType.MAP, node_id=1, now=5.0)
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.start(self.tid(index=1), 1, TaskType.MAP, node_id=2, now=0.0)
        attempts = board.attempts_of(self.tid())
        assert [a.attempt for a in attempts] == [1, 2]
        assert all(str(a.task_id) == str(self.tid()) for a in attempts)

    def test_speculative_finish_removes_only_that_attempt(self):
        # The loser of a speculative race is cleaned up independently of
        # the winner: finishing attempt 1 leaves the backup running.
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.start(self.tid(), 2, TaskType.MAP, node_id=1, now=5.0)
        board.finish(self.tid(), 1)
        assert [a.attempt for a in board.attempts_of(self.tid())] == [2]
        board.finish(self.tid(), 2)
        assert board.attempts_of(self.tid()) == []

    def test_finish_is_idempotent(self):
        board = self.make_board()
        board.start(self.tid(), 1, TaskType.MAP, node_id=0, now=0.0)
        board.finish(self.tid(), 1)
        board.finish(self.tid(), 1)  # double cleanup must not raise
        assert board.running() == []

    def test_running_order_is_deterministic(self):
        board = self.make_board()
        board.start(self.tid(index=2), 1, TaskType.REDUCE, node_id=0, now=0.0)
        board.start(self.tid(index=0), 1, TaskType.MAP, node_id=1, now=1.0)
        keys = [(str(p.task_id), p.attempt) for p in board.running()]
        assert keys == sorted(keys)


class TestCentralMonitor:
    def test_task_stats_routing(self):
        mon = CentralMonitor(Simulator())
        mon.on_task_stats(stats(job="a"))
        mon.on_task_stats(stats(job="b", task_type=TaskType.REDUCE, reduce_input_records=5))
        assert len(mon.stats_for_job("a")) == 1
        assert len(mon.stats_for_job("b", TaskType.REDUCE)) == 1
        assert mon.stats_for_job("b", TaskType.MAP) == []

    def test_listeners_notified(self):
        mon = CentralMonitor(Simulator())
        seen = []
        mon.task_listeners.append(seen.append)
        s = stats()
        mon.on_task_stats(s)
        assert seen == [s]

    def test_node_utilization_means(self):
        mon = CentralMonitor(Simulator())
        mon.on_node_stats(
            NodeStats(0, 0.0, cpu_utilization=0.2, memory_utilization=0.4, running_containers=1)
        )
        mon.on_node_stats(
            NodeStats(0, 10.0, cpu_utilization=0.2, memory_utilization=0.4, running_containers=1)
        )
        assert mon.mean_cpu_utilization() == pytest.approx(0.2)
        assert mon.mean_memory_utilization() == pytest.approx(0.4)

    def test_hot_nodes(self):
        mon = CentralMonitor(Simulator())
        mon.on_node_stats(NodeStats(3, 0.0, 0.95, 0.5, 2))
        mon.on_node_stats(NodeStats(4, 0.0, 0.10, 0.5, 2))
        assert mon.hot_nodes() == [3]


class TestSlaveMonitor:
    def test_periodic_sampling(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        samples = []
        mon = SlaveMonitor(sim, nm, samples.append, interval=2.0, network=cluster.network)
        mon.start()
        sim.run(until=7.0)
        assert len(samples) == 4  # t = 0, 2, 4, 6
        assert all(s.node_id == 0 for s in samples)

    def test_stop_ends_loop(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        samples = []
        mon = SlaveMonitor(sim, nm, samples.append, interval=2.0)
        mon.start()
        sim.run(until=3.0)
        mon.stop()
        sim.run(until=20.0)
        assert len(samples) <= 3

    def test_restart_before_next_wake_does_not_double_sample(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        samples = []
        mon = SlaveMonitor(sim, nm, samples.append, interval=5.0)
        mon.start()
        sim.run(until=7.0)
        mon.stop()
        mon.start()
        sim.run(until=21.0)
        # The restart joins a fresh tick; the old one does not wake at 10.
        assert [s.time for s in samples] == [0.0, 5.0, 7.0, 12.0, 17.0]

    def test_start_together_shares_one_tick(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=3, racks=(3,)))
        samples = []
        mons = [
            SlaveMonitor(sim, NodeManager(sim, node), samples.append, interval=2.0)
            for node in cluster.nodes
        ]
        mons[1].start()  # already running: keeps its own tick
        tick = start_together(mons)
        assert tick.members == [mons[0], mons[2]]
        assert start_together(mons) is None
        sim.run(until=3.0)
        assert [(s.time, s.node_id) for s in samples] == [
            (0.0, 1), (0.0, 0), (0.0, 2), (2.0, 1), (2.0, 0), (2.0, 2),
        ]
        for mon in mons:
            mon.stop()
        sim.run()  # every tick is empty, so the calendar drains
        assert len(samples) == 6

    def test_shared_tick_needs_one_interval(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=2, racks=(2,)))
        a, b = (
            SlaveMonitor(sim, NodeManager(sim, node), interval=i)
            for node, i in zip(cluster.nodes, (2.0, 3.0))
        )
        with pytest.raises(ValueError):
            start_together([a, b])

    def test_invalid_interval(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        with pytest.raises(ValueError):
            SlaveMonitor(sim, nm, lambda s: None, interval=0.0)

    def test_sample_reflects_cpu_load(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        node = cluster.nodes[0]
        nm = NodeManager(sim, node)
        node.compute(10_000.0, max_cores=4.0)
        sim.run(until=0.1)
        mon = SlaveMonitor(sim, nm, lambda s: None, network=cluster.network)
        s = mon.sample()
        assert s.cpu_utilization == pytest.approx(0.5)


class TestMonitorsOnTheBus:
    """The refactored wiring: monitors as telemetry-bus subscribers."""

    def test_central_monitor_consumes_bus_feeds(self):
        from repro.telemetry import NodeSampled, TaskStatsRecorded, TelemetryBus

        sim = Simulator()
        bus = TelemetryBus(clock=lambda: sim.now)
        mon = CentralMonitor(sim, bus=bus)
        bus.emit(TaskStatsRecorded(time=10.0, stats=stats(job="a")))
        bus.emit(NodeSampled(time=5.0, stats=NodeStats(0, 5.0, 0.3, 0.6, 1)))
        assert len(mon.stats_for_job("a")) == 1
        assert mon.mean_cpu_utilization() == pytest.approx(0.3)

    def test_slave_monitor_publishes_to_bus_without_sink(self):
        from repro.telemetry import TelemetryBus

        sim = Simulator()
        bus = TelemetryBus(clock=lambda: sim.now)
        sim.attach_telemetry(bus)
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        seen = []
        bus.subscribe(seen.append, categories=("node",))
        mon = SlaveMonitor(sim, nm, sink=None, interval=2.0, network=cluster.network)
        mon.start()
        sim.run(until=5.0)
        assert len(seen) == 3  # t = 0, 2, 4
        assert all(ev.category == "node" for ev in seen)

    def test_slave_monitor_without_bus_or_sink_is_silent(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(num_slaves=1, racks=(1,)))
        nm = NodeManager(sim, cluster.nodes[0])
        mon = SlaveMonitor(sim, nm, sink=None, interval=2.0)
        mon.start()
        sim.run(until=5.0)  # nothing to assert beyond "does not raise"
