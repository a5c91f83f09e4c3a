"""Integration harness: build a cluster, submit jobs, repeat with seeds.

:class:`SimCluster` assembles one simulated deployment (engine, nodes,
network, HDFS, resource manager, node managers, central monitor) and
offers a JobClient-like interface.  :class:`ExperimentRunner` runs the
paper's protocol: every measurement is repeated over several seeds
("we repeat each experiment four times ... and report the average").
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cluster.topology import Cluster, ClusterSpec, build_cluster
from repro.core.configuration import Configuration
from repro.faults import FaultInjector, FaultPlan, generate_fault_plan
from repro.hdfs.filesystem import HdfsFileSystem
from repro.mapreduce.jobspec import JobSpec
from repro.monitor.central_monitor import CentralMonitor
from repro.monitor.slave_monitor import SlaveMonitor, start_together
from repro.sim.engine import Simulator
from repro.sim.events import AllOf
from repro.sim.rng import RngRegistry
from repro.telemetry import TelemetryBus
from repro.workloads.suite import BenchmarkCase, make_job_spec
from repro.yarn.app_master import (
    ConfigProvider,
    FaultToleranceSettings,
    JobResult,
    LaunchGate,
    MRAppMaster,
)
from repro.yarn.fair_scheduler import FairScheduler
from repro.yarn.node_manager import NodeManager
from repro.yarn.resource_manager import ResourceManager
from repro.yarn.scheduler import FifoScheduler, SchedulerBase


class SimCluster:
    """One simulated YARN deployment."""

    def __init__(
        self,
        seed: int = 0,
        cluster_spec: Optional[ClusterSpec] = None,
        scheduler: str = "fifo",
        monitor_interval: float = 5.0,
        start_monitors: bool = True,
        fault_tolerance: Optional["FaultToleranceSettings"] = None,
    ) -> None:
        self.seed = seed
        self.rngs = RngRegistry(seed)
        self.sim = Simulator()
        #: The cluster-wide telemetry bus.  Always attached; with no
        #: exporter subscribed, every emission site outside the monitor
        #: feeds reduces to a cheap category check, so run digests stay
        #: bit-identical whether or not anyone is tracing.
        self.telemetry = TelemetryBus(clock=lambda: self.sim.now)
        self.sim.attach_telemetry(self.telemetry)
        self.cluster: Cluster = build_cluster(self.sim, cluster_spec)
        self.hdfs = HdfsFileSystem(
            self.cluster, rng=self.rngs.stream("hdfs", "placement")
        )
        self.scheduler: SchedulerBase = self._make_scheduler(scheduler)
        self.rm = ResourceManager(self.sim, self.cluster, self.scheduler)
        self.node_managers: Dict[int, NodeManager] = {
            node.node_id: NodeManager(self.sim, node, network=self.cluster.network)
            for node in self.cluster.nodes
        }
        # The central monitor consumes the ``stats``/``node`` feeds off
        # the bus; slave monitors publish there (sink=None) rather than
        # calling the central monitor directly.
        self.monitor = CentralMonitor(self.sim, bus=self.telemetry)
        self._monitor_interval = monitor_interval
        self._monitors_started = start_monitors
        self.slave_monitors: List[SlaveMonitor] = [
            SlaveMonitor(
                self.sim,
                nm,
                sink=None,
                interval=monitor_interval,
                network=self.cluster.network,
            )
            for nm in self.node_managers.values()
        ]
        if start_monitors:
            # One shared tick samples every seed node in node order.
            start_together(self.slave_monitors)
        #: Retry/blacklist/speculation policy handed to every app master
        #: (``None`` = defaults: retries on, speculation off).
        self.fault_tolerance = fault_tolerance
        #: Armed by :meth:`inject_faults`; ``None`` in fault-free runs.
        self.fault_injector: Optional[FaultInjector] = None
        self._submissions = 0

    def inject_faults(
        self,
        plan: Optional[FaultPlan] = None,
        horizon: float = 0.0,
        **counts: int,
    ) -> FaultPlan:
        """Arm fault injection, from an explicit *plan* or generated counts.

        Without *plan*, a scenario is drawn by
        :func:`~repro.faults.generate_fault_plan` (*horizon* and the
        per-kind *counts*) from the dedicated ``("faults", "plan")``
        RNG stream -- fault-free runs never touch that stream, so
        arming faults cannot perturb any other random draw, and the
        same seed always produces the same scenario.  Per-fetch failure
        draws (``link_flaky``) come from the separate
        ``("faults", "fetch")`` stream so the scenario itself stays
        identical across plans that differ only in flaky windows.
        A plan naming a node this cluster lacks when the fault lands is
        rejected (:class:`~repro.faults.plan.FaultPlanError`) before
        anything is armed.  Must be called before the simulation is driven.
        """
        if self.fault_injector is not None:
            raise RuntimeError("faults already injected for this cluster")
        if plan is None:
            plan = generate_fault_plan(
                self.rngs.stream("faults", "plan"),
                num_nodes=len(self.cluster.nodes),
                horizon=horizon,
                **counts,
            )
        plan.check_nodes(len(self.cluster.nodes))
        elastic = None
        if plan.has_elastic_faults:
            # A fully wired membership manager: joined nodes get a slave
            # monitor (when this harness runs them) and departed nodes'
            # monitors stop, so the central monitor tracks the live set.
            from repro.faults.elastic import ElasticCluster

            elastic = ElasticCluster(
                self.sim,
                self.cluster,
                self.node_managers,
                self.rm,
                start_node_monitor=self._start_slave_monitor,
                stop_node_monitor=self._stop_slave_monitor,
            )
        control = None
        if plan.has_control_faults:
            # A control-plane manager wired to this harness's central
            # monitor; tuners register themselves on submit().
            from repro.faults.control import ControlPlaneState

            control = ControlPlaneState(self.sim, monitor=self.monitor)
        self.fault_injector = FaultInjector(
            self.sim,
            self.cluster,
            self.node_managers,
            self.rm,
            plan,
            fetch_rng=self.rngs.stream("faults", "fetch"),
            elastic=elastic,
            control=control,
        )
        self.fault_injector.start()
        return plan

    def _start_slave_monitor(self, nm: NodeManager) -> None:
        """Give a freshly joined node the same monitoring as seed nodes."""
        sm = SlaveMonitor(
            self.sim,
            nm,
            sink=None,
            interval=self._monitor_interval,
            network=self.cluster.network,
        )
        self.slave_monitors.append(sm)
        if self._monitors_started:
            sm.start()

    def _stop_slave_monitor(self, node_id: int) -> None:
        for sm in self.slave_monitors:
            if sm.nm.node.node_id == node_id:
                sm.stop()

    def _make_scheduler(self, kind: str) -> SchedulerBase:
        if kind == "fifo":
            return FifoScheduler(self.cluster)
        if kind == "fair":
            return FairScheduler(self.cluster)
        raise ValueError(f"unknown scheduler {kind!r} (want 'fifo' or 'fair')")

    # ------------------------------------------------------------------
    # JobClient-style interface
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
        weight: float = 1.0,
    ) -> MRAppMaster:
        """Submit one job; returns its app master (already started)."""
        # Dataflow noise is keyed by (name, submission order), NOT the
        # process-global job id, so identically built clusters replay
        # identically regardless of how many jobs ran before them.
        self._submissions += 1
        am = MRAppMaster(
            self.sim,
            self.cluster,
            self.hdfs,
            self.rm,
            self.node_managers,
            spec,
            config_provider=config_provider,
            gate=gate,
            rng=self.rngs.stream("dataflow", spec.name, self._submissions),
            app_weight=weight,
            fault_tolerance=self.fault_tolerance,
        )
        # Task stats reach the central monitor through the telemetry bus
        # (the AM emits a ``stats`` event per completed attempt), not a
        # hand-wired listener; see CentralMonitor.subscribe_to.
        if self.fault_injector is not None and self.fault_injector.elastic is not None:
            # Under elastic churn the AM receives preemption notices so
            # it can migrate doomed attempts within the grace window.
            self.fault_injector.elastic.register_app(am)
        am.start()
        return am

    def run_job(
        self,
        spec: JobSpec,
        config_provider: Optional[ConfigProvider] = None,
        gate: Optional[LaunchGate] = None,
    ) -> JobResult:
        """Submit one job and run the simulation until it completes."""
        am = self.submit(spec, config_provider=config_provider, gate=gate)
        return self.sim.run_until_complete(am.completion)

    def run_jobs(self, ams: Sequence[MRAppMaster]) -> List[JobResult]:
        """Run until every submitted job completes."""
        done = AllOf(self.sim, [am.completion for am in ams])
        return list(self.sim.run_until_complete(done))


class JobFailedError(RuntimeError):
    """A measured job did not complete successfully."""


def checked_duration(result: JobResult) -> float:
    """Duration of a *successful* job.

    Every figure protocol extracts durations through here: a job that
    exhausted its retries raises -- naming the failed tasks' reasons --
    instead of leaking a partial-run duration into an average.
    """
    if not result.succeeded:
        raise JobFailedError(f"job did not succeed: {result.failure_summary()}")
    return result.duration


@dataclass
class RepeatedMeasurement:
    """Aggregate of one metric over seed replicas."""

    values: List[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.values) if len(self.values) > 1 else 0.0


def _validate_case(case: Union[BenchmarkCase, str]) -> BenchmarkCase:
    """Resolve and sanity-check a case *before* any simulation starts.

    Accepts the case object or its Table-3 name.  An unknown name, an
    empty dataset, or a non-positive reducer count raises here, in the
    submitting process, instead of surfacing as a crash deep inside the
    first (possibly pooled) replica run.
    """
    if isinstance(case, str):
        from repro.workloads.suite import case_by_name

        case = case_by_name(case)  # raises KeyError on unknown names
    if case.num_reducers < 1:
        raise ValueError(f"case {case.name!r}: num_reducers must be >= 1")
    if case.dataset.num_blocks < 1:
        raise ValueError(f"case {case.name!r}: dataset has no blocks")
    return case


def _run_case_replica(
    case: BenchmarkCase,
    seed: int,
    base_config: Optional[Configuration],
    scheduler: str,
) -> JobResult:
    """Top-level (hence picklable) worker for one run_case replica."""
    from repro.backends.sim import SimBackend

    backend = SimBackend(seed=seed, scheduler=scheduler)
    spec = make_job_spec(case, backend.hdfs, base_config=base_config)
    return backend.run_job(spec)


class ExperimentRunner:
    """Repeats a measurement over seeds, paper-style (4 runs, mean).

    ``parallel=True`` fans the replica runs out over a process pool
    (``max_workers`` defaults to the ``REPRO_WORKERS`` environment knob
    and then to the CPU count); replicas are independently seeded, so
    results are bit-identical to the serial path.
    """

    def __init__(self, replicas: int = 4, base_seed: int = 1) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.replicas = replicas
        self.base_seed = base_seed

    def seeds(self) -> List[int]:
        return [self.base_seed + i for i in range(self.replicas)]

    def measure(
        self,
        fn: Callable[[int], float],
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> RepeatedMeasurement:
        """Run ``fn(seed)`` for each replica seed and aggregate.

        The parallel path requires *fn* to be picklable (a top-level
        function or a :func:`functools.partial` over one).
        """
        if parallel:
            from repro.experiments.parallel import map_seeds

            values = map_seeds(fn, self.seeds(), max_workers=max_workers)
            return RepeatedMeasurement([float(v) for v in values])
        return RepeatedMeasurement([float(fn(seed)) for seed in self.seeds()])

    def run_case(
        self,
        case: Union[BenchmarkCase, str],
        base_config: Optional[Configuration] = None,
        scheduler: str = "fifo",
        config_provider_factory: Optional[
            Callable[[SimCluster, JobSpec], ConfigProvider]
        ] = None,
        gate_factory: Optional[Callable[[SimCluster, JobSpec], LaunchGate]] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> List[JobResult]:
        """Run one benchmark case once per seed; returns all results.

        *case* may be a :class:`BenchmarkCase` or a Table-3 case name;
        either way it is validated up front, before the first cluster is
        built.  Provider/gate factories close over live cluster state,
        so they are incompatible with the process-pool path.
        """
        case = _validate_case(case)
        if parallel:
            if config_provider_factory or gate_factory:
                raise ValueError(
                    "provider/gate factories bind to live cluster state and "
                    "cannot cross the process boundary; use parallel=False"
                )
            from functools import partial

            from repro.experiments.parallel import map_seeds

            return map_seeds(
                partial(
                    _run_case_replica,
                    case,
                    base_config=base_config,
                    scheduler=scheduler,
                ),
                self.seeds(),
                max_workers=max_workers,
            )
        from repro.backends.sim import SimBackend

        results = []
        for seed in self.seeds():
            # The serial path runs behind the Backend protocol too; the
            # factories keep receiving the live SimCluster they close over.
            backend = SimBackend(seed=seed, scheduler=scheduler)
            sc = backend.cluster
            spec = make_job_spec(case, sc.hdfs, base_config=base_config)
            provider = (
                config_provider_factory(sc, spec) if config_provider_factory else None
            )
            gate = gate_factory(sc, spec) if gate_factory else None
            results.append(
                backend.run_job(spec, config_provider=provider, gate=gate)
            )
        return results
