"""Metric and workload definitions shared by the runner and its child passes.

Every metric the benchmark prints is declared here once: its unit, which
direction is better, and the workloads it applies to.  Per-layer metrics
also name the end-to-end metric and workload they are expected to move,
which is the rationale ``BENCHMARK.json`` cannot hold (its metric
entries have a fixed set of keys).

``RESULT_E2E`` is the subset of end-to-end metrics that exist on every
workload and are never zero; they form the machine-read result line.
The workload-specific end-to-end metrics are printed in the table and
kept in the result history.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Workload name -> why it exists (mirrored in ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "expedited": (
        "Paper section 8.2 protocol on two full-size Table-3 jobs, closed "
        "loop: the flow solver dominates host time, monitor and config are small."
    ),
    "service": (
        "3-tenant x 70-job fair-scheduled tuning service, open loop in "
        "simulated time at 1/400 s per tenant: monitor ticks and Configuration "
        "builds dominate."
    ),
    "service-chaos": (
        "The service stream with a fsynced journal and all twelve fault "
        "kinds: the only run of the journal, injector, retries and rollback."
    ),
    "local": (
        "Real worker processes (wordcount A/B, 48 splits, slots = nproc): "
        "the simulator is bypassed and the parent competes with workers for CPU."
    ),
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...] = ALL
    #: Per-layer metrics: "<end-to-end metric> on <workload>" it should move.
    moves: str = ""


#: End-to-end metrics, with the workloads each applies to.
E2E: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("jobs_per_s", "1/s", "higher"),
    Metric("failed_share", "ratio", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("mronline_speedup", "ratio", "higher", ("expedited",)),
    Metric("test_run_sim_s", "s", "lower", ("expedited",)),
    Metric("p50_latency_sim_s", "s", "lower", ("service", "service-chaos")),
    Metric("p95_latency_sim_s", "s", "lower", ("service", "service-chaos")),
    Metric("slo_attainment", "ratio", "higher", ("service", "service-chaos")),
    Metric("task_p50_ms", "ms", "lower", ("local",)),
    Metric("task_p90_ms", "ms", "lower", ("local",)),
)

#: Metrics of the machine-read result line, with their regression bounds.
RESULT_E2E: Dict[str, float] = {
    "jobs_per_s": 0.25,
    "peak_rss_mb": 0.25,
    "setup_s": 0.25,
}

_SVC = "service"
_EXP = "expedited"
_CHAOS = "service-chaos"
_LOCAL = "local"

PER_LAYER: Tuple[Metric, ...] = (
    # sim
    Metric("sim.events", "count", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("sim.engine.self_s", "s", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("sim.flow.self_s", "s", "lower", moves=f"jobs_per_s on {_EXP}; ~0 on {_LOCAL}"),
    Metric("sim.flow.transfers", "count", "lower", moves=f"jobs_per_s on {_EXP}"),
    Metric("sim.flow.util_reads", "count", "lower", moves=f"jobs_per_s on {_EXP}"),
    Metric("sim.host_us_per_task", "us", "lower", moves=f"jobs_per_s on {_EXP}"),
    # cluster, hdfs
    Metric("cluster.self_s", "s", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("hdfs.self_s", "s", "lower", moves=f"setup_s on {_EXP}"),
    Metric("hdfs.blocks_placed", "count", "lower", moves=f"setup_s on {_EXP}"),
    # yarn
    Metric("yarn.self_s", "s", "lower", moves=f"jobs_per_s on {_EXP}"),
    Metric("yarn.containers_granted", "count", "lower",
           moves=f"failed_share and p95_latency_sim_s on {_CHAOS}"),
    Metric("yarn.containers_killed", "count", "lower",
           moves=f"failed_share and p95_latency_sim_s on {_CHAOS}"),
    Metric("yarn.attempt_retries", "count", "lower",
           moves=f"failed_share and p95_latency_sim_s on {_CHAOS}"),
    Metric("yarn.speculative_launches", "count", "lower",
           moves=f"failed_share and p95_latency_sim_s on {_CHAOS}"),
    # mapreduce
    Metric("mapreduce.self_s", "s", "lower", moves=f"jobs_per_s on {_EXP}"),
    Metric("mapreduce.spilled_records", "count", "lower", moves=f"mronline_speedup on {_EXP}"),
    Metric("mapreduce.fetch_retries", "count", "lower",
           moves=f"p95_latency_sim_s on {_CHAOS}; zero on {_SVC}"),
    Metric("mapreduce.fetch_failure_reports", "count", "lower",
           moves=f"p95_latency_sim_s on {_CHAOS}; zero on {_SVC}"),
    Metric("mapreduce.map_outputs_lost", "count", "lower",
           moves=f"p95_latency_sim_s on {_CHAOS}; zero on {_SVC}"),
    # monitor
    Metric("monitor.samples", "count", "lower", moves=f"jobs_per_s on {_SVC}; small on {_EXP}"),
    Metric("monitor.self_s", "s", "lower", moves=f"jobs_per_s on {_SVC}; small on {_EXP}"),
    # core
    Metric("core.config.builds", "count", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("core.config.self_s", "s", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("core.tuner.self_s", "s", "lower", moves=f"jobs_per_s on {_SVC}"),
    Metric("core.tuner.waves_opened", "count", "lower",
           moves=f"mronline_speedup on {_EXP}; p95_latency_sim_s on {_CHAOS}"),
    Metric("core.tuner.rules_fired", "count", "lower",
           moves=f"mronline_speedup on {_EXP}; p95_latency_sim_s on {_CHAOS}"),
    Metric("core.tuner.rollbacks", "count", "lower",
           moves=f"mronline_speedup on {_EXP}; p95_latency_sim_s on {_CHAOS}"),
    Metric("core.tuner.useful_wave_ratio", "ratio", "higher",
           moves=f"mronline_speedup on {_EXP}; p95_latency_sim_s on {_CHAOS}"),
    Metric("core.control_us_per_task", "us", "lower", moves=f"jobs_per_s on {_SVC}"),
    # service
    Metric("service.self_s", "s", "lower", moves=f"p95_latency_sim_s on {_SVC}"),
    Metric("service.dispatched", "count", "lower", moves=f"p95_latency_sim_s on {_SVC}"),
    Metric("service.preemptions", "count", "lower", moves=f"p95_latency_sim_s on {_SVC}"),
    Metric("service.queue_wait_p50_sim_s", "s", "lower", moves=f"p95_latency_sim_s on {_SVC}"),
    Metric("service.queue_wait_p95_sim_s", "s", "lower", moves=f"p95_latency_sim_s on {_SVC}"),
    Metric("service.warm_ratio", "ratio", "higher", moves=f"p95_latency_sim_s on {_SVC}"),
    # recovery, faults
    Metric("recovery.appends", "count", "lower", moves=f"jobs_per_s on {_CHAOS}; absent elsewhere"),
    Metric("recovery.bytes", "bytes", "lower", moves=f"jobs_per_s on {_CHAOS}; absent elsewhere"),
    Metric("recovery.append_p50_ms", "ms", "lower", moves=f"jobs_per_s on {_CHAOS}; absent elsewhere"),
    Metric("recovery.append_p90_ms", "ms", "lower", moves=f"jobs_per_s on {_CHAOS}; absent elsewhere"),
    Metric("faults.applied", "count", "lower", moves=f"jobs_per_s on {_CHAOS}"),
    Metric("faults.self_s", "s", "lower", moves=f"jobs_per_s on {_CHAOS}"),
    # telemetry
    Metric("telemetry.emits", "count", "lower", moves="jobs_per_s on every workload"),
    Metric("telemetry.self_s", "s", "lower", moves="jobs_per_s on every workload"),
    # backends.local
    Metric("local.map_phase_s", "s", "lower", moves=f"jobs_per_s and task_p90_ms on {_LOCAL}"),
    Metric("local.reduce_phase_s", "s", "lower", moves=f"jobs_per_s and task_p90_ms on {_LOCAL}"),
    Metric("local.pool_busy_ratio", "ratio", "higher", moves=f"jobs_per_s and task_p90_ms on {_LOCAL}"),
    Metric("local.parent_self_s", "s", "lower", moves=f"jobs_per_s and task_p90_ms on {_LOCAL}"),
    Metric("local.spilled_records", "count", "lower", moves=f"failed_share on {_LOCAL}"),
    Metric("local.task_retries", "count", "lower", moves=f"failed_share on {_LOCAL}"),
    Metric("local.worker_hangs", "count", "lower", moves=f"failed_share on {_LOCAL}"),
    # harness
    Metric("bench.trace_overhead", "ratio", "lower", moves="reading of every traced run"),
)

#: Per-layer times that are structurally zero on some workload (a layer the
#: workload never enters).  They are printed and kept in the history but
#: left out of the machine-read result line, where every metric must be
#: measured on every workload.
WORKLOAD_SPECIFIC = frozenset({
    "sim.flow.self_s", "cluster.self_s", "hdfs.self_s", "service.self_s",
    "service.queue_wait_p50_sim_s", "service.queue_wait_p95_sim_s",
    "recovery.append_p50_ms", "recovery.append_p90_ms", "faults.self_s",
    "local.map_phase_s", "local.reduce_phase_s", "local.parent_self_s",
})
RESULT_PER_LAYER = tuple(m for m in PER_LAYER if m.name not in WORKLOAD_SPECIFIC)


def median_quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile) of *values*.

    Quartiles use :func:`statistics.quantiles` (exclusive method) once
    there are two values; a single value is its own quartiles.
    """
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last (failed jobs).

    The same rule as ``repro.service.percentile``, kept here because the
    runner must not import the program it measures.
    """
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return str(value)
    if value == int(value) and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def applicable(metrics: Sequence[Metric], workload: str) -> List[Metric]:
    return [m for m in metrics if workload in m.workloads]
