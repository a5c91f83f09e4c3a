"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; prints one JSON object as its last line.  The clock
starts before the program is imported, so ``setup_s`` includes imports.

    python3 layerbench/child.py --workload service --seed 1 --trace 0
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from metrics import WORKLOADS  # noqa: E402

WORKDIR = os.path.join(HERE, ".work")
TRACE_DIR = os.path.join(HERE, "out")


def layer_raw(tracer, observer, out) -> dict:
    """Additive per-layer quantities of one traced pass."""
    counters = observer.counters()
    selfs = {layer: tracer.self_seconds(layer) for layer in (
        "sim.engine", "sim.flow", "cluster", "hdfs", "yarn", "mapreduce", "monitor",
        "core.config", "core.tuner", "service", "faults", "telemetry",
    )}
    raw = {f"{layer}.self_s": value for layer, value in selfs.items()}
    raw.update({
        "sim.flow.transfers": tracer.calls_of("FlowScheduler.transfer"),
        "sim.flow.util_reads": tracer.calls_of(
            "FlowScheduler.utilization", "FlowScheduler.utilizations"),
        "hdfs.blocks_placed": tracer.hooked_count("HdfsFileSystem.create_file"),
        "yarn.containers_granted": counters.get("yarn.containers_granted", 0),
        "yarn.containers_killed": counters.get("yarn.containers_killed", 0),
        "yarn.attempt_retries": counters.get("yarn.attempt_retries", 0),
        "yarn.speculative_launches": counters.get("yarn.speculative_launches", 0),
        "mapreduce.fetch_retries": counters.get("shuffle.fetch_retries", 0),
        "mapreduce.fetch_failure_reports": counters.get("shuffle.fetch_failure_reports", 0),
        "mapreduce.map_outputs_lost": counters.get("yarn.map_outputs_lost", 0),
        "monitor.samples": tracer.calls_of("CentralMonitor.on_node_stats"),
        "core.config.builds": tracer.calls_of("Configuration.__init__"),
        "core.tuner.waves_opened": counters.get("tuner.waves_opened", 0),
        "core.tuner.rules_fired": counters.get("tuner.rules_fired", 0),
        "core.tuner.rollbacks": counters.get("tuner.rollbacks", 0),
        "core.tuner.useful_waves": observer.useful_waves(),
        "core.tuner.waves_seen": len(observer.waves_opened),
        "service.dispatched": counters.get("service.dispatched", 0),
        "service.preemptions": counters.get("service.preemptions", 0),
        "telemetry.emits": tracer.calls_of("TelemetryBus.emit"),
        "tasks": out.tasks,
        "spans_dropped": tracer.dropped,
    })
    return raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
        tracer.open_root()
    clock = workloads.Clock(STARTED)
    observer = workloads.Observer(traced=bool(args.trace))
    os.makedirs(WORKDIR, exist_ok=True)
    if args.workload == "expedited":
        out = workloads.run_expedited(args.seed, clock, observer)
    elif args.workload == "service":
        out = workloads.run_service_stream(args.seed, clock, observer)
    elif args.workload == "service-chaos":
        out = workloads.run_chaos_stream(args.seed, clock, observer, WORKDIR)
    else:
        out = workloads.run_local(args.seed, clock, observer, WORKDIR)

    if not out.rates:
        out.rates.append((out.completed + out.failed) / out.run_s)
    record = dataclasses.asdict(out)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.close_root()
        record["layers"] = layer_raw(tracer, observer, out)
        if "faults.applied" in out.counts:
            counted = observer.counters().get("faults.applied", 0)
            record["checks"].append({
                "name": "the faults.applied bus counter equals the injector's applied list",
                "ok": counted == out.counts["faults.applied"],
                "detail": f"{counted} vs {out.counts['faults.applied']}",
            })
        record["samples"]["recovery.append_s"] = tracer.durations_of("ServiceJournal.record_")
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}.npz"), seed=args.seed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
