"""Layered benchmark of the MRONLINE reproduction.

Runs one workload (or all four) through the public API, each pass in a
fresh child process, checks the outputs, appends one record per
workload to the result history, and prints a table followed by one JSON
result line.  A run makes a fixed number of passes (``PASSES``), chosen
so that it lasts about ``--seconds`` seconds on the reference machine.

    python3 layerbench/run.py --workload service --seed 1 --seconds 25 --trace 0
    python3 layerbench/run.py                       # all workloads, seed 1
    python3 layerbench/run.py --workload expedited --trace 1   # per-layer table

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a
quarter of the passes twice, untraced and traced, and reports the per-layer metrics plus
``bench.trace_overhead`` (untraced over traced ``jobs_per_s``).  The
result line carries the metrics named in ``BENCHMARK.json``; the
workload-specific metrics appear in the table and in the history
(``layerbench/results/history.jsonl``, append-only).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    RESULT_E2E, E2E, PER_LAYER, RESULT_PER_LAYER, WORKLOADS,
    applicable, fmt, median_quartiles, percentile,
)

HISTORY = os.path.join(HERE, "results", "history.jsonl")
#: A child pass that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Passes per run of 25 seconds; a run makes ``round(PASSES * seconds /
#: 25)`` of them (at least one), so the work of a run, and with it the
#: jobs attempted and failed, is fixed by ``--seed`` and ``--seconds`` and
#: not by how fast the host happens to be.  On a shared 2-vCPU x86-64 VM a
#: pass takes about 13 s (expedited), 5 s (a service or service-chaos
#: stream) and 15 s (local), so runs last about 25 s, except service-chaos:
#: a stream's host cost varies up to 2x with its fault plan, and a run
#: needs eight streams (about 40 s) for its figure to hold still from one
#: seed to the next.
PASSES = {"expedited": 2, "service": 5, "service-chaos": 8, "local": 2}
#: Workloads whose passes are distinct tenant streams.  One stream's host
#: cost depends on its seed (the job mix of a service stream, the fault
#: plan of a service-chaos stream), so a run covers several of them.
STREAMS = ("service", "service-chaos")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a measured failure)."""


def pass_seeds(workload: str, seed: int, seconds: float) -> List[int]:
    """The seed of each pass of one run.

    The passes of a :data:`STREAMS` workload are distinct streams (seed 1
    with eight passes runs streams 1..8, seed 2 streams 9..16); the other
    workloads repeat the workload seed.
    """
    n = max(1, round(PASSES[workload] * seconds / 25.0))
    if workload in STREAMS:
        return [n * (seed - 1) + k + 1 for k in range(n)]
    return [seed] * n


def jobs_per_s(workload: str, passes: List[dict]) -> List[float]:
    """Jobs that ran to their end per host-second of a job phase.

    A job that ran to its end counts, failed or not: failures are
    ``failed_share``'s business.  One value per repetition of the job
    phase, whose median is the run's figure; a :data:`STREAMS` workload
    gives one value, the ratio of sums over its distinct streams, so that
    each stream counts with what it costs.
    """
    if workload in STREAMS:
        return [sum(p["completed"] + p["failed"] for p in passes)
                / sum(p["run_s"] for p in passes)]
    return [rate for p in passes for rate in p["rates"]]


def run_child(workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh interpreter; kills its whole process group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} seed {seed} pass exceeded {CHILD_TIMEOUT_S:.0f}s")
    finally:
        try:  # reap any worker a crashed pass left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(
            f"{workload} seed {seed} pass exited {proc.returncode}:\n{stderr[-3000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


class Round:
    """The passes over one workload's seeds, combined."""

    def __init__(self, workload: str, passes: List[dict]) -> None:
        self.workload = workload
        self.passes = passes
        total = lambda key: sum(p[key] for p in passes)  # noqa: E731
        self.attempted = total("attempted")
        self.bad = total("failed") + total("raised") + total("unfinished")
        self.run_s = total("run_s")
        self.tasks = total("tasks")
        self.digest = hashlib.sha256(
            "".join(p["digest"] for p in passes).encode()
        ).hexdigest()
        self.checks = [c for p in passes for c in p["checks"]]
        self.failures = [f for p in passes for f in p["failures"]]

    def e2e(self) -> Dict[str, float]:
        """Workload-specific end-to-end metrics of this round."""
        out = {"failed_share": self.bad / self.attempted if self.attempted else 0.0}
        if self.workload in ("expedited", "local"):  # one pass per round
            out.update(self.passes[0]["e2e"])
        else:
            lat = [v for p in self.passes for v in p["latencies"]]
            out["p50_latency_sim_s"] = percentile(lat, 50)
            out["p95_latency_sim_s"] = percentile(lat, 95)
            out["slo_attainment"] = sum(p["slo_met"] for p in self.passes) / self.attempted
        return out

    def summed(self, key: str) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for p in self.passes:
            for name, value in p.get(key, {}).items():
                total[name] = total.get(name, 0.0) + value
        return total

    def samples(self, name: str) -> List[float]:
        return [v for p in self.passes for v in p["samples"].get(name, [])]

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics of a traced round (counts and self times)."""
        raw = self.summed("layers")
        counts = self.summed("counts")
        tasks = max(raw["tasks"], 1)
        waits = self.samples("service.queue_waits")
        appends = [s * 1000.0 for s in self.samples("recovery.append_s")]
        local_walls = counts.get("local.map_phase_s", 0.0) + counts.get("local.reduce_phase_s", 0.0)
        slots = counts.get("local.slots", 0.0)
        out = {name: raw[name] for name in (
            "sim.engine.self_s", "sim.flow.self_s", "sim.flow.transfers",
            "sim.flow.util_reads", "cluster.self_s", "hdfs.self_s", "hdfs.blocks_placed",
            "yarn.self_s", "yarn.containers_granted", "yarn.containers_killed",
            "yarn.attempt_retries", "yarn.speculative_launches", "mapreduce.self_s",
            "mapreduce.fetch_retries", "mapreduce.fetch_failure_reports",
            "mapreduce.map_outputs_lost", "monitor.samples", "monitor.self_s",
            "core.config.builds", "core.config.self_s", "core.tuner.self_s",
            "core.tuner.waves_opened", "core.tuner.rules_fired", "core.tuner.rollbacks",
            "service.self_s", "service.dispatched", "service.preemptions",
            "faults.self_s", "telemetry.emits", "telemetry.self_s",
        )}
        out.update({name: counts.get(name, 0.0) for name in (
            "sim.events", "mapreduce.spilled_records", "recovery.appends", "recovery.bytes",
            "faults.applied", "local.map_phase_s", "local.reduce_phase_s",
            "local.parent_self_s", "local.spilled_records", "local.task_retries",
            "local.worker_hangs",
        )})
        out.update({
            "core.tuner.useful_wave_ratio": (
                raw["core.tuner.useful_waves"] / raw["core.tuner.waves_seen"]
                if raw["core.tuner.waves_seen"] else 0.0),
            "core.control_us_per_task": 1e6 * (
                raw["monitor.self_s"] + raw["core.tuner.self_s"] + raw["core.config.self_s"]
            ) / tasks,
            "service.queue_wait_p50_sim_s": percentile(waits, 50) if waits else 0.0,
            "service.queue_wait_p95_sim_s": percentile(waits, 95) if waits else 0.0,
            "service.warm_ratio": (
                counts["service.warm_dispatches"] / counts["service.dispatches"]
                if counts.get("service.dispatches") else 0.0),
            "recovery.append_p50_ms": percentile(appends, 50) if appends else 0.0,
            "recovery.append_p90_ms": percentile(appends, 90) if appends else 0.0,
            "local.pool_busy_ratio": (
                counts["local.busy_s"] / (slots * local_walls) if slots and local_walls else 0.0),
        })
        return out


def rounds_of(workload: str, passes: List[dict]) -> List[Round]:
    """Group passes into run-throughs of the distinct inputs.

    The round of a :data:`STREAMS` workload is all of its streams; any
    other pass repeats the same input and is a round of its own.
    """
    if workload in STREAMS:
        return [Round(workload, passes)] if passes else []
    return [Round(workload, [p]) for p in passes]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one run; return the workload summary.

    Without tracing every pass of :func:`pass_seeds` runs untraced.
    With tracing, the first quarter of them (rounded up) run twice, each
    untraced and then traced, so ``bench.trace_overhead`` compares the
    same inputs and a traced run lasts about as long as an untraced one.
    """
    seeds = pass_seeds(workload, seed, seconds)
    if trace:
        seeds = seeds[: (len(seeds) + 3) // 4]
    plain: List[dict] = []
    with_trace: List[dict] = []
    for s in seeds:
        plain.append(run_child(workload, s, False))
        if trace:
            with_trace.append(run_child(workload, s, True))
    untraced = rounds_of(workload, plain)
    traced = rounds_of(workload, with_trace)

    rounds = untraced + traced
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.bad for r in rounds),
        "digests": sorted({r.digest for r in rounds}),
        "failures": untraced[0].failures,
        "metrics": {},
    }
    checks = []
    for c in (c for r in rounds for c in r.checks):
        if c not in checks:  # every round repeats its passes' checks
            checks.append(c)
    checks.append({
        "name": "every repeat (traced or not) has the same outcome digest",
        "ok": len(summary["digests"]) == 1,
        "detail": ", ".join(d[:12] for d in summary["digests"]),
    })
    sim_metrics = [m.name for m in applicable(E2E, workload)
                   if m.name.endswith("_sim_s") or m.name in ("mronline_speedup", "slo_attainment")]
    if workload != "local":  # real task timings may legitimately differ
        sim_metrics.append("failed_share")
    for name in sim_metrics:
        values = {json.dumps(r.e2e()[name]) for r in rounds}
        checks.append({"name": f"{name} is identical across repeats", "ok": len(values) == 1,
                       "detail": ", ".join(sorted(values))})

    def put(name: str, values: List[float], unit: str) -> None:
        med, q1, q3 = median_quartiles(values)
        summary["metrics"][name] = {"value": med, "q1": q1, "q3": q3, "n": len(values),
                                    "unit": unit}

    put("setup_s", [p["setup_s"] for p in plain], "s")
    put("jobs_per_s", jobs_per_s(workload, plain), "1/s")
    put("peak_rss_mb", [p["peak_rss_mb"] for p in plain], "MB")
    for m in applicable(E2E, workload):
        if m.name not in summary["metrics"]:
            put(m.name, [r.e2e()[m.name] for r in untraced], m.unit)
    if trace:
        layers = [r.layers() for r in traced]
        for m in PER_LAYER:
            if m.name == "bench.trace_overhead":
                rate = lambda ps: median_quartiles(jobs_per_s(workload, ps))[0]  # noqa: E731
                put(m.name, [rate(plain) / rate(with_trace)], m.unit)
            elif m.name == "sim.host_us_per_task":
                put(m.name, [1e6 * r.run_s / r.tasks if r.tasks else 0.0 for r in untraced],
                    m.unit)
            else:
                put(m.name, [lay[m.name] for lay in layers], m.unit)
        summary["dropped_spans"] = sum(r.summed("layers").get("spans_dropped", 0) for r in traced)
    summary["checks"] = checks
    summary["correct"] = all(c["ok"] for c in checks)
    return summary


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(summary: dict, trace: bool) -> None:
    w = summary["workload"]
    print(f"== {w}  seed {summary['seed']}  rounds {summary['rounds']}"
          f"{' + %d traced' % summary['traced_rounds'] if trace else ''}"
          f"  jobs attempted {summary['attempted']}  failed {summary['failed']}"
          f"  correct {'yes' if summary['correct'] else 'NO'}")
    print(f"   {WORKLOADS[w]}")
    tables = [("end-to-end", applicable(E2E, w))]
    if trace:
        tables.append(("per-layer (traced rounds)", PER_LAYER))
    for header, rows in tables:
        print(f"   {header:<32} {'median':>14} {'q1':>12} {'q3':>12}  {'unit':<6} n")
        for m in rows:
            v = summary["metrics"][m.name]
            note = f"  -> {m.moves}" if m.moves else ""
            print(f"   {m.name:<32} {fmt(v['value']):>14} {fmt(v['q1']):>12} "
                  f"{fmt(v['q3']):>12}  {v['unit']:<6} {v['n']}{note}")
    for c in summary["checks"]:
        print(f"   check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail'][:110]}")
    print(f"   outcome digest(s): {', '.join(summary['digests'])}")
    if summary.get("dropped_spans"):
        print(f"   trace file kept the first spans only; {summary['dropped_spans']} not written")
    for f in summary["failures"][:12]:
        print(f"   failed: {f[:150]}")
    if len(summary["failures"]) > 12:
        print(f"   failed: ... {len(summary['failures']) - 12} more")


def source_identity() -> Dict[str, str]:
    """Commit (when the checkout is a git work tree) and a digest of ``src``."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
            else:
                packed = os.path.join(ROOT, ".git", "packed-refs")
                if os.path.isfile(packed):
                    with open(packed) as fh:
                        for line in fh:
                            if line.rstrip().endswith(ref[5:]):
                                commit = line.split()[0]
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"commit": commit, "src_digest": h.hexdigest()}


def append_history(summary: dict, seconds: float, trace: bool) -> None:
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        **source_identity(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": summary["workload"],
        "seed": summary["seed"],
        "seconds": seconds,
        "trace": int(trace),
        "rounds": summary["rounds"],
        "traced_rounds": summary["traced_rounds"],
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "digests": summary["digests"],
        "metrics": {
            name: {k: (None if isinstance(v, float) and not math.isfinite(v) else v)
                   for k, v in m.items()}
            for name, m in summary["metrics"].items()
        },
    }
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def result_line(summaries: List[dict], trace: bool) -> dict:
    names = [m.name for m in RESULT_PER_LAYER] if trace else sorted(RESULT_E2E)
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else s["workload"] + "/"
        for name in names:
            m = s["metrics"][name]
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for w in workloads:
            summary = measure(w, args.seed, args.seconds, bool(args.trace))
            print_table(summary, bool(args.trace))
            append_history(summary, args.seconds, bool(args.trace))
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
