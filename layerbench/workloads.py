"""One pass of each workload, driven through the public API.

Each ``run_*`` function builds its inputs from the seed, marks the end
of set-up right before the first job is submitted, drives the jobs one
driving process at a time, checks the outputs, and returns a
:class:`PassResult`.  Simulated-time results are exact per commit and
seed; the pass folds them, with every job's outcome, into ``digest``.

Failures of the system under test are counted, never raised: a job
whose ``JobResult`` did not succeed is *failed*, one whose submission
raised is *raised*, and one still running when a simulated-time
deadline fires is *unfinished*.  All three count against
``failed_share`` and miss every latency limit.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from metrics import percentile

#: Expedited-protocol cases: one shuffle-bound, one compute-type row of Table 3.
EXPEDITED_CASES = ("terasort", "inverted-index-freebase")

SERVICE_TENANTS = 3
SERVICE_JOBS_PER_TENANT = 70
#: Report digest of the warm 3 x 70 stream at seed 1 (the same pin as the
#: service test suite); a moved digest means the service behaves differently.
SERVICE_DIGEST_3X70_SEED1 = (
    "161b01c36c4865849a77b827d76da7740a54670fa1acf168fbfaea3066e49571"
)

CHAOS_JOBS_PER_TENANT = 40
#: One fault of each of the twelve kinds per stream.
CHAOS_FAULTS = dict(
    crashes=1, container_kills=1, degraded=1, link_degraded=1, link_flaky=1,
    rack_partitions=1, decommissions=1, joins=1, spot_preempts=1,
    tuner_crashes=1, monitor_outages=1, stats_gaps=1,
)

LOCAL_SPLITS = 48
LOCAL_SPLIT_KB = 128
LOCAL_REDUCERS = 4
#: A/B repetitions per local pass.  The corpus is most of the set-up
#: (about 2 s); repeating the job phase on it gives a run more samples.
LOCAL_REPS = 3


class Deadline(Exception):
    """Raised from a simulated-time callback to stop a stalled stream."""


@dataclass
class PassResult:
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Jobs that ran to their end per host-second, one value per
    #: repetition of the job phase (local repeats it; others run it once).
    rates: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    raised: int = 0
    unfinished: int = 0
    tasks: int = 0
    digest: str = ""
    #: Workload-specific end-to-end metrics (simulated time, task times).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts measured without tracing.
    counts: Dict[str, float] = field(default_factory=dict)
    checks: List[Dict[str, object]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Per-layer samples that combine by concatenation (queue waits).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Job latencies (inf = failed or unfinished) for cross-stream medians.
    latencies: List[float] = field(default_factory=list)
    slo_met: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class Clock:
    """Marks the end of set-up, and the job phase's wall and CPU time."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.setup_end: Optional[float] = None
        self._cpu0 = 0.0

    @staticmethod
    def _cpu() -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    def setup_done(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
            self._cpu0 = self._cpu()

    def finish(self, out: PassResult) -> None:
        end = time.perf_counter()
        self.setup_done()
        out.setup_s = self.setup_end - self.started
        out.run_s = end - self.setup_end
        out.cpu_s = self._cpu() - self._cpu0


class Observer:
    """What a pass needs from each backend's telemetry bus.

    Untraced passes subscribe nothing beyond what the metrics need.
    Traced passes also subscribe to the ``yarn``, ``tuner`` and
    ``fault`` categories, whose counters only advance while someone
    listens, and track which tuning waves produced a measurement.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.buses: List[object] = []
        self.waves_opened = set()
        self.waves_measured = set()

    def watch(self, bus) -> None:
        self.buses.append(bus)
        if not self.traced:
            return
        from repro.telemetry.events import TaskStatsRecorded, WaveOpened

        def on_event(ev) -> None:
            if isinstance(ev, WaveOpened):
                self.waves_opened.add((ev.job_id, ev.task_type, ev.wave))
            elif isinstance(ev, TaskStatsRecorded) and not ev.stats.failed:
                s = ev.stats
                self.waves_measured.add((s.task_id.job_id, s.task_type.value, s.wave))

        bus.subscribe(on_event, ("yarn", "tuner", "fault", "stats"))

    def counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for bus in self.buses:
            for name, value in bus.counters.items():
                total[name] = total.get(name, 0.0) + value
        return total

    def useful_waves(self) -> int:
        return len(self.waves_opened & self.waves_measured)


def _digest(parts: List[object]) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _spilled(result) -> float:
    """The job's SPILLED_RECORDS counter."""
    from repro.mapreduce.counters import Counter

    return result.counters.get(Counter.SPILLED_RECORDS)


# ----------------------------------------------------------------------
# expedited
# ----------------------------------------------------------------------
def run_expedited(seed: int, clock: Clock, observer: Observer) -> PassResult:
    """Section 8.2: default, offline guide, aggressive test run, re-run."""
    import numpy as np

    from repro.backends.sim import SimBackend
    from repro.baselines.offline_guide import offline_guide_config
    from repro.core.hill_climbing import HillClimbSettings
    from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
    from repro.sim.rng import derive_seed
    from repro.workloads.suite import case_by_name, make_job_spec

    out = PassResult()
    backends: List[SimBackend] = []

    def backend() -> SimBackend:
        b = SimBackend(seed=seed)
        observer.watch(b.telemetry)
        backends.append(b)
        return b

    first = [backend()]
    clock.setup_done()
    digest_parts: List[object] = []
    speed_num = speed_den = 0.0
    test_run_s = 0.0

    for name in EXPEDITED_CASES:
        case = case_by_name(name)
        durations: Dict[str, float] = {}

        def step(label: str, run: Callable[[SimBackend], object]) -> Optional[object]:
            b = first.pop() if first else backend()
            out.attempted += 1
            try:
                result, extra = run(b)
            except Exception as exc:  # the benchmark records it and goes on
                out.raised += 1
                out.failures.append(f"{name}/{label}: raised {type(exc).__name__}: {exc}")
                digest_parts.append([name, label, "raised", type(exc).__name__])
                return None
            out.tasks += len(result.task_stats)
            out.add("mapreduce.spilled_records", _spilled(result))
            digest_parts.append(
                [name, label, result.succeeded, repr(result.duration), _spilled(result)]
            )
            if result.succeeded:
                out.completed += 1
                durations[label] = result.duration
            else:
                out.failed += 1
                out.failures.append(f"{name}/{label}: {result.failure_summary()}")
            return extra

        def plain(config=None):
            def run(b):
                return b.run_job(make_job_spec(case, b.hdfs, base_config=config)), None
            return run

        def tuning(b):
            spec = make_job_spec(case, b.hdfs)
            tuner = OnlineTuner(
                TuningStrategy.AGGRESSIVE,
                settings=TunerSettings(hill_climb=HillClimbSettings(), optimizer="hill_climb"),
                rng=np.random.default_rng(derive_seed(seed, "tuner", case.name)),
            )
            result = b.wait(b.attach_tuner(tuner, spec))
            return result, tuner.recommended_config(spec.job_id)

        step("default", plain())
        step("offline", plain(offline_guide_config(case)))
        recommended = step("tuning", tuning)
        if recommended is None:
            out.attempted += 1
            out.raised += 1
            out.failures.append(f"{name}/mronline: no recommended config")
        else:
            step("mronline", plain(recommended))
        if "tuning" in durations:
            test_run_s += durations["tuning"]
        if "default" in durations and "mronline" in durations:
            speed_num += durations["default"]
            speed_den += durations["mronline"]

    clock.finish(out)
    out.e2e["mronline_speedup"] = speed_num / speed_den if speed_den else 0.0
    out.e2e["test_run_sim_s"] = test_run_s
    out.add("sim.events", sum(b.sim.events_executed for b in backends))
    out.digest = _digest(digest_parts)
    return out


# ----------------------------------------------------------------------
# service and service-chaos
# ----------------------------------------------------------------------
def _serve(seed: int, clock: Clock, observer: Observer, jobs: int,
           workdir: Optional[str]) -> PassResult:
    """One tenant stream; with *workdir*, also journal and fault plan."""
    from repro.backends.sim import SimBackend
    from repro.service import ServiceConfig, default_tenants, generate_arrivals, run_service
    from repro.telemetry.events import ServiceJobCompleted, ServiceJobDispatched

    chaos = workdir is not None
    out = PassResult()
    backend = SimBackend(seed=seed, scheduler="fair")
    sc = backend.cluster
    observer.watch(sc.telemetry)
    tenants = default_tenants(SERVICE_TENANTS)
    arrivals = generate_arrivals(tenants, jobs, seed)

    # Job outcomes: the service report counts a failed job as completed,
    # so success is read from each job's JobResult.
    results: Dict[str, object] = {}
    submit = sc.submit

    def observed_submit(spec, *args, **kwargs):
        am = submit(spec, *args, **kwargs)
        am.completion.add_callback(lambda ev, j=spec.job_id: results.__setitem__(j, ev.value))
        return am

    sc.submit = observed_submit
    done: Dict[str, tuple] = {}
    queue_waits: List[float] = []
    warm = [0]

    def on_service(ev) -> None:
        if isinstance(ev, ServiceJobCompleted):
            done[ev.job_id] = (ev.latency, ev.slo_met)
        elif isinstance(ev, ServiceJobDispatched):
            queue_waits.append(ev.queue_delay)
            warm[0] += ev.warm_started

    sc.telemetry.subscribe(on_service, ("service",))

    plan = None
    journal = None
    fault_plan_json = None
    if chaos:
        from repro.faults import generate_fault_plan, plan_to_json

        plan = generate_fault_plan(
            sc.rngs.stream("faults", "plan"),
            num_nodes=len(sc.cluster.nodes),
            horizon=jobs / tenants[0].rate,
            **CHAOS_FAULTS,
        )
        fault_plan_json = plan_to_json(plan)
        journal = os.path.join(workdir, f"chaos-{seed}.journal")
        if os.path.exists(journal):
            os.unlink(journal)
        # Past this simulated time every job still running has missed its
        # SLO; a stalled stream stops here instead of at max_events.
        deadline = max(a.time for a in arrivals) + max(t.slo_seconds for t in tenants)

        def stop() -> None:
            raise Deadline()

        sc.sim.call_at(deadline, stop)

    config = ServiceConfig(
        tenants=tenants, jobs_per_tenant=jobs, seed=seed,
        journal_path=journal, fault_plan=fault_plan_json,
    )
    out.attempted = len(arrivals)
    report = None
    stream_error = None
    clock.setup_done()
    try:
        report = run_service(config, backend=backend)
    except Deadline:
        pass
    except Exception as exc:  # the benchmark records it and goes on
        stream_error = f"seed {seed}: stream raised {type(exc).__name__}: {exc}"
    clock.finish(out)

    latencies = []
    slo_met = 0
    for job_id, result in sorted(results.items()):
        out.tasks += len(result.task_stats)
        out.add("mapreduce.spilled_records", _spilled(result))
        if not result.succeeded:
            out.failed += 1
            out.failures.append(f"seed {seed} {job_id}: {result.failure_summary()}")
        elif job_id in done:
            out.completed += 1
            latency, met = done[job_id]
            latencies.append(latency)
            slo_met += met
    missing = out.attempted - out.completed - out.failed
    if stream_error is not None:
        out.raised = missing
        out.failures.append(stream_error)
    else:
        out.unfinished = missing
    if out.unfinished:
        out.failures.append(
            f"seed {seed}: {out.unfinished} job(s) unfinished at simulated t={sc.sim.now:.0f}s"
        )
    out.latencies = latencies + [float("inf")] * (out.attempted - len(latencies))
    out.slo_met = slo_met
    out.e2e["p50_latency_sim_s"] = percentile(out.latencies, 50)
    out.e2e["p95_latency_sim_s"] = percentile(out.latencies, 95)
    out.e2e["slo_attainment"] = slo_met / out.attempted
    out.add("sim.events", sc.sim.events_executed)
    out.add("service.warm_dispatches", warm[0])
    out.add("service.dispatches", len(queue_waits))
    out.samples["service.queue_waits"] = queue_waits

    parts: List[object] = [
        sc.sim.events_executed, repr(sc.sim.now),
        [[j, r.succeeded, repr(done.get(j, (None,))[0])] for j, r in sorted(results.items())],
    ]
    if report is not None:
        parts.append(report.digest())
        if seed == 1 and not chaos:
            out.check(
                "service seed-1 report digest is pinned",
                report.digest() == SERVICE_DIGEST_3X70_SEED1,
                report.digest(),
            )
    if chaos:
        injector = sc.fault_injector
        due = sum(1 for f in plan.faults if f.time <= sc.sim.now)
        handled = len(injector.applied) + len(injector.skipped)
        out.add("faults.applied", len(injector.applied))
        out.add("faults.skipped", len(injector.skipped))
        out.add("faults.planned", len(plan.faults))
        out.check(
            "every fault due is applied or skipped",
            handled == due,
            f"applied {len(injector.applied)} + skipped {len(injector.skipped)} "
            f"of {due} due ({len(plan.faults)} planned)",
        )
        with open(journal, "rb") as fh:
            data = fh.read()
        out.add("recovery.appends", data.count(b"\n"))
        out.add("recovery.bytes", len(data))
        os.unlink(journal)
        parts.append(len(data))
    out.digest = _digest(parts)
    return out


def run_service_stream(seed: int, clock: Clock, observer: Observer) -> PassResult:
    return _serve(seed, clock, observer, SERVICE_JOBS_PER_TENANT, None)


def run_chaos_stream(seed: int, clock: Clock, observer: Observer, workdir: str) -> PassResult:
    return _serve(seed, clock, observer, CHAOS_JOBS_PER_TENANT, workdir)


# ----------------------------------------------------------------------
# local
# ----------------------------------------------------------------------
def wordcount_reference(corpus_dir: str) -> Dict[str, str]:
    """Pure-Python single-process word counts of every split."""
    import collections
    import re

    word = re.compile(r"[a-z']+")
    counts: collections.Counter = collections.Counter()
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
                counts.update(word.findall(fh.read().lower()))
    return {k: str(v) for k, v in counts.items()}


def run_local(seed: int, clock: Clock, observer: Observer, workdir: str) -> PassResult:
    """Wordcount on real worker processes: default, then aggressive tuning.

    Set-up (imports, corpus) happens once; the A/B pair then runs
    ``LOCAL_REPS`` times on the same corpus, each job on a fresh backend.
    """
    import numpy as np

    from repro.backends.local import LocalProcessBackend, generate_corpus, local_job_spec
    from repro.core.tuner import OnlineTuner, TunerSettings, TuningStrategy
    from repro.experiments.real import REAL_SEARCH
    from repro.mapreduce.counters import Counter
    from repro.mapreduce.jobspec import TaskType
    from repro.sim.rng import derive_seed

    out = PassResult()
    slots = len(os.sched_getaffinity(0))
    work = tempfile.mkdtemp(prefix="local-", dir=workdir)
    try:
        corpus = os.path.join(work, "corpus")
        generate_corpus(corpus, num_splits=LOCAL_SPLITS, split_kb=LOCAL_SPLIT_KB, seed=seed)
        outputs: Dict[str, List[Dict[str, str]]] = {}
        task_ms: List[float] = []
        phase = {TaskType.MAP: 0.0, TaskType.REDUCE: 0.0}
        for rep in range(LOCAL_REPS):
            rep_start: Optional[float] = None
            rep_jobs = 0
            for label in ("default", "aggressive"):
                spec = local_job_spec("wordcount", corpus, LOCAL_REDUCERS,
                                      name=f"wordcount-{label}")
                with LocalProcessBackend(
                    workspace=os.path.join(work, f"{label}-{rep}"), slots=slots, seed=seed
                ) as backend:
                    observer.watch(backend.telemetry)
                    clock.setup_done()
                    if rep_start is None:
                        rep_start = time.perf_counter()
                    out.attempted += 1
                    try:
                        if label == "default":
                            result = backend.run_job(spec)
                        else:
                            tuner = OnlineTuner(
                                TuningStrategy.AGGRESSIVE,
                                settings=TunerSettings(hill_climb=REAL_SEARCH),
                                rng=np.random.default_rng(
                                    derive_seed(seed, "real-tuner", "wordcount")),
                            )
                            result = backend.wait(tuner.submit_to(backend, spec))
                    except Exception as exc:  # the benchmark records it and goes on
                        out.raised += 1
                        out.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
                        continue
                    outputs.setdefault(label, []).append(backend.read_output(spec))
                    out.add("local.worker_hangs",
                            backend.telemetry.counters.get("backend.worker_hangs", 0))
                out.tasks += len(result.task_stats)
                out.add("local.spilled_records", _spilled(result))
                out.add("local.task_retries", result.counters.get(Counter.FAILED_TASK_ATTEMPTS))
                rep_jobs += 1
                if result.succeeded:
                    out.completed += 1
                else:
                    out.failed += 1
                    out.failures.append(f"{label}: {result.failure_summary()}")
                ok = [s for s in result.task_stats if not s.failed]
                task_ms.extend((s.end_time - s.start_time) * 1000.0 for s in ok)
                out.add("local.busy_s", sum(s.end_time - s.start_time for s in ok))
                for ttype in phase:
                    spans = [s for s in ok if s.task_type is ttype]
                    if spans:
                        phase[ttype] += (max(s.end_time for s in spans)
                                         - min(s.start_time for s in spans))
            out.rates.append(rep_jobs / (time.perf_counter() - rep_start))
        clock.finish(out)
        reference = wordcount_reference(corpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.digest = _digest(sorted(reference.items()))
    for label, reps in outputs.items():
        out.check(
            f"{label} word counts equal the reference",
            all(output == reference for output in reps),
            f"{len(reps)} run(s); " + ", ".join(f"{len(o)} keys" for o in reps)
            + f" vs {len(reference)}",
        )
    out.e2e["task_p50_ms"] = percentile(task_ms, 50)
    out.e2e["task_p90_ms"] = percentile(task_ms, 90)
    out.add("local.task_samples", len(task_ms))
    out.add("local.map_phase_s", phase[TaskType.MAP])
    out.add("local.reduce_phase_s", phase[TaskType.REDUCE])
    out.add("local.parent_self_s", out.cpu_s)
    out.add("local.slots", slots)
    return out
