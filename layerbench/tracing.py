"""Span tracing installed from outside the program, at layer entry points.

:func:`install` wraps the public methods of every class in the layer
packages (plus the few private methods the event calendar calls back
into) so that each call records a span: callable, layer, start, end,
parent span and job.  Spans stay in memory in flat arrays and are
written by :meth:`Tracer.write` when the run ends.

A layer's self time is the duration of its spans minus the part covered
by their child spans, accumulated online as spans close.

Attribution rules for code that is not entered through a method call:

* A generator-based process body (task models, monitor loops,
  heartbeats) is entered by the engine through ``Process._resume``.
  Each resume is a span attributed to the layer that defines the
  *innermost* generator being resumed (following ``yield from``), so a
  map task's body counts as ``mapreduce`` even when a YARN container
  generator delegates to it.
* A callback scheduled with ``Simulator.call_at`` is wrapped when it is
  scheduled and attributed to the layer that defines the callback.
* Other event callbacks (plain closures added to an event) stay inside
  the engine's span, so their own bytecode counts as ``sim.engine``;
  every wrapped call they make still counts for its own layer.

Spans of one job share a job id: calls on an ``MRAppMaster`` set it,
processes remember the job that was current when they were created,
and every other span inherits the job of its parent.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import pkgutil
import types
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Layers in report order.  ``bench`` is the benchmark's own code plus
#: harness glue (``SimCluster``, ``SimBackend``, workload specs).
LAYERS: Tuple[str, ...] = (
    "bench", "sim.engine", "sim.flow", "cluster", "hdfs", "yarn", "mapreduce",
    "monitor", "core.config", "core.tuner", "service", "recovery", "faults",
    "telemetry", "local",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Packages whose classes are wrapped.
PACKAGES: Tuple[str, ...] = (
    "repro.sim", "repro.cluster", "repro.hdfs", "repro.yarn", "repro.mapreduce",
    "repro.monitor", "repro.core", "repro.service", "repro.recovery",
    "repro.faults", "repro.telemetry", "repro.backends.local",
)

#: Methods called so often, and doing so little, that a span would cost
#: more than the call.  Each is called from its own layer, so its time
#: stays there.
SKIP = frozenset({
    "Simulator.schedule", "Simulator.timeout", "Simulator.event",
    "TelemetryBus.wants", "Configuration.get", "Configuration.as_dict",
    "ParamSpec.clamp", "ParamSpec.decode", "ParameterSpace.spec",
    "UtilizationTimeline.add",
})

#: Private methods that are layer entry points: the engine calls back
#: into them, or they are the one place a layer does its work.
EXTRA = (
    ("repro.sim.resources", "FlowScheduler", "_on_completion"),
    ("repro.faults.injector", "FaultInjector", "_apply"),
    ("repro.core.configuration", "Configuration", "__init__"),
)

#: Spans kept for the trace file; counts and self times keep
#: accumulating past this cap.
MAX_SPANS = 2_000_000


def layer_of(module: str, qualname: str = "") -> str:
    """The layer that owns code defined in *module* under *qualname*."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "bench"
    pkg = parts[1]
    if pkg == "sim":
        if module == "repro.sim.resources" and qualname.split(".")[0] in (
            "FlowScheduler", "Flow", "Link", "_fill_rates", "maxmin_rates",
        ):
            return "sim.flow"
        return "sim.engine"
    if pkg == "core":
        if module in ("repro.core.configuration", "repro.core.parameters"):
            return "core.config"
        return "core.tuner"
    if pkg == "baselines":
        return "core.tuner"
    if pkg == "backends":
        return "local" if module.startswith("repro.backends.local") else "bench"
    if pkg in ("cluster", "hdfs", "yarn", "mapreduce", "monitor", "service",
               "recovery", "faults", "telemetry"):
        return pkg
    return "bench"


def _module_of_file(filename: str) -> str:
    marker = os.sep + "repro" + os.sep
    i = filename.rfind(marker)
    if i < 0:
        return ""
    rel = filename[i + 1:-3] if filename.endswith(".py") else filename[i + 1:]
    rel = rel.replace(os.sep, ".")
    return rel[: -len(".__init__")] if rel.endswith(".__init__") else rel


class Tracer:
    """Span store plus online self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.col_layer = array("B")
        self.col_name = array("I")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("i")
        self.col_job = array("i")
        self.dropped = 0
        #: Open spans: [index, layer, start, child time, job].
        self.stack: List[list] = []
        self.jobs: Dict[str, int] = {}
        self.proc_job: Dict[int, int] = {}
        #: name id -> durations, for the callables whose latency is reported.
        self.durations: Dict[int, List[float]] = {}
        #: name id -> callable(result) -> count added to ``hooked``.
        self.hooks: Dict[int, Callable[[object], int]] = {}
        self.hooked: Dict[int, int] = {}
        self._name_ids: Dict[Tuple[str, int], int] = {}
        self._code_layer: Dict[object, int] = {}
        self.root_start = 0.0

    # -- names and layers ------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        key = (name, LAYER_ID[layer])
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def code_layer(self, code) -> int:
        lid = self._code_layer.get(code)
        if lid is None:
            module = _module_of_file(code.co_filename)
            qual = getattr(code, "co_qualname", code.co_name)
            lid = self._code_layer[code] = LAYER_ID[layer_of(module, qual)]
        return lid

    def job_id(self, job: str) -> int:
        jid = self.jobs.get(job)
        if jid is None:
            jid = self.jobs[job] = len(self.jobs)
        return jid

    def current_job(self) -> int:
        return self.stack[-1][4] if self.stack else -1

    # -- spans -------------------------------------------------------------
    def enter(self, layer: int, nid: int, job: int) -> None:
        stack = self.stack
        if job < 0 and stack:
            job = stack[-1][4]
        self.calls[nid] += 1
        idx = len(self.col_start)
        if idx < MAX_SPANS:
            self.col_layer.append(layer)
            self.col_name.append(nid)
            self.col_parent.append(stack[-1][0] if stack else -1)
            self.col_job.append(job)
            self.col_end.append(0.0)
            start = perf_counter()
            self.col_start.append(start)
        else:
            self.dropped += 1
            idx = -1
            start = perf_counter()
        stack.append([idx, layer, start, 0.0, job])

    def exit(self, nid: int, result: object = None) -> None:
        end = perf_counter()
        idx, layer, start, child, _job = self.stack.pop()
        dur = end - start
        self.layer_self[layer] += dur - child
        if idx >= 0:
            self.col_end[idx] = end
        if self.stack:
            self.stack[-1][3] += dur
        durs = self.durations.get(nid)
        if durs is not None:
            durs.append(dur)
        hook = self.hooks.get(nid)
        if hook is not None and result is not None:
            self.hooked[nid] = self.hooked.get(nid, 0) + hook(result)

    def open_root(self) -> None:
        self.root_start = perf_counter()
        self.enter(LAYER_ID["bench"], self.name_id("bench.run", "bench"), -1)

    def close_root(self) -> None:
        while self.stack:
            self.exit(self.name_id("bench.run", "bench"))

    # -- reading -----------------------------------------------------------
    def self_seconds(self, layer: str) -> float:
        return self.layer_self[LAYER_ID[layer]]

    def calls_of(self, *names: str) -> int:
        return sum(
            self.calls[nid] for (name, _l), nid in self._name_ids.items() if name in names
        )

    def hooked_count(self, name: str) -> int:
        return sum(
            self.hooked.get(nid, 0)
            for (n, _l), nid in self._name_ids.items() if n == name
        )

    def durations_of(self, prefix: str) -> List[float]:
        out: List[float] = []
        for (name, _l), nid in self._name_ids.items():
            if name.startswith(prefix) and nid in self.durations:
                out.extend(self.durations[nid])
        return out

    def write(self, path: str, seed: int) -> None:
        """Write every kept span to *path* (numpy ``.npz``), replacing it."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            layer=np.frombuffer(self.col_layer, dtype=np.uint8),
            name=np.frombuffer(self.col_name, dtype=np.uint32),
            start=np.frombuffer(self.col_start, dtype=np.float64) - self.root_start,
            end=np.frombuffer(self.col_end, dtype=np.float64) - self.root_start,
            parent=np.frombuffer(self.col_parent, dtype=np.int32),
            job=np.frombuffer(self.col_job, dtype=np.int32),
            names=np.array(self.names),
            layers=np.array(LAYERS),
            jobs=np.array(sorted(self.jobs, key=self.jobs.get)),
            dropped=np.array([self.dropped]),
            seed=np.array([seed]),
        )


def _wrap_method(tracer: Tracer, fn, layer: str, name: str, job_from_self: bool):
    lid = LAYER_ID[layer]
    nid = tracer.name_id(name, layer)
    enter, exit_ = tracer.enter, tracer.exit
    job_id = tracer.job_id

    if job_from_self:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            spec = getattr(self, "spec", None)
            enter(lid, nid, job_id(spec.job_id) if spec is not None else -1)
            result = None
            try:
                result = fn(self, *args, **kwargs)
                return result
            finally:
                exit_(nid, result)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(lid, nid, -1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                exit_(nid, result)
    return wrapper


def _wrappable(cls: type) -> bool:
    if isinstance(cls, enum.EnumMeta) or issubclass(cls, BaseException):
        return False
    return not getattr(cls, "_is_protocol", False)


def _install_resume(tracer: Tracer) -> None:
    """Attribute each process resume to its innermost generator's layer."""
    from repro.sim.events import Process

    original = Process._resume
    names: Dict[int, int] = {}
    enter, exit_ = tracer.enter, tracer.exit
    code_layer, proc_job = tracer.code_layer, tracer.proc_job

    @functools.wraps(original)
    def _resume(self, fired):
        gen = self.generator
        inner = gen
        while True:
            sub = getattr(inner, "gi_yieldfrom", None)
            if sub is None or not hasattr(sub, "gi_code"):
                break
            inner = sub
        lid = code_layer(inner.gi_code)
        nid = names.get(lid)
        if nid is None:
            nid = names[lid] = tracer.name_id(f"resume[{LAYERS[lid]}]", LAYERS[lid])
        enter(lid, nid, proc_job.get(id(self), -1))
        try:
            original(self, fired)
        finally:
            exit_(nid)

    Process._resume = _resume


def _install_engine(tracer: Tracer) -> None:
    """Engine loop spans, process-to-job binding and ``call_at`` callbacks."""
    from repro.sim.engine import Simulator

    for name in ("run", "run_until_complete", "step"):
        setattr(
            Simulator, name,
            _wrap_method(tracer, getattr(Simulator, name), "sim.engine",
                         f"Simulator.{name}", False),
        )

    original_process = Simulator.process

    @functools.wraps(original_process)
    def process(self, generator, name=None):
        proc = original_process(self, generator, name=name)
        job = tracer.current_job()
        if job >= 0:
            tracer.proc_job[id(proc)] = job
        return proc

    Simulator.process = process

    original_call_at = Simulator.call_at
    callback_names: Dict[int, int] = {}

    def traced_callback(fn):
        target = fn
        while isinstance(target, functools.partial):
            target = target.func
        target = getattr(target, "__func__", target)
        code = getattr(target, "__code__", None)
        if code is None:
            return fn
        lid = tracer.code_layer(code)
        nid = callback_names.get(lid)
        if nid is None:
            nid = callback_names[lid] = tracer.name_id(
                f"callback[{LAYERS[lid]}]", LAYERS[lid]
            )
        job = tracer.current_job()

        def thunk():
            tracer.enter(lid, nid, job)
            try:
                fn()
            finally:
                tracer.exit(nid)

        return thunk

    @functools.wraps(original_call_at)
    def call_at(self, when, fn):
        return original_call_at(self, when, traced_callback(fn))

    Simulator.call_at = call_at


def install() -> Tracer:
    """Wrap every layer entry point; returns the tracer recording them.

    Must run before any simulator, cluster or backend object is built:
    bound methods captured earlier would bypass the wrappers.
    """
    tracer = Tracer()
    extra = {(m, c, n) for m, c, n in EXTRA}
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        modules = [pkg]
        if hasattr(pkg, "__path__"):
            for info in pkgutil.walk_packages(pkg.__path__, pkg_name + "."):
                modules.append(importlib.import_module(info.name))
        for module in modules:
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module.__name__:
                    continue
                if cls in seen or not _wrappable(cls):
                    continue
                seen.add(cls)
                if module.__name__ == "repro.sim.events" or cls.__name__ == "Simulator":
                    continue  # kernel objects: handled by the engine hooks
                layer = layer_of(module.__name__, cls.__name__)
                is_am = cls.__name__ == "MRAppMaster"
                for attr, value in list(vars(cls).items()):
                    if not isinstance(value, types.FunctionType):
                        continue
                    qual = f"{cls.__name__}.{attr}"
                    private = attr.startswith("_")
                    if private and (module.__name__, cls.__name__, attr) not in extra:
                        continue
                    if qual in SKIP or inspect.isgeneratorfunction(value):
                        continue
                    setattr(cls, attr, _wrap_method(tracer, value, layer, qual, is_am))
    _install_engine(tracer)
    _install_resume(tracer)
    # Latency and size hooks for the metrics that need more than a count.
    for (name, _layer), nid in tracer._name_ids.items():
        if name.startswith("ServiceJournal.record_"):
            tracer.durations[nid] = []
        if name == "HdfsFileSystem.create_file":
            tracer.hooks[nid] = lambda f: len(f.blocks)
    return tracer
