"""Declarative fault plans and the fault-kind table.

A :class:`FaultPlan` is an immutable, time-sorted list of
:class:`Fault` records -- pure data, picklable, and cheap to compare.
Plans are either built explicitly (tests pin exact scenarios) or drawn
from a dedicated RNG stream by :func:`generate_fault_plan` so the same
seed always yields the same scenario, independently of every other
random draw in the simulation (HDFS placement, dataflow noise, tuner
sampling all keep their own streams).

Every fault kind is declared once, as a row of :data:`KINDS`: its
count keyword, family, target rule, time window, parameter draws,
whether it removes a node, and its ``describe()`` text.  The kind
sets, the generator, the ``--kinds`` levels and the run-request
validation all read the table.

Plans round-trip through JSON (:func:`plan_to_json` /
:func:`plan_from_json`) so a pinned scenario can be replayed outside
:func:`generate_fault_plan` -- e.g. the ``repro faults --plan-json``
dump/load path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Families: which subsystem a kind acts on, and which one it arms.
NODE, NETWORK, ELASTIC, CONTROL = "node", "network", "elastic", "control"

#: Target rules.  ``DISTINCT`` rows that sit next to each other in the
#: table share one draw of distinct nodes (without replacement) from
#: the healthy pool; ``HEALTHY`` draws one node of that pool per fault;
#: ``ANY`` draws any seed node; ``ANCHOR`` draws nothing and uses node
#: 0 (the kind is not node-resident).
DISTINCT, HEALTHY, ANY, ANCHOR = "distinct", "healthy", "any", "anchor"

#: Drawn fields that are durations, hence scaled by the horizon.
_TIME_FIELDS = ("duration", "recover_time")


@dataclass(frozen=True)
class FaultKind:
    """One row of :data:`KINDS`."""

    name: str
    #: The :func:`generate_fault_plan` keyword giving how many to draw.
    knob: str
    family: str
    target: str
    #: Fault time, uniform in this window, as fractions of the horizon.
    window: Tuple[float, float]
    #: ``(field, lo, hi)`` uniform draws that follow the time, in order;
    #: :data:`_TIME_FIELDS` are fractions of the horizon.
    draws: Tuple[Tuple[str, float, float], ...] = ()
    #: The node leaves service (``--kinds`` levels cap it at one).
    removes_node: bool = False
    #: The node dies: no later pick in the same plan targets it.
    kills_node: bool = False
    #: ``describe()`` text after ``t=<time>s``, formatted with the
    #: fault's fields and ``recov`` (a recovery suffix or ``""``).
    text: str = ""


#: The fault kinds, in draw order.  :func:`generate_fault_plan` walks
#: the rows top to bottom on one RNG stream, so a plan that draws only
#: earlier kinds is bit-identical whatever later rows add: append new
#: kinds at the end.
KINDS: Tuple[FaultKind, ...] = (
    FaultKind("node_crash", "crashes", NODE, DISTINCT, (0.15, 0.60),
              removes_node=True, kills_node=True, text="crash node {node_id}"),
    FaultKind("degrade", "degraded", NODE, DISTINCT, (0.05, 0.30),
              draws=(("cpu_factor", 0.35, 0.75), ("disk_factor", 0.35, 0.75)),
              text="degrade node {node_id} "
                   "(cpu x{cpu_factor:.2f}, disk x{disk_factor:.2f}{recov})"),
    FaultKind("container_kill", "container_kills", NODE, HEALTHY, (0.20, 0.80),
              text="kill {count} container(s) on node {node_id}"),
    FaultKind("link_degrade", "link_degraded", NETWORK, HEALTHY, (0.10, 0.50),
              draws=(("net_factor", 0.20, 0.60), ("recover_time", 0.20, 0.50)),
              text="degrade link of node {node_id} (net x{net_factor:.2f}{recov})"),
    FaultKind("link_flaky", "link_flaky", NETWORK, HEALTHY, (0.10, 0.60),
              draws=(("fail_prob", 0.30, 0.80), ("duration", 0.20, 0.50)),
              text="flaky link on node {node_id} (p={fail_prob:.2f} for {duration:.1f}s)"),
    FaultKind("rack_partition", "rack_partitions", NETWORK, HEALTHY, (0.15, 0.60),
              draws=(("duration", 0.10, 0.30),),
              text="partition rack of node {node_id} for {duration:.1f}s"),
    FaultKind("node_decommission", "decommissions", ELASTIC, DISTINCT, (0.15, 0.55),
              removes_node=True, text="decommission node {node_id} (graceful drain)"),
    FaultKind("spot_preempt", "spot_preempts", ELASTIC, DISTINCT, (0.20, 0.60),
              draws=(("duration", 0.08, 0.18),), removes_node=True,
              text="spot-preempt notice on node {node_id} (kill after {duration:.1f}s grace)"),
    FaultKind("node_join", "joins", ELASTIC, ANY, (0.10, 0.50),
              text="join a new node into the rack of node {node_id}"),
    FaultKind("tuner_crash", "tuner_crashes", CONTROL, ANCHOR, (0.15, 0.55),
              draws=(("duration", 0.15, 0.35),), text="tuner crash (restarts +{duration:.1f}s)"),
    FaultKind("monitor_outage", "monitor_outages", CONTROL, ANCHOR, (0.15, 0.55),
              draws=(("duration", 0.10, 0.30),), text="monitor outage for {duration:.1f}s"),
    FaultKind("stats_gap", "stats_gaps", CONTROL, HEALTHY, (0.10, 0.60),
              draws=(("duration", 0.10, 0.25),),
              text="stats gap on node {node_id} for {duration:.1f}s"),
)

#: The table cut into runs of adjacent ``DISTINCT`` rows (``True``)
#: and of the other rows (``False``).
_DRAW_GROUPS = tuple(
    (joint, tuple(rows))
    for joint, rows in itertools.groupby(KINDS, key=lambda k: k.target == DISTINCT)
)

#: Kind name -> its row.
KIND: Dict[str, FaultKind] = {kind.name: kind for kind in KINDS}

#: The fault kinds the injector understands, in draw order.
FAULT_KINDS = tuple(KIND)

#: Kind -> ``generate_fault_plan`` count keyword.
KIND_TO_KNOB: Dict[str, str] = {kind.name: kind.knob for kind in KINDS}


def _family(family: str) -> frozenset:
    return frozenset(kind.name for kind in KINDS if kind.family == family)


#: Kinds that act on the network fabric.  Any of them in a plan arms
#: the gray-failure fetch path (per-fetch shuffle with timeout/retry/
#: penalty-box recovery).
NETWORK_FAULT_KINDS = _family(NETWORK)

#: Kinds that change cluster membership.  Any of them in a plan arms
#: the elastic-cluster machinery (drain states, dynamic registration,
#: capacity-change notifications).
ELASTIC_FAULT_KINDS = _family(ELASTIC)

#: Kinds that attack the advisory control plane (tuner, central
#: monitor, slave-stats stream).  Any of them in a plan arms the
#: :class:`~repro.faults.control.ControlPlaneState` choreography.
CONTROL_FAULT_KINDS = _family(CONTROL)


def fault_counts(**per_kind: int) -> Dict[str, int]:
    """Map per-kind counts (``node_crash=1``) to count keywords."""
    return {KIND[name].knob: count for name, count in per_kind.items()}


class FaultPlanError(ValueError):
    """A fault plan from outside the program is malformed or names
    nodes the cluster does not have."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault event.

    ``kind`` is a row of :data:`KINDS` (``docs/faults.md`` describes
    each one's effect).  ``node_id`` is the target node; for
    ``node_join`` it is the anchor whose rack the newcomer joins, and
    for ``tuner_crash``/``monitor_outage`` it is node 0 by convention.
    ``count`` is how many containers a ``container_kill`` kills;
    ``cpu_factor``/``disk_factor``/``net_factor`` scale capacities;
    ``fail_prob`` is a ``link_flaky`` fetch's failure probability;
    ``duration`` is the length of a window (flaky link, partition,
    spot grace, tuner downtime, monitor outage, stats gap); with
    ``recover_time > 0`` a degraded node or link heals that long after
    the fault lands.
    """

    time: float
    kind: str
    node_id: int
    cpu_factor: float = 1.0
    disk_factor: float = 1.0
    count: int = 1
    net_factor: float = 1.0
    fail_prob: float = 0.0
    duration: float = 0.0
    recover_time: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}, want one of {FAULT_KINDS}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.node_id < 0:
            raise ValueError(f"node id must be >= 0, got {self.node_id}")
        if not (0.0 < self.cpu_factor <= 1.0 and 0.0 < self.disk_factor <= 1.0):
            raise ValueError("slowdown factors must be in (0, 1]")
        if self.count < 1:
            raise ValueError("container_kill count must be >= 1")
        if not (0.0 < self.net_factor <= 1.0):
            raise ValueError(f"net_factor must be in (0, 1], got {self.net_factor}")
        if not (0.0 <= self.fail_prob < 1.0):
            raise ValueError(f"fail_prob must be in [0, 1), got {self.fail_prob}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.recover_time < 0:
            raise ValueError(f"recover_time must be >= 0, got {self.recover_time}")
        if self.kind == "link_flaky":
            if self.fail_prob <= 0.0:
                raise ValueError("link_flaky needs fail_prob > 0")
            if self.duration <= 0.0:
                raise ValueError("link_flaky needs duration > 0")
        if self.kind == "rack_partition" and self.duration <= 0.0:
            raise ValueError("rack_partition needs duration > 0")
        if self.kind == "spot_preempt" and self.duration <= 0.0:
            raise ValueError("spot_preempt needs duration > 0 (the grace window)")
        if self.kind in CONTROL_FAULT_KINDS and self.duration <= 0.0:
            raise ValueError(f"{self.kind} needs duration > 0 (the outage window)")

    def describe(self) -> str:
        recov = f", recovers +{self.recover_time:.1f}s" if self.recover_time > 0 else ""
        text = KIND[self.kind].text.format(recov=recov, **vars(self))
        return f"t={self.time:.1f}s {text}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, sorted by (time, node, kind)."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.faults, key=lambda f: (f.time, f.node_id, f.kind))
        )
        object.__setattr__(self, "faults", ordered)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    @property
    def crashed_nodes(self) -> List[int]:
        return sorted({f.node_id for f in self.faults if f.kind == "node_crash"})

    @property
    def degraded_nodes(self) -> List[int]:
        return sorted({f.node_id for f in self.faults if f.kind == "degrade"})

    @property
    def has_network_faults(self) -> bool:
        return any(f.kind in NETWORK_FAULT_KINDS for f in self.faults)

    @property
    def has_elastic_faults(self) -> bool:
        return any(f.kind in ELASTIC_FAULT_KINDS for f in self.faults)

    @property
    def has_control_faults(self) -> bool:
        return any(f.kind in CONTROL_FAULT_KINDS for f in self.faults)

    def describe(self) -> List[str]:
        return [f.describe() for f in self.faults]

    def check_nodes(self, num_nodes: int) -> None:
        """Raise :class:`FaultPlanError` if a fault names a node that a
        *num_nodes* cluster does not have when the fault lands.

        Faults apply in plan order, and each ``node_join`` before a
        fault adds the next node id.
        """
        nodes = num_nodes
        for f in self.faults:
            if f.node_id >= nodes:
                raise FaultPlanError(
                    f"fault at t={f.time}s names node {f.node_id}, but the "
                    f"cluster then has only nodes 0-{nodes - 1}"
                )
            nodes += f.kind == "node_join"


#: Fault fields serialized to JSON, in declaration order.  Defaults are
#: elided from the dump so old-kind plans stay compact and forward-
#: compatible dumps are stable under field additions.
_FAULT_FIELD_DEFAULTS = (
    ("cpu_factor", 1.0),
    ("disk_factor", 1.0),
    ("count", 1),
    ("net_factor", 1.0),
    ("fail_prob", 0.0),
    ("duration", 0.0),
    ("recover_time", 0.0),
)

#: Fields that must be JSON integers; every other field but ``kind``
#: must be a finite JSON number.
_INT_FIELDS = ("node_id", "count")


def plan_to_json(plan: FaultPlan) -> str:
    """Serialize *plan* to a stable, human-editable JSON document."""
    records = []
    for f in plan.faults:
        rec = {"time": f.time, "kind": f.kind, "node_id": f.node_id}
        for name, default in _FAULT_FIELD_DEFAULTS:
            value = getattr(f, name)
            if value != default:
                rec[name] = value
        records.append(rec)
    return json.dumps({"faults": records}, indent=2, sort_keys=True)


def plan_from_json(text: str) -> FaultPlan:
    """Parse a :func:`plan_to_json` document back into a plan.

    Plan files come from outside the program, so every defect raises
    :class:`FaultPlanError`: invalid JSON, a missing ``time``/``kind``/
    ``node_id``, an unknown field, a non-numeric (or boolean) value, a
    non-integer ``node_id``/``count``, or a value :class:`Fault` rejects.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FaultPlanError(f"fault plan is not valid JSON: {err}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("faults"), list):
        raise FaultPlanError("fault plan JSON must be an object with a 'faults' list")
    known = {"time", "kind", "node_id"} | {name for name, _ in _FAULT_FIELD_DEFAULTS}
    faults = []
    for i, rec in enumerate(doc["faults"]):
        if not isinstance(rec, dict):
            raise FaultPlanError(f"fault record must be an object, got {rec!r}")
        unknown = set(rec) - known
        if unknown:
            raise FaultPlanError(f"unknown fault fields {sorted(unknown)}")
        missing = [name for name in ("time", "kind", "node_id") if name not in rec]
        if missing:
            raise FaultPlanError(f"fault record {i} lacks field(s) {missing}")
        for name, value in rec.items():
            if name == "kind":
                continue
            want = int if name in _INT_FIELDS else (int, float)
            if isinstance(value, bool) or not isinstance(value, want) or not math.isfinite(value):
                kind = "an integer" if want is int else "a finite number"
                raise FaultPlanError(
                    f"fault record {i}: {name} must be {kind}, got {value!r}"
                )
        try:
            faults.append(Fault(**rec))
        except ValueError as err:
            raise FaultPlanError(f"fault record {i}: {err}") from None
    return FaultPlan(tuple(faults))


def generate_fault_plan(
    rng: np.random.Generator,
    num_nodes: int,
    horizon: float,
    **counts: int,
) -> FaultPlan:
    """Draw a random fault scenario from *rng*.

    *counts* maps count keywords (:attr:`FaultKind.knob`, e.g.
    ``crashes=1``) to how many faults of that kind to draw; *horizon*
    is the expected fault-free job duration.  The rows of :data:`KINDS`
    draw in table order.  Per fault a row draws its target, then its
    time in ``window`` x *horizon*, then its ``draws``.  A run of
    adjacent ``DISTINCT`` rows first draws all its targets at once
    without replacement, then each row's times and parameters in
    ascending node order.

    The healthy pool starts as every node; a ``kills_node`` row
    removes its targets from it for every later pick.  So crashed and
    degraded nodes are disjoint, network faults and stats gaps never
    hit a crashed node, and drain and preemption targets are distinct
    non-crashed nodes.  Each distinct draw must leave one node of its
    pool untouched: at least one node stays fully healthy and churn
    never empties the cluster.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    unknown = sorted(set(counts) - set(KIND_TO_KNOB.values()))
    if unknown:
        raise TypeError(f"unknown fault count keyword(s) {unknown}")
    n = {kind.name: counts.get(kind.knob, 0) for kind in KINDS}
    if min(n.values()) < 0:
        raise ValueError("fault counts must be >= 0")
    pool = num_nodes
    for joint, rows in _DRAW_GROUPS:
        picks = sum(n[kind.name] for kind in rows)
        if joint and picks >= pool:
            terms = " + ".join(f"{n[kind.name]} {kind.knob}" for kind in rows)
            raise ValueError(
                f"{terms} would empty the {pool} healthy node(s) they are drawn "
                f"from: needs at least {num_nodes - pool + picks + 1} nodes, "
                f"have {num_nodes}"
            )
        pool -= sum(n[kind.name] for kind in rows if kind.kills_node)

    def draw(kind: FaultKind, node_id: int) -> Fault:
        lo, hi = kind.window
        time = float(rng.uniform(lo, hi)) * horizon
        params = {}
        for name, lo, hi in kind.draws:
            value = float(rng.uniform(lo, hi))
            params[name] = value * horizon if name in _TIME_FIELDS else value
        return Fault(time=time, kind=kind.name, node_id=node_id, **params)

    faults: List[Fault] = []
    healthy = list(range(num_nodes))
    for joint, rows in _DRAW_GROUPS:
        if joint:
            picked = rng.choice(
                len(healthy), size=sum(n[kind.name] for kind in rows), replace=False
            )
            dead = set()
            for kind in rows:
                nodes = sorted(int(healthy[i]) for i in picked[: n[kind.name]])
                picked = picked[n[kind.name]:]
                faults.extend(draw(kind, node_id) for node_id in nodes)
                if kind.kills_node:
                    dead.update(nodes)
            healthy = [node for node in healthy if node not in dead]
            continue
        for kind in rows:
            for _ in range(n[kind.name]):
                if kind.target == HEALTHY:
                    node_id = int(healthy[int(rng.integers(len(healthy)))])
                elif kind.target == ANY:
                    node_id = int(rng.integers(num_nodes))
                else:
                    node_id = 0
                faults.append(draw(kind, node_id))
    return FaultPlan(tuple(faults))

