"""The tunable parameter space: Table 2 of the paper.

Each :class:`ParamSpec` describes one configuration parameter: its
Hadoop name, default, range, and an encoding between the search
algorithm's unit interval [0, 1] and concrete values.  Memory sizes use
a log scale (doubling memory should be one "step", not many); percents
and small integers are linear.

The search algorithms (:mod:`repro.core.sampling`,
:mod:`repro.core.hill_climbing`) operate entirely in the unit cube and
decode through this module, so adding a parameter is a one-line change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence

import numpy as np

# Canonical Hadoop parameter names (kept verbatim from Table 2).
MAP_MEMORY_MB = "mapreduce.map.memory.mb"
REDUCE_MEMORY_MB = "mapreduce.reduce.memory.mb"
IO_SORT_MB = "mapreduce.task.io.sort.mb"
SORT_SPILL_PERCENT = "mapreduce.map.sort.spill.percent"
SHUFFLE_INPUT_BUFFER_PERCENT = "mapreduce.reduce.shuffle.input.buffer.percent"
SHUFFLE_MERGE_PERCENT = "mapreduce.reduce.shuffle.merge.percent"
SHUFFLE_MEMORY_LIMIT_PERCENT = "mapreduce.reduce.shuffle.memory.limit.percent"
MERGE_INMEM_THRESHOLD = "mapreduce.reduce.merge.inmem.threshold"
REDUCE_INPUT_BUFFER_PERCENT = "mapreduce.reduce.input.buffer.percent"
MAP_CPU_VCORES = "mapreduce.map.cpu.vcores"
REDUCE_CPU_VCORES = "mapreduce.reduce.cpu.vcores"
IO_SORT_FACTOR = "mapreduce.task.io.sort.factor"
SHUFFLE_PARALLELCOPIES = "mapreduce.reduce.shuffle.parallelcopies"
# Category-1 parameter (not dynamically tunable; carried for completeness).
REDUCE_SLOWSTART = "mapreduce.job.reduce.slowstart.completedmaps"


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter: identity, range, and unit-cube encoding."""

    name: str
    default: float
    low: float
    high: float
    #: "int" | "float" -- decoded value type.
    kind: str = "float"
    #: Use log-scale encoding (for memory-like ranges spanning decades).
    log_scale: bool = False
    #: True for parameters that can change mid-task (category 3, S2.2).
    hot_swappable: bool = False
    #: Rounding step for decoded values (e.g. memory in 64 MB steps).
    step: float = 0.0

    def __post_init__(self) -> None:
        if not (self.low <= self.default <= self.high):
            raise ValueError(
                f"{self.name}: default {self.default} outside [{self.low}, {self.high}]"
            )
        if self.log_scale and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires positive bounds")

    # -- unit-cube encoding ------------------------------------------------
    def decode(self, u: float) -> float:
        """Map u in [0, 1] to a concrete parameter value."""
        u = min(1.0, max(0.0, float(u)))
        if self.log_scale:
            lo, hi = math.log(self.low), math.log(self.high)
            value = math.exp(lo + u * (hi - lo))
        else:
            value = self.low + u * (self.high - self.low)
        if self.step > 0:
            value = round(value / self.step) * self.step
            value = min(self.high, max(self.low, value))
        if self.kind == "int":
            value = int(round(value))
            value = int(min(self.high, max(self.low, value)))
        return value

    def encode(self, value: float) -> float:
        """Map a concrete value back to the unit interval."""
        value = min(self.high, max(self.low, float(value)))
        if self.high == self.low:
            return 0.0
        if self.log_scale:
            lo, hi = math.log(self.low), math.log(self.high)
            return (math.log(value) - lo) / (hi - lo)
        return (value - self.low) / (self.high - self.low)

    def clamp(self, value: float) -> float:
        value = min(self.high, max(self.low, value))
        if self.kind == "int":
            return int(round(value))
        return value


class ParameterSpace:
    """An ordered collection of :class:`ParamSpec` with vector codecs."""

    def __init__(self, specs: Sequence[ParamSpec]) -> None:
        self._specs: List[ParamSpec] = list(specs)
        self._index: Dict[str, int] = {s.name: i for i, s in enumerate(self._specs)}
        if len(self._index) != len(self._specs):
            raise ValueError("duplicate parameter names in space")
        #: Clamped defaults, computed once; :meth:`defaults` hands out copies.
        self._defaults: Dict[str, float] = {s.name: s.clamp(s.default) for s in self._specs}

    # -- container protocol -----------------------------------------------
    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[ParamSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> List[str]:
        return [s.name for s in self._specs]

    def spec(self, name: str) -> ParamSpec:
        return self._specs[self._index[name]]

    def subspace(self, names: Sequence[str]) -> "ParameterSpace":
        return ParameterSpace([self.spec(n) for n in names])

    # -- vector codecs ------------------------------------------------------
    def decode(self, u: np.ndarray) -> Dict[str, float]:
        """Decode a unit-cube point into a name -> value mapping."""
        if len(u) != len(self._specs):
            raise ValueError(f"point has {len(u)} dims, space has {len(self._specs)}")
        return {s.name: s.decode(x) for s, x in zip(self._specs, u)}

    def encode(self, values: Mapping[str, float]) -> np.ndarray:
        """Encode a (possibly partial) mapping; missing names use defaults."""
        out = np.empty(len(self._specs))
        for i, s in enumerate(self._specs):
            out[i] = s.encode(values.get(s.name, s.default))
        return out

    def defaults(self) -> Dict[str, float]:
        return dict(self._defaults)

    def default_point(self) -> np.ndarray:
        return self.encode(self.defaults())


def build_parameter_space(
    max_container_mb: int = 4096,
    max_vcores: int = 8,
) -> ParameterSpace:
    """The Table-2 space, bounded by what one container may request.

    ``max_container_mb``/``max_vcores`` default to a fraction of the
    paper's per-node YARN pool (6 GB / 28 vcores) so that a single
    container cannot monopolize a node.
    """
    return ParameterSpace(
        [
            ParamSpec(
                MAP_MEMORY_MB, 1024, 512, max_container_mb, kind="int", log_scale=True, step=64
            ),
            ParamSpec(
                REDUCE_MEMORY_MB, 1024, 512, max_container_mb, kind="int", log_scale=True, step=64
            ),
            ParamSpec(IO_SORT_MB, 100, 50, 1600, kind="int", log_scale=True, step=10),
            ParamSpec(SORT_SPILL_PERCENT, 0.8, 0.5, 0.99, hot_swappable=True),
            ParamSpec(SHUFFLE_INPUT_BUFFER_PERCENT, 0.7, 0.2, 0.9),
            ParamSpec(SHUFFLE_MERGE_PERCENT, 0.66, 0.2, 0.9, hot_swappable=True),
            ParamSpec(SHUFFLE_MEMORY_LIMIT_PERCENT, 0.25, 0.1, 0.7),
            ParamSpec(
                MERGE_INMEM_THRESHOLD, 1000, 0, 10000, kind="int", hot_swappable=True, step=100
            ),
            ParamSpec(REDUCE_INPUT_BUFFER_PERCENT, 0.0, 0.0, 0.9),
            ParamSpec(MAP_CPU_VCORES, 1, 1, max_vcores, kind="int"),
            ParamSpec(REDUCE_CPU_VCORES, 1, 1, max_vcores, kind="int"),
            ParamSpec(IO_SORT_FACTOR, 10, 5, 100, kind="int", log_scale=True),
            ParamSpec(SHUFFLE_PARALLELCOPIES, 5, 1, 50, kind="int"),
        ]
    )


#: The canonical space used throughout the repository.
PARAMETER_SPACE: ParameterSpace = build_parameter_space()

#: Default values for every parameter (Table 2's "Default Value" column).
DEFAULTS: Dict[str, float] = PARAMETER_SPACE.defaults()
