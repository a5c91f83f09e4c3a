"""Configuration objects and cross-parameter dependency clamps.

A :class:`Configuration` is a mapping from parameter name to value with
Table-2 defaults filled in.  :func:`enforce_dependencies` applies the
dependency rules Section 5 calls out:

- a map container must be big enough to hold its sort buffer
  (``io.sort.mb`` < map heap);
- ``shuffle.merge.percent`` must not exceed
  ``shuffle.input.buffer.percent``;
- vcore/memory grants must be positive and within the space bounds.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.core import parameters as P
from repro.core.parameters import PARAMETER_SPACE, ParameterSpace

#: Fraction of container memory available as JVM heap (-Xmx is
#: conventionally set to ~80% of the container grant).
HEAP_FRACTION = 0.8

#: Fraction of the map-task heap that the sort buffer may occupy before
#: the framework deadlocks the task with OOM errors (S6.2's "io.sort.mb
#: should not exceed the memory size of map tasks", with headroom for
#: the map function itself).
MAX_SORT_BUFFER_HEAP_FRACTION = 0.75


class Configuration:
    """A complete job/task configuration (name -> value, with defaults)."""

    __slots__ = ("_values", "_space")

    def __init__(
        self,
        values: Optional[Mapping[str, float]] = None,
        space: Optional[ParameterSpace] = None,
    ) -> None:
        self._space = space or PARAMETER_SPACE
        self._values: Dict[str, float] = self._space.defaults()
        if values:
            for name, value in values.items():
                self[name] = value

    # -- mapping protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __setitem__(self, name: str, value: float) -> None:
        if name in self._space:
            value = self._space.spec(name).clamp(float(value))
        self._values[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        return self._values.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)

    def copy(self) -> "Configuration":
        # Every stored value already passed __setitem__'s clamp, and
        # clamping is idempotent, so a plain dict copy equals a rebuild.
        cfg = Configuration.__new__(Configuration)
        cfg._space = self._space
        cfg._values = dict(self._values)
        return cfg

    def updated(self, changes: Mapping[str, float]) -> "Configuration":
        cfg = self.copy()
        for name, value in changes.items():
            cfg[name] = value
        return cfg

    @property
    def space(self) -> ParameterSpace:
        return self._space

    # -- convenience accessors (bytes, cores) -------------------------------
    MB = 1024 * 1024

    @property
    def map_memory_bytes(self) -> int:
        return int(self[P.MAP_MEMORY_MB]) * self.MB

    @property
    def reduce_memory_bytes(self) -> int:
        return int(self[P.REDUCE_MEMORY_MB]) * self.MB

    @property
    def map_heap_bytes(self) -> int:
        return int(self.map_memory_bytes * HEAP_FRACTION)

    @property
    def reduce_heap_bytes(self) -> int:
        return int(self.reduce_memory_bytes * HEAP_FRACTION)

    @property
    def sort_buffer_bytes(self) -> int:
        return int(self[P.IO_SORT_MB]) * self.MB

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(
            f"{k.split('.')[-2]}.{k.split('.')[-1]}={v}"
            for k, v in sorted(self._values.items())
        )
        return f"Configuration({inner})"


def enforce_dependencies(config: Configuration) -> Configuration:
    """Return a copy of *config* with inter-parameter constraints applied.

    The hill climber samples parameters independently; this clamp maps
    any sampled point to the nearest *feasible* configuration, exactly
    the role the dependency rules play in Section 5.
    """
    cfg = config.copy()
    # Sort buffer must fit (with headroom) inside the map-task heap.
    max_sort_mb = int(
        cfg[P.MAP_MEMORY_MB] * HEAP_FRACTION * MAX_SORT_BUFFER_HEAP_FRACTION
    )
    if cfg[P.IO_SORT_MB] > max_sort_mb:
        cfg[P.IO_SORT_MB] = max(1, max_sort_mb)
    # Shuffle merge trigger cannot exceed the shuffle buffer itself.
    if cfg[P.SHUFFLE_MERGE_PERCENT] > cfg[P.SHUFFLE_INPUT_BUFFER_PERCENT]:
        cfg[P.SHUFFLE_MERGE_PERCENT] = cfg[P.SHUFFLE_INPUT_BUFFER_PERCENT]
    # memory.limit.percent is a fraction of the shuffle buffer; a single
    # segment admitted to memory must not exceed the merge trigger or the
    # merge could never fire.
    if cfg[P.SHUFFLE_MEMORY_LIMIT_PERCENT] > cfg[P.SHUFFLE_MERGE_PERCENT]:
        cfg[P.SHUFFLE_MEMORY_LIMIT_PERCENT] = cfg[P.SHUFFLE_MERGE_PERCENT]
    return cfg


def is_feasible(config: Configuration) -> bool:
    """True when *config* already satisfies every dependency clamp."""
    clamped = enforce_dependencies(config)
    return clamped.as_dict() == config.as_dict()
