"""Tests for configurations and dependency clamps."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parameters as P
from repro.core.configuration import (
    HEAP_FRACTION,
    Configuration,
    enforce_dependencies,
    is_feasible,
)
from repro.core.parameters import PARAMETER_SPACE


class TestConfiguration:
    def test_defaults_filled(self):
        cfg = Configuration()
        assert cfg[P.IO_SORT_MB] == 100
        assert cfg[P.SHUFFLE_PARALLELCOPIES] == 5

    def test_overrides_applied(self):
        cfg = Configuration({P.IO_SORT_MB: 400})
        assert cfg[P.IO_SORT_MB] == 400

    def test_setting_clamps_to_spec_range(self):
        cfg = Configuration()
        cfg[P.IO_SORT_MB] = 10**9
        assert cfg[P.IO_SORT_MB] == PARAMETER_SPACE.spec(P.IO_SORT_MB).high

    def test_unknown_keys_pass_through(self):
        cfg = Configuration()
        cfg["custom.app.param"] = 7
        assert cfg["custom.app.param"] == 7

    def test_copy_is_independent(self):
        a = Configuration()
        b = a.copy()
        b[P.IO_SORT_MB] = 500
        assert a[P.IO_SORT_MB] == 100

    def test_updated_returns_new_object(self):
        a = Configuration()
        b = a.updated({P.IO_SORT_MB: 300})
        assert a[P.IO_SORT_MB] == 100
        assert b[P.IO_SORT_MB] == 300

    def test_equality_by_values(self):
        assert Configuration() == Configuration()
        assert Configuration({P.IO_SORT_MB: 200}) != Configuration()

    def test_byte_accessors(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 2048})
        assert cfg.map_memory_bytes == 2048 * 1024 * 1024
        assert cfg.map_heap_bytes == int(2048 * 1024 * 1024 * HEAP_FRACTION)
        assert cfg.sort_buffer_bytes == 100 * 1024 * 1024

    def test_as_dict_roundtrip(self):
        cfg = Configuration({P.IO_SORT_MB: 250})
        again = Configuration(cfg.as_dict())
        assert again == cfg


class TestDependencies:
    def test_sort_buffer_clamped_to_heap(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 512, P.IO_SORT_MB: 1600})
        fixed = enforce_dependencies(cfg)
        max_sort = 512 * HEAP_FRACTION * 0.75
        assert fixed[P.IO_SORT_MB] <= max_sort

    def test_merge_percent_clamped_to_input_buffer(self):
        cfg = Configuration(
            {P.SHUFFLE_INPUT_BUFFER_PERCENT: 0.4, P.SHUFFLE_MERGE_PERCENT: 0.9}
        )
        fixed = enforce_dependencies(cfg)
        assert fixed[P.SHUFFLE_MERGE_PERCENT] <= fixed[P.SHUFFLE_INPUT_BUFFER_PERCENT]

    def test_memory_limit_clamped_to_merge_percent(self):
        cfg = Configuration(
            {P.SHUFFLE_MERGE_PERCENT: 0.3, P.SHUFFLE_MEMORY_LIMIT_PERCENT: 0.7}
        )
        fixed = enforce_dependencies(cfg)
        assert fixed[P.SHUFFLE_MEMORY_LIMIT_PERCENT] <= fixed[P.SHUFFLE_MERGE_PERCENT]

    def test_feasible_config_unchanged(self):
        cfg = Configuration()
        assert is_feasible(cfg)
        assert enforce_dependencies(cfg) == cfg

    def test_enforce_does_not_mutate_input(self):
        cfg = Configuration({P.MAP_MEMORY_MB: 512, P.IO_SORT_MB: 1600})
        enforce_dependencies(cfg)
        assert cfg[P.IO_SORT_MB] == 1600

    @given(
        map_mb=st.integers(512, 4096),
        sort_mb=st.integers(50, 1600),
        ibp=st.floats(0.2, 0.9),
        merge=st.floats(0.2, 0.9),
        limit=st.floats(0.1, 0.7),
    )
    @settings(max_examples=100, deadline=None)
    def test_enforce_is_idempotent_and_feasible(self, map_mb, sort_mb, ibp, merge, limit):
        cfg = Configuration(
            {
                P.MAP_MEMORY_MB: map_mb,
                P.IO_SORT_MB: sort_mb,
                P.SHUFFLE_INPUT_BUFFER_PERCENT: ibp,
                P.SHUFFLE_MERGE_PERCENT: merge,
                P.SHUFFLE_MEMORY_LIMIT_PERCENT: limit,
            }
        )
        once = enforce_dependencies(cfg)
        assert is_feasible(once)
        assert enforce_dependencies(once) == once


def _random_values(rng, extra_keys=("custom.a", "custom.b", "custom.c")):
    """A seeded value dict: out-of-range values, floats for int-kind
    parameters, non-float values, and keys outside the space."""
    values = {}
    for spec in rng.sample(list(PARAMETER_SPACE), rng.randint(1, len(PARAMETER_SPACE))):
        span = spec.high - spec.low
        draw = rng.random()
        if draw < 0.2:
            value = spec.low - rng.uniform(0.0, span + 1.0)
        elif draw < 0.4:
            value = spec.high + rng.uniform(0.0, span + 1.0)
        elif draw < 0.6:
            value = int(rng.uniform(spec.low, spec.high))
        else:
            value = rng.uniform(spec.low, spec.high)  # int kinds get fractions
        values[spec.name] = value
    for key in rng.sample(list(extra_keys), rng.randint(0, len(extra_keys))):
        values[key] = rng.choice([rng.randint(-5, 5), rng.uniform(-5.0, 5.0), "text"])
    keys = list(values)
    rng.shuffle(keys)
    return {k: values[k] for k in keys}


def _reclamped(values, changes=None):
    """The construction copies used to pay for: rebuild and re-clamp."""
    cfg = Configuration(values)
    for name, value in (changes or {}).items():
        cfg[name] = value
    return cfg


def _typed_items(cfg):
    return [(k, v, type(v)) for k, v in cfg.as_dict().items()]


class TestValidateOnceCopies:
    """copy()/updated() reuse the validated dict instead of re-clamping."""

    SEEDS = range(200)

    def test_copy_equals_reclamped_construction(self):
        for seed in self.SEEDS:
            src = Configuration(_random_values(random.Random(seed)))
            assert _typed_items(src.copy()) == _typed_items(_reclamped(src.as_dict()))
            assert _typed_items(src.copy()) == _typed_items(src)

    def test_updated_equals_reclamped_construction(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            src = Configuration(_random_values(rng))
            changes = _random_values(rng, extra_keys=("custom.b", "custom.d"))
            assert _typed_items(src.updated(changes)) == _typed_items(
                _reclamped(src.as_dict(), changes)
            )

    def test_mutating_a_copy_leaves_source_and_defaults_alone(self):
        defaults = PARAMETER_SPACE.defaults()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            src = Configuration(_random_values(rng))
            before = _typed_items(src)
            for cfg in (src.copy(), src.updated({P.IO_SORT_MB: 700})):
                for name, value in _random_values(rng).items():
                    cfg[name] = value
                cfg["custom.new"] = seed
            assert _typed_items(src) == before
        handed_out = PARAMETER_SPACE.defaults()
        handed_out[P.IO_SORT_MB] = 1
        assert PARAMETER_SPACE.defaults() == defaults
        assert Configuration().as_dict() == defaults
