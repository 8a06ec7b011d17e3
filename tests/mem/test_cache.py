"""Unit tests for the set-associative cache mechanism."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.cache import Cache, State


def make_cache(size=1024, assoc=2, line=64):
    return Cache("test", size, assoc, line)


def test_geometry():
    cache = make_cache(size=1024, assoc=2, line=64)
    assert cache.num_sets == 8


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        Cache("bad", 1000, 3, 64)


def test_non_power_of_two_line_size_rejected():
    with pytest.raises(ValueError):
        Cache("bad", 96 * 4, 2, 96)


def test_non_power_of_two_set_count_indexes_by_modulo():
    """48 kB 2-way has 384 sets: lines 384 sets apart share a set, so a
    shift/mask index (which would need a power-of-two set count) fails
    this."""
    cache = make_cache(size=48 * 1024, assoc=2, line=64)
    assert cache.num_sets == 384
    stride = 384 * 64
    assert cache.fill(0, State.EXCLUSIVE) is None
    assert cache.fill(stride, State.EXCLUSIVE) is None
    assert cache.fill(2 * stride, State.EXCLUSIVE) == (0, State.EXCLUSIVE)
    assert cache.lookup(0) is State.INVALID


def test_fill_and_lookup():
    cache = make_cache()
    assert cache.lookup(0) is State.INVALID
    cache.fill(0, State.EXCLUSIVE)
    assert cache.lookup(0) is State.EXCLUSIVE


def test_lru_eviction_order():
    cache = make_cache(size=256, assoc=2, line=64)  # 2 sets
    set_stride = 128  # lines 0 and 128 map to set 0
    a, b, c = 0, set_stride, 2 * set_stride
    cache.fill(a, State.EXCLUSIVE)
    cache.fill(b, State.EXCLUSIVE)
    victim = cache.fill(c, State.EXCLUSIVE)  # evicts LRU = a
    assert victim == (a, State.EXCLUSIVE)
    assert cache.lookup(a) is State.INVALID
    assert cache.lookup(b).is_valid


def test_touch_updates_lru():
    cache = make_cache(size=256, assoc=2, line=64)
    a, b, c = 0, 128, 256
    cache.fill(a, State.EXCLUSIVE)
    cache.fill(b, State.EXCLUSIVE)
    cache.probe(a)  # now b is LRU
    victim = cache.fill(c, State.EXCLUSIVE)
    assert victim[0] == b


def test_refill_existing_line_no_eviction():
    cache = make_cache()
    cache.fill(0, State.SHARED)
    assert cache.fill(0, State.MODIFIED) is None
    assert cache.lookup(0) is State.MODIFIED


def test_set_state_and_invalidate():
    cache = make_cache()
    cache.fill(0, State.SHARED)
    cache.set_state(0, State.MODIFIED)
    assert cache.lookup(0) is State.MODIFIED
    assert cache.invalidate(0) is State.MODIFIED
    assert cache.lookup(0) is State.INVALID
    assert cache.stats.invalidations_received == 1


def test_invalidate_absent_line():
    cache = make_cache()
    assert cache.invalidate(0) is State.INVALID
    assert cache.stats.invalidations_received == 0


def test_probe_returns_state_and_updates_lru():
    cache = make_cache(size=256, assoc=2, line=64)
    a, b, c = 0, 128, 256
    assert cache.probe(a) is None
    cache.fill(a, State.SHARED)
    cache.fill(b, State.EXCLUSIVE)
    assert cache.probe(a) is State.SHARED  # now b is LRU
    victim = cache.fill(c, State.EXCLUSIVE)
    assert victim == (b, State.EXCLUSIVE)


def test_set_state_on_absent_line_raises():
    cache = make_cache()
    with pytest.raises(KeyError):
        cache.set_state(0, State.SHARED)


def test_set_state_invalid_drops_silently():
    cache = make_cache()
    cache.set_state(0, State.INVALID)  # no-op on absent line
    cache.fill(0, State.SHARED)
    cache.set_state(0, State.INVALID)
    assert cache.lookup(0) is State.INVALID


def test_state_properties():
    assert State.MODIFIED.is_dirty and State.OWNED.is_dirty
    assert not State.EXCLUSIVE.is_dirty
    assert State.MODIFIED.can_write and State.EXCLUSIVE.can_write
    assert not State.SHARED.can_write and not State.OWNED.can_write
    assert not State.INVALID.is_valid


def test_contents_and_lines_valid():
    cache = make_cache()
    cache.fill(0, State.SHARED)
    cache.fill(64, State.MODIFIED)
    assert cache.contents() == {0: State.SHARED, 64: State.MODIFIED}
    assert cache.lines_valid == 2


def test_eviction_counter():
    cache = make_cache(size=128, assoc=1, line=64)  # 2 direct-mapped sets
    cache.fill(0, State.EXCLUSIVE)
    cache.fill(128, State.EXCLUSIVE)
    assert cache.stats.evictions == 1


def test_stats_miss_rate():
    cache = make_cache()
    cache.stats.read_hits = 3
    cache.stats.read_misses = 1
    assert cache.stats.accesses == 4
    assert cache.stats.miss_rate == 0.25


@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_capacity_invariant(line_indices):
    """A set never holds more than ``assoc`` lines; total never exceeds
    capacity."""
    cache = make_cache(size=512, assoc=2, line=64)  # 8 lines capacity
    for idx in line_indices:
        cache.fill(idx * 64, State.EXCLUSIVE)
        assert cache.lines_valid <= 8
    for s in cache._sets:
        assert len(s) <= 2
