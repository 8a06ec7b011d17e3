"""MOESI protocol tests: state transitions, transfers, and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import Cache, State
from repro.mem.coherence import CoherenceDomain, MemLatencies
from repro.mem.dram import DRAM


def make_domain(num_l1=2, prefetch=False, l1_size=1024, l2_bw=None):
    l1s = [Cache(f"l1.{i}", l1_size, 2, 64) for i in range(num_l1)]
    l2 = Cache("l2", 64 * 1024, 8, 64)
    dram = DRAM()
    return CoherenceDomain(l1s, l2, dram, MemLatencies(), prefetch=prefetch,
                           l2_bandwidth_gbps=l2_bw)


LINE = 0x1000


def test_cold_read_installs_exclusive():
    dom = make_domain()
    result = dom.access(0, LINE, 4, False, 0.0)
    assert result.line_misses == 1
    assert dom.l1s[0].lookup(LINE) is State.EXCLUSIVE
    assert dom.l2.lookup(LINE).is_valid  # inclusion


def test_second_reader_shares_and_downgrades():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    dom.access(1, LINE, 4, False, 0.0)
    assert dom.l1s[0].lookup(LINE) is State.SHARED
    assert dom.l1s[1].lookup(LINE) is State.SHARED


def test_write_installs_modified():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED


def test_write_invalidates_peers():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    dom.access(1, LINE, 4, False, 0.0)
    dom.access(0, LINE, 4, True, 0.0)  # upgrade
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED
    assert dom.l1s[1].lookup(LINE) is State.INVALID
    assert dom.stats.upgrades == 1


def test_silent_upgrade_from_exclusive():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)  # E
    dom.access(0, LINE, 4, True, 0.0)   # E -> M without bus traffic
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED
    assert dom.stats.upgrades == 0


def test_dirty_line_supplied_cache_to_cache():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)   # PE0 has M
    result = dom.access(1, LINE, 4, False, 0.0)
    assert result.line_misses == 1
    assert dom.stats.c2c_transfers == 1
    # Owner keeps the dirty data in O; reader gets S.
    assert dom.l1s[0].lookup(LINE) is State.OWNED
    assert dom.l1s[1].lookup(LINE) is State.SHARED


def test_write_miss_pulls_dirty_copy():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)  # PE0 M
    dom.access(1, LINE, 4, True, 0.0)  # PE1 write miss
    assert dom.l1s[1].lookup(LINE) is State.MODIFIED
    assert dom.l1s[0].lookup(LINE) is State.INVALID
    assert dom.stats.c2c_transfers == 1


def test_read_hits_are_free():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    result = dom.access(0, LINE, 4, False, 0.0)
    assert result.stall_ns == 0.0
    assert result.line_hits == 1


def test_writes_are_posted():
    dom = make_domain()
    result = dom.access(0, LINE, 4, True, 0.0)  # write miss
    assert result.stall_ns == 0.0


def test_read_miss_latency_includes_l2():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    # Evict-free second line from L2: first prime the L2.
    dom.l1s[0].invalidate(LINE)
    result = dom.access(0, LINE, 4, False, 0.0)
    assert result.stall_ns == pytest.approx(dom.lat.l2_hit_ns)


def test_dirty_eviction_writes_back():
    dom = make_domain(num_l1=1, l1_size=128)  # 2 lines capacity, 1 set? 128/2/64=1 set
    # Fill the single set with two dirty lines, then force an eviction.
    dom.access(0, 0, 4, True, 0.0)
    dom.access(0, 128, 4, True, 0.0)
    dom.access(0, 256, 4, True, 0.0)
    assert dom.stats.l1_writebacks >= 1
    # The written-back line is marked dirty in the L2.
    assert dom.l2.lookup(0) is State.MODIFIED


def test_prefetch_next_line():
    dom = make_domain(prefetch=True)
    dom.access(0, LINE, 4, False, 0.0)
    assert dom.l1s[0].lookup(LINE + 64).is_valid
    assert dom.stats.prefetch_issued >= 1


def test_prefetch_skips_peer_held_lines():
    dom = make_domain(prefetch=True)
    dom.access(1, LINE + 64, 4, True, 0.0)   # peer owns next line in M
    dom.access(0, LINE, 4, False, 0.0)
    # Prefetch must not disturb the peer's modified copy.
    assert dom.l1s[1].lookup(LINE + 64) is State.MODIFIED
    assert dom.l1s[0].lookup(LINE + 64) is State.INVALID


def test_streaming_read_hits_after_first_miss():
    dom = make_domain(prefetch=True, l1_size=4096)
    result = dom.access(0, 0, 1024, False, 0.0)  # 16 sequential lines
    assert result.line_misses == 1
    assert result.line_hits == 15


def test_multiline_op_stall_is_max_not_sum():
    dom = make_domain(prefetch=False)
    result = dom.access(0, 0, 256, False, 0.0)  # 4 cold lines
    assert result.line_misses == 4
    single = make_domain(prefetch=False).access(0, 0, 64, False, 0.0)
    # Overlapped fetches: far less than 4x a single miss.
    assert result.stall_ns < 4 * single.stall_ns


def test_l2_bandwidth_queues():
    dom = make_domain(prefetch=False, l2_bw=0.064)  # 1 line per 1000 ns
    dom.l2.fill(0, State.EXCLUSIVE)
    dom.l2.fill(64, State.EXCLUSIVE)
    first = dom.access(0, 0, 4, False, 0.0)
    second = dom.access(1, 64, 4, False, 0.0)
    assert second.stall_ns > first.stall_ns + 500


def test_inclusion_invariant_random_traffic():
    dom = make_domain(num_l1=4, prefetch=True, l1_size=512)
    import random

    rng = random.Random(7)
    for _ in range(2000):
        requester = rng.randrange(4)
        line = rng.randrange(64) * 64
        dom.access(requester, line, 4, rng.random() < 0.3, 0.0)
        assert dom.check_coherence()
    assert dom.check_inclusion()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 31),
                          st.booleans()),
                min_size=1, max_size=200))
def test_single_writer_invariant(ops):
    dom = make_domain(num_l1=3, prefetch=False, l1_size=512)
    for requester, line_idx, is_write in ops:
        dom.access(requester, line_idx * 64, 4, is_write, 0.0)
    assert dom.check_coherence()
    assert dom.check_inclusion()


def test_directory_seeded_from_caches_built_first():
    l1s = [Cache(f"l1.{i}", 1024, 2, 64) for i in range(2)]
    l2 = Cache("l2", 64 * 1024, 8, 64)
    for l1 in l1s:
        l2.fill(LINE, State.EXCLUSIVE)
        l1.fill(LINE, State.SHARED)
    l1s[0].fill(LINE + 64, State.MODIFIED)
    l2.fill(LINE + 64, State.MODIFIED)
    dom = CoherenceDomain(l1s, l2, DRAM(), MemLatencies(), prefetch=True)
    assert dom.holders == {LINE: 2, LINE + 64: 1}
    assert dom.l2.holders is None
    # The read hit's next-line prefetch finds LINE + 64 held by a peer.
    dom.access(1, LINE, 4, False, 0.0)
    assert dom.stats.prefetch_issued == 0
    assert dom.check_directory()
