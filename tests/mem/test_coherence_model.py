"""Model-based (stateful) testing of the MOESI protocol.

A reference model tracks, per line, the set of valid holders and the
identity of the (at most one) writer since the last read-share.  After
every randomly generated access the cache states must be consistent with
the model, and the global invariants (single writer, inclusion) must
hold.  This catches protocol bugs that fixed scenarios miss.

A second machine drives the sharer directory (``CoherenceDomain.holders``)
through every path that changes an L1: prefetch fills, L1 evictions, L2
back-invalidations (the L2 is smaller than the L1s together), and direct
``invalidate``/``set_state`` calls between accesses.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.mem.cache import Cache, State
from repro.mem.coherence import CoherenceDomain, MemLatencies
from repro.mem.dram import DRAM

NUM_L1 = 3
NUM_LINES = 16


class MoesiMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.l1s = [Cache(f"l1.{i}", 2048, 2, 64) for i in range(NUM_L1)]
        self.l2 = Cache("l2", 64 * 1024, 8, 64)
        self.domain = CoherenceDomain(
            self.l1s, self.l2, DRAM(), MemLatencies(),
            prefetch=False,  # keep the model's holder sets exact
        )
        # Reference model: line -> set of caches that *may* hold it, and
        # the last writer (None if the line was shared since).
        self.writer = {}

    @rule(requester=st.integers(0, NUM_L1 - 1),
          line_idx=st.integers(0, NUM_LINES - 1),
          is_write=st.booleans())
    def access(self, requester, line_idx, is_write):
        line = line_idx * 64
        self.domain.access(requester, line, 4, is_write, 0.0)
        if is_write:
            self.writer[line] = requester
        elif self.writer.get(line) not in (None, requester):
            # A read by another cache demotes exclusivity.
            self.writer[line] = None

    @invariant()
    def requester_state_matches_model(self):
        if not hasattr(self, "domain"):
            return
        for line, writer in self.writer.items():
            if writer is None:
                continue
            # The last writer's line (if still cached anywhere) can only
            # be dirty in the writer, and nobody else may hold M/E.
            for i, l1 in enumerate(self.l1s):
                state = l1.lookup(line)
                if i != writer:
                    assert state in (State.INVALID,), (
                        f"cache {i} holds {state} after write by {writer}"
                    )

    @invariant()
    def coherence_and_inclusion(self):
        if not hasattr(self, "domain"):
            return
        assert self.domain.check_coherence()
        assert self.domain.check_inclusion()
        assert self.domain.check_directory()


TestMoesiModel = MoesiMachine.TestCase
TestMoesiModel.settings = settings(max_examples=40,
                                   stateful_step_count=60,
                                   deadline=None)


DIR_LINES = 48


class DirectoryMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        # 4-set L1s under an 8-set L2: the L1s evict on their own, and
        # 16 lines of L2 behind 24 lines of L1 force inclusion
        # back-invalidations.
        self.l1s = [Cache(f"l1.{i}", 512, 2, 64) for i in range(NUM_L1)]
        self.l2 = Cache("l2", 1024, 2, 64)
        self.domain = CoherenceDomain(
            self.l1s, self.l2, DRAM(), MemLatencies(), prefetch=True,
        )

    @rule(requester=st.integers(0, NUM_L1 - 1),
          line_idx=st.integers(0, DIR_LINES - 1),
          nbytes=st.sampled_from([4, 64, 200]),
          is_write=st.booleans())
    def access(self, requester, line_idx, nbytes, is_write):
        self.domain.access(requester, line_idx * 64, nbytes, is_write, 0.0)

    @rule(cache=st.integers(0, NUM_L1 - 1),
          line_idx=st.integers(0, DIR_LINES - 1))
    def invalidate(self, cache, line_idx):
        self.l1s[cache].invalidate(line_idx * 64)

    @rule(cache=st.integers(0, NUM_L1 - 1),
          line_idx=st.integers(0, DIR_LINES - 1),
          state=st.sampled_from([State.INVALID, State.SHARED]))
    def set_state(self, cache, line_idx, state):
        # Dropping a copy, or demoting it to S, keeps the protocol's
        # invariants; the directory must follow either.
        line = line_idx * 64
        l1 = self.l1s[cache]
        if state is State.INVALID or l1.lookup(line).is_valid:
            l1.set_state(line, state)

    @invariant()
    def directory_coherence_and_inclusion(self):
        if not hasattr(self, "domain"):
            return
        assert self.domain.check_directory()
        assert self.domain.check_coherence()
        assert self.domain.check_inclusion()


TestDirectory = DirectoryMachine.TestCase
TestDirectory.settings = settings(max_examples=40,
                                  stateful_step_count=60,
                                  deadline=None)
