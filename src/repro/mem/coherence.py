"""MOESI snooping coherence across the L1 caches and the shared L2.

One :class:`CoherenceDomain` spans all L1 caches (accelerator tile caches
and/or CPU core caches) plus the inclusive shared L2 and DRAM.  The model
resolves each line access to a stall time:

* L1 hits cost no stall — 1-cycle hits are absorbed by the pipelined worker
  datapath (or the OOO core), per Table III.
* Read misses snoop the peers: a dirty peer (M/O) supplies the line
  cache-to-cache and keeps ownership (M→O); otherwise the L2/DRAM supplies
  it and the requester takes E (no other sharer) or S.
* Write hits in S/O need a bus upgrade that invalidates the peers; write
  misses invalidate peers and fetch the line in M.
* Dirty evictions write back to the L2; L2 evictions back-invalidate the
  L1s (inclusion) and write dirty data to DRAM as background bandwidth.
* A next-line prefetcher fills ``line + line_size`` on every L1 *read*
  (hit or miss) without stalling the requester (background DRAM bandwidth
  only), so streaming reads settle into all-hit behaviour after the first
  miss — matching a pipelined HLS worker with a stream prefetcher.
* Writes are posted: write misses and upgrades perform all state changes
  and consume DRAM bandwidth, but do not stall the requester (store
  buffers on the CPU, decoupled store queues in the accelerator).

The domain also keeps a sharer directory, :attr:`CoherenceDomain.holders`
(line → number of L1s holding a valid copy).  It is host-side
bookkeeping, not a modelled structure: it only lets the simulator skip
peer probes that would find nothing, so the snooping protocol and its
timing are exactly those above.  :meth:`CoherenceDomain.check_directory`
audits it against the caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.mem.cache import Cache, State
from repro.mem.dram import DRAM

# Module-level aliases: the hot paths compare states by identity.
_MODIFIED = State.MODIFIED
_OWNED = State.OWNED
_EXCLUSIVE = State.EXCLUSIVE


@dataclass(frozen=True)
class MemLatencies:
    """Stall contributions in nanoseconds (Table III, converted)."""

    l1_hit_ns: float = 2.5      # 1 cycle at the 400 MHz accelerator L1
    l2_hit_ns: float = 10.0     # 10 cycles at 1 GHz
    c2c_ns: float = 15.0        # snoop + cache-to-cache transfer
    upgrade_ns: float = 8.0     # bus invalidation round
    dram_ns: float = 50.0       # row access before bandwidth service


@dataclass
class AccessResult:
    """Outcome of a (possibly multi-line) memory access."""

    stall_ns: float = 0.0
    line_hits: int = 0
    line_misses: int = 0


@dataclass
class DomainStats:
    c2c_transfers: int = 0
    upgrades: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l1_writebacks: int = 0
    l2_writebacks: int = 0
    back_invalidations: int = 0
    prefetch_issued: int = 0


class CoherenceDomain:
    """All L1s + inclusive shared L2 + DRAM under MOESI snooping."""

    def __init__(
        self,
        l1s: List[Cache],
        l2: Cache,
        dram: DRAM,
        latencies: MemLatencies = MemLatencies(),
        prefetch: bool = True,
        line_size: int = 64,
        l2_bandwidth_gbps: Optional[float] = 32.0,
    ) -> None:
        self.l1s = l1s
        self.l2 = l2
        self.dram = dram
        self.lat = latencies
        self.prefetch = prefetch
        self.line_size = line_size
        # Shared-L2 port bandwidth (GB/s == bytes/ns); None = unlimited.
        self.l2_bytes_per_ns = l2_bandwidth_gbps
        self._l2_next_free = 0.0
        self.stats = DomainStats()
        # Sharer directory shared with every L1, seeded from lines the
        # caches already hold.
        self.holders = self._count_holders()
        for l1 in l1s:
            l1.holders = self.holders

    # ------------------------------------------------------------------
    def access(
        self,
        requester: int,
        addr: int,
        nbytes: int,
        is_write: bool,
        now_ns: float,
    ) -> AccessResult:
        """Perform an access from L1 ``requester``; returns stall/hit info.

        All lines of one access are issued together (the worker's memory
        port streams a block with full memory-level parallelism), so the
        op's stall is the *slowest* line, not the sum — the L2 and DRAM
        port horizons still serialise the individual line services, so a
        long burst's last line naturally queues behind the earlier ones.
        Dependent accesses (e.g. spmv's x gathers) are separate ops and
        therefore still serialise against each other.
        """
        if nbytes <= 0:
            raise ValueError(f"access must cover at least one byte: {nbytes}")
        line_size = self.line_size
        mask = ~(line_size - 1)
        l1 = self.l1s[requester]
        probe = l1.probe
        stats = l1.stats
        prefetch = self.prefetch
        holders = self.holders
        hits = misses = 0
        max_stall = 0.0
        for line in range(addr & mask, ((addr + nbytes - 1) & mask)
                          + line_size, line_size):
            state = probe(line)
            if state is None:
                misses += 1
                if is_write:
                    # Posted write: all state changes happen, no stall.
                    stats.write_misses += 1
                    self._fetch_line(requester, line, True, now_ns)
                    continue
                stats.read_misses += 1
                stall = self._fetch_line(requester, line, False, now_ns)
                if stall > max_stall:
                    max_stall = stall
                if prefetch and line + line_size not in holders:
                    self._prefetch_line(requester, line + line_size, now_ns)
                continue
            hits += 1
            if not is_write:
                stats.read_hits += 1
                if prefetch and line + line_size not in holders:
                    self._prefetch_line(requester, line + line_size, now_ns)
                continue
            stats.write_hits += 1
            if state is _MODIFIED:
                continue
            if state is not _EXCLUSIVE:
                # Write hit on a Shared/Owned line: bus upgrade (posted —
                # the store buffer hides it from the requester).
                stats.upgrades += 1
                self.stats.upgrades += 1
                self._invalidate_peers(requester, line)
            l1.set_state(line, _MODIFIED)
        return AccessResult(max_stall, hits, misses)

    def _fetch_line(
        self, requester: int, line: int, is_write: bool, now_ns: float
    ) -> float:
        """Fetch ``line`` into the requester's L1, resolving coherence."""
        dirty_peer, clean_peer = self._snoop(requester, line)
        if is_write:
            # Invalidate every other copy; dirty data is handed over c2c.
            self._invalidate_peers(requester, line)
            if dirty_peer is not None:
                self.stats.c2c_transfers += 1
                stall = self.lat.c2c_ns
            else:
                stall = self._from_l2(line, now_ns, for_write=True)
            self._fill_l1(requester, line, State.MODIFIED, now_ns)
            # L2 copy becomes stale relative to the M line; mark it so an
            # inclusion eviction knows to expect the dirty writeback.
            self._l2_note_modified(line)
            return stall
        # Read miss.
        if dirty_peer is not None:
            peer = self.l1s[dirty_peer]
            peer.stats.snoop_hits += 1
            if peer.lookup(line) is State.MODIFIED:
                peer.set_state(line, State.OWNED)
            self.stats.c2c_transfers += 1
            self._fill_l1(requester, line, State.SHARED, now_ns)
            return self.lat.c2c_ns
        if clean_peer is not None:
            peer = self.l1s[clean_peer]
            peer.stats.snoop_hits += 1
            if peer.lookup(line) is State.EXCLUSIVE:
                peer.set_state(line, State.SHARED)
            stall = self._from_l2(line, now_ns, for_write=False)
            self._fill_l1(requester, line, State.SHARED, now_ns)
            return stall
        stall = self._from_l2(line, now_ns, for_write=False)
        self._fill_l1(requester, line, State.EXCLUSIVE, now_ns)
        return stall

    # ------------------------------------------------------------------
    def _snoop(self, requester: int, line: int):
        """Return (index of a dirty holder, index of a clean holder)."""
        dirty = clean = None
        if line not in self.holders:
            return dirty, clean
        for i, peer in enumerate(self.l1s):
            if i == requester:
                continue
            state = peer.lookup(line)
            if state is _MODIFIED or state is _OWNED:
                dirty = i
            elif state is not State.INVALID and clean is None:
                clean = i
        return dirty, clean

    def _invalidate_peers(self, requester: int, line: int) -> None:
        if line not in self.holders:
            return
        for i, peer in enumerate(self.l1s):
            if i != requester:
                peer.invalidate(line)

    def _fill_l1(self, requester: int, line: int, state: State,
                 now_ns: float) -> None:
        victim = self.l1s[requester].fill(line, state)
        if victim is not None:
            victim_line, victim_state = victim
            if victim_state is _MODIFIED or victim_state is _OWNED:
                self.l1s[requester].stats.writebacks += 1
                self.stats.l1_writebacks += 1
                self._l2_note_modified(victim_line, fill_if_absent=True,
                                       now_ns=now_ns)

    def _l2_port_delay(self, now_ns: float) -> float:
        """Queue time behind other requesters at the shared L2 port."""
        if self.l2_bytes_per_ns is None:
            return 0.0
        service = self.line_size / self.l2_bytes_per_ns
        start = max(now_ns, self._l2_next_free)
        self._l2_next_free = start + service
        return start - now_ns

    def _from_l2(self, line: int, now_ns: float, for_write: bool) -> float:
        """Stall for supplying a line from the L2, fetching DRAM on miss."""
        queue_ns = self._l2_port_delay(now_ns)
        now_ns += queue_ns
        if self.l2.probe(line) is not None:
            self.l2.stats.read_hits += 1
            self.stats.l2_hits += 1
            return queue_ns + self.lat.l2_hit_ns
        self.l2.stats.read_misses += 1
        self.stats.l2_misses += 1
        dram_ns = self.dram.access(now_ns + self.lat.l2_hit_ns)
        self._fill_l2(line, State.EXCLUSIVE, now_ns)
        return queue_ns + self.lat.l2_hit_ns + dram_ns

    def _fill_l2(self, line: int, state: State, now_ns: float) -> None:
        victim = self.l2.fill(line, state)
        if victim is not None:
            victim_line, victim_state = victim
            # Inclusion: evicting from L2 removes the line from all L1s;
            # a dirty L1 copy is folded into the writeback.
            dirty = victim_state.is_dirty
            if victim_line in self.holders:
                for l1 in self.l1s:
                    if l1.invalidate(victim_line).is_dirty:
                        dirty = True
                        self.stats.back_invalidations += 1
            if dirty:
                self.l2.stats.writebacks += 1
                self.stats.l2_writebacks += 1
                self.dram.record_background(now_ns)

    def _l2_note_modified(self, line: int, fill_if_absent: bool = False,
                          now_ns: float = 0.0) -> None:
        if self.l2.probe(line) is not None:
            self.l2.set_state(line, _MODIFIED)
        elif fill_if_absent:
            self._fill_l2(line, State.MODIFIED, now_ns)

    def _prefetch_line(self, requester: int, line: int, now_ns: float) -> None:
        """Next-line prefetch into the requester's L1 without stalling.

        :meth:`access` calls this only for a line no L1 holds: the
        requester needs nothing then, and a prefetch must not steal a
        peer's ownership or force invalidations.
        """
        self.stats.prefetch_issued += 1
        self.l1s[requester].stats.prefetch_fills += 1
        if self.l2.probe(line) is None:
            self.dram.record_background(now_ns)
            self._fill_l2(line, _EXCLUSIVE, now_ns)
        self._fill_l1(requester, line, _EXCLUSIVE, now_ns)

    # ------------------------------------------------------------------
    def check_inclusion(self) -> bool:
        """Inclusion invariant: every valid L1 line is present in the L2."""
        l2_lines = set(self.l2.contents())
        for l1 in self.l1s:
            for line in l1.contents():
                if line not in l2_lines:
                    return False
        return True

    def check_directory(self) -> bool:
        """Sharer-directory invariant: :attr:`holders` equals a recount of
        the valid lines in every L1."""
        return self._count_holders() == self.holders

    def _count_holders(self) -> Dict[int, int]:
        """Line → number of L1s holding a valid copy, by full scan."""
        counts: Dict[int, int] = {}
        for l1 in self.l1s:
            for line in l1.contents():
                counts[line] = counts.get(line, 0) + 1
        return counts

    def check_coherence(self) -> bool:
        """Single-writer invariant: at most one M/E holder per line, and
        no other valid copies may coexist with an M or E copy."""
        holders: dict = {}
        for i, l1 in enumerate(self.l1s):
            for line, state in l1.contents().items():
                holders.setdefault(line, []).append(state)
        for line, states in holders.items():
            exclusive = sum(1 for s in states
                            if s in (State.MODIFIED, State.EXCLUSIVE))
            if exclusive > 1:
                return False
            if exclusive == 1 and len(states) > 1:
                return False
            if sum(1 for s in states if s.is_dirty) > 1:
                return False
        return True
