"""Set-associative cache with MOESI line states and LRU replacement.

The cache is a timing/state model: it tracks which lines are present and in
which coherence state, but holds no data (functional state lives in
:class:`repro.mem.memory.SimMemory`).  Misses, upgrades and evictions are
resolved by the enclosing :class:`repro.mem.coherence.CoherenceDomain`,
which implements the MOESI snooping protocol of Table III.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class State(Enum):
    """MOESI coherence states."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def is_valid(self) -> bool:
        return self is not State.INVALID

    @property
    def is_dirty(self) -> bool:
        """States whose data differs from memory and must be written back."""
        return self in (State.MODIFIED, State.OWNED)

    @property
    def can_write(self) -> bool:
        """States that permit a write hit without a bus transaction."""
        return self in (State.MODIFIED, State.EXCLUSIVE)


@dataclass
class CacheStats:
    """Per-cache access statistics."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    upgrades: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    snoop_hits: int = 0
    invalidations_received: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One cache: a set-indexed array of (tag → state) with LRU order.

    Parameters are in bytes; ``line_size`` must be a power of two and
    ``size`` a multiple of ``assoc * line_size``.  The set count need not
    be a power of two (a 48 kB 2-way cache has 384 sets).
    """

    #: Sharer directory of the enclosing coherence domain (line → number
    #: of L1s holding a valid copy), set by
    #: :class:`repro.mem.coherence.CoherenceDomain` on its L1s and kept
    #: current by :meth:`fill`, :meth:`invalidate` and :meth:`set_state`.
    #: ``None`` on the L2 and on caches outside a domain.
    holders: Optional[Dict[int, int]] = None

    def __init__(
        self,
        name: str,
        size: int,
        assoc: int,
        line_size: int = 64,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line size must be a power of two: {line_size}")
        if size % (assoc * line_size):
            raise ValueError(
                f"cache size {size} not divisible by assoc*line "
                f"({assoc}*{line_size})"
            )
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self._line_shift = line_size.bit_length() - 1
        # Each set is an OrderedDict: line_base -> State, LRU first.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _set_of(self, line: int) -> OrderedDict:
        return self._sets[(line >> self._line_shift) % self.num_sets]

    def _drop_holder(self, line: int) -> None:
        holders = self.holders
        count = holders[line] - 1
        if count:
            holders[line] = count
        else:
            del holders[line]

    # ------------------------------------------------------------------
    # Lookup / state manipulation.  These are mechanism only; the policy
    # (what to do on a miss) lives in the coherence domain.
    # ------------------------------------------------------------------
    def lookup(self, line: int) -> State:
        """State of ``line`` (``INVALID`` if absent).  Does not touch LRU."""
        return self._set_of(line).get(line, State.INVALID)

    def probe(self, line: int) -> Optional[State]:
        """State of ``line`` marked most-recently-used, or ``None`` if
        absent."""
        s = self._sets[(line >> self._line_shift) % self.num_sets]
        state = s.get(line)
        if state is not None:
            s.move_to_end(line)
        return state

    def set_state(self, line: int, state: State) -> None:
        """Update the state of a *present* line, or drop it on INVALID."""
        s = self._set_of(line)
        if state is State.INVALID:
            if s.pop(line, None) is not None and self.holders is not None:
                self._drop_holder(line)
            return
        if line not in s:
            raise KeyError(f"{self.name}: line {line:#x} not present")
        s[line] = state

    def fill(self, line: int, state: State) -> Optional[Tuple[int, State]]:
        """Insert ``line``; returns an evicted ``(line, state)`` or ``None``.

        The victim is the LRU line of the set.  The caller handles any
        writeback the victim's state requires.
        """
        s = self._sets[(line >> self._line_shift) % self.num_sets]
        if line in s:
            s[line] = state
            s.move_to_end(line)
            return None
        victim = None
        holders = self.holders
        if len(s) >= self.assoc:
            victim = s.popitem(last=False)
            self.stats.evictions += 1
            if holders is not None:
                self._drop_holder(victim[0])
        s[line] = state
        if holders is not None:
            holders[line] = holders.get(line, 0) + 1
        return victim

    def invalidate(self, line: int) -> State:
        """Snoop-invalidate ``line``; returns its previous state."""
        state = self._set_of(line).pop(line, None)
        if state is None:
            return State.INVALID
        self.stats.invalidations_received += 1
        if self.holders is not None:
            self._drop_holder(line)
        return state

    def contents(self) -> Dict[int, State]:
        """All valid lines (for invariant checks in tests)."""
        out: Dict[int, State] = {}
        for s in self._sets:
            out.update(s)
        return out

    @property
    def lines_valid(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name!r}, {self.size >> 10}kB, {self.assoc}-way, "
            f"{self.lines_valid} lines valid)"
        )
