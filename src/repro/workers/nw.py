"""nw — Needleman-Wunsch DNA alignment, general continuation passing.

Fills a DP score matrix where each cell depends on its north, west and
northwest neighbours.  The matrix is blocked; the resulting block-level
dependence pattern (Figure 2(c)) is *not* fork-join — each block joins
arguments from two different predecessors — which is exactly the pattern
only the full continuation passing model supports.

Construction of the dynamic task graph uses first-class continuations as
argument values:

* the pending entry for block ``(i, j)`` is created by its *diagonal*
  predecessor ``(i-1, j-1)`` — the unique task that both argument
  producers (west ``(i, j-1)`` and north ``(i-1, j)``) transitively wait
  on, so the entry always exists before either argument is sent;
* the creator passes the new entry's continuation *inside* the argument
  values it sends to the west and north neighbours, telling each where to
  send its own east/south completion;
* border blocks (row 0 / column 0) have one missing argument and create
  their own along-border entries.

The final block returns the alignment score to the host.  The LiteArch
port processes anti-diagonal wavefronts, one parallel-for round per
diagonal (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

import numpy as np

from repro.arch.lite import LiteProgram
from repro.core.context import Worker, WorkerContext
from repro.core.task import HOST_CONTINUATION, Continuation, Task
from repro.workers.base import ACCEL, Benchmark, Costs, register

NW_BLOCK = "NW_BLOCK"
NW_BLOCK_LITE = "NW_BLOCK_LITE"

MATCH = 1
MISMATCH = -1
GAP = 2


@dataclass(frozen=True)
class NwCosts(Costs):
    cell_per_4: int   # cycles per 4 cells (accel unrolls the inner loop)
    block_fixed: int


#: Wavefront-unrolled systolic block fill: ~4 cells/cycle.
ACCEL_COSTS = NwCosts(cell_per_4=1, block_fixed=24)
#: Scalar triple-max recurrence: ~7 cycles/cell on the OOO core.
CPU_COSTS = NwCosts(cell_per_4=28, block_fixed=80)


def fill_block(h: np.ndarray, seq1: np.ndarray, seq2: np.ndarray,
               r0: int, c0: int, size: int) -> None:
    """Fill DP cells ``h[r0:r0+size, c0:c0+size]`` (1-based score rows).

    The north halo row, west halo column and sequence slices are pulled
    out as Python ints and the recurrence runs on those.  Each finished
    row keeps its west halo value in front, so one slice assignment
    writes the block back (the halo column with the values it had).
    """
    r1, c1 = r0 + size, c0 + size
    col = seq2[c0 - 1:c1 - 1].tolist()
    above = h[r0 - 1, c0 - 1:c1].tolist()     # northwest corner first
    west = h[r0:r1, c0 - 1].tolist()
    rows = []
    for a, left in zip(seq1[r0 - 1:r1 - 1].tolist(), west):
        row = [left]
        for b, diag, north in zip(col, above, above[1:]):
            best = diag + MATCH if a == b else diag + MISMATCH
            north -= GAP
            if north > best:
                best = north
            left -= GAP
            if left > best:
                best = left
            row.append(best)
            left = best
        rows.append(row)
        above = row
    h[r0:r1, c0 - 1:c1] = rows


class NwWorker(Worker):
    """Continuation passing Needleman-Wunsch worker."""

    name = "nw"
    task_types = (NW_BLOCK, NW_BLOCK_LITE)

    def __init__(self, bench: "NwBenchmark", costs: NwCosts) -> None:
        self.bench = bench
        self.costs = costs

    def execute(self, task: Task, ctx: WorkerContext) -> None:
        bench = self.bench
        bi, bj = task.args[-2], task.args[-1]
        self._compute_block(ctx, bi, bj)
        if task.task_type == NW_BLOCK_LITE:
            ctx.send_arg(task.k, 0)
            return
        k_south_in, k_east_in = self._parse_continuations(task, bi, bj)
        nb = bench.nb
        last = nb - 1
        # Diagonal entry: the pending task for block (bi+1, bj+1).
        k_diag: Optional[Continuation] = None
        if bi < last and bj < last:
            k_diag = ctx.make_successor(NW_BLOCK, task.k, 2, bi + 1, bj + 1)
        # Border blocks create the next entry along their border themselves.
        k_east = k_east_in
        if bi == 0 and bj < last:
            k_east = ctx.make_successor(NW_BLOCK, task.k, 1, 0, bj + 1)
        k_south = k_south_in
        if bj == 0 and bi < last:
            k_south = ctx.make_successor(NW_BLOCK, task.k, 1, bi + 1, 0)
        # Completion signals carry the diagonal continuation onward: the
        # east neighbour will use it as its south target, the south
        # neighbour as its east target.
        if bj < last:
            ctx.send_arg(k_east.with_slot(0), k_diag)
        if bi < last:
            slot = 0 if bj == 0 else 1
            ctx.send_arg(k_south.with_slot(slot), k_diag)
        if bi == last and bj == last:
            score = int(bench.h[bench.n, bench.n])
            ctx.send_arg(task.k, score)

    def _parse_continuations(self, task: Task, bi: int, bj: int):
        """Extract (k_south, k_east) from the joined argument values."""
        values = task.args[:-2]
        if bi == 0 and bj == 0:
            return None, None
        if bi == 0:       # from west only: the west neighbour sent k_south
            return values[0], None
        if bj == 0:       # from north only: the north neighbour sent k_east
            return None, values[0]
        return values[0], values[1]

    def _compute_block(self, ctx: WorkerContext, bi: int, bj: int) -> None:
        bench, costs = self.bench, self.costs
        size = bench.block
        r0, c0 = bi * size + 1, bj * size + 1
        fill_block(bench.h, bench.seq1, bench.seq2, r0, c0, size)
        cells = size * size
        ctx.compute(costs.block_fixed + costs.cell_per_4 * (cells // 4))
        row_bytes = 4 * (bench.n + 1)
        base = bench.h_region.base
        ctx.read_block(bench.seq1_region.addr(r0 - 1, 1), size)
        ctx.read_block(bench.seq2_region.addr(c0 - 1, 1), size)
        # North halo row and the block rows (read west halo + write row).
        ctx.read_block(base + (r0 - 1) * row_bytes + 4 * (c0 - 1),
                       4 * (size + 1))
        for i in range(r0, r0 + size):
            ctx.read(base + i * row_bytes + 4 * (c0 - 1))
            ctx.write_block(base + i * row_bytes + 4 * c0, 4 * size)


class NwLite(LiteProgram):
    """Anti-diagonal wavefront rounds."""

    name = "nw-lite"

    def __init__(self, bench: "NwBenchmark") -> None:
        self.bench = bench

    def rounds(self) -> Generator[List[Task], List, None]:
        nb = self.bench.nb
        for diag in range(2 * nb - 1):
            blocks = [
                (bi, diag - bi)
                for bi in range(max(0, diag - nb + 1), min(nb, diag + 1))
            ]
            tasks = [
                Task(NW_BLOCK_LITE, self.host_k(i, diag), block)
                for i, block in enumerate(blocks)
            ]
            yield tasks

    def result(self):
        return int(self.bench.h[self.bench.n, self.bench.n])


@register
class NwBenchmark(Benchmark):
    """Align two random DNA sequences of length ``n`` with block size
    ``block``."""

    name = "nw"
    parallelization = "cp"
    recursive_nested = True
    data_dependent = True
    memory_pattern = "regular"
    memory_intensity = "medium"
    has_lite = True

    def __init__(self, n: int = 512, block: int = 8, seed: int = 4) -> None:
        super().__init__()
        if n % block:
            raise ValueError(f"sequence length {n} not divisible by {block}")
        self.n = n
        self.block = block
        self.nb = n // block
        rng = np.random.default_rng(seed)
        self.seq1_region, self.seq1 = self.mem.alloc_array(
            "seq1", n, dtype=np.int8
        )
        self.seq2_region, self.seq2 = self.mem.alloc_array(
            "seq2", n, dtype=np.int8
        )
        self.seq1[:] = rng.integers(0, 4, size=n, dtype=np.int8)
        self.seq2[:] = rng.integers(0, 4, size=n, dtype=np.int8)
        self.h_region = self.mem.alloc("h", 4 * (n + 1) * (n + 1))
        self.h = np.zeros((n + 1, n + 1), dtype=np.int32)
        self.h[0, :] = -GAP * np.arange(n + 1)
        self.h[:, 0] = -GAP * np.arange(n + 1)
        self._expected = self._reference()

    def _reference(self) -> int:
        """Fill the whole matrix row by row, independently of the
        blocked worker kernel, so :meth:`verify` compares two algorithms.

        Within a row, ``row[j] = max(t[j], row[j-1] - GAP)`` with ``t``
        the diagonal/north candidates is a prefix max:
        ``row = maximum.accumulate(max(t + GAP*j, row[0])) - GAP*j``.
        """
        n = self.n
        h = self.h.copy()
        ramp = GAP * np.arange(1, n + 1, dtype=np.int64)
        seq2 = self.seq2
        above = h[0].astype(np.int64)
        for i in range(1, n + 1):
            score = np.where(seq2 == self.seq1[i - 1], MATCH, MISMATCH)
            t = np.maximum(above[:-1] + score, above[1:] - GAP) + ramp
            row = np.empty(n + 1, dtype=np.int64)
            row[0] = h[i, 0]
            row[1:] = np.maximum.accumulate(np.maximum(t, row[0])) - ramp
            h[i] = row
            above = row
        self._h_expected = h
        return int(h[n, n])

    def flex_worker(self, platform: str = ACCEL) -> Worker:
        costs = ACCEL_COSTS if platform == ACCEL else CPU_COSTS
        return NwWorker(self, costs)

    def root_task(self) -> Task:
        return Task(NW_BLOCK, HOST_CONTINUATION, (0, 0))

    def lite_program(self, num_pes: int) -> LiteProgram:
        return NwLite(self)

    def verify(self, host_value) -> bool:
        return (host_value == self._expected
                and bool(np.array_equal(self.h, self._h_expected)))

    def expected(self):
        return self._expected
