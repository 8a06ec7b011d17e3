"""Algorithmic tests for the Needleman-Wunsch continuation passing worker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import ReferenceScheduler, SerialExecutor
from repro.workers.nw import GAP, MATCH, MISMATCH, NwBenchmark, fill_block


def serial_nw(seq1, seq2):
    """Straightforward full-matrix reference."""
    n, m = len(seq1), len(seq2)
    h = np.zeros((n + 1, m + 1), dtype=np.int64)
    h[0, :] = -GAP * np.arange(m + 1)
    h[:, 0] = -GAP * np.arange(n + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            score = MATCH if seq1[i - 1] == seq2[j - 1] else MISMATCH
            h[i, j] = max(h[i - 1, j - 1] + score,
                          h[i - 1, j] - GAP,
                          h[i, j - 1] - GAP)
    return h


@pytest.mark.parametrize("block", [4, 8, 16])
def test_fill_block_matches_cellwise_reference(block):
    n = 32
    rng = np.random.default_rng(0)
    seq1 = rng.integers(0, 4, n).astype(np.int8)
    seq2 = rng.integers(0, 4, n).astype(np.int8)
    expected = serial_nw(seq1, seq2)
    h = np.zeros((n + 1, n + 1), dtype=np.int32)
    h[0, :] = -GAP * np.arange(n + 1)
    h[:, 0] = -GAP * np.arange(n + 1)
    for bi in range(n // block):
        for bj in range(n // block):
            fill_block(h, seq1, seq2, bi * block + 1, bj * block + 1, block)
    assert np.array_equal(h, expected.astype(np.int32))


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([16, 32, 48, 64, 128]),
       block=st.sampled_from([4, 8, 16]),
       seed=st.integers(0, 1000))
def test_reference_matrix_matches_serial_oracle(n, block, seed):
    """The benchmark's own reference matrix, which ``verify`` compares the
    workers' matrix against, equals the cellwise oracle."""
    if n % block:
        return
    bench = NwBenchmark(n=n, block=block, seed=seed)
    reference = serial_nw(bench.seq1, bench.seq2)
    assert bench._h_expected.dtype == np.int32
    assert np.array_equal(bench._h_expected, reference)
    assert bench.expected() == reference[n, n]


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from([16, 24, 32, 48]),
       block=st.sampled_from([4, 8]),
       seed=st.integers(0, 100))
def test_task_graph_matches_reference(n, block, seed):
    if n % block:
        return
    bench = NwBenchmark(n=n, block=block, seed=seed)
    result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
    reference = serial_nw(bench.seq1, bench.seq2)
    assert result.value == reference[n, n]
    assert np.array_equal(bench.h, reference.astype(np.int32))


@pytest.mark.parametrize("num_pes", [2, 4, 8])
def test_parallel_wavefront_correct(num_pes):
    bench = NwBenchmark(n=64, block=8)
    result = ReferenceScheduler(bench.flex_worker(), num_pes).run(
        bench.root_task()
    )
    assert bench.verify(result.value)


def test_single_block_matrix():
    bench = NwBenchmark(n=8, block=8)
    result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
    assert bench.verify(result.value)


def test_task_count_is_block_count():
    bench = NwBenchmark(n=64, block=8)  # 8x8 blocks
    sx = SerialExecutor(bench.flex_worker())
    sx.run(bench.root_task())
    assert sx.stats.tasks_executed == 64


def test_block_must_divide_length():
    with pytest.raises(ValueError):
        NwBenchmark(n=100, block=16)


def test_identical_sequences_score():
    bench = NwBenchmark(n=32, block=8, seed=0)
    bench.seq2[:] = bench.seq1
    # Recompute the expected values with the aligned sequences.
    reference = serial_nw(bench.seq1, bench.seq2)
    bench._h_expected = reference.astype(np.int32)
    bench._expected = int(reference[32, 32])
    assert bench._expected == 32 * MATCH  # perfect alignment
    bench.h[1:, 1:] = 0
    result = SerialExecutor(bench.flex_worker()).run(bench.root_task())
    assert result.value == 32 * MATCH


def test_lite_wavefront_rounds():
    bench = NwBenchmark(n=32, block=8)  # 4x4 blocks -> 7 diagonals
    rounds = list(bench.lite_program(4).rounds())
    assert len(rounds) == 7
    sizes = [len(r) for r in rounds]
    assert sizes == [1, 2, 3, 4, 3, 2, 1]
