"""Golden pinning of whole-run outcomes through the coherent memory model.

Each constant is the :class:`~repro.exec.record.RunRecord` content digest
of ``make_spec(name, pes, quick=True)`` on FlexArch, which covers
end-to-end cycles, the memory summary (L1/L2 hits and misses, c2c
transfers, DRAM traffic), per-PE stats and every counter.  The digests
were captured before the memory model's hot path was reworked (sharer
directory, fused probe, one-pass ``access``), so they pin that rework —
and any later one — to the original cycle-for-cycle behaviour.

Any diff here means the memory model's timing or state drifted — fix the
code, do not re-record the goldens.
"""

import pytest

from repro.exec import JobRunner, make_spec
from repro.workers import PAPER_BENCHMARKS

#: RunRecord digest per (benchmark, PEs), quick sizes, FlexArch.
GOLDEN = {
    ("fib", 4): "4bfa1c690d936b2762d958df3d3d0c3f",
    ("fib", 16): "ab9c6d735d2ea378fd41faa9aeb555d1",
    ("nw", 4): "486d46ec514a0397d48f9e310aa0ff2b",
    ("nw", 16): "f7a8d3dd8d57afd9e013cdd501e557ef",
    ("quicksort", 4): "1878947304ff9b1cf46cb0515d61ec69",
    ("quicksort", 16): "b9c73c3ff2fa99f050fb47a34a0e3546",
    ("cilksort", 4): "902c937cac78f774bab8efd071f6c4d7",
    ("cilksort", 16): "ce97f690647543f4087ffe8b0bf163d7",
    ("queens", 4): "bd3ab08959bfa689ca2a4a6a3fbff6e8",
    ("queens", 16): "deb33a8bd2feacb371c44da1b13d196a",
    ("knapsack", 4): "f0a4361406329147a435282eaf675a0e",
    ("knapsack", 16): "c5a97d2fb494f8544d90cb643d4b7a6a",
    ("uts", 4): "3d70534ebcae01a3c402156eea5d5fc1",
    ("uts", 16): "cdccf3a1fb95982adb36595cccdf63a1",
    ("bbgemm", 4): "4c195609214e713905f9e2c2ebdd63d2",
    ("bbgemm", 16): "e3d49a55bbdef2136bff7a49f552616a",
    ("bfsqueue", 4): "a5efa7b3e97e7515f1818139bb6db310",
    ("bfsqueue", 16): "6d2da488df30598135dabac270a95a51",
    ("spmvcrs", 4): "0121cd8be95c00225dc87a95d1a5557b",
    ("spmvcrs", 16): "964c33bc406391c15fb1c49bbd3bec65",
    ("stencil2d", 4): "ac0de25328f182252da5bc9235b2651a",
    ("stencil2d", 16): "e01cfd434fc4ca67ebfb61c64c4b93c4",
}


def test_golden_covers_every_paper_benchmark():
    names = {name for name, _ in GOLDEN}
    assert names == {"fib", *PAPER_BENCHMARKS}


@pytest.fixture(scope="module")
def digests():
    keys = list(GOLDEN)
    specs = [make_spec(name, pes, quick=True) for name, pes in keys]
    records = JobRunner(jobs=1).run_checked(specs)
    return {key: rec.digest for key, rec in zip(keys, records)}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def test_outcome_digest_matches_golden(digests, key):
    assert digests[key] == GOLDEN[key]
