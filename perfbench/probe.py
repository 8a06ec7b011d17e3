"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Times ``import numpy``, then importing the ``repro`` layers the workloads
use, then building the workload's job specs.  Given a filled result cache,
it then times warm passes: the whole batch served from that cache through
``JobRunner``, in blocks of passes with a calibration pair per block.
Prints one JSON line (``setup_s`` and ``warm_s`` in reference seconds, see
``host.py``; the import times in wall seconds).  Usage::

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED [CACHE_DIR]
"""

import json
import statistics
import sys
from time import perf_counter

from host import calibrate, measured, reference

WARM_BLOCKS = 6
WARM_PER_BLOCK = 3

before = calibrate()
start = perf_counter()
import numpy  # noqa: E402,F401
numpy_done = perf_counter()
import repro.exec  # noqa: E402,F401
import repro.harness.fig7  # noqa: E402,F401
repro_done = perf_counter()
import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
batch = workloads.specs(workload, seed)
done = perf_counter()
result = {"numpy_s": numpy_done - start,
          "repro_s": repro_done - numpy_done,
          "raw_s": done - start,
          "setup_s": reference(done - start, before, calibrate())}

if len(sys.argv) > 3:
    runners = []

    def block():
        for _ in range(WARM_PER_BLOCK):
            runners.append(workloads.cached_pass(workload, batch,
                                                 sys.argv[3]))

    blocks = [measured(block)[2] / WARM_PER_BLOCK
              for _ in range(WARM_BLOCKS)]
    result["warm_s"] = statistics.median(blocks)
    result["cached"] = sorted({r.stats.cached for r in runners})
    result["outcomes"] = sorted({workloads.outcome_digest(
        [getattr(o, "digest", None) for o in r.outcomes]) for r in runners})
print(json.dumps(result))
