"""Fixed pieces of work that measure how fast the machine runs right now.

On a shared host the same work runs up to twice as fast or as slow from one
minute to the next, because other tenants load the cores and caches that the
benchmark's core shares.  The worker times one chunk every quarter second
between ops, and the harness scales each op's latency by how long the chunks
around it took, against the chunk's reference time.  Each kind of chunk does
the work its workloads do, so that a spell slows both by about the same
share:

- `python_chunk`, for the in-process workloads, does what curvesig's hot
  paths do: small `Fraction` arithmetic, `bisect` over sorted fractions, and
  dict and tuple traffic.
- `process_chunk`, for `cli`, starts a fresh interpreter that imports
  `numpy` and exits, which is most of what every `cli` op does before
  curvesig's own work.  Process start and imports change with the machine's
  speed by a smaller share than running Python does, so `python_chunk`
  would over-correct them.

Neither imports curvesig, so no change to curvesig changes them.  The reference times are the median chunk times on
the machine the benchmark was tuned on (a shared 2-vCPU Xeon, Python 3.11),
so scaled times read as times on that machine at its median speed.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple


class Calibration(NamedTuple):
    chunk: Callable[[], float]
    reference_s: float
    every_s: float  # seconds of timed ops between two chunks


_POINTS = sorted(Fraction(i, 97) for i in range(1, 200))


def _work() -> int:
    seen = {}
    for _ in range(16):
        total = Fraction(0)
        for i in range(1, 140):
            total += Fraction(1, i)
            seen[(i, bisect_right(_POINTS, Fraction(i, 7)))] = total
    return len(seen)


def python_chunk() -> float:
    """Seconds taken by one pass of `_work`.  The cyclic garbage collector is
    off while it runs, so the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def process_chunk() -> float:
    """Seconds from starting `python -c "import numpy"` to its exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - start


PYTHON = Calibration(python_chunk, reference_s=0.025, every_s=0.25)
PROCESS = Calibration(process_chunk, reference_s=0.165, every_s=0.6)
