"""Speed probe: a fixed slice of work that tracks how fast the machine is now.

On a shared host the same code runs up to twice as slow for a minute or
two at a time, and every core slows together, so no statistic over one run
removes a slow phase that outlasts it. The benchmark therefore times this
probe before a worker starts and after every command it runs, and rescales
each time measured in a round of a few seconds by REF_PROBE_S over the
round's median probe: a time then reads as it would on a machine that runs
the probe in REF_PROBE_S. The probe is the benchmark's own code and calls
nothing in zdgspec, so a change to the program moves the rescaled times
and leaves the probe alone.

The probe mixes what the workloads spend their time on, weighted towards
the interpreter, whose speed followed the commands' speed most closely:
integer and big-integer arithmetic, building small objects, a sort in
numpy and a small LAPACK eigensolve. It takes about 13 ms and allocates
nothing large, since the page faults of a fresh allocation of a few MB
depend on the process's history, not on the machine.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on the machine the benchmark was tuned on (2 shared
# vCPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REF_PROBE_S = 0.013

_rng = np.random.default_rng(20190318)
_SORT = _rng.random(200_000)
_SORTED = np.empty_like(_SORT)
_SYM = _rng.random((180, 180))
_SYM = _SYM + _SYM.T
# diagonally dominant, so no pivot is zero; the minors grow to ~700 bits
_BAREISS = [
    [((i * 7 + j * 3) % 11 - 5) * 999_983 + 10**9 * (i == j) for j in range(24)]
    for i in range(24)
]


def _work() -> None:
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    # fraction-free elimination: exact big-integer products and divisions
    a = [row[:] for row in _BAREISS]
    prev = 1
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    [(i, str(i)) for i in range(10_000)]
    _SORTED[:] = _SORT
    _SORTED.sort()
    np.linalg.eigvalsh(_SYM)


_work()  # first touch of every buffer and of LAPACK


def probe() -> float:
    """Seconds one run of the fixed probe work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(*probe_times: float) -> float:
    """Factor that rescales a time measured among these probes to the
    reference speed; the median ignores probes that were interrupted."""
    return REF_PROBE_S / statistics.median(probe_times)
