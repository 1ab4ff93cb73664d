"""Calibrated host time and the order statistics the harness reports.

On the shared 2-vCPU sandbox the speed of the machine moves by 20-30 %
on every time scale from 10 ms to minutes, so raw wall-clock medians of
identical code differ by 14-20 % between invocations.  Every timed
region is therefore expressed in *calibrated seconds*:

    wall_s / mean(relative slowness sampled during the region)

A *slice* is a fixed kernel of about 1.2 ms in two halves, timed
separately: a pure-Python dict/int loop, and small-array NumPy calls of
the kind the vectorized backend issues.  The slowness of a slice is its
two times over their reference values, mixed by the workload's
``numpy_weight``: the machine has states in which the interpreter
speeds up by 15 % and NumPy does not, so a pure-Python kernel
overcorrects a numpy-bound workload by 7 % in them, and a mixed kernel
doubles the noise of an interpreter-bound one.  The driver loop runs
one slice between two ``advance()`` calls every ``SLICE_EVERY_S`` and
takes the slices' own time out of the wall time, so a 1 s run is
calibrated by ~80 samples of how fast this machine was *while* it ran.
A region the harness cannot interleave (one set-up call, a probe) is
calibrated by slices taken immediately before and after it.

Measured while building the benchmark, per repeat (coefficient of
variation over 24-30 repeats of one input): raw wall clock 8-13 %; one
75 ms kernel before and after each repeat 12 %; slices every 50 ms
3-4 %, every 12 ms 2-3 %.  Medians of ten repeats then repeat within
1-2 % on the serial workloads; the cluster stays at 3-6 %, because the
coordinator's slices do not see the cores its agents run on.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

#: Seconds the two halves of a slice take on the machine the bounds
#: were derived on; calibrated seconds equal wall seconds when slices
#: run at exactly this speed.
PYTHON_REF_S = 0.00061
NUMPY_REF_S = 0.00059

#: Fixed, so every slice does identical work.
PYTHON_ITERATIONS = 6_250
NUMPY_ITERATIONS = 8
_COLUMN = np.arange(200_000, dtype=np.int64)

#: A driven run takes a slice whenever this long has passed since the
#: last one (about 10 % of the run's wall time goes to calibration).
SLICE_EVERY_S = 0.012

#: Slices taken on each side of a region that cannot be interleaved.
NEIGHBOUR_SLICES = 24

#: One slice: seconds of the Python half and of the NumPy half.
Slice = Tuple[float, float]


def spin_slice() -> Slice:
    """Run the calibration kernel once."""
    table = {}
    x = 0
    t0 = perf_counter()
    for i in range(PYTHON_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
        table[x & 1023] = i
    t1 = perf_counter()
    for _ in range(NUMPY_ITERATIONS):
        strided = _COLUMN[::7] * 3
        order = np.argsort(strided[:5000], kind="stable")
        strided[:5000][order] > 100
    return t1 - t0, perf_counter() - t1


def spin(n: int = NEIGHBOUR_SLICES) -> List[Slice]:
    return [spin_slice() for _ in range(n)]


def slowness(slices: Sequence[Slice], numpy_weight: float) -> List[float]:
    """Per slice: how much slower than the reference machine (1.0 = as
    fast), mixing the two halves by ``numpy_weight``."""
    return [(1.0 - numpy_weight) * py / PYTHON_REF_S
            + numpy_weight * nps / NUMPY_REF_S for py, nps in slices]


def factor(slices: Sequence[Slice], numpy_weight: float) -> float:
    """Calibrated seconds per wall second, from slices taken during (or
    on both sides of) the region."""
    return 1.0 / statistics.fmean(slowness(slices, numpy_weight))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    k = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[k]
