"""Host-speed calibration for timings on a shared machine.

On a shared two-core host the speed available to one process drifts by
up to 1.8x over seconds to minutes, a drift that a 30-second run cannot
average out.  A fixed calibration kernel, timed right before every op,
tracks that drift: an op's time divided by the local calibration time
repeats from run to run where the raw time does not.  Timings are
reported as that ratio times the kernel's reference time, i.e. in
seconds at the host speed where the kernel takes its reference time
(its median on this host type in its fast state, a 2-core Intel Xeon
with a 105 MiB L3).

The kernel mixes the kinds of work the package does: interpreter-bound
Python, numpy calls on small arrays and a vectorised complex exponential
always, plus a LAPACK tridiagonal eigensolve for workloads dominated by
large-array work, whose slow-downs the first part alone does not track.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.linalg

BASE_REFERENCE_S = 1.15e-3
LAPACK_REFERENCE_S = 4.45e-3
_GRID = np.linspace(0.0, 1.0, 20000)
_DIAG = np.linspace(1.0, 2.0, 300)
_OFF = np.full(299, 0.5)


def _base_kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1500):
        table[i & 63] = table.get(i & 63, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0)
    a = np.arange(64.0)
    for _ in range(60):
        a = np.exp(-a * 1e-3) + a * 0.5
    return acc + float(a[-1]) + float(np.exp(-3j * _GRID).sum().real)


def reference_s(lapack: bool) -> float:
    """Reference time of the kernel, with or without its LAPACK part."""
    return BASE_REFERENCE_S + (LAPACK_REFERENCE_S if lapack else 0.0)


def calibrate(lapack: bool) -> float:
    """Seconds the calibration kernel takes now."""
    start = time.perf_counter()
    _base_kernel()
    if lapack:
        scipy.linalg.eigh_tridiagonal(_DIAG, _OFF)
    return time.perf_counter() - start


def normalize(times: list[float], calibrations: list[float], lapack: bool) -> list[float]:
    """Each time scaled by the kernel's reference time over the median
    of the calibrations taken before it and its two neighbours."""
    n = len(calibrations)
    local = [statistics.median(calibrations[max(0, k - 1):k + 2]) for k in range(n)]
    return [t * reference_s(lapack) / c for t, c in zip(times, local)]
