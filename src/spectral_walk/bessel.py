"""Bessel J_1, evaluated in-repo.

The closed-form return amplitude on the uniform chain, f_00(t) =
2 J_1(t)/t, needs J_1; keeping it local lets the test suite use
scipy.special as an untouched oracle.  Small arguments use the defining
alternating series; larger ones use Miller's downward recurrence with
the normalization

    J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.

Relative error stays below 1e-10 for |x| <= 50.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_j1"]

_SERIES_CUTOFF_J = 1.0
_RESCALE = 1e250


def _j1_series(x: float) -> float:
    # J_1(x) = (x/2) sum_m (-1)^m (x^2/4)^m / (m! (m+1)!)
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    for m in range(1, 30):
        term *= -q / (m * (m + 1))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return total


def _j1_miller(x: float) -> float:
    ax = abs(x)
    start = 2 * (int(ax * 0.65 + 20) + 1)
    nxt = 0.0
    cur = 1e-30
    norm = 0.0
    j1 = 0.0
    for k in range(start, 0, -1):
        prev = (2.0 * k / ax) * cur - nxt
        nxt, cur = cur, prev
        if k - 1 == 1:
            j1 = cur
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += cur
        if abs(cur) > _RESCALE:
            cur /= _RESCALE
            nxt /= _RESCALE
            norm /= _RESCALE
            j1 /= _RESCALE
    norm = 2.0 * norm + cur  # cur now holds the J_0 iterate
    val = j1 / norm
    return -val if x < 0 else val


def bessel_j1(t):
    """Bessel function of the first kind, order 1 (scalar or array)."""
    x = np.asarray(t, dtype=float)
    flat = np.atleast_1d(x).ravel()
    out = np.empty_like(flat)
    for idx, v in enumerate(flat):
        if abs(v) <= _SERIES_CUTOFF_J:
            out[idx] = _j1_series(v)
        else:
            out[idx] = _j1_miller(v)
    return float(out[0]) if x.shape == () else out.reshape(x.shape)
