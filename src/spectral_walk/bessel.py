"""Bessel J_1, evaluated in-repo.

The closed-form return amplitude on the uniform chain, f_00(t) =
2 J_1(t)/t, needs J_1; keeping it local lets the test suite use
scipy.special as an untouched oracle.  Small arguments use the defining
alternating series; larger ones use Miller's downward recurrence with
the normalization

    J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.

Relative error stays below 1e-10 for |x| <= 50.  Both run over whole
arrays with numpy, each element with its own term count or start index
and the same stopping rule, so every value is the double an
element-by-element loop gives.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["bessel_j1"]

_SERIES_CUTOFF_J = 1.0
_RESCALE = 1e250
_ARG_LIMIT = 2.0 ** 53


def _j1_series(x: np.ndarray) -> np.ndarray:
    # J_1(x) = (x/2) sum_m (-1)^m (x^2/4)^m / (m! (m+1)!); each element
    # stops adding terms at its own m
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, 30):
        term = np.where(active, term * (-q / (m * (m + 1))), term)
        total = np.where(active, total + term, total)
        active &= ~(np.abs(term) < 1e-18 * np.abs(total) + 1e-300)
        if not active.any():
            break
    return total


def _j1_miller(x: np.ndarray) -> np.ndarray:
    # each element runs the downward recurrence from its own start index
    # k0 = 2 (floor(0.65 |x| + 20) + 1); sorted by k0, the elements still
    # recurring at step k are a prefix.  Every k0 is even, so the parity
    # tests below hold for all of them at once.
    ax = np.abs(x)
    k0 = 2 * ((ax * 0.65 + 20).astype(np.int64) + 1)
    order = np.argsort(-k0, kind="stable")
    ax, k0 = ax[order], k0[order]
    nxt = np.zeros(ax.shape)
    cur = np.full(ax.shape, 1e-30)
    norm = np.zeros(ax.shape)
    j1 = np.zeros(ax.shape)
    starts, live = k0.tolist(), 0
    for k in range(starts[0], 0, -1):
        while live < len(starts) and starts[live] >= k:
            live += 1
        prev = (2.0 * k / ax[:live]) * cur[:live] - nxt[:live]
        nxt[:live] = cur[:live]
        cur[:live] = prev
        if k - 1 == 1:
            j1[:live] = prev
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm[:live] += prev
        big = np.abs(prev) > _RESCALE
        if big.any():
            for arr in (cur, nxt, norm, j1):
                arr[:live][big] /= _RESCALE
    norm = 2.0 * norm + cur  # cur now holds the J_0 iterate
    val = np.empty_like(j1)
    val[order] = j1 / norm
    return np.where(x < 0, -val, val)


def bessel_j1(t):
    """Bessel function of the first kind, order 1 (scalar or array)."""
    x = np.asarray(t, dtype=float)
    flat = np.atleast_1d(x).ravel()
    # the recurrence starts near 0.65 |x|: an integer only while |x| < 2**53
    if not (np.abs(flat) < _ARG_LIMIT).all():
        raise DomainError("bessel_j1 needs finite arguments with |x| < 2**53")
    out = np.empty_like(flat)
    small = np.abs(flat) <= _SERIES_CUTOFF_J
    if small.any():
        out[small] = _j1_series(flat[small])
    if not small.all():
        out[~small] = _j1_miller(flat[~small])
    return float(out[0]) if x.shape == () else out.reshape(x.shape)
