"""Bessel J_1 for the uniform chain's closed form f_00(t) = 2 J_1(t)/t.

The values come from ``scipy.special.j1`` (Cephes).  Against mpmath its
relative error stays below 2e-13 for |x| <= 50; its absolute error is at
most 1e-15 up to |x| = 1e3, 6e-13 up to 1e9 and 2e-11 up to 1e12.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["bessel_j1"]

_ARG_LIMIT = 2.0 ** 53


def bessel_j1(t):
    """Bessel function of the first kind, order 1 (scalar or array)."""
    # imported here: no CLI command needs it, and it slows their start
    import scipy.special

    x = np.asarray(t, dtype=float)
    # short of 2**53 the absolute error already nears 1e-9 (9e-10 at
    # 1e12..1e15); beyond it neighbouring doubles are 2 or more apart
    if not (np.abs(x) < _ARG_LIMIT).all():
        raise DomainError("bessel_j1 needs finite arguments with |x| < 2**53")
    out = scipy.special.j1(x)
    return float(out) if x.shape == () else out
