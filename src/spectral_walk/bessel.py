"""Bessel J_1 for the uniform chain's closed form f_00(t) = 2 J_1(t)/t.

The values come from ``scipy.special.j1`` (Cephes).  Against mpmath its
relative error stays below 2e-13 for |x| <= 50; its absolute error is at
most 1e-15 up to |x| = 1e3 and 6e-13 up to 1e9.  The domain ends there:
beyond it the error grows, to 2e-11 up to 1e12 and 9e-10 from 1e12 to
1e15, so |x| > 1e9 raises DomainError.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["bessel_j1"]

# largest |x| accepted: the absolute error stays at most 6e-13 up to it
_ARG_LIMIT = 1e9


def bessel_j1(t):
    """Bessel function of the first kind, order 1 (scalar or array)."""
    # imported here: no CLI command needs it, and it slows their start
    import scipy.special

    x = np.asarray(t, dtype=float)
    if not (np.abs(x) <= _ARG_LIMIT).all():
        raise DomainError("bessel_j1 needs finite arguments with |x| <= 1e9")
    out = scipy.special.j1(x)
    return float(out) if x.shape == () else out
