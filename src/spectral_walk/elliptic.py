"""Complete elliptic integrals and Jacobi cn/dn via the AGM.

K(k) comes from the arithmetic-geometric mean: K = pi / (2 AGM(1, k')),
converging quadratically.  cn and dn come from the descending Landen
transformation seeded by the same AGM scales: the amplitude
phi_N = 2^N a_N z is folded back through

    phi_{n-1} = (phi_n + arcsin((c_n / a_n) sin phi_n)) / 2,

after which cn z = cos phi_0 and dn z = sqrt(1 - k^2 sin^2 phi_0).
Arguments are reduced modulo the 4K period first, so the phase stays
small enough for full double accuracy (target 1e-12 relative over the
modulus range 0.1 <= k <= 0.9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["EllipticContext", "elliptic_context", "jacobi_cn_dn"]

_AGM_TOL = 1e-16
_AGM_MAX_ITER = 40
_SMALL_MODULUS = 1e-5


def _agm(a: float, b: float) -> float:
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class EllipticContext:
    """Modulus k with its complete integrals and nome.

    K = K(k), Kprime = K(k') for the complementary modulus
    k' = sqrt(1 - k^2), and q = exp(-pi K'/K) in (0, 1).
    """

    k: float
    K: float
    Kprime: float
    q: float

    @property
    def k_prime(self) -> float:
        return math.sqrt(1.0 - self.k * self.k)


def elliptic_context(k: float) -> EllipticContext:
    """Compute K, K' and the nome for a modulus in (0, 1)."""
    k = float(k)
    if not 0.0 < k < 1.0:
        raise DomainError(f"modulus k = {k} outside (0, 1)")
    kp = math.sqrt(1.0 - k * k)
    big_k = math.pi / (2.0 * _agm(1.0, kp))
    big_kp = math.pi / (2.0 * _agm(1.0, k))
    q = math.exp(-math.pi * big_kp / big_k)
    return EllipticContext(k=k, K=big_k, Kprime=big_kp, q=q)


def jacobi_cn_dn(z, context: EllipticContext):
    """cn(z; k) and dn(z; k) for real z (scalar or array).

    cn has period 4K, dn period 2K; both are evaluated after reduction
    modulo 4K.  Moduli below 1e-5 switch to the k^2 perturbation of
    cos/1 (the Landen phase fold degenerates there).  A NaN or infinite
    z raises DomainError.
    """
    k = context.k
    z_arr = np.asarray(z, dtype=float)
    flat = np.atleast_1d(z_arr).ravel()
    if not np.isfinite(flat).all():
        raise DomainError("jacobi_cn_dn needs finite arguments")
    if k < _SMALL_MODULUS:
        s, c = np.sin(flat), np.cos(flat)
        cn = c + 0.25 * k * k * (flat - s * c) * s
        dn = 1.0 - 0.5 * k * k * s * s
    else:
        period = 4.0 * context.K
        u = flat - period * np.floor(flat / period)
        a, b, c = 1.0, context.k_prime, k
        scales = []
        for _ in range(_AGM_MAX_ITER):
            scales.append((a, c))
            if abs(c) <= _AGM_TOL * a:
                break
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        phi = a * 2.0 ** (len(scales) - 1) * u
        for a_n, c_n in reversed(scales[1:]):
            phi = 0.5 * (phi + np.arcsin(np.clip((c_n / a_n) * np.sin(phi), -1.0, 1.0)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(1.0 - (k * sn) * (k * sn))
    if z_arr.shape == ():
        return float(cn[0]), float(dn[0])
    return cn.reshape(z_arr.shape), dn.reshape(z_arr.shape)
