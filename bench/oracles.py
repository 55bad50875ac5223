"""Reference values the benchmark checks the program's outputs against.

Everything here uses numpy and scipy only, never spectral_walk, so a
defect in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.special


def jacobi_of_rates(lam: np.ndarray, mu: np.ndarray):
    """Diagonal and couplings of the symmetrized operator of a finite
    chain; ``lam`` has one entry per site, the last one 0."""
    return lam + mu, np.sqrt(lam[:-1] * mu[1:])


def generator_dense(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Dense generator A with rows summing to -mu_0 * delta_i0."""
    return np.diag(-(lam + mu)) + np.diag(lam[:-1], 1) + np.diag(mu[1:], -1)


def transition_expm(lam, mu, times) -> np.ndarray:
    """P(t) = exp(tA) for each t, shape (n, n, len(times))."""
    a = generator_dense(lam, mu)
    return np.stack([scipy.linalg.expm(a * t) for t in times], axis=-1)


def unitary_dense(b, j, times) -> np.ndarray:
    """f(t) = exp(-iJt) by dense symmetric eigendecomposition,
    shape (n, n, len(times))."""
    dense = np.diag(b) + np.diag(j, 1) + np.diag(j, -1)
    vals, vecs = np.linalg.eigh(dense)
    return np.stack([(vecs * np.exp(-1j * vals * t)) @ vecs.T for t in times], axis=-1)


# Rows of large chains are computed on the sites within WINDOW of the
# source.  Reaching a site d away takes d jumps, and for rates <= 1.5 the
# jump (off-diagonal) part of the generator and of J has norm <= 3, so
# up to t = 5 the weight of paths leaving the window is below
# sum_{k >= WINDOW} 15^k / k! < 1e-24.
WINDOW = 80


def _grid_action(diagonals, i: int, t_max: float, steps: int) -> np.ndarray:
    """exp(t op) e_i at ``steps`` equispaced t in [0, t_max] for the
    tridiagonal op given as (sub, diag, super) over all sites: one dense
    scaling-and-squaring exp of op on the window around i for the grid
    step, applied repeatedly (no eigensolve).  Zero outside the window;
    shape (steps, n)."""
    sub, diag, sup = diagonals
    n = len(diag)
    lo, hi = max(0, i - WINDOW), min(n, i + WINDOW + 1)
    op = np.diag(diag[lo:hi]) + np.diag(sub[lo:hi - 1], -1) + np.diag(sup[lo:hi - 1], 1)
    step = scipy.linalg.expm(op * (t_max / (steps - 1)))
    v = np.zeros(hi - lo, dtype=step.dtype)
    v[i - lo] = 1.0
    rows = np.zeros((steps, n), dtype=step.dtype)
    for k in range(steps):
        rows[k, lo:hi] = v
        v = step @ v
    return rows


def transition_row(lam, mu, i: int, t_max: float, steps: int) -> np.ndarray:
    """Row i of P(t) on the grid: P(t)[i, :] = (exp(t A^T) e_i)^T."""
    return _grid_action((lam[:-1], -(lam + mu), mu[1:]), i, t_max, steps)


def amplitude_row(b, j, i: int, t_max: float, steps: int) -> np.ndarray:
    """Row i of f(t) = exp(-iJt) on the grid (J is symmetric)."""
    return _grid_action((-1j * j, -1j * b.astype(complex), -1j * j), i, t_max, steps)


def uniform_finite_amplitude(sites: int, i: int, js, times) -> np.ndarray:
    """f_ij(t) on the constant-coupling-1/2 chain of ``sites`` sites from
    its sine eigenvectors, shape (len(js), len(times))."""
    k = np.arange(1, sites + 1)
    angle = np.pi / (sites + 1)
    energies = np.cos(k * angle)
    norm = 2.0 / (sites + 1)
    v_i = np.sin(angle * k * (i + 1))
    phases = np.exp(-1j * np.outer(energies, times))
    return np.stack([(norm * v_i * np.sin(angle * k * (jj + 1))) @ phases for jj in js])


def uniform_continuous_amplitude(j: int, times) -> np.ndarray:
    """f_0j(t) = 2 (-i)^j (j+1) J_{j+1}(t) / t on the semi-infinite
    constant-coupling chain (Chebyshev-U measure)."""
    t = np.asarray(times, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    small = t == 0.0
    out[small] = 1.0 if j == 0 else 0.0
    ts = t[~small]
    out[~small] = 2.0 * (-1j) ** j * (j + 1) * scipy.special.jv(j + 1, ts) / ts
    return out


def uniform_continuous_return(i: int, times) -> np.ndarray:
    """f_ii(t) on the same chain: U_i^2 = sum_{k<=i} U_{2k}, so
    f_ii = sum_{k<=i} f_{0,2k}."""
    return sum(uniform_continuous_amplitude(2 * k, times) for k in range(i + 1))


def stieltjes_carlitz_amplitudes(variant: str, k: float, times):
    """(f_00, f_01) of the Stieltjes-Carlitz chain: cn and -i sn dn for
    variant C (J_1 = 1), dn and -i k sn cn for variant D (J_1 = k); the
    second follows from i d/dt f_00 = J_1 f_01."""
    sn, cn, dn, _ = scipy.special.ellipj(np.asarray(times, dtype=float), k * k)
    if variant == "C":
        return cn.astype(complex), -1j * sn * dn
    return dn.astype(complex), -1j * k * sn * cn


def stieltjes_carlitz_period(k: float) -> float:
    """Return period 2K(k) of either Stieltjes-Carlitz variant."""
    return 2.0 * float(scipy.special.ellipk(k * k))


def meixner_amplitude(beta: float, c: float, j: int, times) -> np.ndarray:
    """f_0j(t) of the Meixner chain lambda_i = c(i+beta)/(1-c),
    mu_i = i/(1-c).

    The chain is a linear birth-death process with immigration, so from
    site 0 its law at time s is negative binomial with
    p(s) = c(1 - e^{-s}) / (1 - c e^{-s}).  Continuing P_0j(s) to s = it
    and undoing the symmetrization gives
    f_0j = (-1)^j pi_j^{-1/2} P_0j(it) with pi_j = c^j (beta)_j / j!.
    """
    z = np.exp(-1j * np.asarray(times, dtype=float))
    one_minus_p = (1.0 - c) / (1.0 - c * z)
    p = c * (1.0 - z) / (1.0 - c * z)
    log_binom = scipy.special.gammaln(beta + j) - scipy.special.gammaln(beta) \
        - scipy.special.gammaln(j + 1.0)
    scale = (-1.0) ** j * np.exp(0.5 * log_binom - 0.5 * j * np.log(c))
    return scale * p**j * one_minus_p**beta


def meixner_characteristic(beta: float, c: float, times) -> np.ndarray:
    """F(t) = sum_s M_s e^{ist} of the negative-binomial measure."""
    return ((1.0 - c) / (1.0 - c * np.exp(1j * np.asarray(times, dtype=float)))) ** beta


def pst_amplitude(sites: int, j: int, times) -> np.ndarray:
    """f_0j(t) of the chain J_i = sqrt(i (n - i)) / 2: the chain is the
    spin-(n-1)/2 operator S_x, so
    f_0j = sqrt(C(n-1, j)) cos(t/2)^(n-1-j) (-i sin(t/2))^j,
    evaluated with the modulus in log space."""
    half = 0.5 * np.asarray(times, dtype=float)
    m = sites - 1
    cos_h, sin_h = np.cos(half), np.sin(half)
    log_binom = 0.5 * (scipy.special.gammaln(m + 1.0) - scipy.special.gammaln(j + 1.0)
                       - scipy.special.gammaln(m - j + 1.0))
    with np.errstate(divide="ignore"):
        log_mod = (log_binom + (m - j) * np.log(np.abs(cos_h)) if m > j else log_binom) \
            + (j * np.log(np.abs(sin_h)) if j else 0.0)
    sign = np.sign(cos_h) ** (m - j) * np.sign(sin_h) ** j
    return sign * np.exp(log_mod) * (-1j) ** j
