"""Birth-death rate sequences and their tridiagonal operators.

A birth-death process on the nonnegative integers is defined by birth
rates lambda_i > 0 and death rates mu_i (mu_0 >= 0, mu_{i+1} > 0).  Its
generator A is tridiagonal with rows summing to -mu_0 <= 0.  The diagonal
similarity U = diag((-1)^i pi_i^{1/2}) built from the potential
coefficients

    pi_0 = 1,   pi_{i+1} = pi_i * lambda_i / mu_{i+1}

turns -A into a symmetric Jacobi matrix J with

    B_i = lambda_i + mu_i,      J_i = sqrt(lambda_{i-1} * mu_i),

which is also the one-excitation restriction of an XX spin-chain
Hamiltonian with couplings J_i and local fields B_i.  This module holds
those data types and the maps between them; everything is immutable and
all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, UsageError, _check_sites, _integer

__all__ = [
    "BirthDeathRates",
    "GeneratorMatrix",
    "JacobiOperator",
    "PiCoefficients",
    "symmetrize",
    "pi_coefficients",
    "generator",
]

BOUNDARIES = ("reflecting", "absorbing-tail")


@dataclass(frozen=True)
class BirthDeathRates:
    """Birth and death rate sequences, evaluated lazily.

    Parameters
    ----------
    lam, mu : callable int -> float
        Rate closures.  ``lam(i)`` is the birth rate at site i, ``mu(i)``
        the death rate.  Closures keep semi-infinite families free of
        precomputed arrays.
    n_sites : int or None
        Number of sites of a finite chain, or None for a semi-infinite
        one.  A finite chain has ``lam(n_sites - 1) == 0``.

    Notes
    -----
    Validity (checked by :meth:`validate`): lam(i) > 0 for every
    represented i except the last site of a finite chain, where it is 0,
    mu(i) > 0 for i >= 1, mu(0) >= 0, and every rate finite.

    Every read of the rates (validate, symmetrize, generator,
    pi_coefficients and the provenance check of the dynamics) calls each
    closure once per site, in site order, lam(i) before mu(i), and stops
    at the first invalid rate, so no closure is called past it.  The
    closures should be pure: a read does not cache their values.
    """

    lam: Callable[[int], float]
    mu: Callable[[int], float]
    n_sites: int | None = None

    @classmethod
    def from_arrays(cls, lambdas: Sequence[float], mus: Sequence[float]) -> "BirthDeathRates":
        """Build a finite chain from per-site rate arrays.

        ``mus`` has one entry per site (mus[0] = mu_0 >= 0).  ``lambdas``
        may either match that length, in which case the last entry must
        be 0, or be one entry shorter (the implicit trailing 0 of a
        finite chain).
        """
        mus = [float(m) for m in mus]
        lambdas = [float(l) for l in lambdas]
        n = len(mus)
        if n == 0:
            raise DomainError("empty rate arrays")
        if len(lambdas) == n - 1:
            lambdas.append(0.0)
        elif len(lambdas) != n:
            raise DomainError(
                f"lambdas has length {len(lambdas)}, expected {n} or {n - 1} "
                f"to match {n} sites"
            )
        rates = cls(lam=lambda i: lambdas[i], mu=lambda i: mus[i], n_sites=n)
        rates.validate(n - 1)
        return rates

    def validate(self, n: int) -> None:
        """Check the rates of sites 0..n; raise DomainError naming the
        first invalid rate (UsageError if n is not a site).  One read of
        the rates, as described in the class notes."""
        _gather(self, n, "absorbing-tail")

    def truncation_order(self, n: int | None) -> int:
        """Resolve a requested truncation order against the chain length.

        None means the last site of a finite chain.  This is the one
        place an order is checked: one that is not an integer, is
        negative or is not a site of a finite chain raises UsageError.
        """
        if n is None:
            if self.n_sites is None:
                raise UsageError("semi-infinite chain needs an explicit truncation order")
            return self.n_sites - 1
        n = _integer("n", n)
        if n < 0:
            raise UsageError(f"truncation order {n} is negative")
        if self.n_sites is not None and n >= self.n_sites:
            raise UsageError(f"site index {n} beyond finite chain of {self.n_sites} sites")
        return n


@dataclass(frozen=True)
class GeneratorMatrix:
    """Tridiagonal generator A of the classical process on sites 0..N.

    diag[i] = -(lambda_i + mu_i), super[i] = lambda_i, sub[i] = mu_{i+1}.
    With the reflecting boundary the last diagonal entry is -mu_N, so
    every row sums to -mu_0 * delta_{i0} ... i.e. to zero except possibly
    row 0 (killing at rate mu_0).
    """

    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray

    @property
    def size(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.sup, 1)
        a += np.diag(self.sub, -1)
        return a


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal operator: finite diagonal b, finite positive couplings j.

    ``b[i]`` sits at position (i, i); ``j[i-1]`` couples sites i-1 and i
    (the coupling indexed J_i in three-term recurrence conventions, with
    J_0 = 0 implicitly: semi-infinite boundary).
    """

    b: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        j = np.asarray(self.j, dtype=float)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "j", j)
        if len(j) != len(b) - 1:
            raise UsageError(f"need {len(b) - 1} couplings for {len(b)} sites, got {len(j)}")
        if not np.isfinite(b).all():
            k = int(np.argmin(np.isfinite(b)))
            raise UsageError(f"diagonal entry b[{k}] = {b[k]} is not finite")
        if not np.isfinite(j).all():
            k = int(np.argmin(np.isfinite(j)))
            raise UsageError(f"coupling j[{k + 1}] = {j[k]} is not finite")
        if len(j) and not (j > 0).all():
            k = int(np.argmin(j > 0))
            raise DomainError(f"coupling j[{k + 1}] = {j[k]} is not positive")
        b.setflags(write=False)
        j.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.b)

    def dense(self) -> np.ndarray:
        m = np.diag(self.b)
        m += np.diag(self.j, 1)
        m += np.diag(self.j, -1)
        return m


@dataclass(frozen=True)
class PiCoefficients:
    """Potential coefficients pi_i, stored in log space.

    ``log_values[i]`` is log pi_i.  Take ratios from differences of
    log_values, sqrt(pi_i / pi_k) = exp((log_values[i] - log_values[k]) / 2),
    rather than forming pi_i, which overflows around i ~ 150 for growing
    chains.
    """

    log_values: np.ndarray

    def __post_init__(self):
        self.log_values.setflags(write=False)

    def value(self, i: int) -> float:
        """pi_i (inf past the double range); an i that is not a site
        (2.7, "1", None, -1, n + 1) raises UsageError naming it."""
        i = _integer("i", i)
        _check_sites(self.log_values.size, i)
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_values[i]))


def _gather(rates: BirthDeathRates, n: int | None, boundary: str):
    """Validated (lambda, mu) arrays for sites 0..n under a truncation rule.

    The one reader of a chain's rates: n is resolved by
    BirthDeathRates.truncation_order, then lam(i) and mu(i) are each
    called once per site, in site order, and checked as they are read;
    the first invalid rate raises DomainError naming it, and no closure
    is called past it.  "reflecting" then sets lambda_n to 0.
    """
    n = rates.truncation_order(n)
    if boundary not in BOUNDARIES:
        raise UsageError(f"unknown boundary {boundary!r}, expected one of {BOUNDARIES}")
    lam, mu = [0.0] * (n + 1), [0.0] * (n + 1)
    lam_of, mu_of, size = rates.lam, rates.mu, rates.n_sites
    for i in range(n + 1):
        lam[i] = lam_i = float(lam_of(i))
        if i + 1 == size:
            if lam_i != 0.0:
                raise DomainError(f"lambda[{i}] = {lam_i}, expected 0 at the last site")
        elif not 0.0 < lam_i < math.inf:
            raise DomainError(f"lambda[{i}] = {lam_i} is not positive and finite")
        mu[i] = mu_i = float(mu_of(i))
        if i == 0:
            if not 0.0 <= mu_i < math.inf:
                raise DomainError(f"mu[0] = {mu_i} is negative or not finite")
        elif not 0.0 < mu_i < math.inf:
            raise DomainError(f"mu[{i}] = {mu_i} is not positive and finite")
    lam, mu = np.array(lam), np.array(mu)
    if boundary == "reflecting":
        lam[n] = 0.0
    return lam, mu


def symmetrize(rates: BirthDeathRates, n: int | None = None,
               boundary: str = "reflecting") -> JacobiOperator:
    """Symmetric Jacobi operator J = -U A U^{-1} of a rate sequence.

    Parameters
    ----------
    rates : BirthDeathRates
    n : int, optional
        Truncation order; J has size n+1.  Defaults to the full chain for
        finite rates, required for semi-infinite ones.
    boundary : {"reflecting", "absorbing-tail"}
        "reflecting" treats lambda_n as 0 so J corresponds exactly to the
        conservative truncated generator; "absorbing-tail" keeps the raw
        diagonal lambda_n + mu_n (the principal submatrix of the
        semi-infinite operator).

    Returns
    -------
    JacobiOperator
        b[i] = lambda_i + mu_i, j[i-1] = sqrt(lambda_{i-1} * mu_i).

    Notes
    -----
    Sign convention: J = -U A U^{-1}, so the classical kernel exp(-x t)
    decays on the (nonnegative) spectrum of J while the quantum evolution
    uses exp(-i J t).
    """
    lam, mu = _gather(rates, n, boundary)
    b = lam + mu
    j = np.sqrt(lam[:-1] * mu[1:])
    return JacobiOperator(b=b, j=j)


def pi_coefficients(rates: BirthDeathRates, n: int | None = None) -> PiCoefficients:
    """Potential coefficients pi_0..pi_n of a rate sequence.

    pi_0 = 1 and pi_{i+1} = pi_i * lambda_i / mu_{i+1}; the values are
    accumulated in log space so the object stays usable far beyond the
    range where the raw products overflow.
    """
    return _pi_of(*_gather(rates, n, "absorbing-tail"))


def _pi_of(lam: np.ndarray, mu: np.ndarray) -> PiCoefficients:
    """pi_0..pi_n from the validated rate arrays of sites 0..n."""
    log_vals = np.zeros(lam.size)
    log_vals[1:] = np.cumsum(np.log(lam[:-1] / mu[1:]))
    return PiCoefficients(log_values=log_vals)


def generator(rates: BirthDeathRates, n: int | None = None,
              boundary: str = "reflecting") -> GeneratorMatrix:
    """Tridiagonal generator A of the classical process on sites 0..n.

    With ``boundary="reflecting"`` the last diagonal entry is -mu_n
    (lambda_n treated as 0), so rows sum to zero and probability is
    conserved on the truncated state space whenever mu_0 = 0.
    """
    lam, mu = _gather(rates, n, boundary)
    return GeneratorMatrix(
        diag=-(lam + mu),
        sup=lam[:-1].copy(),
        sub=mu[1:].copy(),
    )
