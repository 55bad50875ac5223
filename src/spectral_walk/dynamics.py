"""Transition probabilities and quantum amplitudes from spectral data.

Both evolutions are read off the orthogonality measure of the
symmetrized operator J = -U A U^{-1}:

    P_ij(t) = (-1)^{i+j} (pi_j/pi_i)^{1/2} sum_s M_s e^{-x_s t} chi_i(x_s) chi_j(x_s),
    f_ij(t) = sum_s M_s chi_i(x_s) chi_j(x_s) e^{-i x_s t},

with integrals against a continuous part handled by the measure's
quadrature rule through the same nodes-and-weights interface.  The
classical formula is often quoted without the alternating sign; with the
measure of J (rather than of -A conjugated without signs) the sign
factor is required for P >= 0, and the oracle cross-check below pins it.

Both, and the characteristic function of return_analysis, are one sum
sum_s c_s e^{z x_s t} with a different coefficient table c_s and
exponent factor z; :func:`_spectral_sum` is that sum.  The coefficient
table c_s = w_s chi_i(x_s) chi_j(x_s) is computed once per (i, j); each
time point is then an O(S) reduction.  By Cauchy-Schwarz |c_s| <= 1 for
a normalized measure, so the scaled polynomial recurrence can recombine
products without overflow.

The measure and the potential coefficients pi belong to the chain, not
to the entry (i, j): :func:`classical_transition` checks that a measure
was built from its rates, and computes pi over all of the measure's
sites, once per (measure, rates) pair.  Only the last pair is
remembered, by identity and through weak references, so neither object
is kept alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .jacobi_core import (BirthDeathRates, GeneratorMatrix, JacobiOperator, PiCoefficients,
                          pi_coefficients, symmetrize)
from .errors import DomainError, NumericError, UsageError
from .spectral import SpectralMeasure, chi_table_scaled

__all__ = [
    "ProbabilitySeries",
    "AmplitudeSeries",
    "classical_transition",
    "quantum_amplitude",
    "oracle_expm",
    "series_csv",
    "series_filename",
]

_ORACLE_SIZE_CAP = 512
_ORACLE_TIME_CAP = 1e3

# (weakref to measure, weakref to rates, pi) of the last pair _bind checked;
# one tuple, read and replaced whole, so concurrent callers never pair one
# chain's objects with another chain's pi
_last_bound = None


@dataclass(frozen=True)
class ProbabilitySeries:
    """Classical transition probabilities P_ij on a time grid."""

    i: int
    j: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape:
            raise UsageError("times and values differ in shape")
        # catches sign/prefactor bugs (order-1 excursions), while leaving
        # room for tail leakage of truncated exact measures, which enters
        # as tail mass amplified by chi_i chi_j at the dropped atoms
        if v.size and (v.min() < -1e-6 or v.max() > 1 + 1e-6):
            raise NumericError(
                f"probability outside [0,1] beyond truncation leakage: range "
                f"[{v.min()}, {v.max()}] for P_{self.i}{self.j}"
            )


@dataclass(frozen=True)
class AmplitudeSeries:
    """Quantum transition amplitudes f_ij on a time grid."""

    i: int
    j: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape:
            raise UsageError("times and values differ in shape")


def _chi_product_coefficients(measure: SpectralMeasure, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_s and coefficients c_s = w_s chi_i(x_s) chi_j(x_s).

    Eigendecomposed measures carry the orthonormal table W, and there
    c_s = W[i, s] W[j, s]; this keeps the sum-rule identities (rows of
    P, unitarity) at eigensolver accuracy even for chains whose chi
    recurrence is unstable at edge nodes.
    """
    if i < 0 or j < 0:
        raise UsageError(f"site indices ({i}, {j}) must be nonnegative")
    if measure.weighted_chi is not None and measure.quad_points is None:
        table = measure.weighted_chi
        if not (i < table.shape[0] and j < table.shape[0]):
            raise UsageError(
                f"site indices ({i}, {j}) beyond operator size {table.shape[0]}")
        return measure.points, table[i] * table[j]
    x, w = measure.nodes_and_weights()
    mant, expo = chi_table_scaled(measure.jacobi, max(i, j), x)
    coeff = np.ldexp(w * mant[i] * mant[j],
                     (expo[i] + expo[j]).astype(np.int32, copy=False))
    return x, coeff


def _spectral_sum(x, coeff, times, z):
    """values[k] = sum_s coeff[s] * exp(z * x[s] * times[k]), shaped like times.

    Each time point is reduced by numpy's pairwise sum over the fixed
    spectral axis, never a shape-dependent matmul, so the value at a
    given t does not depend on the rest of the grid and output is
    bitwise reproducible.

    The output is allocated before the (T, S) temporaries: a result
    allocated after them can land above them on the heap and keep the
    allocator from returning their memory (measured: +3 MB peak RSS on
    the long-grid benchmark).
    """
    times = np.asarray(times, dtype=float)
    flat = np.atleast_1d(times).ravel()
    out = np.empty(flat.shape, dtype=np.result_type(coeff, z))
    terms = coeff * np.exp(z * x[None, :] * flat[:, None])
    np.add.reduce(terms, axis=1, out=out)
    return out.reshape(times.shape)


def _check_provenance(measure: SpectralMeasure, rates: BirthDeathRates) -> None:
    """The measure must come from the symmetrization of these rates
    (either boundary convention), else the pi-prefactor formula is
    silently wrong; reject early instead."""
    j_op = measure.jacobi
    n = j_op.size - 1
    try:
        candidates = [symmetrize(rates, n, boundary=bnd)
                      for bnd in ("reflecting", "absorbing-tail")]
    except (UsageError, DomainError) as exc:
        raise UsageError(
            f"rates do not extend to the measure's {n + 1}-site operator: {exc}") from exc
    scale = max(1.0, float(np.max(np.abs(j_op.b))))
    for cand in candidates:
        if (np.allclose(cand.b, j_op.b, rtol=1e-12, atol=1e-13 * scale)
                and np.allclose(cand.j, j_op.j, rtol=1e-12, atol=1e-13 * scale)):
            return
    raise UsageError(
        "measure was not built from these rates: symmetrized operator "
        "disagrees beyond roundoff (provenance mismatch)"
    )


def _bind(measure: SpectralMeasure, rates: BirthDeathRates) -> PiCoefficients:
    """pi_0..pi_n of the rates over the measure's n + 1 sites, after
    checking once per (measure, rates) pair that the measure came from
    the rates.

    A repeated pair is recognized by identity (both objects are frozen),
    through weak references: a strong one would keep a big measure and
    its N x N eigenvector table alive.  The prefixes of pi do not depend
    on n (log_values is a cumsum), so any entry equals the one a shorter
    pi_coefficients call gives.
    """
    global _last_bound
    if _last_bound is not None:
        measure_ref, rates_ref, pi = _last_bound
        if measure_ref() is measure and rates_ref() is rates:
            return pi
    _check_provenance(measure, rates)
    pi = pi_coefficients(rates, measure.jacobi.size - 1)
    _last_bound = (weakref.ref(measure), weakref.ref(rates), pi)
    return pi


def classical_transition(measure: SpectralMeasure, rates: BirthDeathRates,
                         i: int, j: int, times) -> ProbabilitySeries:
    """P_ij(t) over a time grid via the spectral representation.

    Parameters
    ----------
    measure : SpectralMeasure
        Orthogonality measure of ``symmetrize(rates)``; provenance is
        checked once per (measure, rates) pair and a mismatch raises
        UsageError.  The pair is remembered through weak references, so
        neither object is kept alive.
    rates : BirthDeathRates
        Supplies the potential coefficients pi for the prefactor.
    i, j : int
        Sites, within the truncated operator.
    times : array_like
        Nonnegative time grid.
    """
    times_arr = np.asarray(times, dtype=float)
    if np.any(times_arr < 0):
        raise UsageError("classical evolution needs t >= 0")
    pi = _bind(measure, rates)
    x, coeff = _chi_product_coefficients(measure, i, j)
    prefactor = ((-1.0) ** ((i + j) % 2)) * pi.sqrt_ratio(j, i)
    vals = _spectral_sum(x, coeff, times_arr, -1.0)
    return ProbabilitySeries(i=i, j=j, times=times_arr, values=prefactor * vals)


def quantum_amplitude(measure: SpectralMeasure, i: int, j: int, times) -> AmplitudeSeries:
    """f_ij(t) = <i| exp(-iJt) |j> over a time grid.

    The sign convention is f(t) = exp(-iJt), so the spectral kernel is
    e^{-i x t} and f_ij(-t) = conj(f_ij(t)).
    """
    x, coeff = _chi_product_coefficients(measure, i, j)
    return AmplitudeSeries(i=i, j=j, times=times, values=_spectral_sum(x, coeff, times, -1j))


def oracle_expm(operator, t: float, kind: str | None = None) -> np.ndarray:
    """Dense reference evolution, independent of the spectral path.

    GeneratorMatrix -> exp(t A) by scaling-and-squaring;
    JacobiOperator -> exp(-i J t) by dense symmetric eigendecomposition.
    A raw square ndarray needs an explicit ``kind`` of "classical" or
    "quantum".  Accuracy target 1e-12 at sizes <= 32; sizes above 512 or
    |t| > 1e3 are refused rather than returned inaccurate.
    """
    if isinstance(operator, GeneratorMatrix):
        mat, inferred = operator.dense(), "classical"
    elif isinstance(operator, JacobiOperator):
        mat, inferred = operator.dense(), "quantum"
    else:
        mat = np.asarray(operator, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise UsageError(f"oracle needs a square matrix, got shape {mat.shape}")
        if kind is None:
            raise UsageError('raw matrices need kind="classical" or kind="quantum"')
        inferred = None
    kind = kind or inferred
    if kind not in ("classical", "quantum"):
        raise UsageError(f"unknown oracle kind {kind!r}")
    if mat.shape[0] > _ORACLE_SIZE_CAP:
        raise UsageError(f"oracle size {mat.shape[0]} above cap {_ORACLE_SIZE_CAP}")
    if abs(t) > _ORACLE_TIME_CAP:
        raise UsageError(f"oracle |t| = {abs(t)} above cap {_ORACLE_TIME_CAP}")
    if kind == "classical":
        return scipy.linalg.expm(mat * float(t))
    if not np.allclose(mat, mat.T, rtol=0, atol=1e-12):
        raise UsageError("quantum oracle needs a symmetric matrix")
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * vals * float(t))) @ vecs.T


def series_filename(series) -> str:
    tag = "f" if isinstance(series, AmplitudeSeries) else "p"
    return f"{tag}_{series.i}_{series.j}.csv"


def series_csv(series) -> str:
    """CSV text for one series: `t,p` or `t,re,im,abs`, 17 significant
    digits (round-trip exact for doubles), header always present."""
    lines = []
    if isinstance(series, AmplitudeSeries):
        lines.append("t,re,im,abs")
        for t, v in zip(np.atleast_1d(series.times), np.atleast_1d(series.values)):
            lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    else:
        lines.append("t,p")
        for t, v in zip(np.atleast_1d(series.times), np.atleast_1d(series.values)):
            lines.append(f"{t:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
