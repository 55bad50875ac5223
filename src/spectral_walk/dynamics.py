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
table c_s = w_s chi_i(x_s) chi_j(x_s) is computed for a source i and a
stack of targets j at once; each time point is then an O(S) reduction,
taken in fixed blocks of times that all targets share.  By
Cauchy-Schwarz |c_s| <= 1 for a normalized measure, so the scaled
polynomial recurrence can recombine products without overflow.

Per-entry calls are evaluated by whole rows where a row fits one
kernel block.  When n S T <= 2**14 for n sites, S nodes and T times,
:func:`classical_transition` and :func:`quantum_amplitude` compute the
whole row i and remember the last row of each kind (classical, quantum)
through a weak reference to the measure, so a sweep over j costs one
kernel pass and no measure is kept alive; a larger entry is evaluated
alone and nothing is kept.  A value depends neither on the rest of the
grid, nor on the other targets of its row, nor on the order of calls:
it is the double a call for that entry alone gives.

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
# _spectral_sum: terms per block of the time x node grid
_BLOCK_TERMS = 2 ** 14

# (weakref to measure, weakref to rates, pi) of the last pair _bind checked;
# one tuple, read and replaced whole, so concurrent callers never pair one
# chain's objects with another chain's pi
_last_bound = None
# z -> (weakref to measure, (i, times.shape, times.tobytes()), rows) of the
# last whole row _entry evaluated for that kind; each value is read and
# replaced whole, as _last_bound is
_last_row = {}


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
        # as tail mass amplified by chi_i chi_j at the dropped atoms.
        # Python's min/max/sum over a list cost less than numpy reductions
        # on short series (corpus benchmark wall time -10 %).  min/max skip
        # a NaN that is not first in the list, so NaN is found by the sum,
        # which is NaN for a NaN value (or for +inf and -inf together,
        # which the band check rejects anyway)
        listed = v.ravel().tolist()
        total = sum(listed)
        if total != total and np.isnan(v).any():
            raise NumericError(f"probability series P_{self.i}{self.j} holds NaN")
        if listed and (min(listed) < -1e-6 or max(listed) > 1 + 1e-6):
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


def _check_sites(measure: SpectralMeasure, i: int, low: int, high: int) -> None:
    """Source i and targets low..high must be sites of the measure's operator."""
    if i < 0 or low < 0:
        raise UsageError(f"site indices ({i}, {low}) must be nonnegative")
    size = measure.jacobi.size
    if i >= size or high >= size:
        raise UsageError(f"site indices ({i}, {high}) beyond operator size {size}")


def _chi_product_coefficients(measure: SpectralMeasure, i: int, js) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_s and coefficients c_s = w_s chi_i(x_s) chi_j(x_s): shape
    (S,) for one target j, (len(js), S) for a sequence of targets, each
    row the same double either way.

    Eigendecomposed measures carry the orthonormal table W, and there
    c_s = W[i, s] W[j, s]; this keeps the sum-rule identities (rows of
    P, unitarity) at eigensolver accuracy even for chains whose chi
    recurrence is unstable at edge nodes.
    """
    if isinstance(js, (int, np.integer)):
        low = high = js
    else:
        # a list indexes rows, where a tuple would index axes
        js = [int(j) for j in js]
        low, high = min(js), max(js)
    _check_sites(measure, i, low, high)
    if measure.weighted_chi is not None and measure.quad_points is None:
        table = measure.weighted_chi
        return measure.points, table[i] * table[js]
    x, w = measure.nodes_and_weights()
    mant, expo = chi_table_scaled(measure.jacobi, max(i, high), x)
    coeff = np.ldexp(w * mant[i] * mant[js],
                     (expo[i] + expo[js]).astype(np.int32, copy=False))
    return x, coeff


def _spectral_sum(x, coeff, times, z):
    """values[..., k] = sum_s coeff[..., s] * exp(z * x[s] * times[k]),
    shaped coeff.shape[:-1] + times.shape: coeff is one row of S
    coefficients or a stack of rows.  z is -1 (classical) or +-1j.
    coeff is made C-contiguous first: numpy reduces a node axis that is
    not contiguous in another order, so an F-ordered stack (rows of the
    eigenvector table, say) would give rows that differ from the
    single-row sums in the last place.

    The time grid is walked in blocks of _BLOCK_TERMS // S times, a
    height set by S alone, so each temporary holds at most one block of
    2**14 terms (256 KB complex) per coefficient row, however long the
    grid: one row over 2001 times and 1024 nodes peaks below 1 MB, where
    a whole (T, S) table needs 33 MB per temporary.  A block's phases
    are computed once and reduced against every row.

    Each row of a block is reduced by numpy's pairwise sum over the
    contiguous node axis, never a shape-dependent matmul, so the value
    at a given t depends neither on the rest of the grid, nor on the
    block it falls in, nor on the other rows: output is bitwise
    reproducible.

    Phases are complex exp for every z.  Forming e^{-ixt} from real
    cos/sin gives the same doubles at a lower cost per term, but showed
    no end-to-end gain on the long-grid benchmark, so one form is kept.
    """
    coeff = np.ascontiguousarray(coeff)
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    dtype = complex if isinstance(z, complex) else float
    out = np.empty(coeff.shape[:-1] + flat.shape, dtype=dtype)
    step = max(1, _BLOCK_TERMS // max(x.shape[0], 1))
    zx = z * x
    for start in range(0, flat.size, step):
        phase = np.exp(zx * flat[start:start + step, None])
        np.add.reduce(coeff[..., None, :] * phase, axis=-1, out=out[..., start:start + step])
    return out.reshape(coeff.shape[:-1] + times.shape)


def _amplitudes(measure: SpectralMeasure, i: int, js, times) -> np.ndarray:
    """f_ij over times for one target j (shaped like times) or a sequence
    of targets (one row each, all sharing each block of phases)."""
    x, coeff = _chi_product_coefficients(measure, i, js)
    return _spectral_sum(x, coeff, times, -1j)


def _entry(measure: SpectralMeasure, i: int, j: int, times: np.ndarray, z) -> np.ndarray:
    """sum_s c_s e^{z x_s t} for the entry (i, j) over times (a float
    array).

    When the whole row i fits one kernel block (n S T <= _BLOCK_TERMS
    for n sites, S nodes and T times) it is evaluated and kept as the
    last row of its z, keyed by a weak reference to the measure and by
    (i, times), so the next target of a sweep over j is read off it.  A
    larger entry is evaluated alone and nothing is kept.  Rows of a
    stack are the doubles single targets give, so the value does not
    depend on the path, nor on the order of calls; the caller gets an
    array of its own.
    """
    _check_sites(measure, i, j, j)
    key = (i, times.shape, times.tobytes())
    last = _last_row.get(z)
    if last is not None and last[0]() is measure and last[1] == key:
        return last[2][j, ...].copy()
    size = measure.jacobi.size
    if size * measure.nodes_and_weights()[0].size * times.size > _BLOCK_TERMS:
        x, coeff = _chi_product_coefficients(measure, i, j)
        return _spectral_sum(x, coeff, times, z)
    x, coeff = _chi_product_coefficients(measure, i, range(size))
    rows = _spectral_sum(x, coeff, times, z)
    _last_row[z] = (weakref.ref(measure), key, rows)
    return rows[j, ...].copy()


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
    if (times_arr < 0).any():
        raise UsageError("classical evolution needs t >= 0")
    pi = _bind(measure, rates)
    vals = _entry(measure, i, j, times_arr, -1.0)
    prefactor = ((-1.0) ** ((i + j) % 2)) * pi.sqrt_ratio(j, i)
    return ProbabilitySeries(i=i, j=j, times=times_arr, values=prefactor * vals)


def quantum_amplitude(measure: SpectralMeasure, i: int, j: int, times) -> AmplitudeSeries:
    """f_ij(t) = <i| exp(-iJt) |j> over a time grid.

    The sign convention is f(t) = exp(-iJt), so the spectral kernel is
    e^{-i x t} and f_ij(-t) = conj(f_ij(t)).
    """
    times_arr = np.asarray(times, dtype=float)
    return AmplitudeSeries(i=i, j=j, times=times_arr,
                           values=_entry(measure, i, j, times_arr, -1j))


def oracle_expm(operator, t: float) -> np.ndarray:
    """Dense reference evolution, independent of the spectral path.

    GeneratorMatrix -> exp(t A) by scaling-and-squaring;
    JacobiOperator -> exp(-i J t) by dense symmetric eigendecomposition;
    anything else is refused.  Accuracy target 1e-12 at sizes <= 32;
    sizes above 512 or |t| > 1e3 are refused rather than returned
    inaccurate.
    """
    if not isinstance(operator, (GeneratorMatrix, JacobiOperator)):
        raise UsageError(
            f"oracle needs a GeneratorMatrix or a JacobiOperator, got {type(operator).__name__}")
    if operator.size > _ORACLE_SIZE_CAP:
        raise UsageError(f"oracle size {operator.size} above cap {_ORACLE_SIZE_CAP}")
    if abs(t) > _ORACLE_TIME_CAP:
        raise UsageError(f"oracle |t| = {abs(t)} above cap {_ORACLE_TIME_CAP}")
    mat = operator.dense()
    if isinstance(operator, GeneratorMatrix):
        return scipy.linalg.expm(mat * float(t))
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.exp(-1j * vals * float(t))) @ vecs.T


def series_filename(series) -> str:
    tag = "f" if isinstance(series, AmplitudeSeries) else "p"
    return f"{tag}_{series.i}_{series.j}.csv"


def series_csv(series) -> str:
    """CSV text for one series: `t,p` or `t,re,im,abs`, 17 significant
    digits (round-trip exact for doubles), header always present.

    The whole table is formatted by one % operation.  |f| is
    np.hypot(re, im), which gives the double Python's abs() of each
    complex value gives; np.abs of a complex array can differ from it
    in the last place."""
    times = np.atleast_1d(series.times).ravel()
    values = np.atleast_1d(series.values).ravel()
    if isinstance(series, AmplitudeSeries):
        header, line = "t,re,im,abs\n", "%.17g,%.17g,%.17g,%.17g\n"
        columns = (times, values.real, values.imag, np.hypot(values.real, values.imag))
    else:
        header, line = "t,p\n", "%.17g,%.17g\n"
        columns = (times, values)
    return header + (line * times.size) % tuple(np.column_stack(columns).ravel().tolist())
