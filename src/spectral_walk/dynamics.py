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
exponent factor z; :func:`_spectral_sum` is that sum.  Every finished
P_ij and f_ij comes from :func:`_rows`: the table c_s = w_s chi_i(x_s)
chi_j(x_s) of a range of sources i and a sequence of targets j, one
kernel pass in blocks of times that all rows share, and for P the sign
and pi prefactor in one vector operation.  Each coefficient is a
product W[i, s] W[j, s] of the weighted table W = sqrt(w) chi, whose
entries are at most 1 in size on a normalized measure
(sum_s W[i, s]^2 <= 1), so by Cauchy-Schwarz |c_s| <= 1 and no
product overflows.

Per-entry calls are served from finished stacks of whole rows.  When
n S T <= 2**14 for n sites, S nodes and T times, a call takes the rows
of k = floor(2**14 / (n S T)) sources around i from :func:`_rows`; a
larger entry is a stack of one row and one target.  A value depends
neither on the rest of the grid, nor on the other entries of its stack,
nor on the order of calls: it is the double a call for that entry alone
gives.

A call is classical exactly when it carries pi.  One record per kind
binds the last (measure, rates) pair through weak references, so
neither is kept alive: it holds the pair's pi, computed over all of the
measure's sites once :func:`_bind` has checked that the measure came
from the rates, and the pair's last stack, if one fits.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .jacobi_core import (BOUNDARIES, BirthDeathRates, GeneratorMatrix, JacobiOperator,
                          PiCoefficients, _gather, _pi_of, symmetrize)
from .errors import DomainError, NumericError, UsageError
from .spectral import _SITE_TAIL_TOL, SpectralMeasure, _site_deficits, chi_table_scaled

__all__ = [
    "ProbabilitySeries",
    "AmplitudeSeries",
    "classical_transition",
    "quantum_amplitude",
    "oracle_expm",
    "series_csv",
    "series_filename",
    # re-exported: the benchmark's tracer test wraps this module's binding
    "symmetrize",
]

_ORACLE_SIZE_CAP = 512
_ORACLE_TIME_CAP = 1e3
# _spectral_sum: terms per block of the time x node grid
_BLOCK_TERMS = 2 ** 14

# classical (a bool) -> (weakref to measure, weakref to rates or None, pi or
# None, sources, times key, stack or None): the last pair _entry bound for
# that kind and its last stack; one tuple, read and replaced whole, so
# concurrent callers never pair one chain's objects with another's pi
_last_stack = {}


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


def _check_sites(measure: SpectralMeasure, low: int, high: int) -> None:
    """Sites low..high must be sites of the measure's operator."""
    if low < 0:
        raise UsageError(f"site index {low} must be nonnegative")
    size = measure.jacobi.size
    if high >= size:
        raise UsageError(f"site index {high} beyond operator size {size}")


def _chi_product_coefficients(measure: SpectralMeasure, sources: range, targets):
    """Nodes x_s and coefficients c_s = w_s chi_i(x_s) chi_j(x_s) of the
    sources i and the targets j, shaped (len(sources), len(targets), S),
    as c_s = W[i, s] W[j, s] on the table W = sqrt(w) chi.

    Eigendecomposed measures carry their orthonormal W; this keeps the
    sum-rule identities (rows of P, unitarity) at eigensolver accuracy
    even for chains whose chi recurrence is unstable at edge nodes.
    Every other measure takes W from the weighted recurrence, and a
    source or target row whose deficit 1 - sum_s W[i, s]^2 is below
    -1e-10 (or NaN) raises NumericError: the recurrence lost that row's
    value.
    """
    # a list indexes rows, where a tuple would index axes
    targets = [int(j) for j in targets]
    last = max(sources.stop - 1, *targets)
    _check_sites(measure, min(sources.start, *targets), last)
    x, w = measure.nodes_and_weights()
    if measure.weighted_chi is not None and measure.quad_points is None:
        table = measure.weighted_chi
    else:
        table = chi_table_scaled(measure.jacobi, last, x, w)
        used = np.r_[sources.start:sources.stop, targets]
        deficits = _site_deficits(table[used])
        worst = int(np.argmin(deficits))
        if not deficits[worst] >= -_SITE_TAIL_TOL:  # NaN fails
            raise NumericError(
                f"site {used[worst]}: deficit 1 - sum_s W[i, s]^2 = {deficits[worst]:.3e} "
                f"below -{_SITE_TAIL_TOL:g}; the chi recurrence lost its value there")
    return x, table[sources.start:sources.stop, None] * table[targets]


def _spectral_sum(x, coeff, times, z):
    """values[..., k] = sum_s coeff[..., s] * exp(z * x[s] * times[k]),
    shaped coeff.shape[:-1] + times.shape: coeff is one row of S
    coefficients or a stack of rows.  z is -1 (classical) or +-1j.
    A NaN or infinite time is refused (UsageError), not summed to NaN.
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
    if not np.isfinite(times).all():
        raise UsageError("times must be finite (NaN or inf given)")
    flat = times.reshape(-1)
    dtype = complex if isinstance(z, complex) else float
    out = np.empty(coeff.shape[:-1] + flat.shape, dtype=dtype)
    step = max(1, _BLOCK_TERMS // max(x.shape[0], 1))
    zx = z * x
    for start in range(0, flat.size, step):
        phase = np.exp(zx * flat[start:start + step, None])
        np.add.reduce(coeff[..., None, :] * phase, axis=-1, out=out[..., start:start + step])
    return out.reshape(coeff.shape[:-1] + times.shape)


def _rows(measure: SpectralMeasure, sources: range, targets, times: np.ndarray,
          pi: PiCoefficients | None = None) -> np.ndarray:
    """P_ij with pi (kernel e^{-xt}, sign and prefactor applied, t >= 0
    checked), else f_ij (kernel e^{-ixt}), for each source i and target
    j over times (a float array), shaped (len(sources), len(targets)) +
    times.shape, all rows sharing each block of phases.  Every finished
    P_ij and f_ij is made here, and an entry is the same double in any
    stack."""
    if pi is not None and (times < 0).any():
        raise UsageError("classical evolution needs t >= 0")
    x, coeff = _chi_product_coefficients(measure, sources, targets)
    rows = _spectral_sum(x, coeff, times, -1j if pi is None else -1.0)
    if pi is not None:
        rows *= _prefactors(pi, sources, targets).reshape(coeff.shape[:2] + (1,) * times.ndim)
    return rows


def _entry(measure: SpectralMeasure, i: int, j: int, times: np.ndarray,
           rates: BirthDeathRates | None = None) -> np.ndarray:
    """The entry (i, j) of :func:`_rows` over times, in an array of the
    caller's own: P_ij with rates, f_ij without, pi read from the kind's
    record or bound anew.  When n S T <= _BLOCK_TERMS, the rows of the
    aligned sources [i0, i0 + k) holding i, k = _BLOCK_TERMS // (n S T),
    are evaluated and kept in the record, keyed by sources and times; a
    larger entry, or one whose stack holds a row the recurrence lost, is
    evaluated alone and the record keeps no stack.
    """
    size = measure.jacobi.size
    key = (times.shape, times.tobytes())
    last = _last_stack.get(rates is not None)
    bound = last is not None and last[0]() is measure and (rates is None or last[1]() is rates)
    if bound and i in last[3] and 0 <= j < size and last[4] == key:
        return last[5][i - last[3].start, j, ...].copy()
    pi = last[2] if bound else None
    if rates is not None and not bound:
        pi = _bind(measure, rates)[0]
    _check_sites(measure, min(i, j), max(i, j))
    per_row = size * measure.nodes_and_weights()[0].size * times.size
    stack = None
    # a stack holds every row as a target, so a row the recurrence lost fails
    # it (for this pair and these times, for good: not retried), and then
    # only the entries that use that row
    if per_row <= _BLOCK_TERMS and not (bound and last[5] is None and last[4] == key):
        k = _BLOCK_TERMS // max(per_row, 1)
        sources = range(i - i % k, min(i - i % k + k, size))
        with contextlib.suppress(NumericError):
            stack = _rows(measure, sources, range(size), times, pi)
    if stack is None:
        sources = range(0)
        values = _rows(measure, range(i, i + 1), [j], times, pi)[0, 0, ...]
    else:
        values = stack[i - sources.start, j, ...].copy()
    rates_ref = None if rates is None else weakref.ref(rates)
    _last_stack[rates is not None] = (weakref.ref(measure), rates_ref, pi, sources, key, stack)
    return values


def _prefactors(pi: PiCoefficients, sources: range, targets) -> np.ndarray:
    """(-1)^(i+j) sqrt(pi_j / pi_i) for the sources i (rows) and the
    targets j (columns), in one vector operation."""
    rows, cols = np.arange(sources.start, sources.stop)[:, None], np.asarray(targets)
    ratio = np.exp(0.5 * (pi.log_values[cols] - pi.log_values[rows]))
    ratio[(rows + cols) % 2 == 1] *= -1.0
    return ratio


def _bind(measure: SpectralMeasure, rates: BirthDeathRates) -> tuple[PiCoefficients, str]:
    """pi_0..pi_n of the rates over the measure's n + 1 sites, and the
    boundary convention ("reflecting" first) under which the measure
    came from the symmetrization of the rates; any other measure raises
    UsageError, as the pi-prefactor formula would be silently wrong.

    The rates are read once: both candidate operators and pi come from
    one absorbing-tail gather, since the reflecting operator differs only
    in b[n], mu_n in place of lambda_n + mu_n.  The prefixes of pi do not
    depend on n (log_values is a cumsum), so any entry equals the one a
    shorter pi_coefficients call gives.
    """
    j_op = measure.jacobi
    n = j_op.size - 1
    try:
        lam, mu = _gather(rates, rates.truncation_order(n), "absorbing-tail")
    except (UsageError, DomainError) as exc:
        raise UsageError(
            f"rates do not extend to the measure's {n + 1}-site operator: {exc}") from exc
    b, coupling = lam + mu, np.sqrt(lam[:-1] * mu[1:])
    scale = max(1.0, float(np.max(np.abs(j_op.b))))
    close = functools.partial(np.allclose, rtol=1e-12, atol=1e-13 * scale)
    diagonals = zip(BOUNDARIES, (np.r_[b[:-1], mu[n]], b))
    matched = close(coupling, j_op.j) and next(
        (boundary for boundary, diagonal in diagonals if close(diagonal, j_op.b)), None)
    if not matched:
        raise UsageError(
            "measure was not built from these rates: symmetrized operator "
            "disagrees beyond roundoff (provenance mismatch)"
        )
    return _pi_of(lam, mu), matched


def classical_transition(measure: SpectralMeasure, rates: BirthDeathRates,
                         i: int, j: int, times) -> ProbabilitySeries:
    """P_ij(t) over a time grid via the spectral representation.

    Parameters
    ----------
    measure : SpectralMeasure
        Orthogonality measure of ``symmetrize(rates)``; provenance is
        checked once per (measure, rates) pair and a mismatch raises
        UsageError.  The last pair is remembered through weak references,
        so neither object is kept alive.
    rates : BirthDeathRates
        Supplies the potential coefficients pi for the prefactor.
    i, j : int
        Sites, within the truncated operator.
    times : array_like
        Nonnegative time grid.
    """
    times_arr = np.asarray(times, dtype=float)
    values = _entry(measure, i, j, times_arr, rates)
    return ProbabilitySeries(i=i, j=j, times=times_arr, values=values)


def quantum_amplitude(measure: SpectralMeasure, i: int, j: int, times) -> AmplitudeSeries:
    """f_ij(t) = <i| exp(-iJt) |j> over a time grid.

    The sign convention is f(t) = exp(-iJt), so the spectral kernel is
    e^{-i x t} and f_ij(-t) = conj(f_ij(t)).
    """
    times_arr = np.asarray(times, dtype=float)
    return AmplitudeSeries(i=i, j=j, times=times_arr,
                           values=_entry(measure, i, j, times_arr))


def _check_oracle_size(size: int) -> None:
    """The dense oracle refuses operators above _ORACLE_SIZE_CAP sites."""
    if size > _ORACLE_SIZE_CAP:
        raise UsageError(f"oracle size {size} above cap {_ORACLE_SIZE_CAP}")


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
    _check_oracle_size(operator.size)
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
