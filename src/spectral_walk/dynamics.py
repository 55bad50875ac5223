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

Per-entry calls share one record per kind, and a call is classical
exactly when it carries pi.  The record binds the last (measure, rates,
times) of its kind, the measure and rates through weak references so
neither is kept alive.  It holds the pair's pi, computed over all of the
measure's sites once :func:`_bind` has checked that the measure came
from the rates, and one payload for those times:

- a stack of whole rows when n S T <= 2**14 for n sites, S nodes and T
  times: the rows of k = floor(2**14 / (n S T)) sources around i from
  :func:`_rows`, checked once when made (a classical stack against the
  probability band), so a hit is a key compare, a copy and a wrap, and
  P entries of a stack that failed go through the checking constructor
  and each raises as it would alone;
- else, for an entry evaluated alone, its (T, S) phase table
  e^{z x_s t}, when the measure carries its eigenvector table (no
  quadrature rule) and 2 T <= n: later entries on the same measure and
  times reduce their row against it block by block instead of taking
  the exponentials again.  A complex table takes 16 T S <= 8 n S bytes,
  no more than the measure's own table (a real one for P, half that);
- else nothing.

A payload is released when a call of the kind on another measure,
rates or times replaces the record; a phase table also goes with its
measure, through a weak-reference callback that empties its own record
alone.  A value depends neither on the rest of the grid, nor on the
payload, nor on the order of calls: it is the double a call for that
entry alone gives.
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

# classical (a bool) -> (weakref to measure, weakref to rates or None, times
# key, pi or None, sources (empty without a stack), passed (the whole stack
# passed _in_band), kept): the last entry _entry made for that kind, where
# kept is [stack] when sources is nonempty, else [phases] or []; one tuple,
# read and replaced whole, so concurrent callers never pair one chain's
# objects with another's pi
_last_entry = {}


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
        if not _in_band(v):
            if np.isnan(v).any():
                raise NumericError(f"probability series P_{self.i}{self.j} holds NaN")
            raise NumericError(
                f"probability outside [0,1] beyond truncation leakage: range "
                f"[{v.min()}, {v.max()}] for P_{self.i}{self.j}"
            )


def _in_band(values: np.ndarray) -> bool:
    """No value is NaN (min and max return it, and it fails both tests)
    and all lie in [-1e-6, 1 + 1e-6]: the band catches sign/prefactor
    bugs (order-1 excursions), while leaving room for tail leakage of
    truncated exact measures (tail mass amplified by chi_i chi_j)."""
    return values.size == 0 or bool(values.min() >= -1e-6 and values.max() <= 1 + 1e-6)


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


def _series(kind, i: int, j: int, times: np.ndarray, values: np.ndarray):
    """The constructor without its conversions and checks, for float
    times and values of their shape and kind's dtype, P passing _in_band."""
    series = object.__new__(kind)
    series.__dict__.update(i=i, j=j, times=times, values=values)
    return series


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


def _spectral_sum(x, coeff, times, z, table=None):
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
    are computed once by :func:`_phase_blocks` and reduced against every
    row.  A table is the (T, S) phases :func:`_phase_blocks` gave for
    these x, times and z in one block (see :func:`_phases`): with it,
    each block's rows are read in place of the exponentials, and the
    values are the same doubles.

    Each row of a block is reduced by numpy's pairwise sum over the
    contiguous node axis, never a shape-dependent matmul, so the value
    at a given t depends neither on the rest of the grid, nor on the
    block it falls in, nor on the other rows: output is bitwise
    reproducible.
    """
    coeff = np.ascontiguousarray(coeff)
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise UsageError("times must be finite (NaN or inf given)")
    flat = times.reshape(-1)
    dtype = complex if isinstance(z, complex) else float
    out = np.empty(coeff.shape[:-1] + flat.shape, dtype=dtype)
    step = max(1, _BLOCK_TERMS // max(x.shape[0], 1))
    starts = range(0, flat.size, step)
    blocks = (_phase_blocks(z * x, flat, step, _mirrored(x, z)) if table is None
              else (table[start:start + step] for start in starts))
    for start in starts:
        # no name holds a block, so each is freed as the next one is made
        np.add.reduce(coeff[..., None, :] * next(blocks), axis=-1,
                      out=out[..., start:start + step])
    return out.reshape(coeff.shape[:-1] + times.shape)


def _mirrored(x, z) -> bool:
    """Whether :func:`_phase_blocks` takes the half-exponential form: an
    imaginary z on a mirrored spectrum, x[::-1] == -x exactly (as for a
    chain with zero diagonal built from a closed form)."""
    # the O(1) end test first, then the O(S) one
    return (isinstance(z, complex) and not z.real and x.shape[0] > 1 and x[0] == -x[-1]
            and np.array_equal(x[::-1], -x))


def _phase_blocks(zx, flat, step: int, mirrored: bool):
    """Yield exp(zx[s] * flat[k]) for each block of step times of flat,
    shaped (block size, S): the phases of :func:`_spectral_sum`.  Each
    block is made after the generator drops the previous one and before
    the exponent's temporary, so the temporaries reuse the freed block's
    memory: when the caller also held the previous block, a one-row sum
    over 49 to 512 mirrored nodes and 2001 times took about 10 % longer
    (glibc heap, one thread of a 2-core x86-64 host).

    Phases are complex exp for every imaginary z.  Forming e^{-ixt} from
    real cos/sin gives the same doubles at a lower cost per term, but
    showed no end-to-end gain on the long-grid benchmark, so one form is
    kept.

    When mirrored (see :func:`_mirrored`), exp is taken on the upper
    half zx[S//2:] only (the middle node of an odd S included), and the
    lower columns are the conjugates of the reversed upper ones.  At -x
    the phase angle z x t has a zero real part and the exact negative of
    the imaginary part b it has at x, and exp(ib) = cos b + i sin b with
    cos even and sin odd, so each phase is the one the direct form
    gives, but for the sign of a zero imaginary part where x t is zero
    (t = +-0, or an underflowing product).  That sign reaches a term
    only as the sign of a zero real part, and np.add.reduce starts from
    +0 and never returns -0, so every value is the same double the
    direct form gives.  Real z and any other spectrum take the direct
    form.
    """
    size = zx.shape[0]
    low = size // 2
    for start in range(0, flat.size, step):
        block = flat[start:start + step, None]
        if mirrored:
            phase = np.empty((block.shape[0], size), dtype=complex)
            np.exp(zx[low:] * block, out=phase[:, low:])
            np.conjugate(phase[:, :size - low - 1:-1], out=phase[:, :low])
        else:
            phase = np.exp(zx * block)
        yield phase


def _rows(measure: SpectralMeasure, sources: range, targets, times: np.ndarray,
          pi: PiCoefficients | None = None, table: np.ndarray | None = None) -> np.ndarray:
    """P_ij with pi (kernel e^{-xt}, sign and prefactor applied, t >= 0
    checked), else f_ij (kernel e^{-ixt}), for each source i and target
    j over times (a float array), shaped (len(sources), len(targets)) +
    times.shape, all rows sharing each block of phases, or the rows of
    a table of the measure's phases over these times (see
    :func:`_phases`).  Every finished P_ij and f_ij is made here, and an
    entry is the same double in any stack, with or without a table."""
    if pi is not None and (times < 0).any():
        raise UsageError("classical evolution needs t >= 0")
    x, coeff = _chi_product_coefficients(measure, sources, targets)
    z = -1j if pi is None else -1.0
    rows = _spectral_sum(x, coeff, times, z, table)
    if pi is not None:
        rows *= _prefactors(pi, sources, targets).reshape(coeff.shape[:2] + (1,) * times.ndim)
    return rows


def _phases(measure: SpectralMeasure, times: np.ndarray, classical: bool):
    """The (T, S) phases of the measure's nodes over times for the kind,
    made by :func:`_phase_blocks` as one block, for a large entry to keep.
    None unless the measure carries its eigenvector table, has no
    quadrature rule and n >= 2 T sites for T >= 1 times, and for times
    that :func:`_rows` refuses (a NaN or infinite time, or a negative
    classical one), so the refusal stays there."""
    if (measure.weighted_chi is None or measure.quad_points is not None
            or not 0 < 2 * times.size <= measure.jacobi.size
            or not np.isfinite(times).all() or (classical and (times < 0).any())):
        return None
    x = measure.nodes_and_weights()[0]
    z = -1.0 if classical else -1j
    flat = times.reshape(-1)
    return next(_phase_blocks(z * x, flat, flat.size, _mirrored(x, z)))


def _entry(measure: SpectralMeasure, i: int, j: int, times: np.ndarray,
           rates: BirthDeathRates | None = None) -> tuple[np.ndarray, bool]:
    """The entry (i, j) of :func:`_rows` over times, in an array of the
    caller's own, and whether its stack passed _in_band (every f stack
    does): P_ij with rates, f_ij without, pi read from the kind's record
    or bound anew.

    The kind's record (see the module docstring) is read and, on a
    miss, replaced.  When n S T <= _BLOCK_TERMS, the rows of the aligned
    sources [i0, i0 + k) holding i, k = _BLOCK_TERMS // (n S T), are
    evaluated, checked and kept as its payload, keyed by sources and
    times.  A larger entry, or one whose stack holds a row the
    recurrence lost, is evaluated alone; its payload is the phase table
    :func:`_phases` makes for it, if any, and later such entries on the
    same measure, rates and times reduce their rows against that table.
    """
    key = (times.shape, times.tobytes())
    last = _last_entry.get(rates is not None)
    bound = last is not None and last[0]() is measure and (rates is None or last[1]() is rates)
    same = bound and last[2] == key
    if same and i in last[4] and 0 <= j < measure.jacobi.size:
        return last[-1][0][i - last[4].start, j, ...].copy(), last[5]
    pi = last[3] if bound else None
    if rates is not None and not bound:
        pi = _bind(measure, rates)[0]
    _check_sites(measure, min(i, j), max(i, j))
    if same and not last[4]:
        # no stack for these times: a large entry, or a stack that lost a
        # row (for this pair and these times, for good: not retried)
        table = last[-1][0] if last[-1] else None
        return _rows(measure, range(i, i + 1), [j], times, pi, table)[0, 0, ...], False
    size = measure.jacobi.size
    per_row = size * measure.nodes_and_weights()[0].size * times.size
    stack = None
    # a stack holds every row as a target, so a row the recurrence lost
    # fails it, and then only the entries that use that row
    if per_row <= _BLOCK_TERMS:
        k = _BLOCK_TERMS // max(per_row, 1)
        sources = range(i - i % k, min(i - i % k + k, size))
        with contextlib.suppress(NumericError):
            stack = _rows(measure, sources, range(size), times, pi)
    if stack is None:
        sources, passed = range(0), False
        table = _phases(measure, times, rates is not None)
        values = _rows(measure, range(i, i + 1), [j], times, pi, table)[0, 0, ...]
        kept = [] if table is None else [table]
    else:
        passed = pi is None or _in_band(stack)
        values = stack[i - sources.start, j, ...].copy()
        kept = [stack]
    # a phase table also goes with its measure: the callback empties this
    # record's list alone, so a stale one cannot drop a newer record's
    # payload; a stack, at most one block, goes when the record is replaced
    measure_ref = (weakref.ref(measure, lambda _, kept=kept: kept.clear()) if kept and not sources
                   else weakref.ref(measure))
    rates_ref = None if rates is None else weakref.ref(rates)
    _last_entry[rates is not None] = (measure_ref, rates_ref, key, pi, sources, passed, kept)
    return values, passed


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

    Every P returned holds no NaN and lies in [-1e-6, 1 + 1e-6], else NumericError.
    """
    times_arr = np.asarray(times, dtype=float)
    values, passed = _entry(measure, i, j, times_arr, rates)
    if passed:
        return _series(ProbabilitySeries, i, j, times_arr, values)
    return ProbabilitySeries(i=i, j=j, times=times_arr, values=values)


def quantum_amplitude(measure: SpectralMeasure, i: int, j: int, times) -> AmplitudeSeries:
    """f_ij(t) = <i| exp(-iJt) |j> over a time grid.

    The sign convention is f(t) = exp(-iJt), so the spectral kernel is
    e^{-i x t} and f_ij(-t) = conj(f_ij(t)).  Unlike P, f is not checked
    against [-1e-6, 1 + 1e-6]; a lost chi row raises NumericError.
    """
    times_arr = np.asarray(times, dtype=float)
    return _series(AmplitudeSeries, i, j, times_arr, _entry(measure, i, j, times_arr)[0])


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
    return next(_oracle_evolutions(operator, [t]))


def _oracle_evolutions(operator, times):
    """:func:`oracle_expm` at each of the times, in order, each the same
    array a call for that time alone gives, one at a time: the operator
    is checked, made dense and (a JacobiOperator) eigendecomposed once,
    here, then exponentiated per time as the iterator is read."""
    if not isinstance(operator, (GeneratorMatrix, JacobiOperator)):
        raise UsageError(
            f"oracle needs a GeneratorMatrix or a JacobiOperator, got {type(operator).__name__}")
    _check_oracle_size(operator.size)
    for t in times:
        if abs(t) > _ORACLE_TIME_CAP:
            raise UsageError(f"oracle |t| = {abs(t)} above cap {_ORACLE_TIME_CAP}")
    mat = operator.dense()
    if isinstance(operator, GeneratorMatrix):
        return (scipy.linalg.expm(mat * float(t)) for t in times)
    vals, vecs = np.linalg.eigh(mat)
    return ((vecs * np.exp(-1j * vals * float(t))) @ vecs.T for t in times)


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
