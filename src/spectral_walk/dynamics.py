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
exponent factor z; :func:`_spectral_sum` is that sum.  On nodes that
are an exact arithmetic progression x_0 + s h of at least _LATTICE_MIN
nodes, such as a Meixner build's integers, it is e^{z x_0 t} times a
polynomial in w = e^{z h t}, summed by blocked Horner with B + 2
exponentials per time instead of S (B = _LATTICE_BLOCK), to within
k u (max_s |x_s t| + ceil(S / B) + B) sum_s |c_s| for a small k; those
values too depend only on their own t, but they are not the doubles of
the direct form, which every other spectrum keeps.  Every finished
P_ij and f_ij comes from :func:`_rows`: the table c_s = w_s chi_i(x_s)
chi_j(x_s) of a range of sources i and a sequence of targets j, one
kernel pass in blocks of times that all rows share, and for P the sign
and pi prefactor in one vector operation.  Each coefficient is a
product W[i, s] W[j, s] of the weighted table W = sqrt(w) chi, whose
entries are at most 1 in size on a normalized measure
(sum_s W[i, s]^2 <= 1), so by Cauchy-Schwarz |c_s| <= 1 and no
product overflows.  Its rows are a measure's eigenvectors, or else its
Lanczos rows, each with the one certificate spectral._lanczos computes:
the larger of the mismatch between the recurrence coefficients Lanczos
recovers and the operator's, relative to its scale, and the site's tail,
the mass of its modified measure that the nodes leave out.  A site whose
certificate exceeds 1e-10 (a breakdown makes the tail 1, a NaN weight
the certificate NaN) raises NumericError, naming the site and the
certificate, before any kernel pass.

Per-entry calls keep one record per kind on the measure itself (a call
is classical exactly when it carries pi): the rates of the last call,
which then live as long as the measure, their pi, computed over all of
the measure's sites once :func:`_bind` has checked that the measure
came from the rates, and one payload for its times:

- a stack of whole rows when n S T <= 2**14 for n sites, S nodes and T
  times: the rows of k = floor(2**14 / (n S T)) sources around i from
  :func:`_rows`, over every target whose row is certified (all of them
  on a measure with its eigenvectors), checked once when made (each
  entry of a classical stack against the probability band), so a hit
  is a key compare, a copy and a wrap, and only the P entries that
  failed go through the checking constructor, each raising as it would
  alone;
- else, for an entry evaluated alone, its (T, S) phase table
  e^{z x_s t}, when the measure carries its eigenvectors (a table or a
  closed form, no quadrature rule), 2 T <= n and its nodes are not a
  lattice, which the Horner form sums with no table: later entries on the
  same measure and times reduce their row against it block by block
  instead of taking the exponentials again;
- else nothing.

A record is replaced only by a call of its kind on the same measure
with other rates or times, or a source outside its stack, and goes with
its measure.  So each live measure holds at most one payload per kind:
a stack of at most 2**14 values, or a phase table no larger than the
eigenvector table the measure would hold, n S doubles
(16 T S <= 8 n S bytes complex, half that real), whether it holds that
table or, for a constant chain, only its closed form.
A value depends neither on the rest of the grid, nor on the payload,
nor on the order of calls: it is the double a call for that entry alone
gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .jacobi_core import (BOUNDARIES, BirthDeathRates, GeneratorMatrix, JacobiOperator,
                          PiCoefficients, _gather, _pi_of, symmetrize)
from .errors import DomainError, NumericError, UsageError, _check_sites, _integer
from .spectral import (SpectralMeasure, _carries_eigenvectors, _lanczos_rows,
                       _weighted_rows)

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
# _spectral_sum's lattice form: nodes per Horner block, and the fewest
# nodes that take it
_LATTICE_BLOCK = 32
_LATTICE_MIN = 64


@dataclass(frozen=True)
class ProbabilitySeries:
    """Classical transition probabilities P_ij on a time grid."""

    i: int
    j: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = _convert(self, float)
        if not _in_band(v):
            if np.isnan(v).any():
                raise NumericError(f"probability series P_{self.i}{self.j} holds NaN")
            raise NumericError(
                f"probability outside [0,1] beyond truncation leakage: range "
                f"[{v.min()}, {v.max()}] for P_{self.i}{self.j}"
            )


def _in_band(values: np.ndarray) -> bool:
    """Every value passes :func:`_band`; an empty array passes."""
    return bool(_band(values).all())


def _band(values: np.ndarray) -> np.ndarray:
    """Per value, whether it is not NaN (a NaN fails both comparisons)
    and lies in [-1e-6, 1 + 1e-6]: the band catches sign/prefactor bugs
    (order-1 excursions), while leaving room for tail leakage of
    truncated exact measures (tail mass amplified by chi_i chi_j)."""
    return (values >= -1e-6) & (values <= 1 + 1e-6)


@dataclass(frozen=True)
class AmplitudeSeries:
    """Quantum transition amplitudes f_ij on a time grid."""

    i: int
    j: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _convert(self, complex)


def _convert(series, dtype) -> np.ndarray:
    """Convert a series' fields in place, sites by errors._integer, times to
    float and values to dtype, refusing times and values of two shapes
    (UsageError); returns the values."""
    i, j = _integer("i", series.i), _integer("j", series.j)
    t, v = np.asarray(series.times, dtype=float), np.asarray(series.values, dtype=dtype)
    if t.shape != v.shape:
        raise UsageError("times and values differ in shape")
    series.__dict__.update(i=i, j=j, times=t, values=v)
    return v


def _series(kind, i: int, j: int, times: np.ndarray, values: np.ndarray):
    """The constructor without its conversions and checks, for float
    times and values of their shape and kind's dtype, P passing _in_band."""
    series = object.__new__(kind)
    fields = series.__dict__
    fields["i"] = i
    fields["j"] = j
    fields["times"] = times
    fields["values"] = values
    return series


def _check_times(times: np.ndarray, classical: bool) -> None:
    """A negative classical time, then a NaN or infinite one, raise UsageError."""
    if classical and (times < 0).any():
        raise UsageError("classical evolution needs t >= 0")
    if not np.isfinite(times).all():
        raise UsageError("times must be finite (NaN or inf given)")


def _spectral_sum(x, coeff, times, z, table=None):
    """values[..., k] = sum_s coeff[..., s] * exp(z * x[s] * times[k]),
    shaped coeff.shape[:-1] + times.shape: coeff is one row of S
    coefficients or a stack of rows, over a float array of finite times;
    z is -1 (classical) or +-1j.  coeff is made C-contiguous first: numpy
    reduces a node axis that is not contiguous in another order, so an
    F-ordered stack (rows of the eigenvector table, say) would give rows
    that differ from the single-row sums in the last place.

    The time grid is walked in blocks of _BLOCK_TERMS // S times, a
    height set by S alone, so each temporary holds at most one block of
    2**14 terms (256 KB complex) per coefficient row, however long the
    grid: one row over 2001 times and 1024 nodes peaks below 1 MB, where
    a whole (T, S) table needs 33 MB per temporary.  A block's phases
    are computed once by :func:`_phase_blocks` and reduced against every
    row.  A table is the (T, S) phases :func:`_phase_blocks` gave for
    these x, times and z in one block (a payload :func:`_entry` keeps):
    with it, each block's rows are read in place of the exponentials,
    and the values are the same doubles.

    Each row of a block is reduced by numpy's pairwise sum over the
    contiguous node axis, never a shape-dependent matmul, so the value
    at a given t depends neither on the rest of the grid, nor on the
    block it falls in, nor on the other rows: output is bitwise
    reproducible.

    Nodes that are an exact arithmetic progression, every np.diff(x) == h
    > 0, of at least _LATTICE_MIN nodes (:func:`_spacing`), take the
    lattice form :func:`_horner_blocks` and never a table.  Default
    Meixner builds, atoms on the integers (68 of them at beta = 0.5,
    c = 0.2; 1236 at 2.5, 0.9), are such spectra.  The sum is
    e^{z x_0 t} P(w), a polynomial in w = e^{z h t} summed by blocked
    Horner, for B + 2 exponentials per time in place of S, with
    B = _LATTICE_BLOCK.  Its error at t is at most
    k u (max_s |x_s t| + ceil(S / B) + B) sum_s |c_s| for the unit
    roundoff u and a small k (the tests hold k = 4, with x, t >= 0 for a
    classical sum), a bound the direct form meets too; where x t is
    large the lattice form is the more accurate one (equal masses on
    x_s = 0.25 s - 7, S = 2048, t = 99.99: 3.0e-17 off a 40-digit sum,
    against 2.8e-15).  Its values do not depend on the grid or on the
    order of calls either, but they are not the direct form's doubles.
    The test is exact equality: eigensolver spectra (pst-demo, random
    chains) and cosines (uniform chains) are not exact progressions in
    floating point, and the O(1) checks of the end and middle gaps turn
    them away before the O(S) one; sc atoms, the rounded multiples
    s pi / K, rarely are (2 of the 52 sc builds of the long-grid
    benchmark are).
    """
    coeff = np.ascontiguousarray(coeff)
    flat = times.reshape(-1)
    dtype = complex if isinstance(z, complex) else float
    out = np.empty(coeff.shape[:-1] + flat.shape, dtype=dtype)
    spacing = None if table is not None else _spacing(x)
    if spacing is not None:
        _horner_blocks(x[0], spacing, coeff, flat, z, out)
        return out.reshape(coeff.shape[:-1] + times.shape)
    step = max(1, _BLOCK_TERMS // max(x.shape[0], 1))
    starts = range(0, flat.size, step)
    blocks = (_phase_blocks(x, z, flat, step) if table is None
              else (table[start:start + step] for start in starts))
    for start in starts:
        # no name holds a block, so each is freed as the next one is made
        np.add.reduce(coeff[..., None, :] * next(blocks), axis=-1,
                      out=out[..., start:start + step])
    return out.reshape(coeff.shape[:-1] + times.shape)


def _spacing(x):
    """h when the nodes x are an exact arithmetic progression of at least
    _LATTICE_MIN nodes, every np.diff(x) == h > 0; else None."""
    size = x.shape[0]
    if size < _LATTICE_MIN:
        return None
    h = x[1] - x[0]
    # the O(1) end and middle gaps first, then the O(S) test
    if not (h > 0 and x[-1] - x[-2] == h and x[size // 2] - x[size // 2 - 1] == h):
        return None
    return h if (np.diff(x) == h).all() else None


def _horner_blocks(x0, h, coeff, flat, z, out):
    """out[..., k] = sum_s coeff[..., s] exp(z (x0 + s h) flat[k]) by
    blocked Horner in w = exp(z h t): with B = _LATTICE_BLOCK and the
    coefficients zero-padded to Q = ceil(S / B) blocks,

        sum_s c_s e^{z x_s t} = e^{z x0 t} sum_q W^q sum_{r<B} c_{qB+r} w^r,
        W = w^B,

    over blocks of _BLOCK_TERMS // B times, so that a temporary holds
    one block of 2**14 terms per coefficient row.  Per time it takes
    B + 2 exponentials, the phases e^{z r h t} for r < B, W = e^{z B h t}
    and e^{z x0 t}, then runs acc = acc W + sum_r c_{qB+r} w^r over the
    node blocks, highest first.  Each inner sum is numpy's pairwise sum
    over the contiguous r axis, and every other step acts on each time
    alone, so a value depends only on its own t.  A complex product is
    taken as its four real products and two sums (:func:`_product`)."""
    size = coeff.shape[-1]
    count = -(-size // _LATTICE_BLOCK)
    padded = np.zeros(coeff.shape[:-1] + (count * _LATTICE_BLOCK,))
    padded[..., :size] = coeff
    blocks = padded.reshape(coeff.shape[:-1] + (count, _LATTICE_BLOCK))
    offsets = z * (np.arange(_LATTICE_BLOCK) * h)
    stride = z * (_LATTICE_BLOCK * h)
    step = _BLOCK_TERMS // _LATTICE_BLOCK
    for start in range(0, flat.size, step):
        t = flat[start:start + step]
        phases = np.exp(offsets * t[:, None])
        power = np.exp(stride * t)
        acc = np.add.reduce(blocks[..., count - 1, None, :] * phases, axis=-1)
        for q in range(count - 2, -1, -1):
            acc = _product(acc, power)
            acc += np.add.reduce(blocks[..., q, None, :] * phases, axis=-1)
        out[..., start:start + step] = _product(acc, np.exp(z * x0 * t))


def _product(a, b):
    """a * b for a b that broadcasts to a's shape, a complex product
    rounded as (ar br - ai bi) + i (ar bi + ai br), each real product and
    sum on its own: numpy's complex multiply fuses a product and a sum in
    its SIMD loops on some builds and not in its strided or scalar ones,
    so its doubles could depend on the memory layout, and with it on the
    grid."""
    if a.dtype.kind != "c":
        return a * b
    out = np.empty_like(a)
    np.subtract(a.real * b.real, a.imag * b.imag, out=out.real)
    np.add(a.real * b.imag, a.imag * b.real, out=out.imag)
    return out


def _phase_blocks(x, z, flat, step: int):
    """Yield exp(z * x[s] * flat[k]) for each block of step times of flat,
    shaped (block size, S): the phases of :func:`_spectral_sum`.  Each
    block is made after the generator drops the previous one and before
    the exponent's temporary, so the temporaries reuse the freed block's
    memory: when the caller also held the previous block, a one-row sum
    over 49 to 512 mirrored nodes and 2001 times took about 10 % longer
    (glibc heap, one thread of a 2-core x86-64 host).

    Phases are complex exp for every imaginary z.  Forming e^{-ixt} from
    real cos/sin gives the same doubles but took longer (97 against
    85 ms for 1024 nodes and 2001 times, one thread of a 2-core x86-64
    host), so one form is kept.

    For an imaginary z on a mirrored spectrum, x[::-1] == -x exactly (as
    for a chain with zero diagonal built from a closed form), exp is
    taken on the upper half z x[S//2:] only (the middle node of an odd S
    included), and the lower columns are the conjugates of the reversed
    upper ones.  At -x
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
    size = x.shape[0]
    low = size // 2
    zx = z * x
    # the O(1) end test first, then the O(S) one
    mirrored = (isinstance(z, complex) and not z.real and size > 1 and x[0] == -x[-1]
                and np.array_equal(x[::-1], -x))
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
    """P_ij with pi (kernel e^{-xt}, sign and prefactor applied), else
    f_ij (kernel e^{-ixt}), for each source i and target j over times (a
    float array its callers have checked by :func:`_check_times`), shaped
    (len(sources), len(targets)) + times.shape, all rows sharing each
    block of phases, or the rows of a table of the measure's phases over
    these times (a payload :func:`_entry` keeps).  Every finished P_ij
    and f_ij is made here, and an entry is the same double in any stack,
    with or without a table.

    The coefficients c_s = w_s chi_i(x_s) chi_j(x_s) are the products
    W[i, s] W[j, s] of the rows of W = sqrt(w) chi that
    spectral._weighted_rows reads: an eigendecomposed measure's
    eigenvectors (a closed-form measure computes just these rows), any
    other measure's certified Lanczos rows, where a site past them
    raises NumericError before the kernel runs."""
    x = measure.nodes_and_weights()[0]
    coeff = _weighted_rows(measure, sources)[:, None] * _weighted_rows(measure, targets)
    z = -1j if pi is None else -1.0
    rows = _spectral_sum(x, coeff, times, z, table)
    if pi is not None:
        rows *= _prefactors(pi, sources, targets).reshape(coeff.shape[:2] + (1,) * times.ndim)
    return rows


def _entry(measure: SpectralMeasure, i: int, j: int, times: np.ndarray,
           rates: BirthDeathRates | None = None) -> tuple[np.ndarray, bool]:
    """The entry (i, j) of :func:`_rows` over times, in an array of the
    caller's own, and whether it passed _in_band as an entry of a stack
    (every f entry does; an entry evaluated alone is unchecked, False):
    P_ij with rates, f_ij without, pi read from the kind's record or
    bound anew.

    The measure's record of the kind, (rates, times key, pi, sources,
    passed, payload), is read and, on a miss, replaced (see the module
    docstring).  When n S T <= _BLOCK_TERMS, the rows of the aligned
    sources [i0, i0 + k) holding i, k = _BLOCK_TERMS // (n S T), are
    evaluated and kept as its payload, with each entry's verdict: one
    _in_band over a P stack, and one per entry only when that fails.  A
    stack holds only rows _weighted_rows serves, so on a measure without
    its eigenvectors its sources and targets are the certified rows
    (spectral._lanczos_rows), and an entry past them raises
    NumericError before any kernel pass.  A larger entry is evaluated
    alone; when the measure carries its eigenvectors
    (spectral._carries_eigenvectors) with no quadrature rule and n >= 2 T
    sites for T >= 1 times, and its nodes are not a lattice
    (:func:`_spacing`), the (T, S) phases :func:`_phase_blocks` makes in
    one block are its payload, which later such entries reduce their
    rows against.
    """
    key = (times.shape, times.tobytes())
    last = measure._entries.get(rates is not None)
    bound = last is not None and last[0] is rates
    same = bound and last[1] == key
    if same and i in last[3] and 0 <= j < last[5].shape[1]:
        row = i - last[3].start
        return last[5][row, j, ...].copy(), last[4][row][j]
    pi = last[2] if bound else None
    if rates is not None and not bound:
        pi = _bind(measure, rates)[0]
    size = measure.jacobi.size
    _check_sites(size, i, j)
    if same and not last[3]:
        # no stack for these times: a large entry
        return _rows(measure, range(i, i + 1), [j], times, pi, last[5])[0, 0, ...], False
    # a hit skips this: a record's key holds only times that passed
    _check_times(times, rates is not None)
    x = measure.nodes_and_weights()[0]
    per_row = size * x.size * times.size
    held = (0 if per_row > _BLOCK_TERMS else size if _carries_eigenvectors(measure)
            else len(_lanczos_rows(measure, size)[0]))
    if max(i, j) < held:
        k = _BLOCK_TERMS // max(per_row, 1)
        sources = range(i - i % k, min(i - i % k + k, held))
        payload = _rows(measure, sources, range(held), times, pi)
        # the row lists are only read, so one list may serve every row
        passed = ([[True] * held] * len(sources) if pi is None or _in_band(payload)
                  else _band(payload).all(axis=tuple(range(2, payload.ndim))).tolist())
        row = i - sources.start
        values, ok = payload[row, j, ...].copy(), passed[row][j]
    else:
        sources, passed, ok, payload = range(0), [], False, None
        if (_carries_eigenvectors(measure) and measure.quad_points is None
                and 0 < 2 * times.size <= size and _spacing(x) is None):
            flat = times.reshape(-1)
            payload = next(_phase_blocks(x, -1j if pi is None else -1.0, flat, flat.size))
        values = _rows(measure, range(i, i + 1), [j], times, pi, payload)[0, 0, ...]
    measure._entries[rates is not None] = (rates, key, pi, sources, passed, payload)
    return values, ok


def _prefactors(pi: PiCoefficients, sources: range, targets) -> np.ndarray:
    """(-1)^(i+j) sqrt(pi_j / pi_i) for the sources i (rows) and the
    targets j (columns), in one vector operation."""
    rows = np.arange(sources.start, sources.stop)[:, None]
    cols = (np.arange(targets.start, targets.stop) if isinstance(targets, range)
            else np.asarray(targets))
    ratio = np.exp(0.5 * (pi.log_values[cols] - pi.log_values[rows]))
    ratio *= np.where((rows & 1) != (cols & 1), -1.0, 1.0)
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

    An array x of the rates agrees with the operator's y when
    |x - y| <= 1e-13 max(1, max |B|) + 1e-12 |y| elementwise: the test
    of np.allclose, to which it reduces on the operator's finite entries
    (JacobiOperator refuses others).
    """
    j_op = measure.jacobi
    n = j_op.size - 1
    try:
        lam, mu = _gather(rates, n, "absorbing-tail")
    except (UsageError, DomainError) as exc:
        raise UsageError(
            f"rates do not extend to the measure's {n + 1}-site operator: {exc}") from exc
    b, coupling = lam + mu, np.sqrt(lam[:-1] * mu[1:])
    reflecting = b.copy()
    reflecting[n] = mu[n]
    atol = 1e-13 * max(1.0, float(np.max(np.abs(j_op.b))))

    def close(x, y):
        return (abs(x - y) <= atol + 1e-12 * abs(y)).all()

    diagonals = zip(BOUNDARIES, (reflecting, b))
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
        UsageError.  The measure keeps the last rates it was called with,
        and their pi, until it is freed or called with other rates.
    rates : BirthDeathRates
        Supplies the potential coefficients pi for the prefactor.
    i, j : int
        Sites of the operator; a value that is not (2.7, 2.0, "1", None,
        -1, N) raises UsageError.
    times : array_like
        Nonnegative, finite time grid, else UsageError.

    Every P returned holds no NaN and lies in [-1e-6, 1 + 1e-6], else
    NumericError.  On a measure that does not carry its eigenvectors
    (Meixner, sc and directly built measures), chi_i is read from the
    measure's Lanczos rows, each with one certificate: the larger of the
    mismatch of the recurrence coefficients Lanczos recovers against the
    operator's own, relative to its scale, and the site's tail, the mass
    of its modified measure that the nodes leave out (1 after a
    breakdown; NaN with a NaN weight).  A site i or j whose certificate
    exceeds 1e-10 raises NumericError naming the site and the
    certificate.
    """
    i, j = _integer("i", i), _integer("j", j)
    times_arr = np.asarray(times, dtype=float)
    values, passed = _entry(measure, i, j, times_arr, rates)
    if passed:
        return _series(ProbabilitySeries, i, j, times_arr, values)
    return ProbabilitySeries(i=i, j=j, times=times_arr, values=values)


def quantum_amplitude(measure: SpectralMeasure, i: int, j: int, times) -> AmplitudeSeries:
    """f_ij(t) = <i| exp(-iJt) |j> over a time grid.

    The sign convention is f(t) = exp(-iJt), so the spectral kernel is
    e^{-i x t} and f_ij(-t) = conj(f_ij(t)).  Unlike P, f is not checked
    against [-1e-6, 1 + 1e-6].  A site i or j that is not a site of the
    operator (2.7, 2.0, "1", None, -1, N) or a NaN or infinite time
    raises UsageError.  On a measure that does not carry its
    eigenvectors (Meixner, sc and directly built measures), chi_i is
    read from the measure's Lanczos rows, each with one certificate: the
    larger of the mismatch of the recurrence coefficients Lanczos
    recovers against the operator's own, relative to its scale, and the
    site's tail, the mass of its modified measure that the nodes leave
    out (1 after a breakdown; NaN with a NaN weight).  A site whose
    certificate exceeds 1e-10 is past the certified rows and raises
    NumericError naming the site and the certificate.
    """
    i, j = _integer("i", i), _integer("j", j)
    times_arr = np.asarray(times, dtype=float)
    return _series(AmplitudeSeries, i, j, times_arr, _entry(measure, i, j, times_arr)[0])


def oracle_expm(operator, t: float) -> np.ndarray:
    """Dense reference evolution, independent of the spectral path.

    GeneratorMatrix -> exp(t A) by scaling-and-squaring;
    JacobiOperator -> exp(-i J t) by dense symmetric eigendecomposition;
    anything else is refused.  Accuracy target 1e-12 at sizes <= 32;
    sizes above 512 and times with |t| > 1e3 or NaN are refused rather
    than returned inaccurate.
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
    if operator.size > _ORACLE_SIZE_CAP:
        raise UsageError(f"oracle size {operator.size} above cap {_ORACLE_SIZE_CAP}")
    for t in times:
        if not abs(t) <= _ORACLE_TIME_CAP:  # NaN fails
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
