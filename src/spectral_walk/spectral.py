"""Orthogonality measures of Jacobi operators and polynomial evaluation.

A symmetric Jacobi operator J with positive couplings has orthonormal
recurrence polynomials chi_i(x),

    chi_{-1} = 0,  chi_0 = 1,
    J_{i+1} chi_{i+1}(x) = (x - B_i) chi_i(x) - J_i chi_{i-1}(x),

and a probability measure under which they are orthonormal.  For a
finite operator that measure is discrete: the points are the eigenvalues
and the mass at each point is the squared first component of the
normalized eigenvector (the Golub-Welsch construction).  A continuous
part is represented by a Gauss quadrature rule whose weights already
include the density, so every downstream consumer can treat "nodes and
weights" uniformly.

An operator with one diagonal value a and one coupling c (the finite
uniform chain) needs no eigensolve: its eigenvalues a + 2c cos(k pi/(n+1))
and sine eigenvectors are known in closed form, which one function,
:func:`_constant_chain`, makes.  eigendecompose keeps that form on the
measure, 2(n+1) sines and n wave numbers, instead of an n x n table.
The Gauss quadrature of the continuous uniform chain (chain_families)
is the eigen-measure of the chain sized to it (Golub-Welsch), so
:func:`_constant_gauss_rule` keeps the same form, byte for byte, passed
to the measure's constructor in the one call that builds it.  Only
:func:`_weighted_rows` reads the form: it computes only the rows a call
reads, each within about 1e-12 of LAPACK's, and the measure's
``weighted_chi`` is None.

An operator with a zero diagonal whose couplings read the same
reversed (persymmetric, as the perfect-transfer chain is) is still
solved by LAPACK, as a symmetric and a skew half-size block; with an
even size one block gives both, and the points are exactly mirrored
about 0 too.  Any other operator takes one full-size LAPACK solve.

The polynomials are evaluated as one weighted table W[i, s] =
sqrt(w_s) chi_i(x_s) at the nodes x_s with weights w_s, read row by row
through :func:`_weighted_rows`: the eigenvectors of a measure that
carries them (:func:`_carries_eigenvectors`), and for any other measure
the rows that Lanczos on diag(x) from sqrt(w) builds (:func:`_lanczos`;
Gragg & Harrod, Numer. Math. 44, 1984).  Those rows are the orthonormal
polynomials of the measure as given, orthonormal to roundoff, and the
recurrence coefficients (alpha_i, beta_i) that Lanczos recovers certify
them against the operator's own (B_i, J_i): row i is sqrt(w) chi_i
exactly when the coefficients that build it match.  Each row has one
certificate, computed in :func:`_lanczos` alone: the larger of the
cumulative mismatch of those coefficients relative to the operator's
scale and the site tail 1 - prod_{k <= i} (beta_k / J_k)^2, the mass of
site i's modified measure that the nodes leave out.  A row whose
certificate exceeds _CERTIFICATE_TOL = 1e-10 is not certified, nor is
any later row, and reading it raises NumericError; a breakdown (too few
nonzero weights) makes the tail 1 and a NaN weight makes the
certificate NaN, so neither certifies.  The family builders size their
supports by the same certificate (chain_families._truncated).
On a normalized measure sum_s W[i, s]^2 <= 1, so every entry is at most
1 in size, and the coefficients w_s chi_i(x_s) chi_j(x_s) are products
W[i, s] W[j, s].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .jacobi_core import JacobiOperator
from .errors import NumericError, UsageError

__all__ = [
    "SpectralMeasure",
    "eigendecompose",
]

# largest certificate of a certified Lanczos row (see _lanczos)
_CERTIFICATE_TOL = 1e-10


def _check_finite(name: str, values: np.ndarray) -> None:
    """Refuse (UsageError) an array holding a NaN or inf, by its name."""
    if not np.isfinite(values).all():
        raise UsageError(f"non-finite {name}: NaN or inf given")


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure with a discrete and/or continuous part, made
    by one constructor call that checks and freezes every field.

    Attributes
    ----------
    jacobi : JacobiOperator
        The operator whose recurrence polynomials this measure
        orthonormalizes; also the evaluator used for chi_i(x).
    points, masses : ndarray
        Discrete atoms (points in increasing order, nonnegative masses;
        points out of order are refused, not sorted, and a negative mass
        is refused, since the table takes its square root).
        Every point, mass, quadrature point and weight must be finite.
        Equal consecutive points are allowed: an operator can have
        eigenvalues that coincide in floating point, each with its own
        eigenvector column.
    quad_points, quad_weights : ndarray or None
        Quadrature rule representing the continuous part, given together
        or not at all; the weights already include the density, so sums
        against them approximate integrals against the continuous part.
        Weights are nonnegative, as masses are.
    weighted_chi : ndarray or None
        Table W[i, s] = sqrt(M_s) chi_i(x_s), present when the atoms are
        the operator's own eigenvalues (it is then the sign-fixed
        eigenvector matrix), and then read by evaluation; a table given
        beside a quadrature rule is refused.  A closed-form measure (a
        constant operator from :func:`eigendecompose`, or
        :func:`_constant_gauss_rule`) has none: :func:`_weighted_rows`
        computes the rows a call reads from the closed form.  Any other
        measure has none either: evaluation reads its certified Lanczos
        rows (see :func:`_lanczos`), and a site past them raises
        NumericError.
    """

    jacobi: JacobiOperator
    points: np.ndarray
    masses: np.ndarray
    quad_points: np.ndarray | None = None
    quad_weights: np.ndarray | None = None
    weighted_chi: np.ndarray | None = None
    # (sines, wave numbers) of a constant operator's table, see _constant_chain
    _closed_form: tuple | None = field(default=None, repr=False, compare=False)
    # (table, count, certificate, kept) of the Lanczos rows read, see _lanczos
    _lanczos: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _entries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ms = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        if pts.shape != ms.shape:
            raise UsageError("points and masses differ in length")
        _check_finite("points", pts)
        _check_finite("masses", ms)
        if not (pts[1:] >= pts[:-1]).all():
            raise UsageError("discrete points must be in increasing order")
        if (ms < 0).any():
            raise UsageError(f"negative mass {ms.min()} in discrete part")
        if (self.quad_points is None) != (self.quad_weights is None):
            raise UsageError("continuous part needs both quadrature points and weights")
        if self.quad_points is not None:
            qp = np.asarray(self.quad_points, dtype=float)
            qw = np.asarray(self.quad_weights, dtype=float)
            if qp.shape != qw.shape:
                raise UsageError(
                    f"{qp.size} quadrature points but {qw.size} quadrature weights")
            _check_finite("quadrature points", qp)
            _check_finite("quadrature weights", qw)
            if (qw < 0).any():
                raise UsageError(f"negative quadrature weight {qw.min()} in continuous part")
            object.__setattr__(self, "quad_points", qp)
            object.__setattr__(self, "quad_weights", qw)
            qp.setflags(write=False)
            qw.setflags(write=False)
        if self.weighted_chi is not None:
            if self.quad_points is not None:
                raise UsageError("weighted_chi given beside a quadrature rule; "
                                 "a table is kept only for a discrete measure")
            wc = np.asarray(self.weighted_chi, dtype=float)
            if wc.shape != (self.jacobi.size, len(pts)):
                raise UsageError(
                    f"weighted_chi has shape {wc.shape}, expected "
                    f"({self.jacobi.size}, {len(pts)})")
            object.__setattr__(self, "weighted_chi", wc)
            wc.setflags(write=False)
        pts.setflags(write=False)
        ms.setflags(write=False)

    def __getstate__(self):
        """Pickles and copies start with no per-entry records (see
        dynamics._entry) and no Lanczos rows."""
        return {**vars(self), "_entries": {}, "_lanczos": None}

    @property
    def kind(self) -> str:
        if self.quad_points is None:
            return "discrete"
        return "continuous" if len(self.points) == 0 else "mixed"

    @property
    def continuous_mass(self) -> float:
        return float(self.quad_weights.sum()) if self.quad_weights is not None else 0.0

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum()) + self.continuous_mass

    def nodes_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """All evaluation nodes with their masses/quadrature weights, in a
        fixed order (atoms first): the single interface dynamics needs."""
        if self.quad_points is None:
            return self.points, self.masses
        if len(self.points) == 0:
            return self.quad_points, self.quad_weights
        return (np.concatenate([self.points, self.quad_points]),
                np.concatenate([self.masses, self.quad_weights]))


def eigendecompose(j_op: JacobiOperator) -> SpectralMeasure:
    """Discrete orthogonality measure of a finite Jacobi operator.

    Eigenvalues of the symmetric tridiagonal matrix are the points; the
    mass at each point is the squared first component of the normalized
    eigenvector, renormalized so the masses sum to 1 exactly.

    The eigenvector matrix itself is kept on the measure (sign-fixed so
    row 0 is nonnegative) as ``weighted_chi``, or its closed form (see
    below), and evaluation reads its rows through :func:`_weighted_rows`.
    Nearby and even equal eigenvalues are kept as separate atoms: the
    divide-and-conquer solve (LAPACK ``dstevd``, see :func:`_eigh`)
    returns eigenvectors that are orthonormal to working precision
    however close the eigenvalues are (Gu & Eisenstat, SIAM J. Matrix
    Anal. Appl. 16, 1995), so the table stays valid.

    An operator whose diagonal entries are all equal and whose
    couplings are all equal (exact equality, as for the finite uniform
    chain) needs no eigensolve: its points and its table's closed form,
    2(n+1) sines and n wave numbers, come from :func:`_constant_chain`,
    and the measure keeps that form instead of the n x n table: each
    call computes only the rows it reads (:func:`_weighted_rows`), and
    ``weighted_chi`` is None.  The masses are the squares of row 0
    normalized, as for a solved table.  At 2048 sites the rows are
    within 6e-13 of the LAPACK table and their Gram deviation
    max |W^T W - I| is 9e-16 (LAPACK's: 4.5e-15).

    Any other operator with a zero diagonal whose couplings read the
    same reversed (j[::-1] == j exactly, as for the perfect-transfer
    chain) is solved by ``scipy.linalg.eigh_tridiagonal`` as half-size
    symmetric and skew blocks (:func:`_mirrored_chain`), and with an
    even size as one block whose points mirror exactly.  Every other
    operator, a mirror-symmetric one with a nonzero diagonal included,
    goes to ``scipy.linalg.eigh_tridiagonal`` whole.
    """
    b, e = j_op.b, j_op.j
    c = e[0] if e.size else 0.0
    closed_form = table = None
    if (b == b[0]).all() and (e == c).all():
        vals, _, sines, k = _constant_chain(b[0], c, b.size)
        closed_form = (sines, k)
    elif not b.any() and np.array_equal(e, e[::-1]):
        vals, table = _mirrored_chain(e)
    else:
        vals, table = _eigh(b, e)
    # row 0 of a closed form: (0 + 1) k_s mod 2(n+1) is k_s
    masses = (sines[k] if table is None else table[0, :]) ** 2
    return SpectralMeasure(jacobi=j_op, points=vals, masses=masses / masses.sum(),
                           weighted_chi=table, _closed_form=closed_form)


def _carries_eigenvectors(measure: SpectralMeasure) -> bool:
    """Whether the measure's nodes are its operator's eigenvalues and it
    carries their eigenvectors: a table of its atoms (``weighted_chi``,
    never given beside a quadrature rule), or a closed form (of an
    eigendecomposed constant chain, or of :func:`_constant_gauss_rule`).
    Then :func:`_weighted_rows` reads its rows from them, and every row
    is exact to the eigensolver's accuracy."""
    return measure._closed_form is not None or measure.weighted_chi is not None


def _constant_gauss_rule(j_op: JacobiOperator) -> SpectralMeasure:
    """The continuous measure of the m-site operator j_op with every
    diagonal entry a and every coupling c under the order-m Gauss rule of
    its semicircle density, the points and weights of
    :func:`_constant_chain`, keeping that function's closed form of the
    rows: evaluation reads them as it does an eigendecomposed constant
    chain's, at any site for the cost of the rows read, with no Lanczos
    rows, and row 0 is sqrt(w) itself.  The measure is built in one
    constructor call, closed form included, as eigendecompose builds its
    own."""
    points, weights, sines, k = _constant_chain(j_op.b[0], j_op.j[0], j_op.size)
    return SpectralMeasure(jacobi=j_op, points=np.empty(0), masses=np.empty(0),
                           quad_points=points, quad_weights=weights, _closed_form=(sines, k))


def _weighted_rows(measure: SpectralMeasure, sites) -> np.ndarray:
    """Rows W[i, :] of the measure's weighted table for the sites i (a
    nonempty range or sequence of ints, sites of the operator checked by
    the caller), shaped (len(sites), S).

    A measure that :func:`_carries_eigenvectors` reads its stored
    ``weighted_chi`` (a range as a slice, a view), or from a closed form
    (see :func:`_constant_chain`) computes W[i, s] = sines[(i+1) k_s mod
    2(n+1)] for those rows alone; this is the one reader of a closed
    form.  The integer index is reduced exactly, so the argument
    reduction of the sine is exact.  Any other measure reads its
    certified Lanczos rows (:func:`_lanczos_rows`), and a site past them
    raises NumericError naming the site and the certificate."""
    # a list indexes rows, where a tuple would index axes
    rows = slice(sites.start, sites.stop) if isinstance(sites, range) else list(sites)
    if _carries_eigenvectors(measure):
        table = measure.weighted_chi
    else:
        table, certificate = _lanczos_rows(measure, max(sites) + 1)
        if len(table) <= max(sites):
            raise NumericError(
                f"site {min(s for s in sites if s >= len(table))}: certificate "
                f"{certificate:.3e} of row {len(table)} is above {_CERTIFICATE_TOL:g}")
    if table is not None:
        return table[rows]
    sines, k = measure._closed_form
    index = np.multiply.outer(np.arange(1, k.size + 1)[rows], k)
    np.remainder(index, sines.size, out=index)
    return sines[index]


def _lanczos_rows(measure: SpectralMeasure, stop: int) -> tuple[np.ndarray, float | None]:
    """The certified Lanczos rows 0..stop-1 of a measure that does not
    carry its eigenvectors, fewer when one is not certified, and the
    certificate of the first row that is not (row len(rows)), or None.
    The measure keeps the state of :func:`_lanczos` and resumes it only
    when a call asks for more rows and no row has failed."""
    state = measure._lanczos
    if state is None or (state[2] is None and state[1] < stop):
        state = _lanczos(*measure.nodes_and_weights(), measure.jacobi, stop, state)
        object.__setattr__(measure, "_lanczos", state)
    table, count, certificate, _ = state
    return table[:count], certificate


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # NaN is not certified
def _lanczos(x: np.ndarray, w: np.ndarray, j_op: JacobiOperator, stop: int,
             state: tuple | None = None) -> tuple:
    """The state (table, count, certificate, kept) of the Lanczos rows
    W[i, s] = sqrt(w_s) p_i(x_s), p_i the orthonormal polynomials of the
    nodes x with weights w, grown from an earlier state of the same
    arguments whose rows all certified (None: row 0, sqrt(w), alone)
    until stop rows or the first row that j_op does not certify:
    table[:count] holds the certified rows, certificate is that of row
    count when it is not certified, else None, and kept is the product
    prod_k (beta_k / J_k)^2 over the rows tried.  The table's capacity
    doubles with the rows made, never past j_op.size, whatever stop is,
    so reading rows one site at a time copies O(K S) doubles in all.

    The rows come from Lanczos on diag(x) from sqrt(w) with full
    reorthogonalization (Gragg & Harrod, Numer. Math. 44, 1984;
    Gautschi, Orthogonal Polynomials, OUP 2004, section 2.2.3), one at
    a time.  Every row has the norm ||sqrt(w)|| of row 0, as the rows
    sqrt(w) chi_i have on a full support.  Row i is made from the
    coefficients alpha_k = <W_k, x W_k> / ||sqrt(w)||^2 of the rows
    k < i and the norms beta_k of the residuals that give rows 1..i, and
    it is sqrt(w) chi_i exactly when those match B_k and J_k of j_op.
    Its certificate is the larger of their cumulative mismatch relative
    to the operator's scale,

        max over 1 <= k <= i of max(|alpha_{k-1} - B_{k-1}|, |beta_k - J_k|) / s_k,

    with s_k the largest |B| and J that rows 0..k read, and the site
    tail 1 - prod_{k <= i} (beta_k / J_k)^2.  The tail is the deficit
    1 - sum_s w_s chi_i(x_s)^2 relative to row 0, the mass of site i's
    modified measure that the nodes leave out, up to terms of second
    order in the mismatch (chi_i is the row times the ratio
    prod beta_k / J_k of their leading coefficients plus lower rows of
    first-order size, which enter its norm only squared).  Rows can
    certify their coefficients and still leave a tail of about twice the
    mismatch (sc-d at k = 0.8 on 49 atoms: mismatch below 1e-10 to row
    10, site-10 tail 1.8e-10, values 1.7e-10 off the exact measure), so
    both count.  The tail can err toward refusing: Meixner (1.3, 0.9)
    has a site-18 tail of 1.1e-10 and an error of 1e-11 there.

    Row i is certified while its certificate is at most
    _CERTIFICATE_TOL, and row 0, which no coefficient makes, always is.
    A breakdown, beta_i = 0 (fewer nonzero weights than rows), makes the
    tail 1, and a NaN weight makes every later certificate NaN, so
    neither certifies.  No row past the first uncertified one is made,
    and the certificate reported for that row is its own, the earlier
    ones being at most _CERTIFICATE_TOL.
    """
    table, count, certificate, kept = state or (np.sqrt(w)[None, :], 1, None, 1.0)
    norm2 = table[0] @ table[0]
    for i in range(count, stop):
        if i == len(table):  # rows past i are made before they are read
            table = np.resize(table, (min(2 * i, j_op.size), x.size))
        residual = x * table[i - 1]
        alpha = table[i - 1] @ residual / norm2
        for _ in range(2):  # twice is enough (Parlett, SIAM 1998, section 6.9)
            residual -= (table[:i] @ residual / norm2) @ table[:i]
        beta = np.sqrt(residual @ residual / norm2)
        kept *= (beta / j_op.j[i - 1]) ** 2
        scale = max(np.abs(j_op.b[:i]).max(), j_op.j[:i].max())
        certificate = np.max([abs(alpha - j_op.b[i - 1]) / scale,
                              abs(beta - j_op.j[i - 1]) / scale, 1.0 - kept])
        if not certificate <= _CERTIFICATE_TOL:  # NaN fails
            return table, i, float(certificate), kept
        table[i] = residual / beta
    return table, stop, None, kept


def _eigh(b: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and eigenvector table of the tridiagonal operator with
    diagonal b and couplings e from ``scipy.linalg.eigh_tridiagonal``,
    each column's sign fixed in place so row 0 is nonnegative.  A LAPACK
    failure is raised as NumericError.

    The driver is pinned to divide and conquer (``dstevd``), the one
    scipy 1.17's ``'auto'`` picks for a full solve, where earlier
    releases' ``'auto'`` could take MRRR (``dstemr``).  MRRR keeps a
    solve's peak at the table's size, where dstevd's N x N workspace
    doubles it, but its tables miss the Gram bound
    max |W^T W - I| <= 1e-13 that the tests hold a table to (6.9e-13 on
    one random-rate chain).  b and e are finite (JacobiOperator refuses
    other entries, and :func:`_mirrored_chain` checks the one coupling
    it scales), so scipy's own finiteness pass is skipped."""
    try:
        vals, table = scipy.linalg.eigh_tridiagonal(b, e, check_finite=False,
                                                    lapack_driver="stevd")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    np.multiply(table, np.where(table[0, :] < 0, -1.0, 1.0), out=table)
    return vals, table


def _mirrored_chain(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and table of the operator of n >= 2 sites with a zero
    diagonal and couplings e that read the same reversed, from half-size
    eigenproblems (Cantoni & Butler, Linear Algebra Appl. 13, 1976), with
    R the reversal:

      * n = 2m: eigenvectors [u; +-Ru]/sqrt(2), u an eigenvector of the
        leading m x m block with last diagonal entry +-e[m-1].  The minus
        block is -D (plus block) D, D = diag((-1)^i), so one solve gives
        both: its points negated and reversed, and its columns reversed
        with odd rows negated.  The points are exactly mirrored
        (x[::-1] == -x).
      * n = 2m+1: symmetric [y[:m]/sqrt(2); y[m]; R y[:m]/sqrt(2)], y of
        the leading (m+1) x (m+1) block with last coupling sqrt(2) e[m-1],
        and skew [u; 0; -Ru]/sqrt(2), u of the leading m x m block.

    Ascending, the eigenvectors alternate between skew and symmetric and
    the largest is symmetric, so each half's points and columns are
    written to every second slot with no sort.  Where rounding puts a
    pair closer than roundoff out of that order (the mirror-image
    localized states of a disordered chain), the points are sorted and
    only the columns that change place are moved: each is still its
    point's eigenvector.  If sqrt(2) e[m-1] overflows, the full operator
    is solved instead.  The table is Fortran-ordered, as LAPACK's is.
    """
    n = e.size + 1
    m = n // 2
    s = math.sqrt(0.5)
    if n % 2:
        sym, skew = slice(0, None, 2), slice(1, None, 2)
        with np.errstate(over="ignore"):
            plus_e = np.r_[e[:m - 1], math.sqrt(2.0) * e[m - 1]]
        if not np.isfinite(plus_e[-1]):
            return _eigh(np.zeros(n), e)
        vp, up = _eigh(np.zeros(m + 1), plus_e)
        vm, um = _eigh(np.zeros(m), e[:m - 1])
        skew_rows = s
    else:
        sym, skew = slice(1, None, 2), slice(0, None, 2)
        plus_b = np.zeros(m)
        plus_b[-1] = e[m - 1]
        vp, up = _eigh(plus_b, e[:m - 1])
        vm, um = -vp[::-1], up[:, ::-1]
        skew_rows = np.where(np.arange(m) % 2, -s, s)[:, None]
    vals = np.empty(n)
    vals[sym] = vp
    vals[skew] = vm
    table = np.empty((n, n), order="F")
    np.multiply(up[:m], s, out=table[:m, sym])
    np.multiply(um, skew_rows, out=table[:m, skew])
    if n % 2:
        table[m, sym] = up[m]
        table[m, skew] = 0.0
    table[n - m:, sym] = table[m - 1::-1, sym]
    np.negative(table[m - 1::-1, skew], out=table[n - m:, skew])
    if not (np.diff(vals) >= 0).all():
        order = np.argsort(vals, kind="stable")
        moved = np.flatnonzero(order != np.arange(n))
        vals = vals[order]
        table[:, moved] = table[:, order[moved]]
    return vals, table


def _constant_chain(a: float, c: float, n: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points, Gauss weights, sines and wave numbers of the n-site
    operator with every diagonal entry a and every coupling c: the one
    place a constant chain's closed form is made.  Its eigenvalues and
    normalized eigenvectors are (Karlin & McGregor, Trans. Amer. Math.
    Soc. 85, 1957)

        x_s = a + 2c cos(k_s pi/(n+1)),
        W[i, s] = sqrt(2/(n+1)) sin((i+1) k_s pi/(n+1)),

    with k_s = n, ..., 1 so the points ascend; row 0 is positive, so no
    sign fix is needed.  The points are computed as
    a + 2c sin((n+1-2k_s) pi/(2(n+1))), whose arguments are exact
    negatives of each other about the middle: with a = 0 they are
    exactly mirrored (x[::-1] == -x) and the middle point of an odd n is
    exactly 0, where cos(k pi/(n+1)) itself is not mirrored.

    The weights w_s = (2/(n+1)) sin^2(k_s pi/(n+1)) are the squares of
    row 0.  By Golub-Welsch (Math. Comp. 23, 1969) the points and
    weights are also the order-n Gauss rule of the semicircle density
    of the operator's infinite extension (:func:`_constant_gauss_rule`).
    The sines are the 2(n+1) values sqrt(2/(n+1)) sin(r pi/(n+1)),
    r = 0, ..., 2n+1, taken from the weights as [0, sqrt(w) reversed,
    0, -sqrt(w) reversed], so row 0 is sqrt(w) itself; any row is read
    from them by :func:`_weighted_rows`.  The square root of a squared
    sine costs a few ulps at the spectral edges, where k pi/(n+1) is
    near pi: at 2048 sites the sines are within 4.6 ulps of
    sqrt(2/(n+1)), where sines of the reduced argument min(r, n+1-r)
    are within 1.4.
    """
    m = n + 1
    k = np.arange(n, 0, -1)
    # A coupling near the double range overflows to inf (inf * 0 is NaN
    # at the middle node), which SpectralMeasure refuses by name, as it
    # does the eigensolver's non-finite points.
    with np.errstate(over="ignore", invalid="ignore"):
        points = a + 2.0 * c * np.sin((m - 2 * k) * (np.pi / (2 * m)))
    weights = (2.0 / m) * np.sin(k * math.pi / m) ** 2
    root = np.sqrt(weights[::-1])
    sines = np.concatenate(([0.0], root, [0.0], -root))
    sines.setflags(write=False)
    k.setflags(write=False)
    return points, weights, sines, k


def chi_table_scaled(j_op: JacobiOperator, n: int, x, w):
    """Rows 0..n of W[i, s] = sqrt(w_s) chi_i(x_s), shape (n+1, len(x)),
    for nodes x and nonnegative weights w (scalars or arrays of the
    same length), by the forward three-term recurrence.

    The recurrence is linear, so seeding it with W_0 = sqrt(w) instead
    of 1 carries the weight through every degree, and a zero weight
    gives an exact zero column however large chi_i grows there.  With
    w = 1 the rows are chi_i itself.  Forward recursion loses a row past
    an atom's turning point (Gautschi, SIAM Rev. 9, 1967), so no
    evaluation path reads this table: it serves as an independent
    reference, and :func:`_weighted_rows` reads certified Lanczos rows.
    """
    if n < 0:
        raise UsageError(f"polynomial index {n} is negative")
    if n > j_op.size - 1:
        raise UsageError(
            f"polynomial index {n} needs {n + 1} recurrence rows, "
            f"operator has {j_op.size}"
        )
    flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    table = np.empty((n + 1, flat.size))
    table[0] = np.sqrt(w)
    if n >= 1:
        b, j = j_op.b, j_op.j
        table[1] = (flat - b[0]) * table[0] / j[0]
        for i in range(1, n):
            table[i + 1] = ((flat - b[i]) * table[i] - j[i - 1] * table[i - 1]) / j[i]
    return table

