"""Orthogonality measures of Jacobi operators and polynomial evaluation.

A symmetric Jacobi operator J with positive couplings has orthonormal
recurrence polynomials chi_i(x),

    chi_{-1} = 0,  chi_0 = 1,
    J_{i+1} chi_{i+1}(x) = (x - B_i) chi_i(x) - J_i chi_{i-1}(x),

and a probability measure under which they are orthonormal.  For a
finite operator that measure is discrete: the points are the eigenvalues
and the mass at each point is the squared first component of the
normalized eigenvector (the Golub-Welsch construction).  A continuous
part is represented by its support interval and a Gauss quadrature rule
whose weights already include the density, so every downstream consumer
can treat "nodes and weights" uniformly.  The polynomials themselves are
evaluated as whole tables chi_0..chi_n at a set of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .jacobi_core import JacobiOperator
from .errors import NumericError, UsageError

__all__ = [
    "SpectralMeasure",
    "eigendecompose",
    "chi_table",
]

# |chi| above this triggers a power-of-two renormalization of the
# recurrence pair; far below overflow, far above any orthonormal value.
_RESCALE_LIMIT = 2.0**500


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure with a discrete and/or continuous part.

    Attributes
    ----------
    jacobi : JacobiOperator
        The operator whose recurrence polynomials this measure
        orthonormalizes; also the evaluator used for chi_i(x).
    points, masses : ndarray
        Discrete atoms (points in increasing order, nonnegative masses).
        Equal consecutive points are allowed: an operator can have
        eigenvalues that coincide in floating point, each with its own
        eigenvector column.
    interval : (float, float) or None
        Support of the continuous part.
    quad_points, quad_weights : ndarray or None
        Quadrature rule representing the continuous part, given together
        or not at all; the weights already include the density, so sums
        against them approximate integrals against the continuous part.
    weighted_chi : ndarray or None
        Table W[i, s] = sqrt(M_s) chi_i(x_s), present when the atoms are
        the operator's own eigenvalues (it is then the sign-fixed
        eigenvector matrix).  Forward recurrence through a recessive
        regime can lose all relative accuracy at edge nodes of
        ill-conditioned chains, while this table is orthonormal by
        construction, so coefficient products at the atoms prefer it.
    """

    jacobi: JacobiOperator
    points: np.ndarray
    masses: np.ndarray
    interval: tuple[float, float] | None = None
    quad_points: np.ndarray | None = None
    quad_weights: np.ndarray | None = None
    weighted_chi: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ms = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        if pts.shape != ms.shape:
            raise UsageError("points and masses differ in length")
        if len(pts) > 1 and not (np.diff(pts) >= 0).all():
            raise UsageError("discrete points must be in increasing order")
        if len(ms) and ms.min() < -1e-15:
            raise UsageError(f"negative mass {ms.min()} in discrete part")
        if (self.quad_points is None) != (self.quad_weights is None):
            raise UsageError("continuous part needs both quadrature points and weights")
        if self.quad_points is not None:
            qp = np.asarray(self.quad_points, dtype=float)
            qw = np.asarray(self.quad_weights, dtype=float)
            if qp.shape != qw.shape:
                raise UsageError(
                    f"{qp.size} quadrature points but {qw.size} quadrature weights")
            object.__setattr__(self, "quad_points", qp)
            object.__setattr__(self, "quad_weights", qw)
            qp.setflags(write=False)
            qw.setflags(write=False)
        if self.weighted_chi is not None:
            wc = np.asarray(self.weighted_chi, dtype=float)
            if wc.shape != (self.jacobi.size, len(pts)):
                raise UsageError(
                    f"weighted_chi has shape {wc.shape}, expected "
                    f"({self.jacobi.size}, {len(pts)})")
            object.__setattr__(self, "weighted_chi", wc)
            wc.setflags(write=False)
        pts.setflags(write=False)
        ms.setflags(write=False)

    @classmethod
    def discrete(cls, points, masses, jacobi: JacobiOperator) -> "SpectralMeasure":
        order = np.argsort(np.asarray(points, dtype=float))
        return cls(jacobi=jacobi,
                   points=np.asarray(points, dtype=float)[order],
                   masses=np.asarray(masses, dtype=float)[order])

    @classmethod
    def continuous(cls, interval, quad_points, quad_weights,
                   jacobi: JacobiOperator) -> "SpectralMeasure":
        return cls(jacobi=jacobi,
                   points=np.empty(0), masses=np.empty(0),
                   interval=(float(interval[0]), float(interval[1])),
                   quad_points=quad_points, quad_weights=quad_weights)

    @property
    def kind(self) -> str:
        if self.quad_points is None:
            return "discrete"
        return "continuous" if len(self.points) == 0 else "mixed"

    @property
    def discrete_mass(self) -> float:
        return float(self.masses.sum()) if len(self.masses) else 0.0

    @property
    def continuous_mass(self) -> float:
        return float(self.quad_weights.sum()) if self.quad_weights is not None else 0.0

    @property
    def total_mass(self) -> float:
        return self.discrete_mass + self.continuous_mass

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
    row 0 is nonnegative) as ``weighted_chi``.  Nearby and even equal
    eigenvalues are kept as separate atoms: the tridiagonal eigenvectors
    are orthonormal to working precision however close the eigenvalues
    are (Dhillon & Parlett, Linear Algebra Appl. 387, 2004), so the
    table stays valid.
    """
    b = np.asarray(j_op.b, dtype=float)
    e = np.asarray(j_op.j, dtype=float)
    if len(b) == 1:
        return SpectralMeasure(jacobi=j_op, points=b.copy(), masses=np.ones(1),
                               weighted_chi=np.ones((1, 1)))
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(b, e)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    sign = np.where(vecs[0, :] < 0, -1.0, 1.0)
    table = vecs * sign
    masses = table[0, :] ** 2
    masses = masses / masses.sum()
    return SpectralMeasure(jacobi=j_op, points=vals, masses=masses,
                           weighted_chi=table)


def chi_table_scaled(j_op: JacobiOperator, n: int, x):
    """All chi_0..chi_n at the nodes x as (mantissas, exponents), each of
    shape (n+1, len(x)), with chi_i(x) = mant[i] * 2**expo[i].

    The scaled three-term recurrence renormalizes the pair
    (chi_i, chi_{i-1}) by a power of two whenever it grows past 2**500,
    so arbitrarily high degrees never overflow; products chi_i * chi_j
    recombine exactly via ldexp.
    """
    if n < 0:
        raise UsageError(f"polynomial index {n} is negative")
    if n > j_op.size - 1:
        raise UsageError(
            f"polynomial index {n} needs {n + 1} recurrence rows, "
            f"operator has {j_op.size}"
        )
    flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    s = flat.shape[0]
    mant = np.empty((n + 1, s))
    expo = np.zeros((n + 1, s), dtype=np.int64)
    m_prev = np.ones(s)
    e = np.zeros(s, dtype=np.int64)
    mant[0] = m_prev
    if n >= 1:
        b, j = j_op.b, j_op.j
        m_curr = (flat - b[0]) / j[0]
        mant[1] = m_curr
        expo[1] = e
        for i in range(1, n):
            m_next = ((flat - b[i]) * m_curr - j[i - 1] * m_prev) / j[i]
            big = np.abs(m_next) > _RESCALE_LIMIT
            if big.any():
                _, ex = np.frexp(m_next[big])
                m_next[big] = np.ldexp(m_next[big], -ex)
                m_curr = m_curr.copy()
                m_curr[big] = np.ldexp(m_curr[big], -ex)
                e = e.copy()
                e[big] += ex
            m_prev, m_curr = m_curr, m_next
            mant[i + 1] = m_curr
            expo[i + 1] = e
    return mant, expo


def chi_table(j_op: JacobiOperator, n: int, x):
    """All chi_0..chi_n at the nodes x, shape (n+1, len(x)).

    Degrees whose values exceed the double range come back as inf, without
    corrupting lower degrees.
    """
    mant, expo = chi_table_scaled(j_op, n, x)
    with np.errstate(over="ignore"):
        return np.ldexp(mant, expo.astype(np.int32, copy=False))
