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

The polynomials are evaluated as one weighted table W[i, s] =
sqrt(w_s) chi_i(x_s) at the nodes x_s with weights w_s: the eigenvector
matrix for an eigendecomposed measure, the three-term recurrence seeded
with W_0 = sqrt(w) for any other.  On a normalized measure
sum_s W[i, s]^2 <= 1, so every entry is at most 1 in size, and the
coefficients w_s chi_i(x_s) chi_j(x_s) are products W[i, s] W[j, s].
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
]

# scale of a site deficit (see _site_deficits) that is roundoff or an
# accepted truncation tail, not a lost value
_SITE_TAIL_TOL = 1e-10


def _check_finite(name: str, values: np.ndarray) -> None:
    """Refuse (UsageError) an array holding a NaN or inf, by its name."""
    if not np.isfinite(values).all():
        raise UsageError(f"non-finite {name}: NaN or inf given")


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure with a discrete and/or continuous part.

    Attributes
    ----------
    jacobi : JacobiOperator
        The operator whose recurrence polynomials this measure
        orthonormalizes; also the evaluator used for chi_i(x).
    points, masses : ndarray
        Discrete atoms (points in increasing order, nonnegative masses;
        a negative mass is refused, since the table takes its square root).
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
        eigenvector matrix).  :func:`chi_table_scaled` builds the same W
        by recurrence for every other measure.  Forward recurrence
        through a recessive regime can lose all relative accuracy at
        edge nodes of ill-conditioned chains, while this table is
        orthonormal by construction, so coefficient products at the
        atoms prefer it.
    """

    jacobi: JacobiOperator
    points: np.ndarray
    masses: np.ndarray
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
        _check_finite("points", pts)
        _check_finite("masses", ms)
        if len(pts) > 1 and not (np.diff(pts) >= 0).all():
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
    def continuous(cls, quad_points, quad_weights,
                   jacobi: JacobiOperator) -> "SpectralMeasure":
        return cls(jacobi=jacobi,
                   points=np.empty(0), masses=np.empty(0),
                   quad_points=quad_points, quad_weights=quad_weights)

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
    row 0 is nonnegative) as ``weighted_chi``.  Nearby and even equal
    eigenvalues are kept as separate atoms: the tridiagonal eigenvectors
    are orthonormal to working precision however close the eigenvalues
    are (Dhillon & Parlett, Linear Algebra Appl. 387, 2004), so the
    table stays valid.
    """
    b = np.asarray(j_op.b, dtype=float)
    e = np.asarray(j_op.j, dtype=float)
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


def chi_table_scaled(j_op: JacobiOperator, n: int, x, w):
    """Rows 0..n of W[i, s] = sqrt(w_s) chi_i(x_s), shape (n+1, len(x)),
    for nodes x and nonnegative weights w (scalars or arrays of the
    same length).

    The three-term recurrence is linear, so seeding it with
    W_0 = sqrt(w) instead of 1 carries the weight through every degree.
    Under a normalized measure sum_s W[i, s]^2 <= 1, so no entry needs
    rescaling, and a zero weight gives an exact zero column however
    large chi_i grows there.  With w = 1 the rows are chi_i itself.
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


def _site_deficits(table: np.ndarray) -> np.ndarray:
    """d_i = 1 - sum_s W[i, s]^2 for each row i of a weighted table W:
    the mass of site i's modified measure that the nodes leave out, 0 on
    the full support.  Below -_SITE_TAIL_TOL no truncation explains it:
    the forward recurrence lost row i in its recessive regime.  A square
    beyond the double range gives -inf, which says the same, unwarned."""
    with np.errstate(over="ignore"):
        return 1.0 - (table * table).sum(axis=1)
