"""Return classification: perfect, almost perfect, or neither.

The return amplitude from site i is the characteristic function of the
site-i modified measure dmu_i = chi_i^2 dmu evaluated at -t.  Three
regimes follow from the measure type:

  * lattice measure (atoms on xi + (2*pi/t0) * Z)  ->  |f_ii(t0)| = 1,
    perfect return at period t0, from every site;
  * pure point but not lattice  ->  sup_t |f_ii(t)| = 1 approached but
    never attained (almost perfect return);
  * continuous mass present  ->  |f_ii(t)| -> 0 along subsequences, no
    return of either kind.

The masses of dmu_i are the products w_s chi_i(x_s)^2 that
dynamics._chi_product_coefficients gives for f_ii, so the eigenvector
table or the scaled recurrence is chosen in one place for both.

Floating-point spectra are never exactly commensurate, so lattice
detection is a tolerance-and-cap policy (documented at
:func:`detect_lattice`) rather than an exact gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .dynamics import _chi_product_coefficients, _spectral_sum
from .errors import UsageError
from .jacobi_core import JacobiOperator
from .spectral import SpectralMeasure

__all__ = [
    "ReturnVerdict",
    "characteristic",
    "modified_measure",
    "detect_lattice",
    "classify_return",
    "return_probability_scan",
]

MASS_FLOOR = 1e-13
_DENOMINATOR_CAP = 10**6
_LCM_CAP = 10**6
_MULTIPLE_CAP = 10**9


@dataclass(frozen=True)
class ReturnVerdict:
    """Outcome of return classification.

    kind is "Perfect", "AlmostPerfect" or "NoReturn"; t0 (return period)
    and xi (lattice offset, spectrum in xi + (2 pi / t0) Z) are set only
    for Perfect.  evidence carries the numbers the verdict rests on:
    lattice-fit residual, lcm/cap diagnostics, ignored atom mass,
    continuous mass.
    """

    kind: str
    t0: float | None = None
    xi: float | None = None
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("Perfect", "AlmostPerfect", "NoReturn"):
            raise UsageError(f"unknown verdict kind {self.kind!r}")
        if (self.kind == "Perfect") != (self.t0 is not None):
            raise UsageError("t0 is present exactly when the verdict is Perfect")

    def to_json_dict(self) -> dict:
        out: dict = {"class": self.kind}
        if self.t0 is not None:
            out["t0"] = self.t0
            out["xi"] = self.xi
        out["evidence"] = self.evidence
        return out


def characteristic(measure: SpectralMeasure, t):
    """Characteristic function F(t) = integral of e^{i x t} dmu(x).

    F(0) = 1 exactly: the sum is divided by the total mass, which also
    means a measure that is not normalized to begin with is refused
    (UsageError) rather than silently rescaled beyond roundoff.  The
    return amplitude is f_00(t) = F(-t).
    """
    x, w = measure.nodes_and_weights()
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise UsageError(f"measure has total mass {total}, expected a probability measure")
    vals = _spectral_sum(x, w, t, 1j) / total
    return complex(vals) if vals.ndim == 0 else vals


def modified_measure(measure: SpectralMeasure, j_op: JacobiOperator, i: int) -> SpectralMeasure:
    """Site-i modified measure dmu_i = chi_i^2 dmu, whose masses are the
    coefficients w_s chi_i(x_s)^2 that :func:`quantum_amplitude` sums for
    f_ii.  Orthonormality makes this a probability measure again; masses
    are left as computed (no renormalization) so the 1e-12 mass invariant
    stays a real check on the polynomial table.  ``j_op`` must equal the
    measure's operator and i must be one of its sites, else UsageError.
    """
    own = measure.jacobi
    if not (np.array_equal(j_op.b, own.b) and np.array_equal(j_op.j, own.j)):
        raise UsageError("operator differs from the measure's operator")
    if i == 0:
        return measure
    _, coeff = _chi_product_coefficients(measure, i, i)
    n_atoms = len(measure.points)
    return SpectralMeasure(
        jacobi=own, points=measure.points, masses=coeff[:n_atoms],
        quad_points=measure.quad_points,
        quad_weights=None if measure.quad_points is None else coeff[n_atoms:])


def _lattice_fit(points: np.ndarray, tol: float):
    """Gap-commensurability fit.  Returns (delta, residual, info) or
    (None, residual-or-None, info) when no common spacing survives the
    caps and tolerance."""
    spread = float(points[-1] - points[0])
    gaps = points[1:] - points[0]
    base = float(gaps.min())
    info: dict = {"spread": spread}
    if base <= 0:
        return None, None, info | {"reason": "coincident points"}
    lcm = 1
    for g in gaps:
        frac = Fraction(float(g / base)).limit_denominator(_DENOMINATOR_CAP)
        if frac.numerator == 0:
            return None, None, info | {"reason": "coincident points"}
        lcm = lcm * frac.denominator // math.gcd(lcm, frac.denominator)
        if lcm > _LCM_CAP:
            return None, None, info | {"reason": f"gap-ratio lcm exceeds {_LCM_CAP}"}
    delta0 = base / lcm
    multiples = np.rint(gaps / delta0)
    if multiples.max() > _MULTIPLE_CAP:
        return None, None, info | {"reason": f"lattice index exceeds {_MULTIPLE_CAP}"}
    ks = multiples.astype(np.int64)
    common = 0
    for k in ks:
        common = math.gcd(common, int(k))
    ks = ks // max(common, 1)
    # least-squares spacing through the integer multiples, then the
    # largest spacing is delta itself since the k were divided by their gcd
    kf = ks.astype(float)
    delta = float((kf @ gaps) / (kf @ kf))
    residual = float(np.max(np.abs(gaps - kf * delta)))
    info |= {"lcm": int(lcm), "residual": residual, "residual_rel": residual / spread}
    if residual > tol * spread:
        return None, residual, info | {"reason": "residual above tolerance"}
    return delta, residual, info


def detect_lattice(points, tol: float = 1e-9, masses=None) -> ReturnVerdict:
    """Classify a discrete spectrum by lattice structure.

    If every gap to the smallest point is an integer multiple of a
    common spacing delta (within ``tol`` relative to the spectral
    spread), the measure is a lattice distribution: Perfect return with
    t0 = 2*pi/delta (largest consistent delta, hence smallest t0) and
    offset xi = x_min mod delta.  Otherwise the spectrum is pure point
    but incommensurate: AlmostPerfect.  Continuous mass is not its
    concern: :func:`classify_return` rules on it first.

    Commensurability is decided by continued-fraction rationalization of
    gap ratios with denominator cap 1e6; the caps and the residual make
    the verdict reproducible, not a statement about exact reals.  Note
    the flip side: a single gap ratio (three points) can nearly always
    be rationalized within the cap, so Perfect verdicts on very small
    spectra say little; discrimination becomes meaningful from roughly
    five points up, where a false fit would need several large
    denominators with a small common multiple.

    Atoms with mass at or below MASS_FLOOR are ignored as truncation noise
    when ``masses`` is given; their total is reported in evidence.

    Exactly two surviving points always fit a lattice trivially; that
    verdict is flagged ``degenerate`` in evidence.
    """
    points = np.asarray(points, dtype=float).ravel()
    order = np.argsort(points)
    points = points[order]
    ignored = 0.0
    if masses is not None:
        masses = np.asarray(masses, dtype=float).ravel()
        if masses.shape != points.shape:
            raise UsageError("masses and points differ in length")
        masses = masses[order]
        keep = masses > MASS_FLOOR
        ignored = float(masses[~keep].sum())
        points = points[keep]
    evidence: dict = {"ignored_mass": ignored, "continuous_mass": 0.0}
    if len(points) < 2:
        raise UsageError(f"lattice detection needs >= 2 spectrum points, got {len(points)}")
    delta, residual, info = _lattice_fit(points, tol)
    evidence |= info
    if delta is None:
        return ReturnVerdict(kind="AlmostPerfect", evidence=evidence)
    if len(points) == 2:
        evidence["degenerate"] = True
    xi = math.fmod(float(points[0]), delta)
    if xi < 0:
        xi += delta
    return ReturnVerdict(kind="Perfect", t0=2.0 * math.pi / delta, xi=xi, evidence=evidence)


def classify_return(measure: SpectralMeasure, tol: float = 1e-9) -> ReturnVerdict:
    """Verdict for a spectral measure.

    A continuous part (by measure kind, not by truncation artifacts)
    means NoReturn; otherwise the discrete spectrum goes through
    :func:`detect_lattice`.  Finite truncations of continuous families
    must therefore be classified via the family's declared measure, not
    via an eigendecomposition of the truncated operator.
    """
    if measure.kind != "discrete":
        return ReturnVerdict(kind="NoReturn", evidence={
            "continuous_mass": measure.continuous_mass,
            "ignored_mass": 0.0,
        })
    return detect_lattice(measure.points, tol, masses=measure.masses)


def return_probability_scan(series) -> list[tuple[float, float]]:
    """Local maxima of |f(t)| on a uniformly sampled series.

    Plateaus count as maxima (a single-atom amplitude has |f| constant
    at 1, and every sample should be reported).  Interior maxima are
    refined by a three-point parabola through |f|; the list is sorted by
    |f| descending, ties by t ascending.
    """
    times = np.atleast_1d(np.asarray(series.times, dtype=float))
    y = np.abs(np.atleast_1d(np.asarray(series.values)))
    if y.size == 0:
        raise UsageError("cannot scan an empty series")
    if y.size == 1:
        return [(float(times[0]), float(y[0]))]
    found: list[tuple[float, float]] = []
    if y[0] >= y[1]:
        found.append((float(times[0]), float(y[0])))
    for k in range(1, y.size - 1):
        if y[k] >= y[k - 1] and y[k] >= y[k + 1]:
            curv = y[k - 1] - 2.0 * y[k] + y[k + 1]
            if curv < 0:
                h = times[k + 1] - times[k]
                shift = 0.5 * (y[k - 1] - y[k + 1]) / curv
                t_ref = float(times[k] + shift * h)
                y_ref = float(y[k] - 0.25 * (y[k - 1] - y[k + 1]) * shift)
                found.append((t_ref, y_ref))
            else:
                found.append((float(times[k]), float(y[k])))
    if y[-1] >= y[-2]:
        found.append((float(times[-1]), float(y[-1])))
    return sorted(found, key=lambda pair: (-pair[1], pair[0]))
