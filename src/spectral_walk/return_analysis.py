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

The masses of dmu_i are the products W[i, s]^2 = w_s chi_i(x_s)^2 that
dynamics._rows sums for f_ii, from one row of the weighted table W
(spectral._weighted_rows) for both.

Floating-point spectra are never exactly commensurate, so lattice
detection is a tolerance-and-cap policy (documented at
:func:`detect_lattice`) rather than an exact gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _check_times, _spectral_sum
from .errors import UsageError, _check_sites, _integer
from .jacobi_core import JacobiOperator
from .spectral import SpectralMeasure, _check_finite, _weighted_rows

__all__ = [
    "ReturnVerdict",
    "characteristic",
    "modified_measure",
    "detect_lattice",
    "classify_return",
    "return_probability_scan",
]

MASS_FLOOR = 1e-13
# default lattice-fit tolerance, relative to the spectral spread
LATTICE_TOL = 1e-9
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
    (UsageError) rather than silently rescaled beyond roundoff; so is a
    NaN or infinite t.  The return amplitude is f_00(t) = F(-t).
    """
    x, w = measure.nodes_and_weights()
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise UsageError(f"measure has total mass {total}, expected a probability measure")
    t = np.asarray(t, dtype=float)
    _check_times(t, False)
    vals = _spectral_sum(x, w, t, 1j) / total
    return complex(vals) if vals.ndim == 0 else vals


def modified_measure(measure: SpectralMeasure, j_op: JacobiOperator, i: int) -> SpectralMeasure:
    """Site-i modified measure dmu_i = chi_i^2 dmu, whose masses are the
    coefficients w_s chi_i(x_s)^2 that :func:`quantum_amplitude` sums for
    f_ii.  Orthonormality makes this a probability measure again; masses
    are left as computed (no renormalization) so the 1e-12 mass invariant
    stays a real check on the polynomial table.  ``j_op`` must equal the
    measure's operator and i an integer site of it (not 2.7 or 2.0), else UsageError.

    On a measure that does not carry its eigenvectors (Meixner, sc and
    directly built measures), the row of site i is a Lanczos row with
    one certificate: the larger of the mismatch of the recurrence
    coefficients Lanczos recovers against the operator's own, relative
    to its scale, and the site's tail, the mass of this modified measure
    that the nodes leave out (1 after a breakdown; NaN with a NaN
    weight).  A site whose certificate exceeds 1e-10 is past the
    certified rows and raises NumericError naming the site and the
    certificate.
    """
    own = measure.jacobi
    if not (np.array_equal(j_op.b, own.b) and np.array_equal(j_op.j, own.j)):
        raise UsageError("operator differs from the measure's operator")
    i = _integer("i", i)
    _check_sites(own.size, i)
    if i == 0:
        return measure
    coeff = _weighted_rows(measure, [i])[0] ** 2
    n_atoms = len(measure.points)
    return SpectralMeasure(
        jacobi=own, points=measure.points, masses=coeff[:n_atoms],
        quad_points=measure.quad_points,
        quad_weights=None if measure.quad_points is None else coeff[n_atoms:])


@np.errstate(over="ignore", invalid="ignore")  # an inf index is above the cap
def _lattice_fit(points: np.ndarray, tol: float):
    """Gap-commensurability fit.  Returns (delta, residual, info) or
    (None, residual-or-None, info) when no common spacing survives the
    caps and tolerance."""
    spread = float(points[-1] - points[0])
    if not math.isfinite(spread):
        raise UsageError(f"points spread {spread:g} overflows a double in the lattice fit")
    gaps = points[1:] - points[0]
    base = float(gaps.min())
    info: dict = {"spread": spread}
    if base <= 0:
        return None, None, info | {"reason": "coincident points"}
    ratios = (gaps / base).tolist()
    if not np.isfinite(ratios).all():
        raise UsageError(f"points spread {spread:g} overflows a double in the lattice fit")
    lcm = 1
    for ratio in ratios:
        denominator = _limit_denominator(ratio, _DENOMINATOR_CAP)[1]
        lcm = lcm * denominator // math.gcd(lcm, denominator)
        if lcm > _LCM_CAP:
            return None, None, info | {"reason": f"gap-ratio lcm exceeds {_LCM_CAP}"}
    delta0 = base / lcm
    multiples = np.rint(gaps / delta0)
    if multiples.max() > _MULTIPLE_CAP:
        return None, None, info | {"reason": f"lattice index exceeds {_MULTIPLE_CAP}"}
    ks = multiples.astype(np.int64)
    ks = ks // max(math.gcd(*ks.tolist()), 1)
    # least-squares spacing through the integer multiples, then the
    # largest spacing is delta itself since the k were divided by their gcd
    kf = ks.astype(float)
    delta = float((kf @ gaps) / (kf @ kf))
    if not math.isfinite(delta):
        raise UsageError(f"points spread {spread:g} overflows a double in the lattice fit")
    residual = float(np.max(np.abs(gaps - kf * delta)))
    info |= {"lcm": int(lcm), "residual": residual, "residual_rel": residual / spread}
    if residual > tol * spread:
        return None, residual, info | {"reason": "residual above tolerance"}
    return delta, residual, info


def _limit_denominator(x: float, cap: int) -> tuple[int, int]:
    """Numerator and denominator of Fraction(x).limit_denominator(cap):
    the fraction nearest the finite float x with a denominator of at
    most cap >= 1, the smaller denominator on a tie.  That is the last
    convergent p1/q1 of x's continued fraction within the cap or the
    semiconvergent s beyond it, whichever is nearer; with x = N/D, p1/q1
    lies d/(q1 D) from x for the last remainder d, and s lies
    1/(q1 (q0 + k q1)) from p1/q1 on x's other side, so the comparison
    is one in integers, with no Fraction made."""
    n, d = x.as_integer_ratio()
    if d <= cap:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (cap - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _check_tol(tol: float) -> None:
    # NaN or inf would pass any residual, a negative tol none
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"lattice tolerance tol is {tol}, must be finite and >= 0")


def detect_lattice(points, tol: float = LATTICE_TOL, masses=None) -> ReturnVerdict:
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
    verdict is flagged ``degenerate`` in evidence.  A ``tol`` that is
    not finite and nonnegative, a NaN or infinite point or mass, and a
    spread or fit beyond the double range are refused (UsageError).
    """
    _check_tol(tol)
    points = np.asarray(points, dtype=float).ravel()
    _check_finite("points", points)
    order = np.argsort(points)
    points = points[order]
    ignored = 0.0
    if masses is not None:
        masses = np.asarray(masses, dtype=float).ravel()
        if masses.shape != points.shape:
            raise UsageError("masses and points differ in length")
        _check_finite("masses", masses)
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


def classify_return(measure: SpectralMeasure, tol: float = LATTICE_TOL) -> ReturnVerdict:
    """Verdict for a spectral measure.

    A continuous part (by measure kind, not by truncation artifacts)
    means NoReturn; otherwise the discrete spectrum goes through
    :func:`detect_lattice`.  Finite truncations of continuous families
    must therefore be classified via the family's declared measure, not
    via an eigendecomposition of the truncated operator.  A ``tol`` that
    is not finite and nonnegative is refused (UsageError).
    """
    if measure.kind != "discrete":
        _check_tol(tol)
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
    |f| descending, ties by t ascending.  The interior samples are
    tested and refined as whole arrays, each with the arithmetic of one
    sample alone.
    """
    times = np.atleast_1d(np.asarray(series.times, dtype=float))
    y = np.abs(np.atleast_1d(np.asarray(series.values)))
    if y.size == 0:
        raise UsageError("cannot scan an empty series")
    if y.size == 1:
        return [(float(times[0]), float(y[0]))]
    # the interior maxima k (a plateau counts), with their neighbours
    k = np.flatnonzero((y[1:-1] >= y[:-2]) & (y[1:-1] >= y[2:])) + 1
    before, peak, after = y[k - 1], y[k], y[k + 1]
    t_max, y_max = times[k], peak.astype(float)
    curv = before - 2.0 * peak + after
    bent = curv < 0
    k, drop = k[bent], before[bent] - after[bent]
    shift = 0.5 * drop / curv[bent]
    t_max[bent] = times[k] + shift * (times[k + 1] - times[k])
    y_max[bent] = peak[bent] - 0.25 * drop * shift
    found = list(zip(t_max.tolist(), y_max.tolist()))
    if y[0] >= y[1]:
        found.insert(0, (float(times[0]), float(y[0])))
    if y[-1] >= y[-2]:
        found.append((float(times[-1]), float(y[-1])))
    return sorted(found, key=lambda pair: (-pair[1], pair[0]))
