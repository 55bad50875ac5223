"""Named chains with closed-form spectral data.

Four families whose orthogonality measures are known exactly, so the
dynamics can be checked against special functions instead of another
eigensolve:

  * meixner      - linear rates, negative-binomial measure on 0,1,2,...
                   (perfect return with period 2 pi);
  * sc-c / sc-d  - Stieltjes-Carlitz polynomials, elliptic lattice
                   spectra, amplitudes cn / dn (perfect return, but no
                   classical birth-death counterpart: zero diagonal);
  * uniform      - constant couplings 1/2, Chebyshev-U weight on [-1,1]
                   (continuous spectrum, no return);
  * pst-demo     - finite chain with equispaced spectrum, end-to-end
                   perfect transfer (spectral folklore construction).

The semi-infinite discrete measures (meixner, sc-c, sc-d) share one
truncation policy: each constructor picks a starting support whose
excluded mass is below 1e-12, and ``_truncated`` doubles it until the
Lanczos rows of every site i <= 10 are certified.  The certificate is
the one spectral._lanczos computes for each row, and evaluation reads
rows by the same rule: the larger of the mismatch between the recurrence
coefficients Lanczos recovers from the support and the operator's,
relative to its scale, and the chi_i^2-weighted tail read off the same
coefficients, at most 1e-10; a breakdown or a NaN mass never certifies.
At the default supports 11 to 28 rows certify (sites up to 10 to 27),
and a site past them raises NumericError.

:func:`build_from_spec` reads each spec field as the type
:func:`family_schemas` names.  The elliptic functions live in ``elliptic``.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticContext, elliptic_context
from .errors import ConfigurationError, DomainError, UsageError, _integer
from .jacobi_core import BirthDeathRates, JacobiOperator, symmetrize
from .return_analysis import detect_lattice
from .spectral import (_CERTIFICATE_TOL, SpectralMeasure, _constant_gauss_rule, _lanczos,
                       eigendecompose)

__all__ = [
    "FamilyBuild",
    "meixner_chain",
    "stieltjes_carlitz_chain",
    "uniform_chain",
    "pst_demo_chain",
    "fitted_omega",
    "family_schemas",
    "build_from_spec",
]

_MEIXNER_SITE_CAP = 100_000
# largest count (n, s_max, quad_order) a spec may give; a 4096-site table is 128 MB
_SPEC_COUNT_CAP = 4096
# largest --steps of a command's time grid: one series over it holds 16 MB
# of complex values and about 80 MB of CSV
_STEPS_CAP = 1_000_000
_SC_S_CAP = 10_000
_SC_MIN_HALF_SUPPORT = 12

# Default truncations start from the smallest support whose excluded
# mass is below _TAIL_TOL and keep return amplitudes and the polynomial
# Gram accurate beyond site 0: the truncation bites harder as the site
# grows (chi_i is a degree-i polynomial), so the support is extended
# until the Lanczos rows of every site up to the probe order are
# certified, their coefficient mismatch and chi_i^2-weighted tail both
# at most _CERTIFICATE_TOL (spectral._lanczos, see _truncated).
_TAIL_TOL = 1e-12
_SITE_PROBE_ORDER = 10


def _truncated(support, size: int, probe: JacobiOperator, cap: int):
    """Double ``size`` from its starting value until the support
    ``support(size) -> (points, masses)`` certifies the Lanczos rows of
    every site of ``probe`` (spectral._lanczos: the recovered recurrence
    coefficients match the probe's and each site's chi_i^2-weighted tail
    is small, both within _CERTIFICATE_TOL); ``size`` never exceeds
    ``cap``.  Over the full (untruncated) support the coefficients match
    exactly and no tail is left.  Masses that hold a NaN, or too few
    nonzero masses for the probe's rows, never certify."""
    while True:
        points, masses = support(size)
        if _lanczos(points, masses, probe, probe.size)[2] is None:
            return points, masses
        if 2 * size > cap:
            raise ConfigurationError(
                f"site-weighted tail still above {_CERTIFICATE_TOL} at "
                f"size {size}; cap {cap} reached")
        size *= 2


def meixner_chain(beta: float, c: float, n: int | None = None
                  ) -> tuple[BirthDeathRates, JacobiOperator, SpectralMeasure]:
    """Linear-rate chain lambda_i = c(i+beta)/(1-c), mu_i = i/(1-c),
    for beta > 0 and 0 < c < 1.

    The orthogonality measure is the negative binomial distribution on
    the integers s = 0, 1, 2, ...; the chain is truncated at the
    smallest support (or the given n) whose excluded mass is below
    1e-12.  Without an explicit n the support is then doubled
    until the Lanczos rows of sites i <= 10 are also certified, their
    coefficient mismatch and chi_i^2-weighted tails at most 1e-10
    (spectral._lanczos, see ``_truncated``), so return
    amplitudes and the polynomial Gram stay accurate away from site 0
    (the plain mass rule alone leaves site-5 amplitudes off by ~1e-2).
    Masses are NOT renormalized: their deficit from 1 is exactly the
    documented tail.

    Returns (rates, J, measure); J is the principal submatrix of the
    semi-infinite operator (absorbing-tail convention), sized to the
    measure support.
    """
    if not 0 < beta < math.inf:
        raise DomainError(f"beta = {beta} is not positive and finite")
    if not 0.0 < c < 1.0:
        raise DomainError(f"c = {c} outside (0, 1)")
    rates = BirthDeathRates(lam=lambda i: c * (i + beta) / (1.0 - c),
                            mu=lambda i: i / (1.0 - c))
    nb = [(1.0 - c) ** beta]

    def mass(s: int) -> float:
        """M_s = (1-c)^beta (beta)_s c^s / s!, by the ratio recurrence."""
        while len(nb) <= s:
            r = len(nb) - 1
            nb.append(nb[-1] * c * (beta + r) / (r + 1))
        return nb[s]

    def tail(size: int) -> float:
        """Bound on the mass sum_{s >= size} M_s left out by sites 0..size-1."""
        s = size - 1
        ratio = max(c, c * (beta + s + 1) / (s + 2))
        return mass(size) / (1.0 - ratio) if ratio < 1.0 else math.inf

    def support(size: int):
        mass(size - 1)
        return np.arange(size, dtype=float), np.array(nb[:size])

    if n is None:
        size = 1
        while not tail(size) < _TAIL_TOL:
            if size > _MEIXNER_SITE_CAP:
                raise ConfigurationError(
                    f"negative-binomial tail still {tail(size):.3e} at "
                    f"{_MEIXNER_SITE_CAP} sites; pass an explicit n")
            size += 1
        probe = symmetrize(rates, _SITE_PROBE_ORDER, boundary="absorbing-tail")
        points, masses = _truncated(support, size, probe, _MEIXNER_SITE_CAP)
    else:
        n = _integer("n", n)
        size = max(n, 0) + 1
        if tail(size) >= _TAIL_TOL:
            raise ConfigurationError(
                f"truncation n = {n} leaves tail mass <= {tail(size):.3e} "
                f">= {_TAIL_TOL}; increase n")
        points, masses = support(size)
    j_op = symmetrize(rates, len(points) - 1, boundary="absorbing-tail")
    return rates, j_op, SpectralMeasure(jacobi=j_op, points=points, masses=masses)


def _sc_half_support(q: float, offset: float) -> int:
    """Smallest S with two-sided excluded mass (relative) below _TAIL_TOL;
    one-sided raw weights are ~ q^{s+offset}."""
    total = 0.0
    s = 0
    while True:
        total += 2.0 / (q ** (s + offset) + q ** (-(s + offset)))
        tail = 2.0 * q ** (s + 1 + offset) / (1.0 - q)
        if tail / total < _TAIL_TOL:
            return s + 1
        s += 1
        if s > _SC_S_CAP:
            raise ConfigurationError(
                f"spectral tail still {tail:.3e} at |s| = {_SC_S_CAP}; nome q = {q}"
            )


def stieltjes_carlitz_chain(variant: str, k: float, s_max: int | None = None
                            ) -> tuple[JacobiOperator, SpectralMeasure]:
    """Stieltjes-Carlitz chain of variant "C" or "D" at modulus k.

    The diagonal is zero and the couplings are
      C: J_n = k n for even n, n for odd n;
      D: J_n = n for even n, k n for odd n.
    The spectrum is an elliptic lattice, symmetric about 0:
      C: tau_s = (pi/2K)(2s+1) for s = -s_max..s_max-1, masses
         eta_C / (q^{s+1/2} + q^{-s-1/2});
      D: tau_s = pi s / K for s = -s_max..s_max, masses
         eta_D / (q^s + q^{-s}).
    eta is fixed numerically so the truncated masses sum to 1 exactly;
    s_max defaults to the excluded-mass rule (< 1e-12) with a floor
    that keeps the polynomial table usable to degree ~20, then doubles
    until the Lanczos rows of sites i <= 10 are certified, their
    coefficient mismatch and chi_i^2-weighted tails at most 1e-10
    (spectral._lanczos, see ``_truncated``; the weights
    only decay like q^|s|, which at large modulus is too slow for the
    plain mass rule to cover excited sites).
    A modulus so small that too few masses are nonzero for those rows
    (k = 1e-50 leaves six) reaches the cap and raises
    ConfigurationError.
    """
    variant = variant.upper()
    ctx = elliptic_context(k)
    if variant not in ("C", "D"):
        raise DomainError(f"variant {variant!r} must be 'C' or 'D'")
    q = ctx.q
    if q < sys.float_info.min:
        raise DomainError(f"modulus k = {ctx.k} gives nome q = {q}, below the normal doubles")

    def jacobi(size: int) -> JacobiOperator:
        n = np.arange(1, size)
        even_scaled = (n % 2 == 0) == (variant == "C")
        return JacobiOperator(b=np.zeros(size), j=np.where(even_scaled, ctx.k * n, n * 1.0))

    offset = 0.5 if variant == "C" else 0.0

    def support(half: int):
        # lattice indices s + 1/2 for s = -half..half-1 (C) or s for
        # s = -half..half (D), and the atoms pi/K times them; q^-s beyond
        # the double range is inf, and its atom gets mass 0
        s = np.arange(-half, half + (variant == "D")) + offset
        with np.errstate(over="ignore"):
            raw = 1.0 / (q ** s + q ** -s)
        return (math.pi / ctx.K) * s, raw / raw.sum()

    if s_max is None:
        half = max(_sc_half_support(q, offset), _SC_MIN_HALF_SUPPORT)
        points, masses = _truncated(support, half, jacobi(_SITE_PROBE_ORDER + 1), _SC_S_CAP)
    elif (s_max := _integer("s_max", s_max)) < 1:
        raise UsageError(f"s_max = {s_max} must be >= 1")
    else:
        points, masses = support(s_max)
    j_op = jacobi(len(points))
    return j_op, SpectralMeasure(jacobi=j_op, points=points, masses=masses)


def fitted_omega(variant: str, context: EllipticContext,
                 measure: SpectralMeasure) -> float:
    """Frequency scale matching the measure lattice to cn/dn.

    At omega = 1 both lattices have spacing pi/K (cn's atoms at the odd
    multiples of pi/2K, dn's at the multiples of pi/K), so the detected
    period t0 gives omega = 2K / t0 for either variant, and the amplitude
    equals cn(omega t) resp. dn(omega t).  The construction above makes
    omega = 1 up to lattice-fit roundoff; the value is computed from the
    spectrum, not assumed.
    """
    variant = variant.upper()
    if variant not in ("C", "D"):
        raise DomainError(f"variant {variant!r} must be 'C' or 'D'")
    verdict = detect_lattice(measure.points, masses=measure.masses)
    if verdict.kind != "Perfect":
        raise UsageError(f"variant-{variant} spectrum not a lattice: {verdict.kind}")
    return float(2.0 * context.K / verdict.t0)


def uniform_chain(n: int | None = None, quad_order: int = 256
                  ) -> tuple[JacobiOperator, SpectralMeasure]:
    """Chain with B_i = 0, J_i = 1/2 (one-excitation XX chain with
    constant couplings).

    With ``n`` given, returns the (n+1)-site truncation and its discrete
    measure (eigenvalues cos(pi k/(n+2))).  Without ``n``, returns the
    semi-infinite chain's continuous measure (2/pi) sqrt(1-x^2) on
    [-1, 1] under a Gauss quadrature of order ``quad_order``, with the
    operator sized to the quadrature so high-degree polynomials remain
    evaluable: the rule is that operator's eigen-measure, and its rows at
    every site come from the closed form of its eigenvectors, the one the
    truncation with ``n = quad_order - 1`` keeps (spectral._constant_chain).
    """
    if n is not None:
        n = _integer("n", n)
        if n < 1:
            raise UsageError(f"truncation order {n} must be >= 1")
        j_op = JacobiOperator(b=np.zeros(n + 1), j=np.full(n, 0.5))
        return j_op, eigendecompose(j_op)
    m = _integer("quad_order", quad_order)
    if m < 2:
        raise UsageError(f"quadrature order {m} must be >= 2")
    j_op = JacobiOperator(b=np.zeros(m), j=np.full(m - 1, 0.5))
    return j_op, _constant_gauss_rule(j_op)


def pst_demo_chain(n: int = 10) -> JacobiOperator:
    """Finite chain with perfect end-to-end transfer, n sites.

    Couplings J_i = (1/2) sqrt(i (n - i)) give the equispaced spectrum
    {-(n-1)/2, ..., (n-1)/2}; transfer time T = pi, return at 2T.
    """
    n = _integer("n", n)
    if n < 2:
        raise UsageError(f"transfer needs at least 2 sites, got {n}")
    i = np.arange(1, n, dtype=float)
    return JacobiOperator(b=np.zeros(n), j=0.5 * np.sqrt(i * (n - i)))


@dataclass(frozen=True)
class FamilyBuild:
    """A constructed chain plus everything the CLI needs to run it; the
    operator is ``measure.jacobi``."""

    family: str
    measure: SpectralMeasure
    rates: BirthDeathRates | None = None
    info: dict | None = None


def family_schemas() -> dict:
    """Parameter schema per family name, machine-readable."""
    return {
        "custom": {
            "params": {
                "lambdas": {"type": "list[float]", "required": True,
                            "range": "lambda_i > 0, last entry 0 or omitted"},
                "mus": {"type": "list[float]", "required": True,
                        "range": "mu_0 >= 0, mu_i > 0 for i >= 1"},
            },
            "notes": "finite birth-death chain used as given (reflecting truncation)",
        },
        "meixner": {
            "params": {
                "beta": {"type": "float", "required": True, "range": "beta > 0"},
                "c": {"type": "float", "required": True, "range": "0 < c < 1"},
                "n": {"type": "int", "required": False,
                      "range": "truncation support; default: excluded mass < 1e-12"},
            },
            "notes": "linear rates; negative-binomial spectrum; perfect return at 2*pi",
        },
        "sc-c": {
            "params": {
                "k": {"type": "float", "required": True, "range": "0 < k < 1"},
                "s_max": {"type": "int", "required": False,
                          "range": "half support; default: excluded mass < 1e-12"},
            },
            "notes": "elliptic odd lattice; amplitude cn(t; k); no classical counterpart",
        },
        "sc-d": {
            "params": {
                "k": {"type": "float", "required": True, "range": "0 < k < 1"},
                "s_max": {"type": "int", "required": False,
                          "range": "half support; default: excluded mass < 1e-12"},
            },
            "notes": "elliptic integer lattice; amplitude dn(t; k); no classical counterpart",
        },
        "uniform": {
            "params": {
                "n": {"type": "int", "required": False,
                      "range": "n >= 1 for a finite truncation; omit for continuous measure"},
                "quad_order": {"type": "int", "required": False,
                               "range": ">= 2, default 256 (continuous mode)"},
            },
            "notes": "constant couplings 1/2; Chebyshev-U measure; no return",
        },
        "pst-demo": {
            "params": {
                "n": {"type": "int", "required": False, "range": "sites >= 2, default 10"},
            },
            "notes": "equispaced spectrum; perfect transfer at pi, return at 2*pi",
        },
    }


def _field(spec: dict, family: str, key: str, default=None):
    """Field ``key`` of a spec as the type its schema names: "float" and
    "int" take a number (not a bool; an int is integral, 12.0 is 12, and
    at most _SPEC_COUNT_CAP), "list[float]" a list of numbers.  A null or
    absent optional field gives ``default``; every refusal names the field."""
    meta = family_schemas()[family]["params"][key]
    if spec.get(key) is None and not meta["required"]:
        return default
    if key not in spec:
        raise UsageError(f"family '{family}' needs field '{key}'")
    value, kind = spec[key], meta["type"]
    is_list = isinstance(value, (list, tuple))
    items = value if is_list else [value]
    if is_list == (kind == "list[float]") and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
        if kind == "int" and value > _SPEC_COUNT_CAP:
            raise UsageError(f"field '{key}' is {value!r}, above the cap {_SPEC_COUNT_CAP}")
        with contextlib.suppress(OverflowError):  # an int beyond the double range
            floats = [float(v) for v in items]
            if kind != "int":
                return floats if is_list else floats[0]
            if floats[0].is_integer():
                return int(value)
    raise UsageError(f"field '{key}' is {value!r}, expected {kind}")


def build_from_spec(spec: dict) -> FamilyBuild:
    """Construct a chain from a JSON-style spec dict.

    The spec must carry "family" plus the parameters listed by
    :func:`family_schemas`, each of the type listed there; a count (n,
    s_max, quad_order) may not exceed 4096, and a uniform spec gives n or
    quad_order, not both.  Errors name the offending field.
    """
    if not isinstance(spec, dict):
        raise UsageError("chain spec must be a JSON object")
    schemas = family_schemas()
    family = spec.get("family")
    if not isinstance(family, str) or family not in schemas:
        raise UsageError(
            f"field 'family' is {family!r}, expected one of {', '.join(schemas)}")
    known = {"family"} | set(schemas[family]["params"])
    for key in spec:
        if key not in known:
            raise UsageError(f"unknown field '{key}' for family '{family}'")
    if family == "custom":
        try:
            rates = BirthDeathRates.from_arrays(_field(spec, family, "lambdas"),
                                                _field(spec, family, "mus"))
        except DomainError as exc:
            raise UsageError(f"field 'lambdas'/'mus': {exc}") from exc
        measure = eigendecompose(symmetrize(rates))
        return FamilyBuild(family=family, measure=measure, rates=rates,
                           info={"sites": measure.jacobi.size})
    if family == "meixner":
        rates, j_op, measure = meixner_chain(
            _field(spec, family, "beta"), _field(spec, family, "c"),
            n=_field(spec, family, "n"))
        tail = 1.0 - measure.masses.sum()
        return FamilyBuild(family=family, measure=measure, rates=rates,
                           info={"sites": j_op.size, "tail_mass": tail})
    if family in ("sc-c", "sc-d"):
        variant = "C" if family == "sc-c" else "D"
        k, s_max = _field(spec, family, "k"), _field(spec, family, "s_max")
        try:  # the truncation falls short only when a tiny k underflows the masses
            j_op, measure = stieltjes_carlitz_chain(variant, k, s_max=s_max)
        except ConfigurationError as exc:
            raise ConfigurationError(f"field 'k' is {k!r}, too small a modulus: {exc}") from exc
        ctx = elliptic_context(k)
        return FamilyBuild(family=family, measure=measure, info={
            "sites": j_op.size, "atoms": len(measure.points),
            "omega_fitted": fitted_omega(variant, ctx, measure), "nome_q": ctx.q})
    if family == "uniform":
        n, quad_order = _field(spec, family, "n"), _field(spec, family, "quad_order")
        if n is not None and quad_order is not None:
            raise UsageError("fields 'n' and 'quad_order' both given: 'n' builds the "
                             "finite chain, 'quad_order' the continuous measure; give one")
        j_op, measure = uniform_chain(n=n, quad_order=256 if quad_order is None else quad_order)
        return FamilyBuild(family=family, measure=measure,
                           info={"sites": j_op.size, "measure_kind": measure.kind})
    n = _field(spec, family, "n", 10)
    return FamilyBuild(family="pst-demo", measure=eigendecompose(pst_demo_chain(n)),
                       info={"sites": n, "transfer_time": math.pi})
