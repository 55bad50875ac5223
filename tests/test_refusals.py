"""Branches the rest of the suite never runs: each refusal with its type
and exact message, and the verdicts and values of the edge cases that
are answered rather than refused."""

from __future__ import annotations

import numpy as np
import pytest

from spectral_walk import (
    AmplitudeSeries,
    BirthDeathRates,
    ConfigurationError,
    DomainError,
    JacobiOperator,
    NumericError,
    ProbabilitySeries,
    SpectralMeasure,
    UsageError,
    build_from_spec,
    classical_transition,
    detect_lattice,
    eigendecompose,
    elliptic_context,
    fitted_omega,
    generator,
    jacobi_cn_dn,
    meixner_chain,
    oracle_expm,
    quantum_amplitude,
    return_probability_scan,
    stieltjes_carlitz_chain,
    symmetrize,
)
from spectral_walk.chain_families import _truncated
from spectral_walk.cli import main
from spectral_walk.spectral import chi_table_scaled

TWO_SITES = BirthDeathRates.from_arrays([1.0], [0.0, 1.0])
THREE_SITES = JacobiOperator(b=np.zeros(3), j=np.ones(2))
THREE_SITE_MEASURE = eigendecompose(THREE_SITES)
# an incommensurate spectrum: not the lattice fitted_omega needs
NON_LATTICE = eigendecompose(symmetrize(
    BirthDeathRates.from_arrays([1.0, 2.0, 0.5], [0.0, 1.0, 3.0, 1.5])))


def amplitudes(times, values) -> AmplitudeSeries:
    return AmplitudeSeries(i=0, j=0, times=times, values=values)


REFUSALS = {
    "empty-rates": (lambda: BirthDeathRates.from_arrays([], []),
                    DomainError, "empty rate arrays"),
    "validate-beyond-finite-chain": (lambda: TWO_SITES.validate(2),
                                     UsageError, "site index 2 beyond finite chain of 2 sites"),
    "validate-nonzero-last-lambda": (
        lambda: BirthDeathRates(lam=lambda i: 1.0, mu=float, n_sites=2).validate(1),
        DomainError, "lambda[1] = 1.0, expected 0 at the last site"),
    "coupling-count": (lambda: JacobiOperator(b=np.zeros(3), j=np.ones(3)),
                       UsageError, "need 2 couplings for 3 sites, got 3"),
    "unknown-boundary": (
        lambda: symmetrize(TWO_SITES, boundary="open"),
        UsageError, "unknown boundary 'open', expected one of ('reflecting', 'absorbing-tail')"),
    "measure-lengths": (
        lambda: SpectralMeasure(jacobi=THREE_SITES, points=np.array([-1.0, 0.0, 1.0]),
                                masses=np.array([0.5, 0.5])),
        UsageError, "points and masses differ in length"),
    "weighted-chi-shape": (
        lambda: SpectralMeasure(jacobi=THREE_SITES, points=THREE_SITE_MEASURE.points,
                                masses=THREE_SITE_MEASURE.masses, weighted_chi=np.ones((2, 3))),
        UsageError, "weighted_chi has shape (2, 3), expected (3, 3)"),
    "weighted-chi-beside-quadrature": (
        lambda: SpectralMeasure(jacobi=THREE_SITES, points=np.empty(0), masses=np.empty(0),
                                quad_points=THREE_SITE_MEASURE.points,
                                quad_weights=THREE_SITE_MEASURE.masses,
                                weighted_chi=np.zeros((3, 0))),
        UsageError, "weighted_chi given beside a quadrature rule; "
                    "a table is kept only for a discrete measure"),
    "chi-table-negative-order": (
        lambda: chi_table_scaled(THREE_SITES, -1, THREE_SITE_MEASURE.points,
                                 THREE_SITE_MEASURE.masses),
        UsageError, "polynomial index -1 is negative"),
    "probability-series-shapes": (
        lambda: ProbabilitySeries(i=0, j=0, times=[0.0, 1.0], values=[1.0]),
        UsageError, "times and values differ in shape"),
    "amplitude-series-shapes": (lambda: amplitudes([0.0, 1.0], [1.0]),
                                UsageError, "times and values differ in shape"),
    "lattice-spread-overflows": (
        lambda: detect_lattice([-1e308, 1e308]),
        UsageError, "points spread inf overflows a double in the lattice fit"),
    "lattice-gap-overflows": (
        lambda: detect_lattice([-1e308, 0.0, 1e308]),
        UsageError, "points spread inf overflows a double in the lattice fit"),
    "lattice-fit-overflows": (
        lambda: detect_lattice([0.0, 8e307, 1.6e308]),
        UsageError, "points spread 1.6e+308 overflows a double in the lattice fit"),
    "lattice-gap-ratio-overflows": (
        lambda: detect_lattice([0.0, 1e-300, 1e300]),
        UsageError, "points spread 1e+300 overflows a double in the lattice fit"),
    "lattice-masses-length": (lambda: detect_lattice([0.0, 1.0, 2.0], masses=[0.5, 0.5]),
                              UsageError, "masses and points differ in length"),
    "oracle-nan-time-jacobi": (lambda: oracle_expm(THREE_SITES, np.nan),
                               UsageError, "oracle |t| = nan above cap 1000.0"),
    "oracle-nan-time-generator": (lambda: oracle_expm(generator(TWO_SITES), np.nan),
                                  UsageError, "oracle |t| = nan above cap 1000.0"),
    "scan-empty": (lambda: return_probability_scan(amplitudes([], [])),
                   UsageError, "cannot scan an empty series"),
    "fitted-omega-variant": (lambda: fitted_omega("E", elliptic_context(0.5), NON_LATTICE),
                             DomainError, "variant 'E' must be 'C' or 'D'"),
    "fitted-omega-non-lattice": (
        lambda: fitted_omega("C", elliptic_context(0.5), NON_LATTICE),
        UsageError, "variant-C spectrum not a lattice: AlmostPerfect"),
    "spec-not-an-object": (lambda: build_from_spec([1]),
                           UsageError, "chain spec must be a JSON object"),
    "meixner-site-cap": (
        lambda: meixner_chain(1.0, 1 - 1e-9),
        ConfigurationError,
        "negative-binomial tail still 9.999e-01 at 100000 sites; pass an explicit n"),
    "sc-truncation-cap": (
        lambda: stieltjes_carlitz_chain("C", 1e-100),
        ConfigurationError,
        "site-weighted tail still above 1e-10 at size 6144; cap 10000 reached"),
    "sc-truncation-cap-through-spec": (
        lambda: build_from_spec({"family": "sc-c", "k": 1e-50}),
        ConfigurationError,
        "field 'k' is 1e-50, too small a modulus: site-weighted tail still above 1e-10 "
        "at size 6144; cap 10000 reached"),
    "meixner-site-30-past-certified-rows": (
        lambda: quantum_amplitude(meixner_chain(1.0, 0.5)[2], 30, 30, [2 * np.pi]),
        NumericError,
        "site 30: certificate 1.433e-09 of row 18 is above 1e-10"),
    "meixner-site-159-past-certified-rows": (
        lambda: (lambda rates, _, measure: classical_transition(measure, rates, 0, 159, [1.0]))(
            *meixner_chain(1.0, 0.5)),
        NumericError,
        "site 159: certificate 1.433e-09 of row 18 is above 1e-10"),
    "sc-c-site-32-past-certified-rows": (
        lambda: quantum_amplitude(stieltjes_carlitz_chain("C", 0.5)[1], 32, 32, [2.0]),
        NumericError,
        "site 32: certificate 1.478e-09 of row 18 is above 1e-10"),
    "nan-site-deficit-never-converges": (
        lambda: _truncated(lambda size: (np.arange(size, dtype=float), np.full(size, np.nan)),
                           4, THREE_SITES, 8),
        ConfigurationError, "site-weighted tail still above 1e-10 at size 8; cap 8 reached"),
    "sc-subnormal-nome": (
        lambda: stieltjes_carlitz_chain("C", 1e-160),
        DomainError, "modulus k = 1e-160 gives nome q = 6.27e-322, below the normal doubles"),
    "sc-zero-nome": (
        lambda: stieltjes_carlitz_chain("D", 1e-170),
        DomainError, "modulus k = 1e-170 gives nome q = 0.0, below the normal doubles"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_names_its_cause(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("points, reason", [
    ([0.0, 0.0, 1.0], "coincident points"),
    ([0.0, 1.0, 2e9], "lattice index exceeds 1000000000"),
    ([0.0, 1.0, 1.0001, 1e305], "lattice index exceeds 1000000000"),
], ids=["coincident", "lattice-index-cap", "lattice-index-overflows"])
def test_an_unfittable_spectrum_is_almost_perfect(points, reason):
    verdict = detect_lattice(points)
    assert verdict.kind == "AlmostPerfect"
    assert verdict.evidence["reason"] == reason


@pytest.mark.parametrize("times, values, maxima", [
    ([2.0], [0.5j], [(2.0, 0.5)]),
    ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]),
], ids=["one-sample", "constant"])
def test_a_short_or_flat_scan_reports_every_plateau(times, values, maxima):
    assert return_probability_scan(amplitudes(times, values)) == maxima


def test_a_scalar_argument_gives_scalar_cn_and_dn():
    context = elliptic_context(0.5)
    cn, dn = jacobi_cn_dn(0.5, context)
    assert type(cn) is float and type(dn) is float
    assert (cn, dn) == tuple(float(v[0]) for v in jacobi_cn_dn(np.array([0.5]), context))


@pytest.mark.parametrize("argv, message", [
    (["--family", "uniform", "--n", "4", "--steps", "1"],
     "field 'steps' is 1, need >= 2 for a grid"),
    (["--family", "uniform", "--n", "4", "--steps", "-3", "--tmax", "0"],
     "field 'steps' is -3, need >= 1 for a grid"),
    ([], "exactly one of --spec or --family is required"),
    (["--family", "uniform", "--spec", '{"family": "uniform"}'],
     "exactly one of --spec or --family is required"),
    (["--family", "sc-c", "--k", "1e-170"],
     "modulus k = 1e-170 gives nome q = 0.0, below the normal doubles"),
    (["--classical", "--verify", "--family", "meixner", "--beta", "1.3", "--c", "0.9"],
     "oracle size 1092 above cap 512"),
    (["--family", "uniform", "--n", "5", "--quad-order", "64"],
     "fields 'n' and 'quad_order' both given: 'n' builds the finite chain, "
     "'quad_order' the continuous measure; give one"),
], ids=["one-step", "one-point-negative-steps", "no-spec", "two-specs", "zero-nome",
        "verify-above-oracle-cap", "uniform-n-and-quad-order"])
def test_exit_2_names_the_bad_argument(tmp_path, capsys, argv, message):
    command = "return" if "sc-c" in argv else "simulate"
    assert main([command, *argv, "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
