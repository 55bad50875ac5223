"""Characteristic functions, modified measures and return classification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spectral_walk import (
    BirthDeathRates,
    JacobiOperator,
    ReturnVerdict,
    UsageError,
    characteristic,
    classify_return,
    detect_lattice,
    eigendecompose,
    meixner_chain,
    modified_measure,
    quantum_amplitude,
    return_probability_scan,
    stieltjes_carlitz_chain,
    symmetrize,
    uniform_chain,
)
from spectral_walk.dynamics import _chi_product_coefficients

from conftest import random_rates


def _atoms(points, masses, size=4):
    """A bare discrete measure over a throwaway operator."""
    j_op = JacobiOperator(b=np.zeros(size), j=np.full(size - 1, 0.5))
    from spectral_walk import SpectralMeasure
    return SpectralMeasure.discrete(points, masses, j_op)


# -- characteristic function ---------------------------------------------------

def test_F_at_zero_is_exactly_one(rng):
    measure = eigendecompose(symmetrize(random_rates(rng, sites=8)))
    assert characteristic(measure, 0.0) == 1.0 + 0.0j


def test_F_modulus_bounded(rng):
    measure = eigendecompose(symmetrize(random_rates(rng, sites=10)))
    t = np.linspace(-40.0, 40.0, 801)
    F = characteristic(measure, t)
    assert np.max(np.abs(F)) <= 1.0 + 1e-12


def test_F_two_atom_closed_form():
    m = _atoms([0.0, 3.0], [2 / 3, 1 / 3], size=2)
    t = np.linspace(0.0, 5.0, 21)
    expect = (2 + np.exp(3j * t)) / 3
    assert characteristic(m, t) == pytest.approx(list(expect), abs=1e-15)
    # F(-t), the e^{-ixt} kernel, conjugates
    assert characteristic(m, -t) == pytest.approx(list(np.conj(expect)), abs=1e-15)


def test_F_rejects_unnormalized_measure():
    m = _atoms([0.0, 1.0], [0.4, 0.4], size=2)
    with pytest.raises(UsageError, match="mass"):
        characteristic(m, 1.0)


def test_return_amplitude_is_F_of_minus_t(rng):
    measure = eigendecompose(symmetrize(random_rates(rng, sites=7)))
    t = np.linspace(0.0, 12.0, 49)
    f00 = quantum_amplitude(measure, 0, 0, t)
    F = characteristic(measure, -t)
    assert f00.values == pytest.approx(list(F), abs=1e-12)


# -- modified measure ------------------------------------------------------------

def test_modified_measure_site_zero_is_identity(rng):
    measure = eigendecompose(symmetrize(random_rates(rng, sites=6)))
    assert modified_measure(measure, measure.jacobi, 0) is measure


def test_modified_measure_has_unit_mass(rng):
    for sites in (5, 12, 33):
        j_op = symmetrize(random_rates(rng, sites=sites))
        measure = eigendecompose(j_op)
        for i in range(sites):
            m_i = modified_measure(measure, j_op, i)
            assert abs(m_i.total_mass - 1.0) < 1e-12


def test_modified_measure_reproduces_diagonal_amplitude(rng):
    # two independent paths to f_ii: the spectral sum against the
    # original measure, and F(-t) of the site-i modified measure
    j_op = symmetrize(random_rates(rng, sites=9))
    measure = eigendecompose(j_op)
    t = np.linspace(0.0, 8.0, 33)
    for i in (1, 4, 8):
        direct = quantum_amplitude(measure, i, i, t)
        via_measure = characteristic(modified_measure(measure, j_op, i), -t)
        assert direct.values == pytest.approx(list(via_measure), abs=1e-11)


def test_modified_measure_on_family_measure_uses_recurrence():
    _, j_op, measure = meixner_chain(beta=1.0, c=0.25)
    m1 = modified_measure(measure, j_op, 1)
    assert abs(m1.total_mass - 1.0) < 1e-11


@pytest.fixture(scope="module")
def measures():
    """An eigendecomposed measure, two closed-form discrete ones and a
    quadrature one, each with its operator."""
    j_op = symmetrize(BirthDeathRates.from_arrays([1.0, 0.5, 2.0], [0.0, 2.0, 1.0, 0.7]))
    _, meixner_op, meixner = meixner_chain(beta=1.3, c=0.9)
    return {"eigen": (j_op, eigendecompose(j_op)), "meixner": (meixner_op, meixner),
            "sc-d": stieltjes_carlitz_chain("D", 0.8), "uniform": uniform_chain(quad_order=64)}


@pytest.mark.parametrize("case", ["eigen", "meixner", "sc-d", "uniform"])
def test_modified_measure_rejects_negative_site(measures, case):
    j_op, measure = measures[case]
    with pytest.raises(UsageError, match="nonnegative"):
        modified_measure(measure, j_op, -1)


@pytest.mark.parametrize("case", ["eigen", "meixner", "sc-d", "uniform"])
def test_modified_measure_rejects_site_beyond_operator(measures, case):
    j_op, measure = measures[case]
    with pytest.raises(UsageError, match=f"beyond operator size {j_op.size}"):
        modified_measure(measure, j_op, j_op.size)


def test_modified_measure_rejects_foreign_operator():
    _, _, meixner = meixner_chain(beta=1.0, c=0.25)
    foreign, _ = uniform_chain(n=meixner.jacobi.size - 1)
    for i in (0, 2):
        with pytest.raises(UsageError, match="operator"):
            modified_measure(meixner, foreign, i)
    # an equal operator built separately is the measure's operator
    twin = JacobiOperator(b=meixner.jacobi.b.copy(), j=meixner.jacobi.j.copy())
    assert modified_measure(meixner, twin, 0) is meixner


@pytest.mark.parametrize("case", ["meixner", "sc-d", "uniform"])
def test_modified_masses_are_the_diagonal_amplitude_coefficients(measures, case):
    # one chi-product table for f_ii and for the site-i measure
    j_op, measure = measures[case]
    for i in (1, 3, 7):
        m_i = modified_measure(measure, j_op, i)
        _, coeff = _chi_product_coefficients(measure, i, i)
        masses = m_i.nodes_and_weights()[1]
        assert masses.tobytes() == coeff.tobytes()
        assert np.array_equal(m_i.nodes_and_weights()[0], measure.nodes_and_weights()[0])


# -- lattice detection -----------------------------------------------------------

def test_exact_lattice_detected():
    pts = 0.3 + 0.7 * np.arange(6)
    verdict = detect_lattice(pts)
    assert verdict.kind == "Perfect"
    assert verdict.t0 == pytest.approx(2 * math.pi / 0.7, rel=1e-12)
    assert verdict.xi == pytest.approx(0.3, abs=1e-12)


def test_lattice_with_gaps_in_occupancy():
    # multiples 0, 2, 7, 11 of the spacing: still one lattice
    pts = 1.0 + 0.5 * np.array([0.0, 2.0, 7.0, 11.0])
    verdict = detect_lattice(pts)
    assert verdict.kind == "Perfect"
    assert verdict.t0 == pytest.approx(2 * math.pi / 0.5, rel=1e-12)


def test_incommensurate_points_are_almost_perfect():
    pts = np.array([0.0, 1.0, math.sqrt(2.0), math.e, math.pi, 4.5, 5.1])
    verdict = detect_lattice(pts)
    assert verdict.kind == "AlmostPerfect"
    assert verdict.t0 is None
    assert "residual" in verdict.evidence or "reason" in verdict.evidence


def test_two_points_flagged_degenerate():
    verdict = detect_lattice(np.array([0.4, 1.9]))
    assert verdict.kind == "Perfect"
    assert verdict.evidence.get("degenerate") is True


def test_tiny_masses_ignored_as_noise():
    pts = np.array([0.0, 0.33, 1.0, 2.0, 3.0, 4.0])
    masses = np.array([0.2, 1e-15, 0.2, 0.2, 0.2, 0.2 - 1e-15])
    verdict = detect_lattice(pts, masses=masses)
    assert verdict.kind == "Perfect"
    assert verdict.evidence["ignored_mass"] == pytest.approx(1e-15)


def test_masses_follow_their_points_when_unsorted():
    # the noise atom at pi is listed first; it must be the one dropped
    pts, masses = [math.pi, 0.0, 1.0, 2.0], [1e-20, 0.3, 0.3, 0.4]
    verdict = detect_lattice(pts, masses=masses)
    assert verdict.kind == "Perfect"
    assert verdict.t0 == pytest.approx(2 * math.pi, rel=1e-12)
    assert verdict.evidence["ignored_mass"] == 1e-20
    order = np.argsort(pts)
    assert detect_lattice(np.array(pts)[order], masses=np.array(masses)[order]).t0 == verdict.t0


def test_single_point_rejected():
    with pytest.raises(UsageError, match=">= 2"):
        detect_lattice(np.array([1.0]))


def test_verdict_kind_t0_consistency():
    with pytest.raises(UsageError):
        ReturnVerdict(kind="AlmostPerfect", t0=1.0)
    with pytest.raises(UsageError):
        ReturnVerdict(kind="Perfect")
    with pytest.raises(UsageError):
        ReturnVerdict(kind="Sometimes")


def test_verdict_json_shape():
    v = ReturnVerdict(kind="Perfect", t0=6.28, xi=0.0, evidence={"residual": 0.0})
    d = v.to_json_dict()
    assert d["class"] == "Perfect"
    assert d["t0"] == 6.28
    v2 = ReturnVerdict(kind="NoReturn")
    assert "t0" not in v2.to_json_dict()


# -- classify_return over the shipped measures -------------------------------------

def test_classify_meixner_perfect():
    _, _, measure = meixner_chain(beta=1.0, c=0.25)
    verdict = classify_return(measure)
    assert verdict.kind == "Perfect"
    assert verdict.t0 == pytest.approx(2 * math.pi, abs=1e-9)


def test_classify_uniform_no_return():
    _, measure = uniform_chain()
    verdict = classify_return(measure)
    assert verdict.kind == "NoReturn"


def test_classify_generic_random_chain(rng):
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    verdict = classify_return(measure)
    assert verdict.kind == "AlmostPerfect"


# -- return-probability scans --------------------------------------------------

def test_scan_finds_cosine_maxima():
    # |cos| on a plain grid: maxima at multiples of pi
    t = np.linspace(0.0, 10.0, 2001)
    from spectral_walk.dynamics import AmplitudeSeries
    series = AmplitudeSeries(i=0, j=0, times=t, values=np.cos(t) + 0j)
    maxima = return_probability_scan(series)
    best_t, best_a = maxima[0]
    assert best_a == pytest.approx(1.0, abs=1e-6)
    assert min(abs(best_t - k * math.pi) for k in range(5)) < 1e-4


def test_scan_on_true_amplitude_of_random_chain(rng):
    # generic finite chain: the return amplitude stays visibly below 1
    # on a long window even though it is almost periodic
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 1000.0, 200001)
    series = quantum_amplitude(measure, 0, 0, t[1:])
    maxima = return_probability_scan(series)
    assert maxima[0][1] < 1.0 - 1e-6
    assert len(maxima) > 10
