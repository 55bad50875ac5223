"""Characteristic functions, modified measures and return classification."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
from spectral_walk.spectral import _weighted_rows
from spectral_walk.return_analysis import _limit_denominator

from conftest import random_rates


def _atoms(points, masses, size=4):
    """A bare discrete measure over a throwaway operator."""
    j_op = JacobiOperator(b=np.zeros(size), j=np.full(size - 1, 0.5))
    from spectral_walk import SpectralMeasure
    return SpectralMeasure(jacobi=j_op, points=points, masses=masses)


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
    # one weighted row for f_ii, whose coefficients are its products with
    # itself, and for the site-i measure
    j_op, measure = measures[case]
    for i in (1, 3, 7):
        m_i = modified_measure(measure, j_op, i)
        row = _weighted_rows(measure, [i])[0]
        coeff = row * row
        masses = m_i.nodes_and_weights()[1]
        assert masses.tobytes() == coeff.tobytes()
        assert np.array_equal(m_i.nodes_and_weights()[0], measure.nodes_and_weights()[0])


# -- lattice detection -----------------------------------------------------------

@given(x=st.floats(allow_nan=False, allow_infinity=False),
       cap=st.one_of(st.integers(1, 12), st.just(10**6), st.integers(1, 10**9)))
# ties: a midpoint between two integers at cap 1 takes the floor, and one
# between two fractions of a small cap the smaller denominator
@example(x=2.5, cap=1)
@example(x=-2.5, cap=1)
@example(x=0.25, cap=2)
@example(x=1.0 + 2**-52, cap=10**6)
def test_integer_limit_denominator_equals_fractions(x, cap):
    want = Fraction(x).limit_denominator(cap)
    assert _limit_denominator(x, cap) == (want.numerator, want.denominator)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
def test_bad_lattice_tolerance_rejected(tol):
    # a one-1e-7 defect in a lattice has residual_rel 2.4e-8: NaN and inf
    # passed it as Perfect (t0 = 2 pi), a negative tol failed every fit
    points = [0.0, 1.0, 2.0 + 1e-7, 3.0]
    assert detect_lattice(points, tol=1e-9).kind == "AlmostPerfect"
    with pytest.raises(UsageError, match="tol"):
        detect_lattice(points, tol=tol)
    meixner = meixner_chain(1.0, 0.5)[2]
    assert classify_return(meixner).kind == "Perfect"
    for measure in (meixner, uniform_chain()[1]):
        with pytest.raises(UsageError, match="tol"):
            classify_return(measure, tol=tol)


@pytest.mark.parametrize("points, masses, part", [
    ([0.0, math.nan, 1.0, 2.0], None, "points"),
    ([0.0, 1.0, math.inf], None, "points"),
    ([0.0, 1.0, 2.0], [0.25, math.nan, 0.75], "masses"),
], ids=["nan-point", "inf-point", "nan-mass"])
def test_non_finite_spectrum_rejected(points, masses, part):
    # a NaN point raised a bare ValueError and an inf point OverflowError
    with pytest.raises(UsageError, match=f"non-finite {part}"):
        detect_lattice(points, masses=masses)


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


def scan_by_loop(series) -> list[tuple[float, float]]:
    """return_probability_scan as a loop over the samples: the reference
    the array version must reproduce exactly."""
    times = np.atleast_1d(np.asarray(series.times, dtype=float))
    y = np.abs(np.atleast_1d(np.asarray(series.values)))
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


@given(levels=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0),
                       min_size=1, max_size=60),
       phases=st.lists(st.floats(-4.0, 4.0), min_size=60, max_size=60),
       mirror=st.booleans(), start=st.floats(-50.0, 50.0), step=st.floats(1e-3, 2.0))
@example(levels=[1.0] * 5, phases=[0.0] * 60, mirror=False, start=0.0, step=0.5)
@example(levels=[0.0, 1.0, 0.5, 1.0, 0.0], phases=[0.0] * 60, mirror=True, start=0.0,
         step=0.25)
def test_scan_equals_the_loop_over_samples(levels, phases, mirror, start, step):
    # plateaus (repeated levels), ties in |f| at other times (a mirrored
    # series) and complex values of any phase: the same list, bit for bit
    from spectral_walk.dynamics import AmplitudeSeries
    y = np.array(levels + levels[::-1] if mirror else levels)
    values = y * np.exp(1j * np.array(phases * 2)[:y.size])
    t = start + step * np.arange(y.size)
    series = AmplitudeSeries(i=0, j=0, times=t, values=values)
    # repr tells -0.0 from 0.0
    assert repr(return_probability_scan(series)) == repr(scan_by_loop(series))
