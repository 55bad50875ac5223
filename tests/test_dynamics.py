"""Classical and quantum evolution against independent oracles.

The hand-checkable case used throughout: the two-state chain with
lambda_0 = 1, mu_1 = 2 has

    P_00(t) = (2 + e^{-3t}) / 3,    P_01(t) = (1 - e^{-3t}) / 3,

from diagonalizing A = [[-1, 1], [2, -2]] directly.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
import scipy.special

import spectral_walk.dynamics
from spectral_walk import (
    BirthDeathRates,
    JacobiOperator,
    NumericError,
    UsageError,
    classical_transition,
    classify_return,
    eigendecompose,
    generator,
    modified_measure,
    oracle_expm,
    quantum_amplitude,
    series_csv,
    series_filename,
    symmetrize,
)

from conftest import random_rates


@pytest.fixture
def two_state():
    rates = BirthDeathRates.from_arrays([1.0], [0.0, 2.0])
    j_op = symmetrize(rates)
    return rates, j_op, eigendecompose(j_op)


def test_two_state_closed_form(two_state):
    rates, _, measure = two_state
    t = np.linspace(0.0, 4.0, 17)
    p00 = classical_transition(measure, rates, 0, 0, t)
    p01 = classical_transition(measure, rates, 0, 1, t)
    assert p00.values == pytest.approx(list((2 + np.exp(-3 * t)) / 3), abs=1e-14)
    assert p01.values == pytest.approx(list((1 - np.exp(-3 * t)) / 3), abs=1e-14)


def test_two_state_spectrum(two_state):
    _, _, measure = two_state
    assert measure.points == pytest.approx([0.0, 3.0], abs=1e-14)
    assert measure.masses == pytest.approx([2 / 3, 1 / 3], abs=1e-14)


def test_identity_at_time_zero(rng):
    rates = random_rates(rng, sites=7)
    measure = eigendecompose(symmetrize(rates))
    for i in range(7):
        for j in range(7):
            p = classical_transition(measure, rates, i, j, 0.0)
            f = quantum_amplitude(measure, i, j, 0.0)
            want = 1.0 if i == j else 0.0
            assert p.values == pytest.approx(want, abs=1e-12)
            assert f.values == pytest.approx(want, abs=1e-12)


def test_classical_matches_expm(rng):
    for _ in range(6):
        rates = random_rates(rng)
        n = rates.n_sites
        j_op = symmetrize(rates)
        measure = eigendecompose(j_op)
        gen = generator(rates)
        for t in (0.1, 1.0, 5.0):
            dense = oracle_expm(gen, t)
            for i in range(n):
                series = classical_transition(measure, rates, i, 0, np.array([t]))
                assert abs(series.values[0] - dense[i, 0]) < 1e-10


def test_quantum_matches_dense_exponential(rng):
    # random finite operator, all entries, N = 10
    j_op = JacobiOperator(b=rng.uniform(-1, 1, 11), j=rng.uniform(0.2, 2.0, 10))
    measure = eigendecompose(j_op)
    for t in (0.3, 2.0, 7.0):
        dense = oracle_expm(j_op, t)
        for i in range(11):
            for j in range(11):
                f = quantum_amplitude(measure, i, j, np.array([t]))
                assert abs(f.values[0] - dense[i, j]) < 1e-10


def test_quantum_hermitian_time_symmetry(rng):
    rates = random_rates(rng, sites=6)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(-5.0, 5.0, 21)
    f = quantum_amplitude(measure, 1, 3, t)
    assert f.values[::-1] == pytest.approx(list(np.conj(f.values)), abs=1e-14)


def test_interior_site_of_long_chain_against_lattice_form():
    # Constant rates lambda = mu = 1 far from both ends behave like the
    # doubly-infinite walk: P_ii(t) = e^{-2t} I_0(2t).  At t <= 3 the
    # boundary influence at distance 100 is far below 1e-8.
    n = 251
    lambdas = np.ones(n - 1)
    mus = np.concatenate([[0.0], np.ones(n - 1)])
    rates = BirthDeathRates.from_arrays(lambdas, mus)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 3.0, 13)
    series = classical_transition(measure, rates, 125, 125, t)
    expected = np.exp(-2 * t) * scipy.special.iv(0, 2 * t)
    assert series.values == pytest.approx(list(expected), abs=1e-8)


def test_negative_time_rejected_classically(two_state):
    rates, _, measure = two_state
    with pytest.raises(UsageError, match="t >= 0"):
        classical_transition(measure, rates, 0, 0, np.array([1.0, -0.5]))


def test_provenance_mismatch_rejected(rng, two_state):
    rates, _, _ = two_state
    other = random_rates(rng, sites=5)
    other_measure = eigendecompose(symmetrize(other))
    with pytest.raises(UsageError, match="measure"):
        classical_transition(other_measure, rates, 0, 0, np.array([1.0]))


def test_absorbing_tail_provenance_accepted():
    # measures built from the absorbing-tail truncation of a
    # semi-infinite chain carry no reflecting last column; the
    # provenance check must accept that windowing too
    semi = BirthDeathRates(lam=lambda i: 1.0 + 0.1 * i, mu=lambda i: float(i))
    j_op = symmetrize(semi, 9, boundary="absorbing-tail")
    measure = eigendecompose(j_op)
    series = classical_transition(measure, semi, 0, 0, np.array([0.5]))
    assert 0.0 < series.values[0] <= 1.0


def test_out_of_range_site_rejected(two_state):
    rates, _, measure = two_state
    with pytest.raises(UsageError):
        quantum_amplitude(measure, 0, 5, np.array([1.0]))


def test_probability_guard_catches_sign_corruption():
    from spectral_walk.dynamics import ProbabilitySeries
    with pytest.raises(NumericError):
        ProbabilitySeries(i=0, j=0, times=np.array([1.0]), values=np.array([-0.2]))
    with pytest.raises(NumericError):
        ProbabilitySeries(i=0, j=0, times=np.array([1.0]), values=np.array([1.2]))


def test_value_at_each_time_is_independent_of_grid(rng):
    # bitwise: a time point evaluated alone or inside any grid gives the
    # same double, which is what makes output files reproducible
    rates = random_rates(rng, sites=9)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 20.0, 1003)
    f = quantum_amplitude(measure, 0, 4, t).values
    p = classical_transition(measure, rates, 2, 2, t).values
    for part in (slice(0, 1), slice(500, 503), slice(1, None, 7)):
        assert np.array_equal(quantum_amplitude(measure, 0, 4, t[part]).values, f[part])
        assert np.array_equal(classical_transition(measure, rates, 2, 2, t[part]).values,
                              p[part])


def test_near_degenerate_spectrum_keeps_eigenvector_table():
    # two mirror-image 3-site blocks joined by a 1e-13 coupling: their
    # eigenvalues pair up 1e-13 apart, and each pair needs its own atom
    # and eigenvector column
    eps = 1e-13
    rates = BirthDeathRates.from_arrays([1.0, 1.0, eps, 1.0, 1.0],
                                        [0.0, 1.0, 1.0, eps, 1.0, 1.0])
    j_op = symmetrize(rates)
    measure = eigendecompose(j_op)
    assert measure.weighted_chi is not None
    assert len(measure.points) == 6
    for t in (0.5, 2.0):
        unitary = oracle_expm(j_op, t)
        stochastic = oracle_expm(generator(rates), t)
        for i in range(6):
            for j in range(6):
                f = quantum_amplitude(measure, i, j, t).values
                p = classical_transition(measure, rates, i, j, t).values
                assert abs(f - unitary[i, j]) < 1e-10, (t, i, j)
                assert abs(p - stochastic[i, j]) < 1e-10, (t, i, j)


def test_exactly_coincident_eigenvalues_keep_separate_atoms():
    # two identical 3-site blocks joined by a coupling far below roundoff:
    # their eigenvalues coincide in floating point, the atoms tie, and the
    # eigenvector table is still orthonormal
    j_op = JacobiOperator(b=np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0]),
                          j=np.array([1.0, 1.0, 1e-300, 1.0, 1.0]))
    measure = eigendecompose(j_op)
    assert len(measure.points) == 6
    assert (np.diff(measure.points) == 0).any()
    for t in (0.5, 2.0):
        unitary = oracle_expm(j_op, t)
        for i in range(6):
            for j in range(6):
                f = quantum_amplitude(measure, i, j, t).values
                assert abs(f - unitary[i, j]) < 1e-10, (t, i, j)
    modified_measure(measure, j_op, 3)
    classify_return(measure)


# -- one provenance check per (measure, rates) pair ---------------------------------

def test_bound_pair_still_rejects_other_rates_or_measure(rng, two_state):
    rates, _, measure = two_state
    other = random_rates(rng, sites=2)
    other_measure = eigendecompose(symmetrize(other))
    classical_transition(measure, rates, 0, 1, np.array([1.0]))
    with pytest.raises(UsageError, match="provenance"):
        classical_transition(measure, other, 0, 1, np.array([1.0]))
    classical_transition(measure, rates, 0, 1, np.array([1.0]))
    with pytest.raises(UsageError, match="provenance"):
        classical_transition(other_measure, rates, 0, 1, np.array([1.0]))


def test_full_sweep_checks_provenance_once(rng, monkeypatch):
    calls = []
    original = spectral_walk.dynamics.symmetrize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_walk.dynamics, "symmetrize", counting)
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    for i in range(8):
        for j in range(8):
            classical_transition(measure, rates, i, j, np.array([0.5, 2.0]))
    # one operator per boundary convention, for the single check
    assert len(calls) == 2


def test_binding_keeps_neither_object_alive(rng):
    rates = random_rates(rng, sites=6)
    measure = eigendecompose(symmetrize(rates))
    classical_transition(measure, rates, 1, 4, np.array([1.0]))
    measure_ref, rates_ref = weakref.ref(measure), weakref.ref(rates)
    del measure, rates
    gc.collect()
    assert measure_ref() is None
    assert rates_ref() is None


def test_warm_calls_equal_cold_calls_bitwise(rng):
    rates = random_rates(rng, sites=9)
    j_op = symmetrize(rates)
    measure = eigendecompose(j_op)
    t = np.array([0.0, 0.01, 0.5, 3.0])
    # one measure for the whole sweep: every call after the first is warm
    warm = [[classical_transition(measure, rates, i, j, t).values for j in range(9)]
            for i in range(9)]
    for i in range(9):
        for j in range(9):
            cold = classical_transition(eigendecompose(j_op), rates, i, j, t).values
            assert np.array_equal(warm[i][j], cold), (i, j)


def test_scalar_time_shape(two_state):
    rates, _, measure = two_state
    p = classical_transition(measure, rates, 0, 1, 2.0)
    assert p.values.shape == ()
    f = quantum_amplitude(measure, 0, 1, 2.0)
    assert f.values.shape == ()


# -- oracle_expm dispatch --------------------------------------------------------

def test_oracle_dispatch_generator(two_state):
    rates, _, _ = two_state
    gen = generator(rates)
    out = oracle_expm(gen, 1.0)
    expect = np.array([[(2 + np.exp(-3)) / 3, (1 - np.exp(-3)) / 3],
                       [2 * (1 - np.exp(-3)) / 3, (1 + 2 * np.exp(-3)) / 3]])
    assert np.max(np.abs(out - expect)) < 1e-14


def test_oracle_dispatch_jacobi_is_unitary(rng):
    j_op = JacobiOperator(b=rng.uniform(-1, 1, 9), j=rng.uniform(0.2, 2.0, 8))
    u = oracle_expm(j_op, 2.5)
    assert np.max(np.abs(u @ u.conj().T - np.eye(9))) < 1e-12


def test_oracle_raw_array_needs_kind(rng):
    m = rng.uniform(-1, 1, (4, 4))
    m = m + m.T
    with pytest.raises(UsageError, match="kind"):
        oracle_expm(m, 1.0)
    u = oracle_expm(m, 1.0, kind="quantum")
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_oracle_caps(rng):
    j_op = JacobiOperator(b=np.zeros(3), j=np.full(2, 0.5))
    with pytest.raises(UsageError):
        oracle_expm(j_op, 1e6)


# -- CSV emission ------------------------------------------------------------------

def test_series_filenames(two_state):
    rates, _, measure = two_state
    p = classical_transition(measure, rates, 0, 1, np.array([1.0]))
    f = quantum_amplitude(measure, 1, 0, np.array([1.0]))
    assert series_filename(p) == "p_0_1.csv"
    assert series_filename(f) == "f_1_0.csv"


def test_series_csv_round_trip(two_state):
    rates, _, measure = two_state
    t = np.linspace(0.0, 2.0, 9)
    p = classical_transition(measure, rates, 0, 0, t)
    text = series_csv(p)
    lines = text.strip().split("\n")
    assert lines[0] == "t,p"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(back[:, 0], t)
    assert np.array_equal(back[:, 1], p.values)

    f = quantum_amplitude(measure, 0, 1, t)
    flines = series_csv(f).strip().split("\n")
    assert flines[0] == "t,re,im,abs"
    row = flines[3].split(",")
    assert float(row[1]) == f.values[2].real
    assert float(row[2]) == f.values[2].imag
