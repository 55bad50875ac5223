"""Spectral measures and orthonormal polynomial evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from spectral_walk import (
    JacobiOperator,
    SpectralMeasure,
    UsageError,
    eigendecompose,
    chi_table,
    pi_coefficients,
    symmetrize,
)
from spectral_walk.spectral import chi_table_scaled

from conftest import random_rates


def _random_jacobi(rng, size):
    return JacobiOperator(b=rng.uniform(-1.0, 1.0, size=size),
                          j=rng.uniform(0.2, 2.0, size=size - 1))


class TestEigendecompose:
    def test_masses_sum_to_one(self, rng):
        for size in (1, 2, 9, 33):
            measure = eigendecompose(_random_jacobi(rng, size))
            assert abs(measure.total_mass - 1.0) < 1e-12
            assert len(measure.points) == size

    def test_points_strictly_increasing(self, rng):
        measure = eigendecompose(_random_jacobi(rng, 20))
        assert (np.diff(measure.points) > 0).all()

    def test_matches_dense_eigensolver(self, rng):
        j_op = _random_jacobi(rng, 12)
        measure = eigendecompose(j_op)
        evals, evecs = np.linalg.eigh(j_op.dense())
        assert np.max(np.abs(measure.points - evals)) < 1e-12
        assert np.max(np.abs(measure.masses - evecs[0] ** 2)) < 1e-12

    def test_single_site(self):
        measure = eigendecompose(JacobiOperator(b=np.array([0.7]), j=np.empty(0)))
        assert measure.points[0] == 0.7
        assert measure.masses[0] == 1.0

    def test_orthonormality_n8_by_recurrence(self, rng):
        j_op = _random_jacobi(rng, 9)
        measure = eigendecompose(j_op)
        table = chi_table(j_op, 8, measure.points)
        gram = (table * measure.masses) @ table.T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_orthonormality_up_to_n32(self, rng):
        # via the measure's own table; recurrence evaluation at edge
        # nodes is not reliable at this size (see weighted_chi docs)
        for size in (4, 16, 33):
            j_op = _random_jacobi(rng, size)
            measure = eigendecompose(j_op)
            table = measure.weighted_chi
            assert table is not None
            gram = table @ table.T
            assert np.max(np.abs(gram - np.eye(size))) < 1e-10

    def test_weighted_chi_consistent_with_masses_and_recurrence(self, rng):
        j_op = _random_jacobi(rng, 10)
        measure = eigendecompose(j_op)
        W = measure.weighted_chi
        assert np.max(np.abs(W[0] ** 2 - measure.masses)) < 1e-14
        chi = chi_table(j_op, 9, measure.points)
        assert np.max(np.abs(W / W[0] - chi)) < 1e-8

    def test_moments_match_operator_powers(self, rng):
        j_op = _random_jacobi(rng, 10)
        measure = eigendecompose(j_op)
        dense = j_op.dense()
        x, w = measure.nodes_and_weights()
        acc = np.eye(10)
        for k in range(7):
            assert np.sum(w * x**k) == pytest.approx(acc[0, 0], abs=1e-9)
            acc = acc @ dense


class TestSpectralMeasure:
    def test_rejects_unsorted_points(self):
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        with pytest.raises(UsageError, match="increasing"):
            SpectralMeasure(jacobi=j_op, points=np.array([1.0, 0.0]),
                            masses=np.array([0.5, 0.5]))

    def test_rejects_negative_mass(self):
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        with pytest.raises(UsageError, match="mass"):
            SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]),
                            masses=np.array([1.2, -0.2]))

    def test_discrete_constructor_sorts(self):
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        m = SpectralMeasure.discrete([2.0, -1.0], [0.25, 0.75], j_op)
        assert list(m.points) == [-1.0, 2.0]
        assert list(m.masses) == [0.75, 0.25]

    def test_nodes_and_weights_atoms_first(self):
        j_op = JacobiOperator(b=np.zeros(3), j=np.array([1.0, 1.0]))
        m = SpectralMeasure(jacobi=j_op,
                            points=np.array([0.5]), masses=np.array([0.5]),
                            quad_points=np.array([0.25, 0.75]),
                            quad_weights=np.array([0.25, 0.25]))
        x, w = m.nodes_and_weights()
        assert list(x) == [0.5, 0.25, 0.75]
        assert m.kind == "mixed"
        assert m.continuous_mass == pytest.approx(0.5)
        assert m.total_mass == pytest.approx(1.0)

    @pytest.mark.parametrize("points, weights, message", [
        (np.array([0.25, 0.5, 0.75]), np.array([1.0]), "3 quadrature points but 1"),
        (np.array([0.25, 0.75]), None, "both quadrature points and weights"),
        (None, np.array([0.5, 0.5]), "both quadrature points and weights"),
    ], ids=["lengths-differ", "weights-missing", "points-missing"])
    def test_rejects_unmatched_quadrature_rule(self, points, weights, message):
        j_op = JacobiOperator(b=np.zeros(3), j=np.array([1.0, 1.0]))
        with pytest.raises(UsageError, match=message):
            SpectralMeasure(jacobi=j_op, points=np.empty(0), masses=np.empty(0),
                            quad_points=points, quad_weights=weights)


# -- polynomial evaluation -----------------------------------------------------

def test_chi_matches_eigenvector_components(rng):
    # Independent oracle: the s-th normalized eigenvector of J has
    # components v[i] = sign * sqrt(M_s) * chi_i(x_s).
    j_op = _random_jacobi(rng, 11)
    measure = eigendecompose(j_op)
    evals, evecs = np.linalg.eigh(j_op.dense())
    table = chi_table(j_op, 10, measure.points)
    for s in range(11):
        v = evecs[:, s] * np.sign(evecs[0, s])
        assert np.max(np.abs(table[:, s] * np.sqrt(measure.masses[s]) - v)) < 1e-9


def test_chi_seeds():
    j_op = JacobiOperator(b=np.array([0.3, -0.2]), j=np.array([0.9]))
    x = np.array([-1.0, 0.0, 2.0])
    table = chi_table(j_op, 1, x)
    assert np.all(table[0] == 1.0)
    # chi_1 = (x - b_0)/j_1 directly from the recurrence seed
    assert table[1] == pytest.approx((x - 0.3) / 0.9)


def test_chi_scalar_input(rng):
    j_op = _random_jacobi(rng, 5)
    assert chi_table(j_op, 3, 0.25).shape == (4, 1)


def test_chi_scaled_survives_growth():
    # Uniform couplings 1/2 with |x| > 1: chi_i grows like the larger
    # Chebyshev branch and overflows float64 near i ~ 700.  The scaled
    # pair must stay finite and recombine to inf only in linear space.
    j_op = JacobiOperator(b=np.zeros(1200), j=np.full(1199, 0.5))
    mant, expo = chi_table_scaled(j_op, 1100, np.array([3.0]))
    assert np.isfinite(mant).all()
    x = 3.0
    growth = np.log2(x + np.sqrt(x * x - 1.0)) * 1100
    total = np.log2(np.abs(mant[1100, 0])) + expo[1100, 0]
    assert total == pytest.approx(growth, rel=1e-3)
    assert chi_table(j_op, 1100, np.array([3.0]))[1100, 0] == np.inf


def test_chi_scaled_agrees_with_plain(rng):
    j_op = _random_jacobi(rng, 9)
    x = rng.uniform(-2.0, 2.0, size=7)
    mant, expo = chi_table_scaled(j_op, 8, x)
    assert np.array_equal(np.ldexp(mant, expo), chi_table(j_op, 8, x))


def test_chi_table_rows_match_single_evaluations(rng):
    # reference: the plain three-term recurrence, one degree at a time
    j_op = _random_jacobi(rng, 7)
    x = rng.uniform(-2.0, 2.0, size=5)
    table = chi_table(j_op, 6, x)
    prev, curr = np.zeros_like(x), np.ones_like(x)
    for i in range(7):
        assert table[i] == pytest.approx(list(curr))
        if i < 6:
            coupling = j_op.j[i - 1] if i else 0.0
            prev, curr = curr, ((x - j_op.b[i]) * curr - coupling * prev) / j_op.j[i]


def test_chi_table_scaled_shapes(rng):
    j_op = _random_jacobi(rng, 6)
    mant, expo = chi_table_scaled(j_op, 5, np.linspace(-1, 1, 4))
    assert mant.shape == (6, 4)
    assert expo.shape == (6, 4)


def test_chi_table_caps_degree(rng):
    j_op = _random_jacobi(rng, 5)
    chi_table(j_op, 4, 0.0)
    with pytest.raises(UsageError, match="recurrence rows"):
        chi_table(j_op, 5, 0.0)


def test_Q_relation_to_chi(rng):
    # Q_i = (-1)^i pi_i^{-1/2} chi_i on the symmetrized operator, with the
    # Karlin-McGregor polynomials from their own recurrence
    #     lambda_k Q_{k+1} = (lambda_k + mu_k - x) Q_k - mu_k Q_{k-1}
    rates = random_rates(rng, sites=8)
    j_op = symmetrize(rates)
    pi = pi_coefficients(rates, 7)
    x = rng.uniform(0.0, 4.0, size=6)
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    for i in range(7):
        expected = (-1.0) ** i * chi_table(j_op, i, x)[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(list(expected), abs=1e-11)
        lam, mu = rates.lam(i), rates.mu(i)
        q_prev, q = q, ((lam + mu - x) * q - mu * q_prev) / lam


def test_Q_at_zero_is_one_when_mu0_vanishes(rng):
    # with mu_0 = 0, Q_i(0) = (-1)^i pi_i^{-1/2} chi_i(0) = 1: the constant
    # vector is the generator's null vector
    rates = random_rates(rng, sites=9)
    j_op = symmetrize(rates)
    pi = pi_coefficients(rates, 8)
    chi = chi_table(j_op, 8, 0.0)[:, 0]
    for i in range(8):
        q = (-1.0) ** i * chi[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(1.0, abs=1e-10)
