"""Spectral measures and orthonormal polynomial evaluation."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from spectral_walk import (
    JacobiOperator,
    SpectralMeasure,
    UsageError,
    eigendecompose,
    pi_coefficients,
    symmetrize,
    uniform_chain,
)
from spectral_walk.spectral import chi_table_scaled

from conftest import plain_chi, random_rates


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
        table = chi_table_scaled(j_op, 8, measure.points, measure.masses)
        gram = table @ table.T
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
        # unit weights give the unweighted chi_i
        chi = chi_table_scaled(j_op, 9, measure.points, 1.0)
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


def _lapack_reference(j_op):
    """Points and sign-fixed eigenvector table from the tridiagonal
    eigensolver, the path every non-constant operator takes."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(j_op.b, j_op.j)
    return vals, vecs * np.where(vecs[0] < 0, -1.0, 1.0)


class TestConstantChain:
    """Operators with one diagonal value a and one coupling c take the
    closed form a + 2c cos(k pi/(n+1)), sqrt(2/(n+1)) sin((i+1) k pi/(n+1))."""

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("a, c", [(0.0, 0.5), (-1.3, 0.37), (2.5, 1.75)])
    def test_matches_eigensolver(self, size, a, c):
        j_op = JacobiOperator(b=np.full(size, a), j=np.full(size - 1, c))
        measure = eigendecompose(j_op)
        vals, table = _lapack_reference(j_op)
        W = measure.weighted_chi
        assert np.max(np.abs(measure.points - vals)) <= 1e-14 * max(1.0, abs(a) + 2 * c)
        assert np.max(np.abs(W - table)) <= 1e-12
        assert np.max(np.abs(measure.masses - table[0] ** 2)) <= 1e-12
        assert np.max(np.abs(W.T @ W - np.eye(size))) <= 1e-14
        assert (W[0] > 0).all()
        assert (np.diff(measure.points) > 0).all()

    def test_one_ulp_off_takes_the_eigensolver(self, monkeypatch):
        j = np.full(63, 0.5)
        j[17] = np.nextafter(0.5, 1.0)
        j_op = JacobiOperator(b=np.zeros(64), j=j)
        calls = []
        solve = scipy.linalg.eigh_tridiagonal
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda *args: calls.append(1) or solve(*args))
        measure = eigendecompose(j_op)
        assert calls == [1]
        closed = eigendecompose(JacobiOperator(b=np.zeros(64), j=np.full(63, 0.5)))
        assert np.max(np.abs(measure.points - closed.points)) < 1e-14
        assert np.max(np.abs(measure.weighted_chi - closed.weighted_chi)) < 1e-12

    @pytest.mark.parametrize("b", [np.full(3, 1e308), np.array([1e308, 1e308, 0.0])],
                             ids=["closed-form", "eigensolver"])
    def test_overflow_is_refused_by_name(self, b):
        with pytest.raises(UsageError, match="non-finite points"):
            eigendecompose(JacobiOperator(b=b, j=np.full(2, 1e308)))

    @pytest.mark.parametrize("b, k", [
        ([np.inf] * 3, 0), ([np.nan] * 3, 0),
        ([np.inf, 0.0, 0.0], 0), ([0.0, 0.0, -np.inf], 2), ([0.0, np.nan, 0.0], 1),
    ], ids=["closed-form-inf", "closed-form-nan", "eigensolver-inf", "eigensolver-minus-inf",
            "eigensolver-nan"])
    def test_non_finite_diagonal_is_refused_by_name(self, b, k):
        with pytest.raises(UsageError, match=rf"b\[{k}\] = .* is not finite"):
            eigendecompose(JacobiOperator(b=b, j=np.full(2, 0.5)))

    def test_uniform_chain_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh_tridiagonal called for a constant chain")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        j_op, measure = uniform_chain(n=2047)
        assert measure.weighted_chi.shape == (2048, 2048)
        assert measure.total_mass == pytest.approx(1.0, abs=1e-14)


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
        # the weighted table takes sqrt(w): a roundoff-sized negative
        # value is refused too, and each refusal names its part
        with pytest.raises(UsageError, match="negative mass -1e-16 in discrete part"):
            SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]),
                            masses=np.array([1.0, -1e-16]))
        with pytest.raises(UsageError,
                           match="negative quadrature weight -0.25 in continuous part"):
            SpectralMeasure.continuous([0.0, 1.0], [1.25, -0.25], j_op)
        # zero masses and weights are admitted
        SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]), masses=np.array([1.0, 0.0]),
                        quad_points=np.array([0.5]), quad_weights=np.array([0.0]))

    @pytest.mark.parametrize("part, bad", [
        ("points", {"points": [0.0, np.inf]}),
        ("masses", {"masses": [0.5, np.nan]}),
        ("quadrature points", {"quad_points": [np.nan]}),
        ("quadrature weights", {"quad_weights": [np.inf]}),
    ], ids=["inf-point", "nan-mass", "nan-quadrature-point", "inf-quadrature-weight"])
    def test_rejects_non_finite_values(self, part, bad):
        # a NaN mass passed the nonnegativity test: classify_return called
        # the measure Perfect and quantum_amplitude returned NaN
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        fields = {"points": [0.0, 1.0], "masses": [0.5, 0.25],
                  "quad_points": [0.5], "quad_weights": [0.25]} | bad
        with pytest.raises(UsageError, match=f"non-finite {part}"):
            SpectralMeasure(jacobi=j_op, **{k: np.array(v) for k, v in fields.items()})

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
    # components v[i] = sign * sqrt(M_s) * chi_i(x_s), which is the
    # recurrence table W and the measure's own weighted_chi.
    j_op = _random_jacobi(rng, 11)
    measure = eigendecompose(j_op)
    evals, evecs = np.linalg.eigh(j_op.dense())
    table = chi_table_scaled(j_op, 10, measure.points, measure.masses)
    assert np.max(np.abs(table - measure.weighted_chi)) < 1e-9
    for s in range(11):
        v = evecs[:, s] * np.sign(evecs[0, s])
        assert np.max(np.abs(table[:, s] - v)) < 1e-9


def test_chi_seeds():
    j_op = JacobiOperator(b=np.array([0.3, -0.2]), j=np.array([0.9]))
    x = np.array([-1.0, 0.0, 2.0])
    w = np.array([0.25, 1.0, 4.0])
    table = chi_table_scaled(j_op, 1, x, w)
    assert list(table[0]) == [0.5, 1.0, 2.0]
    # W_1 = sqrt(w) (x - b_0)/j_1 directly from the recurrence seed
    assert table[1] == pytest.approx(np.sqrt(w) * (x - 0.3) / 0.9)


def test_chi_scalar_input(rng):
    j_op = _random_jacobi(rng, 5)
    assert chi_table_scaled(j_op, 3, 0.25, 1.0).shape == (4, 1)


def test_chi_scaled_survives_growth():
    # Uniform couplings 1/2 with |x| > 1: chi_i grows like the larger
    # Chebyshev branch, 2.54 bits a degree at x = 3, and unweighted it
    # overflows float64 near degree 400.  The weight seeds the linear
    # recurrence, so W = sqrt(w) chi with w = 2**-1000 is still finite
    # at degree 450 and follows the growth law there, and a zero weight
    # is an exact zero row at every degree, never 0 * inf = NaN.
    j_op = JacobiOperator(b=np.zeros(1200), j=np.full(1199, 0.5))
    x = 3.0
    table = chi_table_scaled(j_op, 450, np.array([x]), np.array([2.0**-1000]))
    assert np.isfinite(table).all()
    growth = np.log2(x + np.sqrt(x * x - 1.0)) * 450
    assert np.log2(np.abs(table[450, 0])) + 500 == pytest.approx(growth, rel=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        unweighted = chi_table_scaled(j_op, 450, np.array([x]), 1.0)
    assert not np.isfinite(unweighted[450, 0])
    zero = chi_table_scaled(j_op, 1100, np.array([x, -x]), np.zeros(2))
    assert not zero.any() and not np.signbit(zero[0]).any()


def test_chi_scaled_agrees_with_plain(rng):
    # W = sqrt(w) chi against the independent plain recurrence: bit for
    # bit where sqrt(w) is a power of two (scaling by it is exact), and
    # to roundoff for any weights
    j_op = _random_jacobi(rng, 9)
    x = rng.uniform(-2.0, 2.0, size=7)
    chi = plain_chi(j_op, 8, x)
    powers = 4.0 ** rng.integers(-20, 20, size=7)
    assert np.array_equal(chi_table_scaled(j_op, 8, x, powers), np.sqrt(powers) * chi)
    w = rng.uniform(0.0, 1.0, size=7)
    assert chi_table_scaled(j_op, 8, x, w) == pytest.approx(np.sqrt(w) * chi, rel=1e-12)


def test_chi_table_rows_match_single_evaluations(rng):
    # reference: the plain three-term recurrence, one degree at a time
    j_op = _random_jacobi(rng, 7)
    x = rng.uniform(-2.0, 2.0, size=5)
    w = rng.uniform(0.0, 1.0, size=5)
    table = chi_table_scaled(j_op, 6, x, w)
    prev, curr = np.zeros_like(x), np.ones_like(x)
    for i in range(7):
        assert table[i] == pytest.approx(list(np.sqrt(w) * curr))
        if i < 6:
            coupling = j_op.j[i - 1] if i else 0.0
            prev, curr = curr, ((x - j_op.b[i]) * curr - coupling * prev) / j_op.j[i]


def test_chi_table_scaled_shapes(rng):
    j_op = _random_jacobi(rng, 6)
    w = np.full(4, 0.25)
    table = chi_table_scaled(j_op, 5, np.linspace(-1, 1, 4), w)
    assert table.shape == (6, 4)
    assert list(table[0]) == [0.5] * 4


def test_chi_table_caps_degree(rng):
    j_op = _random_jacobi(rng, 5)
    chi_table_scaled(j_op, 4, 0.0, 1.0)
    with pytest.raises(UsageError, match="recurrence rows"):
        chi_table_scaled(j_op, 5, 0.0, 1.0)


def test_weighted_table_rows_are_unit_on_a_gauss_rule():
    # the uniform chain's quadrature of order m is exact to degree
    # 2m - 1, so rows 0..m-1 of W have sum_s W[i, s]^2 = 1 and every
    # entry is at most 1 in size, where unweighted chi_i reaches ~i
    _, measure = uniform_chain(quad_order=128)
    x, w = measure.nodes_and_weights()
    table = chi_table_scaled(measure.jacobi, 127, x, w)
    assert np.max(np.abs((table * table).sum(axis=1) - 1.0)) < 1e-12
    assert np.abs(table).max() <= 1.0


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
        expected = (-1.0) ** i * chi_table_scaled(j_op, i, x, 1.0)[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(list(expected), abs=1e-11)
        lam, mu = rates.lam(i), rates.mu(i)
        q_prev, q = q, ((lam + mu - x) * q - mu * q_prev) / lam


def test_Q_at_zero_is_one_when_mu0_vanishes(rng):
    # with mu_0 = 0, Q_i(0) = (-1)^i pi_i^{-1/2} chi_i(0) = 1: the constant
    # vector is the generator's null vector
    rates = random_rates(rng, sites=9)
    j_op = symmetrize(rates)
    pi = pi_coefficients(rates, 8)
    chi = chi_table_scaled(j_op, 8, 0.0, 1.0)[:, 0]
    for i in range(8):
        q = (-1.0) ** i * chi[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(1.0, abs=1e-10)
