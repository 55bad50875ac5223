"""Rates, generator, symmetrization and the pi coefficients.

Core claims:
    - BirthDeathRates.from_arrays validates shapes and positivity,
      naming the first offending index.
    - GeneratorMatrix rows sum to zero under the reflecting boundary
      (mu_0 = 0), to -mu_0 in row 0 otherwise.
    - J = -U A U^{-1} holds entrywise (dense similarity oracle).
    - pi ratio recurrence pi_{i+1}/pi_i = lambda_i / mu_{i+1} is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from spectral_walk import (
    BirthDeathRates,
    DomainError,
    JacobiOperator,
    UsageError,
    generator,
    pi_coefficients,
    symmetrize,
)

from conftest import random_rates


def _dense_similarity(rates, n):
    """-U A U^{-1} computed densely; U = diag((-1)^i pi_i^{1/2})."""
    A = generator(rates, n).dense()
    pi = pi_coefficients(rates, n)
    u = np.array([(-1.0) ** i * np.sqrt(pi.value(i)) for i in range(n + 1)])
    return -(u[:, None] * A) / u[None, :]


def _row_sums(gen):
    """Row sums of the tridiagonal generator from its three bands."""
    sums = gen.diag.copy()
    sums[:-1] += gen.sup
    sums[1:] += gen.sub
    return sums


# -- construction and validation ---------------------------------------------

def test_from_arrays_implicit_trailing_zero():
    rates = BirthDeathRates.from_arrays([1.0, 2.0], [0.0, 3.0, 4.0])
    assert rates.n_sites == 3
    assert rates.lam(2) == 0.0
    assert rates.mu(2) == 4.0


def test_from_arrays_explicit_trailing_zero():
    rates = BirthDeathRates.from_arrays([1.0, 2.0, 0.0], [0.0, 3.0, 4.0])
    assert rates.lam(2) == 0.0


def test_from_arrays_rejects_nonzero_last_lambda():
    with pytest.raises(DomainError, match=r"lambda\[2\]"):
        BirthDeathRates.from_arrays([1.0, 2.0, 3.0], [0.0, 3.0, 4.0])


def test_from_arrays_rejects_length_mismatch():
    with pytest.raises(DomainError):
        BirthDeathRates.from_arrays([1.0], [0.0, 1.0, 2.0])


def test_validate_names_first_bad_index():
    bad = BirthDeathRates(lam=lambda i: 1.0, mu=lambda i: -2.0 if i == 3 else 1.0)
    with pytest.raises(DomainError, match=r"mu\[3\]"):
        bad.validate(5)


def test_validate_rejects_zero_birth_rate_mid_chain():
    bad = BirthDeathRates(lam=lambda i: 0.0 if i == 2 else 1.0, mu=lambda i: 1.0)
    with pytest.raises(DomainError, match=r"lambda\[2\]"):
        bad.validate(4)


def test_negative_mu0_rejected():
    with pytest.raises(DomainError, match=r"mu\[0\]"):
        BirthDeathRates.from_arrays([1.0], [-0.5, 1.0])


@pytest.mark.parametrize("lambdas, mus, field", [
    ([1.0], [float("nan"), 2.0], r"mu\[0\]"),
    ([float("inf")], [0.0, 2.0], r"lambda\[0\]"),
    ([1.0], [0.0, float("inf")], r"mu\[1\]"),
])
def test_non_finite_rates_rejected(lambdas, mus, field):
    with pytest.raises(DomainError, match=field):
        BirthDeathRates.from_arrays(lambdas, mus)


def test_truncation_order_defaults_and_caps():
    rates = BirthDeathRates.from_arrays([1.0, 1.0], [0.0, 1.0, 1.0])
    assert rates.truncation_order(None) == 2
    assert rates.truncation_order(1) == 1
    with pytest.raises(UsageError):
        rates.truncation_order(5)
    semi = BirthDeathRates(lam=lambda i: 1.0, mu=lambda i: float(i))
    with pytest.raises(UsageError):
        semi.truncation_order(None)


# -- generator ----------------------------------------------------------------

def test_generator_row_sums_zero_reflecting(rng):
    for _ in range(5):
        rates = random_rates(rng)
        gen = generator(rates)
        assert np.max(np.abs(_row_sums(gen))) < 1e-15


def test_generator_row_zero_kills_at_mu0():
    rates = BirthDeathRates.from_arrays([1.0], [0.7, 2.0])
    gen = generator(rates, 1)
    sums = _row_sums(gen)
    assert sums[0] == pytest.approx(-0.7)
    assert sums[1] == 0.0


def test_generator_absorbing_tail_leaks():
    semi = BirthDeathRates(lam=lambda i: 1.0 + i, mu=lambda i: float(i))
    gen = generator(semi, 4, boundary="absorbing-tail")
    sums = _row_sums(gen)
    assert sums[-1] == pytest.approx(-semi.lam(4))
    assert np.max(np.abs(sums[:-1])) < 1e-15


def test_generator_offdiagonals_nonnegative(rng):
    gen = generator(random_rates(rng))
    dense = gen.dense()
    off = dense - np.diag(np.diag(dense))
    assert off.min() >= 0.0


# -- symmetrize ----------------------------------------------------------------

def test_symmetrize_matches_dense_similarity_n8(rng):
    rates = random_rates(rng, sites=9)
    j_op = symmetrize(rates)
    expected = _dense_similarity(rates, 8)
    assert np.max(np.abs(j_op.dense() - expected)) < 1e-13


def test_symmetrize_matches_dense_similarity_up_to_n32(rng):
    for sites in (5, 17, 33):
        rates = random_rates(rng, sites=sites)
        j_op = symmetrize(rates)
        expected = _dense_similarity(rates, sites - 1)
        assert np.max(np.abs(j_op.dense() - expected)) < 1e-12


def test_symmetrize_entries():
    rates = BirthDeathRates.from_arrays([1.0, 2.0], [0.0, 3.0, 4.0])
    j_op = symmetrize(rates)
    assert j_op.b[0] == pytest.approx(1.0)
    assert j_op.b[1] == pytest.approx(5.0)
    assert j_op.b[2] == pytest.approx(4.0)
    assert j_op.j[0] == pytest.approx(np.sqrt(3.0))
    assert j_op.j[1] == pytest.approx(np.sqrt(8.0))


def test_symmetrize_names_bad_index():
    bad = BirthDeathRates(lam=lambda i: 1.0, mu=lambda i: 0.0)
    with pytest.raises(DomainError, match=r"mu\[1\]"):
        symmetrize(bad, 3)


def test_jacobi_operator_requires_positive_couplings():
    with pytest.raises(DomainError):
        JacobiOperator(b=np.zeros(3), j=np.array([1.0, 0.0]))


# -- pi coefficients -----------------------------------------------------------

def test_pi_ratio_recurrence_is_exact(rng):
    rates = random_rates(rng, sites=12)
    pi = pi_coefficients(rates, 11)
    for i in range(11):
        lhs = pi.value(i + 1) / pi.value(i)
        rhs = rates.lam(i) / rates.mu(i + 1)
        assert lhs == pytest.approx(rhs, rel=1e-14)
    assert pi.value(0) == 1.0


def test_pi_log_values_equal_scalar_loop(rng):
    # one division per site, then one cumsum of the logs
    rates = random_rates(rng, sites=40)
    ratios = np.array([rates.lam(i) / rates.mu(i + 1) for i in range(39)])
    expected = np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    assert pi_coefficients(rates).log_values.tobytes() == expected.tobytes()
    assert pi_coefficients(rates, 0).log_values.tobytes() == np.zeros(1).tobytes()


def test_pi_survives_extreme_products():
    # 400 sites of ratio 10 would overflow a raw product; the log
    # representation must still give finite ratios between nearby sites.
    semi = BirthDeathRates(lam=lambda i: 10.0, mu=lambda i: 1.0)
    pi = pi_coefficients(semi, 400)
    assert np.isfinite(pi.sqrt_ratio(399, 398))
    assert pi.sqrt_ratio(399, 398) ** 2 == pytest.approx(10.0, rel=1e-12)
    assert pi.sqrt_ratio(10, 12) == pytest.approx(0.1, rel=1e-12)
