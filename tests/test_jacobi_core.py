"""Rates, generator, symmetrization and the pi coefficients.

Core claims:
    - BirthDeathRates.from_arrays validates shapes and positivity,
      naming the first offending index.
    - GeneratorMatrix rows sum to zero under the reflecting boundary
      (mu_0 = 0), to -mu_0 in row 0 otherwise.
    - J = -U A U^{-1} holds entrywise (dense similarity oracle).
    - pi ratio recurrence pi_{i+1}/pi_i = lambda_i / mu_{i+1} is exact.
    - Every read of the rates calls each closure once per site, in site
      order, and stops at the first invalid rate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spectral_walk import (
    BirthDeathRates,
    DomainError,
    JacobiOperator,
    UsageError,
    classical_transition,
    eigendecompose,
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
    for chain in (rates, semi):
        with pytest.raises(UsageError, match="^truncation order -1 is negative$"):
            chain.truncation_order(-1)


# -- one read of the rates ----------------------------------------------------

def _logged(lams, mus, n_sites, log, stop=math.inf):
    """Rates over the arrays whose closures append ("lambda" | "mu", i)
    to log on every call and fail on a call past site stop."""
    def reader(name, values):
        def rate(i):
            assert i <= stop, f"{name}({i}) called past site {stop}"
            log.append((name, i))
            return values[i]
        return rate
    return BirthDeathRates(lam=reader("lambda", lams), mu=reader("mu", mus), n_sites=n_sites)


READS = {
    "symmetrize": symmetrize,
    "generator": generator,
    "pi_coefficients": pi_coefficients,
    "validate": BirthDeathRates.validate,
}


@pytest.mark.parametrize("read", list(READS) + ["classical_transition"])
def test_each_read_calls_each_rate_once_per_site(read):
    plain = random_rates(np.random.default_rng(5), sites=8)
    lams, mus = [plain.lam(i) for i in range(8)], [plain.mu(i) for i in range(8)]
    log = []
    rates = _logged(lams, mus, 8, log)
    if read == "classical_transition":
        # a fresh measure binds to the rates on its first call
        measure = eigendecompose(symmetrize(plain))
        classical_transition(measure, rates, 0, 1, np.array([0.5, 2.0]))
    else:
        READS[read](rates, 7)
    assert log == [(name, i) for i in range(8) for name in ("lambda", "mu")]


def _first_invalid_rate(lams, mus, finite):
    """Reference rule: (name, site) of the first invalid rate, lambda_i
    checked before mu_i, or None when every rate is valid."""
    for i, (lam, mu) in enumerate(zip(lams, mus)):
        last = finite and i == len(lams) - 1
        if not (lam == 0.0 if last else 0.0 < lam < math.inf):
            return "lambda", i
        if not (0.0 <= mu if i == 0 else 0.0 < mu) or not mu < math.inf:
            return "mu", i
    return None


BAD_RATES = [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5]


@given(sites=st.integers(1, 9), finite=st.booleans(), read=st.sampled_from(list(READS)),
       field=st.sampled_from(["lambda", "mu"]), where=st.integers(0, 8),
       bad=st.sampled_from(BAD_RATES), seed=st.integers(0, 2**16))
@example(sites=4, finite=True, read="symmetrize", field="lambda", where=3, bad=1.5, seed=0)
@example(sites=4, finite=False, read="validate", field="mu", where=0, bad=-0.5, seed=0)
def test_a_bad_rate_is_named_at_its_site_and_nothing_past_it_is_read(
        sites, finite, read, field, where, bad, seed):
    rng = np.random.default_rng(seed)
    lams, mus = list(rng.uniform(0.1, 2.0, sites)), list(rng.uniform(0.1, 2.0, sites))
    mus[0] = 0.0
    if finite:
        lams[-1] = 0.0
    site = where % sites
    (lams if field == "lambda" else mus)[site] = bad
    expected = _first_invalid_rate(lams, mus, finite)
    log = []
    rates = _logged(lams, mus, sites if finite else None, log,
                    stop=sites - 1 if expected is None else expected[1])
    if expected is None:
        READS[read](rates, sites - 1)
        reads = [(name, i) for i in range(sites) for name in ("lambda", "mu")]
    else:
        name, i = expected
        with pytest.raises(DomainError) as info:
            READS[read](rates, sites - 1)
        assert str(info.value).startswith(f"{name}[{i}] = ")
        reads = [(n, k) for k in range(i + 1) for n in ("lambda", "mu")]
        reads = reads[:-1] if name == "lambda" else reads
    assert log == reads


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
    lv = pi_coefficients(semi, 400).log_values
    assert np.isfinite(np.exp(0.5 * (lv[399] - lv[398])))
    assert np.exp(0.5 * (lv[399] - lv[398])) ** 2 == pytest.approx(10.0, rel=1e-12)
    assert np.exp(0.5 * (lv[10] - lv[12])) == pytest.approx(0.1, rel=1e-12)


def test_pi_value_keeps_its_bits_at_every_site():
    semi = BirthDeathRates(lam=lambda i: 10.0 ** (i % 7), mu=lambda i: 0.5 + i)
    pi = pi_coefficients(semi, 400)
    with np.errstate(over="ignore"):
        expected = np.exp(pi.log_values)
    # past the double range pi_i reads inf, as np.exp gives
    for i in [*range(401), np.int64(200), np.int32(400)]:
        assert np.float64(pi.value(i)).tobytes() == expected[i].tobytes()
