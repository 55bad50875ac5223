"""Named chain families: construction, measures, closed-form checks.

scipy.special supplies the complete elliptic integral (ellipk) and
30-digit mpmath the cn/dn references; the evaluations must match them
well below the stated tolerances.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from spectral_walk import (
    BirthDeathRates,
    ConfigurationError,
    DomainError,
    JacobiOperator,
    NumericError,
    UsageError,
    bessel_j1,
    build_from_spec,
    classical_transition,
    characteristic,
    classify_return,
    eigendecompose,
    elliptic_context,
    family_schemas,
    fitted_omega,
    jacobi_cn_dn,
    meixner_chain,
    modified_measure,
    pst_demo_chain,
    quantum_amplitude,
    stieltjes_carlitz_chain,
    symmetrize,
    uniform_chain,
)
from spectral_walk.dynamics import _spectral_sum
from spectral_walk.spectral import chi_table_scaled

from conftest import plain_chi


def has_birth_death_rates(j_op) -> bool:
    """Whether some chain with mu_0 = 0 symmetrizes to j_op: solve
    lambda_i + mu_i = B_i, lambda_i mu_{i+1} = J_{i+1}^2 forward and
    require lambda_i > 0 at every site but the last."""
    mu = 0.0
    for i in range(j_op.size - 1):
        lam = float(j_op.b[i]) - mu
        if not lam > 0.0:
            return False
        mu = float(j_op.j[i]) ** 2 / lam
    return True


# == Meixner ====================================================================

def test_meixner_rates_are_linear():
    rates, _, _ = meixner_chain(beta=2.0, c=0.5)
    for i in range(6):
        assert rates.lam(i) == pytest.approx(0.5 * (i + 2.0) / 0.5)
        assert rates.mu(i) == pytest.approx(i / 0.5)


def test_meixner_masses_are_negative_binomial():
    _, _, measure = meixner_chain(beta=1.0, c=0.25)
    # beta = 1: geometric distribution (1-c) c^s
    s = np.arange(len(measure.points))
    assert measure.masses == pytest.approx(list(0.75 * 0.25**s), rel=1e-14)
    assert measure.points == pytest.approx(list(s.astype(float)))


def test_meixner_mass_deficit_is_documented_tail():
    _, _, measure = meixner_chain(beta=0.5, c=0.8)
    deficit = 1.0 - measure.total_mass
    assert 0.0 <= deficit < 1e-12


def test_meixner_orthonormality():
    _, j_op, measure = meixner_chain(beta=2.5, c=0.5)
    table = chi_table_scaled(j_op, 10, measure.points, measure.masses)
    gram = table @ table.T
    assert np.max(np.abs(gram - np.eye(11))) < 1e-10


def test_meixner_characteristic_closed_form():
    for beta, c in [(1.0, 0.25), (2.5, 0.5), (0.5, 0.8)]:
        _, _, measure = meixner_chain(beta=beta, c=c)
        t = np.linspace(0.0, 4 * math.pi, 257)
        F = characteristic(measure, t)
        closed = ((1 - c) / (1 - c * np.exp(1j * t))) ** beta
        tail = 1.0 - measure.total_mass
        assert np.max(np.abs(F - closed)) <= 1e-10 + tail


def test_meixner_explicit_n_respected_and_checked():
    _, _, measure = meixner_chain(beta=1.0, c=0.25, n=30)
    assert len(measure.points) == 31
    with pytest.raises(ConfigurationError, match="tail"):
        meixner_chain(beta=1.0, c=0.25, n=3)


def test_meixner_rejects_bad_parameters():
    with pytest.raises(DomainError, match="beta"):
        meixner_chain(beta=0.0, c=0.5)
    with pytest.raises(DomainError, match="c ="):
        meixner_chain(beta=1.0, c=1.0)


def test_meixner_truncation_moments_converged():
    # first moments at the default truncation and at twice the support
    # agree: the tail rule leaves nothing that moves low moments
    rates, _, m1 = meixner_chain(beta=1.5, c=0.4)
    n2 = 2 * len(m1.points) - 1
    _, _, m2 = meixner_chain(beta=1.5, c=0.4, n=n2)
    (x1, w1), (x2, w2) = m1.nodes_and_weights(), m2.nodes_and_weights()
    for k in range(6):
        assert abs(np.sum(w1 * x1**k) - np.sum(w2 * x2**k)) < 1e-8


# == one truncation policy =======================================================
#
# meixner_chain and stieltjes_carlitz_chain share one doubling loop.  The
# references below are the per-family loops it replaced, kept verbatim in
# their arithmetic: the shared loop must give the same bits.

def _reference_deficit(probe, points, masses) -> float:
    table = plain_chi(probe, 10, points)
    return float(np.max(1.0 - (table**2) @ masses))


def reference_meixner(beta, c, n=None, tail_tol=1e-12):
    """Negative-binomial masses extended one at a time until the tail
    bound is below tail_tol (or to n + 1 sites), then, without n,
    extended by their own length until the chi_i^2 tail of sites
    i <= 10 is below 1e-10."""
    if not 0 < beta < math.inf:
        raise DomainError(f"beta = {beta} is not positive and finite")
    if not 0.0 < c < 1.0:
        raise DomainError(f"c = {c} outside (0, 1)")
    rates = BirthDeathRates(lam=lambda i: c * (i + beta) / (1.0 - c),
                            mu=lambda i: i / (1.0 - c))
    masses = [(1.0 - c) ** beta]
    s = 0
    while True:
        m_next = masses[-1] * c * (beta + s) / (s + 1)
        ratio_bound = max(c, c * (beta + s + 1) / (s + 2))
        tail = m_next / (1.0 - ratio_bound) if ratio_bound < 1.0 else math.inf
        if n is None and tail < tail_tol:
            break
        if n is not None and s + 1 > n:
            if tail >= tail_tol:
                raise ConfigurationError(
                    f"truncation n = {n} leaves tail mass <= {tail:.3e} "
                    f">= {tail_tol}; increase n")
            break
        masses.append(m_next)
        s += 1
    if n is None:
        probe = symmetrize(rates, 10, boundary="absorbing-tail")
        while _reference_deficit(probe, np.arange(len(masses), dtype=float),
                                 np.array(masses)) > 1e-10:
            for _ in range(len(masses)):
                s = len(masses) - 1
                masses.append(masses[-1] * c * (beta + s) / (s + 1))
    points = np.arange(len(masses), dtype=float)
    return points, np.array(masses), symmetrize(rates, len(masses) - 1, boundary="absorbing-tail")


def reference_sc(variant, k, s_max=None, tail_tol=1e-12):
    """Half support from the relative excluded-mass rule (at least 12),
    then, without s_max, doubled until the chi_i^2 tail of sites
    i <= 10 is below 1e-10."""
    variant = variant.upper()
    ctx = elliptic_context(k)
    if variant not in ("C", "D"):
        raise DomainError(f"variant {variant!r} must be 'C' or 'D'")
    q = ctx.q

    def coupling(n):
        if variant == "C":
            return ctx.k * n if n % 2 == 0 else float(n)
        return float(n) if n % 2 == 0 else ctx.k * n

    def support(half):
        if variant == "C":
            s_range = np.arange(-half, half)
            pts = (math.pi / (2.0 * ctx.K)) * (2.0 * s_range + 1.0)
            raw = 1.0 / (q ** (s_range + 0.5) + q ** (-(s_range + 0.5)))
        else:
            s_range = np.arange(-half, half + 1)
            pts = (math.pi / ctx.K) * s_range
            raw = 1.0 / (q ** s_range.astype(float) + q ** (-s_range.astype(float)))
        return pts, raw / raw.sum()

    explicit = s_max is not None
    if not explicit:
        offset = 0.5 if variant == "C" else 0.0
        total, s = 0.0, 0
        while True:
            total += 2.0 / (q ** (s + offset) + q ** (-(s + offset)))
            if 2.0 * q ** (s + 1 + offset) / (1.0 - q) / total < tail_tol:
                break
            s += 1
        s_max = max(s + 1, 12)
    if s_max < 1:
        raise UsageError(f"s_max = {s_max} must be >= 1")
    points, masses = support(s_max)
    if not explicit:
        probe = JacobiOperator(b=np.zeros(11), j=np.array([coupling(i) for i in range(1, 11)]))
        while _reference_deficit(probe, points, masses) > 1e-10:
            s_max *= 2
            points, masses = support(s_max)
    size = len(points)
    return points, masses, JacobiOperator(
        b=np.zeros(size), j=np.array([coupling(i) for i in range(1, size)]))


def assert_same_build(reference, built):
    points, masses, j_ref = reference
    j_op, measure = built[-2:]
    assert measure.points.tobytes() == points.tobytes()
    assert measure.masses.tobytes() == masses.tobytes()
    assert j_op.b.tobytes() == j_ref.b.tobytes()
    assert j_op.j.tobytes() == j_ref.j.tobytes()


def outcome(build, *args):
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("c", [0.25, 0.5, 0.8, 0.9, 0.95, 0.99])
def test_meixner_truncation_equals_reference(beta, c):
    assert_same_build(reference_meixner(beta, c), meixner_chain(beta, c))


@pytest.mark.parametrize("beta, c, n", [(1.0, 1e-13, 0), (1.0, 0.25, 30), (2.5, 0.5, 80),
                                        (0.5, 0.8, 200), (0.5, 0.99, 4000)])
def test_meixner_explicit_n_equals_reference(beta, c, n):
    assert_same_build(reference_meixner(beta, c, n), meixner_chain(beta, c, n=n))


@pytest.mark.parametrize("variant", ["C", "D"])
@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99, 0.999])
def test_sc_truncation_equals_reference(variant, k):
    assert_same_build(reference_sc(variant, k), stieltjes_carlitz_chain(variant, k))


@pytest.mark.parametrize("variant", ["C", "d"])
@pytest.mark.parametrize("k, s_max", [(0.6, 1), (0.6, 7), (0.999, 40)])
def test_sc_explicit_s_max_equals_reference(variant, k, s_max):
    assert_same_build(reference_sc(variant, k, s_max),
                      stieltjes_carlitz_chain(variant, k, s_max=s_max))


@pytest.mark.parametrize("args", [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (1.0, 0.0),
                                  (1.0, 1.0), (1.0, -0.5), (1.0, math.nan), (-1.0, 2.0),
                                  (1.0, 0.25, 3), (2.5, 0.99, 100), (math.inf, 0.5)])
def test_meixner_errors_equal_reference(args):
    expected = outcome(reference_meixner, *args)
    assert expected is not None
    assert outcome(meixner_chain, *args) == expected


@pytest.mark.parametrize("args", [("E", 0.5), ("x", 0.5), ("E", 1.5), ("C", 0.0),
                                  ("D", 1.0), ("C", 0.5, 0), ("D", 0.5, -2), ("E", 0.5, 0)])
def test_sc_errors_equal_reference(args):
    expected = outcome(reference_sc, *args)
    assert expected is not None
    assert outcome(stieltjes_carlitz_chain, *args) == expected


# == elliptic context and cn/dn ==================================================

def test_K_against_quadrature():
    for k in (0.1, 0.5, 0.9):
        ctx = elliptic_context(k)
        ref, err = scipy.integrate.quad(
            lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
            0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
        assert abs(ctx.K - ref) < 1e-12


def test_K_against_scipy_and_limits():
    for k in (0.05, 0.3, 0.7, 0.99):
        ctx = elliptic_context(k)
        assert ctx.K == pytest.approx(scipy.special.ellipk(k * k), rel=1e-14)
        assert ctx.Kprime == pytest.approx(scipy.special.ellipk(1 - k * k), rel=1e-14)
    assert elliptic_context(1e-10).K == pytest.approx(math.pi / 2, rel=1e-9)


def test_K_increasing_in_k():
    ks = np.linspace(0.05, 0.95, 10)
    vals = [elliptic_context(k).K for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_nome_special_value():
    # k = k' = 1/sqrt(2) gives K = K', hence q = e^{-pi}
    ctx = elliptic_context(1.0 / math.sqrt(2.0))
    assert ctx.q == pytest.approx(math.exp(-math.pi), rel=1e-14)


def test_context_rejects_bad_modulus():
    for k in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            elliptic_context(k)


def _cn_dn_reference(u, k):
    """cn(u; k) and dn(u; k) at each u, from 30-digit mpmath."""
    with mpmath.workdps(30):
        m = mpmath.mpf(k) ** 2
        return ([float(mpmath.ellipfun("cn", mpmath.mpf(v), m=m)) for v in u],
                [float(mpmath.ellipfun("dn", mpmath.mpf(v), m=m)) for v in u])


def test_cn_dn_against_scipy():
    for k in (0.2, 0.5, 0.9):
        ctx = elliptic_context(k)
        u = np.linspace(-3 * ctx.K, 3 * ctx.K, 401)
        cn_ref, dn_ref = _cn_dn_reference(u, k)
        cn, dn = jacobi_cn_dn(u, ctx)
        assert np.max(np.abs(cn - cn_ref)) < 1e-12
        assert np.max(np.abs(dn - dn_ref)) < 1e-12


def test_cn_dn_periodicity():
    ctx = elliptic_context(0.6)
    u = np.linspace(0.0, 2 * ctx.K, 51)
    cn1, dn1 = jacobi_cn_dn(u, ctx)
    cn2, dn2 = jacobi_cn_dn(u + 4 * ctx.K, ctx)
    _, dn3 = jacobi_cn_dn(u + 2 * ctx.K, ctx)
    assert cn2 == pytest.approx(list(cn1), abs=1e-12)
    assert dn3 == pytest.approx(list(dn1), abs=1e-12)


def test_cn_dn_small_modulus_series_branch():
    ctx = elliptic_context(1e-7)
    u = np.linspace(0.0, 6.0, 25)
    cn, dn = jacobi_cn_dn(u, ctx)
    assert cn == pytest.approx(list(np.cos(u)), abs=1e-12)
    assert dn == pytest.approx(list(np.ones_like(u)), abs=1e-12)



@pytest.mark.parametrize("k", [0.01, 0.5, 0.9, 0.999])
def test_cn_dn_large_argument_against_mpmath(k):
    u = np.linspace(-1e4, 1e4, 57)
    cn_ref, dn_ref = _cn_dn_reference(u, k)
    cn, dn = jacobi_cn_dn(u, elliptic_context(k))
    assert np.max(np.abs(cn - cn_ref)) < 1e-10
    assert np.max(np.abs(dn - dn_ref)) < 1e-10

# == Stieltjes-Carlitz ===========================================================

def test_sc_coupling_parity_law():
    # C: J_n = k n for even n, n for odd n; D the other way round
    for variant, even, odd in (("C", 0.4, 1.0), ("D", 1.0, 0.4)):
        j = stieltjes_carlitz_chain(variant, 0.4)[0].j
        for n in range(1, 9):
            assert j[n - 1] == pytest.approx((even if n % 2 == 0 else odd) * n)


def test_sc_atoms_and_mass():
    for variant, k in (("C", 0.3), ("D", 0.7)):
        j_op, measure = stieltjes_carlitz_chain(variant, k)
        ctx = elliptic_context(k)
        assert abs(measure.total_mass - 1.0) < 1e-14
        gaps = np.diff(measure.points)
        assert gaps == pytest.approx([math.pi / ctx.K] * len(gaps), rel=1e-12)
        if variant == "D":
            assert 0.0 in measure.points
        else:
            assert np.min(np.abs(measure.points)) == pytest.approx(
                math.pi / (2 * ctx.K), rel=1e-12)


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, [0.5, np.nan]])
def test_cn_dn_refuse_a_non_finite_argument(z):
    with pytest.raises(DomainError, match="finite"):
        jacobi_cn_dn(z, elliptic_context(0.5))
    with pytest.raises(DomainError, match="finite"):
        jacobi_cn_dn(z, elliptic_context(1e-6))


@pytest.mark.parametrize("variant", ["C", "D"])
def test_sc_small_modulus_far_atoms_get_zero_mass_without_warning(variant):
    # at k = 0.01 the nome is ~6e-6, so q^-s leaves the double range
    # near |s| = 57: those atoms get the exact mass 0 (no overflow
    # warning under the suite's error filter), and their weighted-table
    # columns are exact zeros.  No truncation certificate covers a far
    # site, and there the recurrence lost its value (1 - sum_s W^2 is
    # about -1e198), so its amplitude raises instead of returning a
    # finite number with no accuracy
    j_op, measure = stieltjes_carlitz_chain(variant, 0.01, s_max=60)
    zero = measure.masses == 0.0
    assert zero.any() and (measure.masses >= 0.0).all()
    assert abs(measure.total_mass - 1.0) < 1e-14
    table = chi_table_scaled(j_op, j_op.size - 1, measure.points, measure.masses)
    assert not table[:, zero].any()
    t = np.linspace(0.0, 10.0, 11)
    far = j_op.size - 1
    with pytest.raises(NumericError, match=f"site {far}: deficit"):
        quantum_amplitude(measure, far, far, t)


def test_rows_the_recurrence_lost_raise_wherever_they_are_used():
    # sc-d at k = 0.01 with s_max = 60 loses sites 13, 15, 16, ...; at
    # site 120, 1 - sum_s W^2 = -1.4e198
    j_op, measure = stieltjes_carlitz_chain("D", 0.01, s_max=60)
    t = np.array([0.0, 1.0])
    with pytest.raises(NumericError, match=r"site 120: deficit .* = -1\.4\d*e\+198"):
        quantum_amplitude(measure, 120, 120, t)
    with pytest.raises(NumericError, match="site 120"):
        quantum_amplitude(measure, 0, 120, t)
    with pytest.raises(NumericError, match="site 120"):
        modified_measure(measure, j_op, 120)
    # the Meixner chain of beta = 1, c = 0.5 loses sites 121 to 159
    rates, _, meixner = meixner_chain(1.0, 0.5)
    with pytest.raises(NumericError, match="site 159"):
        quantum_amplitude(meixner, 159, 159, t)
    with pytest.raises(NumericError, match="site 159"):
        classical_transition(meixner, rates, 0, 159, t)


@pytest.mark.parametrize("build", [
    lambda: meixner_chain(1.0, 0.25)[2], lambda: meixner_chain(2.5, 0.5)[2],
    lambda: stieltjes_carlitz_chain("C", 0.01)[1], lambda: stieltjes_carlitz_chain("D", 0.01)[1],
    lambda: stieltjes_carlitz_chain("C", 0.9)[1], lambda: stieltjes_carlitz_chain("D", 0.5)[1],
    lambda: uniform_chain(quad_order=256)[1],
], ids=["meixner-1-0.25", "meixner-2.5-0.5", "sc-c-0.01", "sc-d-0.01", "sc-c-0.9", "sc-d-0.5",
        "uniform-256"])
def test_sites_up_to_10_of_default_builds_keep_their_values(build):
    # the sc builds at k = 0.01 lose their sites from 12 or 13 on, inside
    # the stacks per-entry calls would take: an entry of sites <= 10 is
    # still the plain product sum of its two table rows, not a refusal
    measure = build()
    x, w = measure.nodes_and_weights()
    table = chi_table_scaled(measure.jacobi, 10, x, w)
    t = np.array([0.0, 0.7, 2 * math.pi])
    for i in range(11):
        for j in (0, 3, i, 10):
            want = _spectral_sum(x, table[i] * table[j], t, -1j)
            assert np.array_equal(quantum_amplitude(measure, i, j, t).values, want), (i, j)


def test_sc_orthonormality_to_degree_10():
    for variant, k in (("C", 0.5), ("D", 0.5)):
        j_op, measure = stieltjes_carlitz_chain(variant, k)
        table = chi_table_scaled(j_op, 10, measure.points, measure.masses)
        gram = table @ table.T
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_sc_amplitude_matches_cn_dn_with_fitted_omega():
    for k in (0.3, 0.7):
        ctx = elliptic_context(k)
        t = np.linspace(0.0, 4 * ctx.K, 257)
        j_c, m_c = stieltjes_carlitz_chain("C", k)
        omega_c = fitted_omega("C", ctx, m_c)
        f_c = quantum_amplitude(m_c, 0, 0, t)
        cn, _ = jacobi_cn_dn(omega_c * t, ctx)
        assert np.max(np.abs(f_c.values.real - cn)) < 1e-8
        assert np.max(np.abs(f_c.values.imag)) < 1e-8

        j_d, m_d = stieltjes_carlitz_chain("D", k)
        omega_d = fitted_omega("D", ctx, m_d)
        f_d = quantum_amplitude(m_d, 0, 0, t)
        _, dn = jacobi_cn_dn(omega_d * t, ctx)
        assert np.max(np.abs(f_d.values.real - dn)) < 1e-8
        assert np.max(np.abs(f_d.values.imag)) < 1e-8


def test_sc_classified_perfect():
    for variant in ("C", "D"):
        _, measure = stieltjes_carlitz_chain(variant, 0.55)
        verdict = classify_return(measure)
        assert verdict.kind == "Perfect"
        ctx = elliptic_context(0.55)
        assert verdict.t0 == pytest.approx(2 * ctx.K, rel=1e-9)


def test_sc_rejects_unknown_variant():
    with pytest.raises(DomainError, match="variant"):
        stieltjes_carlitz_chain("E", 0.5)


def test_sc_has_no_birth_death_rates():
    j_op, _ = stieltjes_carlitz_chain("C", 0.5)
    assert not has_birth_death_rates(j_op)
    custom = build_from_spec({"family": "custom", "lambdas": [1.0, 0.5], "mus": [0.0, 2.0, 1.0]})
    assert has_birth_death_rates(custom.measure.jacobi)


# == uniform chain ================================================================

def test_uniform_continuous_weight_normalized():
    _, measure = uniform_chain()
    assert measure.kind == "continuous"
    assert abs(measure.continuous_mass - 1.0) < 1e-12
    assert -1.0 < measure.quad_points.min() and measure.quad_points.max() < 1.0


def test_uniform_amplitude_bessel_law_short():
    _, measure = uniform_chain()
    t = np.linspace(0.5, 10.0, 39)
    f = quantum_amplitude(measure, 0, 0, t)
    assert np.max(np.abs(f.values - 2 * bessel_j1(t) / t)) < 1e-10


def test_uniform_truncated_eigenvalues():
    j_op, measure = uniform_chain(n=9)
    ks = np.arange(1, 11, dtype=float)
    expect = np.sort(np.cos(ks * math.pi / 11.0))
    assert measure.points == pytest.approx(list(expect), abs=1e-14)


def test_uniform_truncated_matches_continuous_at_short_times():
    _, cont = uniform_chain()
    _, disc = uniform_chain(n=60)
    t = np.linspace(0.0, 10.0, 41)
    fc = quantum_amplitude(cont, 0, 0, t)
    fd = quantum_amplitude(disc, 0, 0, t)
    assert np.max(np.abs(fc.values - fd.values)) < 1e-8


UNIFORM_ORDERS = [2, 3, 4, 5, 64, 127, 256, 524, 1024, 4096]


@pytest.mark.parametrize("m", UNIFORM_ORDERS)
def test_uniform_quadrature_nodes_are_the_finite_chain_points(m):
    # one closed form for both: exactly mirrored (the mirrored kernel path
    # applies), an exact 0 in the middle of an odd order
    _, measure = uniform_chain(quad_order=m)
    x = measure.quad_points
    assert np.array_equal(x[::-1], -x)
    assert x.tobytes() == uniform_chain(n=m - 1)[1].points.tobytes()
    if m % 2:
        assert x[m // 2] == 0.0 and not np.signbit(x[m // 2])


@pytest.mark.parametrize("m", UNIFORM_ORDERS)
def test_uniform_quadrature_nodes_and_weights_against_cosine_form(m):
    _, measure = uniform_chain(quad_order=m)
    idx = np.arange(1, m + 1, dtype=float)
    # the weights as the cosine-node build computed them, byte for byte
    weights = (2.0 / (m + 1)) * np.sin(idx * math.pi / (m + 1))[::-1] ** 2
    assert measure.quad_weights.tobytes() == weights.tobytes()
    with mpmath.workdps(30):
        exact = [mpmath.cos(k * mpmath.pi / (m + 1)) for k in range(m, 0, -1)]
        worst = max(abs(mpmath.mpf(float(v)) - e) for v, e in zip(measure.quad_points, exact))
    assert worst <= 2 * np.spacing(1.0)


def test_uniform_rejects_degenerate_orders():
    with pytest.raises(UsageError):
        uniform_chain(n=0)
    with pytest.raises(UsageError):
        uniform_chain(quad_order=1)


def test_uniform_has_no_birth_death_rates():
    j_op, _ = uniform_chain(n=5)
    assert not has_birth_death_rates(j_op)


# == perfect-transfer demo chain ===================================================

def test_pst_spectrum_is_equispaced():
    j_op = pst_demo_chain(10)
    measure = eigendecompose(j_op)
    expect = np.arange(10, dtype=float) - 4.5
    assert measure.points == pytest.approx(list(expect), abs=1e-10)


def test_pst_transfer_and_return():
    j_op = pst_demo_chain(10)
    measure = eigendecompose(j_op)
    f_end = quantum_amplitude(measure, 0, 9, np.array([math.pi]))
    assert abs(f_end.values[0]) > 1.0 - 1e-8
    f_ret = quantum_amplitude(measure, 0, 0, np.array([2 * math.pi]))
    assert abs(f_ret.values[0]) > 1.0 - 1e-8


def test_pst_two_sites():
    j_op = pst_demo_chain(2)
    assert j_op.j[0] == pytest.approx(0.5)
    measure = eigendecompose(j_op)
    f = quantum_amplitude(measure, 0, 1, np.array([math.pi]))
    assert abs(f.values[0]) == pytest.approx(1.0, abs=1e-12)


def test_pst_rejects_single_site():
    with pytest.raises(UsageError):
        pst_demo_chain(1)


# == build_from_spec and schemas ===================================================

def test_schemas_cover_all_families():
    schemas = family_schemas()
    assert set(schemas) == {"custom", "meixner", "sc-c", "sc-d", "uniform", "pst-demo"}
    for meta in schemas.values():
        assert "params" in meta and "notes" in meta


def test_build_custom():
    build = build_from_spec({"family": "custom",
                             "lambdas": [1.0], "mus": [0.0, 2.0]})
    assert build.family == "custom"
    assert build.rates is not None
    assert build.measure.jacobi.size == 2
    assert build.info["sites"] == 2


def test_build_meixner_reports_tail():
    build = build_from_spec({"family": "meixner", "beta": 1.0, "c": 0.25})
    assert build.rates is not None
    assert 0.0 <= build.info["tail_mass"] < 1e-12


def test_build_sc_reports_fitted_omega():
    build = build_from_spec({"family": "sc-d", "k": 0.6})
    assert build.rates is None
    assert build.info["omega_fitted"] == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < build.info["nome_q"] < 1.0


def test_build_uniform_modes():
    cont = build_from_spec({"family": "uniform"})
    assert cont.measure.kind == "continuous"
    disc = build_from_spec({"family": "uniform", "n": 12})
    assert disc.measure.kind == "discrete"
    assert disc.info["sites"] == 13


def test_build_pst():
    build = build_from_spec({"family": "pst-demo", "n": 6})
    assert build.info["transfer_time"] == pytest.approx(math.pi)


def test_build_rejects_unknown_family():
    with pytest.raises(UsageError, match="family"):
        build_from_spec({"family": "heisenberg"})


def test_build_rejects_missing_field():
    with pytest.raises(UsageError, match="beta"):
        build_from_spec({"family": "meixner", "c": 0.25})


def test_build_rejects_unknown_field():
    with pytest.raises(UsageError, match="gamma"):
        build_from_spec({"family": "meixner", "beta": 1.0, "c": 0.25, "gamma": 3})


def test_build_casts_json_floats_to_int_counts():
    build = build_from_spec({"family": "uniform", "n": 12.0})
    assert build.measure.jacobi.size == 13
