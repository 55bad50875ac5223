"""Classical and quantum evolution against independent oracles.

The hand-checkable case used throughout: the two-state chain with
lambda_0 = 1, mu_1 = 2 has

    P_00(t) = (2 + e^{-3t}) / 3,    P_01(t) = (1 - e^{-3t}) / 3,

from diagonalizing A = [[-1, 1], [2, -2]] directly.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import pickle
import tracemalloc
import types
import unittest.mock
import weakref

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_walk.dynamics
from spectral_walk import (
    AmplitudeSeries,
    BirthDeathRates,
    JacobiOperator,
    NumericError,
    PiCoefficients,
    SpectralMeasure,
    UsageError,
    characteristic,
    classical_transition,
    classify_return,
    eigendecompose,
    generator,
    meixner_chain,
    modified_measure,
    oracle_expm,
    pi_coefficients,
    pst_demo_chain,
    quantum_amplitude,
    series_csv,
    series_filename,
    stieltjes_carlitz_chain,
    symmetrize,
    uniform_chain,
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
    t = np.array([1.0])
    with pytest.raises(UsageError):
        quantum_amplitude(measure, 0, 5, t)
    # also when the memo holds the stack of every other part of the key
    for z in (-1.0, -1j):
        entry(rates, measure, 0, 0, t, z)
        for i, j in ((0, 2), (0, -1), (-1, 0), (2, 0)):
            with pytest.raises(UsageError, match="nonnegative|beyond"):
                entry(rates, measure, i, j, t, z)


def test_probability_guard_catches_sign_corruption():
    from spectral_walk.dynamics import ProbabilitySeries
    with pytest.raises(NumericError):
        ProbabilitySeries(i=0, j=0, times=np.array([1.0]), values=np.array([-0.2]))
    with pytest.raises(NumericError):
        ProbabilitySeries(i=0, j=0, times=np.array([1.0]), values=np.array([1.2]))


@pytest.mark.parametrize("values", [[np.nan, -5.0], [0.5, np.nan], [np.nan], [0.2, np.nan, 0.3],
                                    [np.nan, 0.5, 2.0]])
def test_probability_guard_rejects_nan(values):
    # min/max over the values skip a NaN that is not first, and a NaN
    # compares false with either bound; a NaN is never a probability
    from spectral_walk.dynamics import ProbabilitySeries
    with pytest.raises(NumericError, match="NaN"):
        ProbabilitySeries(i=0, j=0, times=np.arange(len(values), dtype=float),
                          values=np.array(values))


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


# -- the blocked spectral sum ------------------------------------------------------

def same_bits(a, b) -> bool:
    """Equal as stored doubles: NaN positions and the sign of zero count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# each slice crosses block boundaries, lies inside one block, or strides
# over many blocks, for blocks of 16 rows (1024 nodes) and 54 rows (300)
BLOCK_SLICES = (slice(0, 1), slice(10, 40), slice(15, 17), slice(16, 32), slice(1990, 2001),
                slice(3, None, 37), slice(None, None, -5))


def test_long_grid_values_are_independent_of_blocking():
    _, measure = uniform_chain(quad_order=1024)
    t = np.linspace(0.0, 50.0, 2001)
    f = quantum_amplitude(measure, 0, 3, t).values
    char = characteristic(measure, t)
    for part in BLOCK_SLICES:
        assert same_bits(quantum_amplitude(measure, 0, 3, t[part]).values, f[part]), part
        assert same_bits(characteristic(measure, t[part]), char[part]), part
    assert same_bits(quantum_amplitude(measure, 0, 3, t[1234]).values, f[1234])
    assert same_bits(characteristic(measure, t[1234]), char[1234])


def test_big_chain_probabilities_are_independent_of_blocking(rng):
    rates = random_rates(rng, sites=300)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 5.0, 2001)
    p = classical_transition(measure, rates, 150, 151, t).values
    for part in BLOCK_SLICES:
        got = classical_transition(measure, rates, 150, 151, t[part]).values
        assert same_bits(got, p[part]), part


def whole_grid_sum(x, coeff, t, z):
    # the kernel before blocking: one (T, S) table of complex exponentials
    return np.add.reduce(coeff * np.exp(z * x[None, :] * t[:, None]), axis=1)


@pytest.mark.parametrize("z", [-1.0, -1j, 1j])
@pytest.mark.parametrize("nodes, steps", [(7, 5), (300, 40), (300, 2001), (1024, 50)])
def test_spectral_sum_equals_whole_grid_form_bitwise(z, nodes, steps):
    # covers one block, many blocks and block tails, single and stacked rows;
    # zero and negative-zero nodes, coefficients and times give zero phases
    # and zero terms of either sign
    gen = np.random.default_rng(nodes * steps)
    x = np.sort(gen.uniform(-3.0, 3.0, nodes))
    x[:3] = [-0.0, 0.0, 5e-324]
    coeff = gen.uniform(-1.0, 1.0, nodes)
    coeff[:4] = [-0.0, 0.0, -0.0, 1e-310]
    t = np.linspace(0.0, 40.0, steps)
    if z != -1.0:
        t = np.concatenate([[-0.0], -t[1:3], t])
    want = whole_grid_sum(x, coeff, t, z)
    assert same_bits(spectral_walk.dynamics._spectral_sum(x, coeff, t, z), want)
    rows = np.stack([coeff, -coeff, np.full(nodes, -0.0)])
    stacked = spectral_walk.dynamics._spectral_sum(x, rows, t, z)
    for row, got in zip(rows, stacked):
        assert same_bits(got, whole_grid_sum(x, row, t, z))


def per_time_sum(x, coeff, t, z):
    # the kernel's sum one time point at a time, every exponential taken
    out = np.empty(coeff.shape[:-1] + t.shape, dtype=complex if isinstance(z, complex) else float)
    for k in range(t.size):
        out[..., k] = np.add.reduce(coeff[..., None, :] * np.exp(z * x * t[k:k + 1, None]),
                                    axis=-1)[..., 0]
    return out


@contextlib.contextmanager
def counted_exp():
    """Record the size of each np.exp argument made inside."""
    terms = []
    exp = np.exp

    def counting(arg, *args, **kwargs):
        terms.append(np.size(arg))
        return exp(arg, *args, **kwargs)

    with unittest.mock.patch.object(np, "exp", counting):
        yield terms


def kernel_with_exp_terms(x, coeff, t, z):
    """_spectral_sum's values and the number of exponentials it took."""
    with counted_exp() as terms:
        values = spectral_walk.dynamics._spectral_sum(x, coeff, t, z)
    return values, sum(terms)


@st.composite
def mirrored_cases(draw):
    """Nodes with x[::-1] == -x (an exact 0 in the middle of an odd count,
    S = 1 and 2 included), a stack of coefficient rows with zeros of
    either sign, and times holding +-0, negative and subnormal values."""
    half = np.sort(draw(st.lists(st.floats(0.0, 10.0, exclude_min=True), max_size=40)))
    odd = draw(st.booleans()) or half.size == 0
    x = np.concatenate([-half[::-1], np.zeros(int(odd)), half])
    coeff = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=x.size,
                                            max_size=x.size), min_size=1, max_size=3)))
    t = np.array([0.0, -0.0] + draw(st.lists(st.floats(-60.0, 60.0), max_size=40)))
    return x, coeff, t


@settings(max_examples=200, deadline=None)
@given(case=mirrored_cases(), z=st.sampled_from([1j, -1j]), index=st.integers(0, 80))
@example(case=(np.array([0.0]), np.array([[-0.0]]), np.array([0.0, -0.0, -1.5])), z=1j, index=0)
@example(case=(np.array([-5e-324, 5e-324]), np.array([[-0.0, -0.0], [1.0, -0.0]]),
               np.array([0.0, -0.0, 0.5, -5e-324, 3.0])), z=-1j, index=1)
def test_mirrored_spectra_take_half_the_exponentials_and_give_the_same_bits(case, z, index):
    x, coeff, t = case
    values, terms = kernel_with_exp_terms(x, coeff, t, z)
    assert same_bits(values, per_time_sum(x, coeff, t, z))
    assert terms == t.size * (x.size - x.size // 2)
    # one node 1 ulp off the mirror: every exponential, the same bits
    off = x.copy()
    off[index % x.size] = np.nextafter(off[index % x.size], np.inf)
    values, terms = kernel_with_exp_terms(off, coeff, t, z)
    assert same_bits(values, per_time_sum(off, coeff, t, z))
    assert terms == t.size * x.size
    # the classical kernel never takes the mirrored path
    values, terms = kernel_with_exp_terms(x, coeff, t, -1.0)
    assert same_bits(values, per_time_sum(x, coeff, t, -1.0))
    assert terms == t.size * x.size


@pytest.mark.parametrize("sites", [1024, 2047, 2048])
def test_perfect_state_transfer_at_scale(sites):
    # the transfer chain J_i = sqrt(i (N - i))/2 sends site 0 to site
    # N-1 at t = pi; it reads the same reversed, so it is solved as half
    # blocks, and with an even N its points are exactly mirrored and a
    # quantum call takes the exponentials of the upper half only
    measure = eigendecompose(pst_demo_chain(sites))
    t = np.linspace(0.0, np.pi, 5)
    with counted_exp() as terms:
        f = quantum_amplitude(measure, 0, sites - 1, t).values
    assert abs(f[-1]) >= 1.0 - 1e-12
    if sites % 2 == 0:
        assert np.array_equal(measure.points[::-1], -measure.points)
        assert sum(terms) == t.size * (sites - sites // 2)


def test_one_amplitude_call_stays_within_one_block_of_memory():
    _, measure = uniform_chain(quad_order=1024)
    t = np.linspace(0.0, 50.0, 2001)
    quantum_amplitude(measure, 0, 0, t)  # warm: first-call allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        quantum_amplitude(measure, 0, 0, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole (T, S) table of complex terms is 2001 * 1024 * 16 B = 33 MB
    assert peak < 2e6, peak


def test_a_site_past_the_certified_rows_allocates_only_the_rows_made():
    # Meixner (2, 0.99) has 12380 atoms and certifies 20 Lanczos rows; a
    # table sized to site 8000 would hold 8001 rows, 793 MB, where the
    # table doubled up to the first uncertified row holds 32, 3.2 MB
    measure = meixner_chain(2.0, 0.99)[2]
    tracemalloc.start()
    try:
        with pytest.raises(NumericError, match="site 8000: certificate"):
            quantum_amplitude(measure, 0, 8000, [0.0, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# -- constant chains: rows from the closed form --------------------------------------

@settings(max_examples=80, deadline=None)
@given(a=st.floats(-3.0, 3.0), c=st.floats(0.05, 3.0), sites=st.integers(1, 300),
       steps=st.sampled_from([1, 2, 7, 65]), data=st.data())
def test_closed_form_entries_equal_the_sums_over_table_rows_bitwise(a, c, sites, steps, data):
    # a constant operator keeps its table as a formula, and each call
    # computes only the rows it reads: the same doubles as the table's
    measure = eigendecompose(JacobiOperator(b=np.full(sites, a), j=np.full(sites - 1, c)))
    t = np.linspace(0.0, 5.0, steps)
    site = st.integers(0, sites - 1)
    pairs = data.draw(st.lists(st.tuples(site, site), min_size=1, max_size=4))
    values = [quantum_amplitude(measure, i, j, t).values for i, j in pairs]
    assert measure.weighted_chi is None  # no call built the table
    W = spectral_walk.spectral._weighted_rows(measure, range(sites))
    for (i, j), got in zip(pairs, values):
        assert same_bits(got, spectral_walk.dynamics._spectral_sum(measure.points, W[i] * W[j],
                                                                   t, -1j)), (i, j)


def test_a_closed_form_chain_never_builds_its_table():
    tracemalloc.start()
    try:
        _, measure = uniform_chain(n=2047)
        built = tracemalloc.get_traced_memory()[1]
        t = np.linspace(0.0, 10.0, 65)
        for i, j in ((0, 5), (3, 2047), (1000, 1000)):
            quantum_amplitude(measure, i, j, t)
        table = measure.weighted_chi  # a read of the field, as a tracer makes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2048 x 2048 table is 33.5 MB; the kept (65, 2048) phases 2.1 MB
    assert table is None
    assert built < 1e6, built
    assert peak < 8e6, peak


@pytest.mark.parametrize("build", [
    lambda: eigendecompose(symmetrize(random_rates(np.random.default_rng(5), sites=9))),
    lambda: eigendecompose(pst_demo_chain(12)),
    lambda: uniform_chain(n=40)[1],
    lambda: uniform_chain(quad_order=64)[1],
    lambda: meixner_chain(1.0, 0.5)[2],
], ids=["lapack", "mirrored", "finite-uniform", "continuous-uniform", "meixner"])
def test_a_measure_keeps_its_public_fields(build):
    # evaluation, modification and copies read a measure's fields and
    # never replace or add one
    measure = build()
    public = {name: value for name, value in vars(measure).items() if not name.startswith("_")}
    for name in public:
        getattr(measure, name)
    quantum_amplitude(measure, 0, 3, [0.0, 1.5])
    modified_measure(measure, measure.jacobi, 2)
    pickle.loads(pickle.dumps(measure))
    assert public.keys() == {name for name in vars(measure) if not name.startswith("_")}
    for name, value in public.items():
        assert vars(measure)[name] is value, name


@pytest.mark.parametrize("kind", ["quadrature", "eigenvectors"])
def test_any_sequence_of_targets_gives_the_single_target_rows(kind, rng):
    if kind == "quadrature":
        _, measure = uniform_chain(quad_order=64)
    else:
        measure = eigendecompose(symmetrize(random_rates(rng, sites=9)))
    t = np.linspace(0.0, 30.0, 301)
    rows_of = spectral_walk.dynamics._rows
    single = [rows_of(measure, range(2, 3), [j], t)[0, 0] for j in (0, 3, 7)]
    for js in ([0, 3, 7], (0, 3, 7), np.array([0, 3, 7])):
        rows = rows_of(measure, range(2, 3), js, t)
        assert rows.shape == (1, len(js), t.size)
        for row, want in zip(rows[0], single):
            assert same_bits(row, want), js
    assert same_bits(rows_of(measure, range(2, 3), [np.int64(3)], t)[0, 0], single[1])


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
    original = spectral_walk.dynamics._gather

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_walk.dynamics, "_gather", counting)
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    for i in range(8):
        for j in range(8):
            classical_transition(measure, rates, i, j, np.array([0.5, 2.0]))
    # one read of the rates serves both boundary conventions and pi
    assert len(calls) == 1


def test_big_chain_binds_once_without_a_stack(rng, monkeypatch):
    # at 300 sites and 65 times no stack fits: the pair's record keeps
    # only pi, and quantum calls in between leave it in place
    calls = []
    real = spectral_walk.dynamics._bind
    monkeypatch.setattr(spectral_walk.dynamics, "_bind", lambda m, r: calls.append(r) or real(m, r))
    rates = random_rates(rng, sites=300)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 3.0, 65)
    for i, j in ((0, 0), (7, 250), (299, 3), (150, 151)):
        classical_transition(measure, rates, i, j, t)
        quantum_amplitude(measure, j, i, t)
    assert len(calls) == 1
    assert not measure._entries[True][3]  # empty sources: no stack


def test_binding_accepts_either_boundary_and_gives_pi_bitwise():
    semi = BirthDeathRates(lam=lambda i: 1.0 + 0.1 * i, mu=lambda i: float(i))
    want = pi_coefficients(semi, 9).log_values
    for boundary in ("reflecting", "absorbing-tail"):
        measure = eigendecompose(symmetrize(semi, 9, boundary=boundary))
        pi, matched = spectral_walk.dynamics._bind(measure, semi)
        assert same_bits(pi.log_values, want)
        assert matched == boundary
    # a last diagonal entry that is neither mu_9 nor lambda_9 + mu_9
    j_op = symmetrize(semi, 9, boundary="absorbing-tail")
    b = j_op.b.copy()
    b[-1] -= 0.5
    with pytest.raises(UsageError, match="provenance"):
        classical_transition(eigendecompose(JacobiOperator(b=b, j=j_op.j)), semi, 0, 0, 0.5)


def allclose_match(rates, j_op):
    """The boundary np.allclose matches the operator to (coupling first,
    "reflecting" before "absorbing-tail"), or None: the binding rule."""
    n = j_op.size - 1
    lam = np.array([rates.lam(i) for i in range(n + 1)])
    mu = np.array([rates.mu(i) for i in range(n + 1)])
    b = lam + mu
    scale = max(1.0, float(np.max(np.abs(j_op.b))))
    atol = 1e-13 * scale
    if not np.allclose(np.sqrt(lam[:-1] * mu[1:]), j_op.j, rtol=1e-12, atol=atol):
        return None
    for boundary, diagonal in zip(("reflecting", "absorbing-tail"), (np.r_[b[:-1], mu[n]], b)):
        if np.allclose(diagonal, j_op.b, rtol=1e-12, atol=atol):
            return boundary
    return None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sites=st.integers(3, 9),
       rate_scale=st.sampled_from([1e-3, 1.0, 1e3]),
       boundary=st.sampled_from(["reflecting", "absorbing-tail"]),
       part=st.sampled_from(["coupling", "diagonal", "last diagonal"]),
       factor=st.one_of(st.sampled_from([0.999, 1.001, 0.99999, 1.00001]),
                        st.floats(0.9, 1.1)),
       sign=st.sampled_from([-1.0, 1.0]))
def test_binding_tolerance_is_allclose(seed, sites, rate_scale, boundary, part, factor, sign):
    # one operator entry moved to about factor times its tolerance
    # 1e-13 max(1, max |B|) + 1e-12 |entry| from the rates' value, on a
    # truncation whose two boundaries differ in the last diagonal entry:
    # accepted, refused and the boundary matched as np.allclose decides
    rng = np.random.default_rng(seed)
    rates = random_rates(rng, sites=sites, lo=0.1 * rate_scale, hi=2.0 * rate_scale)
    j_op = symmetrize(rates, sites - 2, boundary=boundary)
    b, j = j_op.b.copy(), j_op.j.copy()
    array, k = {"coupling": (j, int(rng.integers(j.size))),
                "diagonal": (b, int(rng.integers(b.size))),
                "last diagonal": (b, b.size - 1)}[part]
    atol = 1e-13 * max(1.0, float(np.max(np.abs(b))))
    array[k] += sign * factor * (atol + 1e-12 * abs(array[k]))
    moved = JacobiOperator(b=b, j=j)
    want = allclose_match(rates, moved)
    try:
        measure = SpectralMeasure(jacobi=moved, points=np.array([0.0]), masses=np.array([1.0]))
        got = spectral_walk.dynamics._bind(measure, rates)[1]
    except UsageError as exc:
        assert "provenance" in str(exc)
        got = None
    assert got == want


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


# -- per-entry calls served from stacks of whole rows ----------------------------------

def test_stacked_rows_of_an_f_ordered_table_equal_single_rows(rng):
    # the eigenvector table is Fortran-ordered; numpy reduces a node axis
    # that is not contiguous in another order, which shows in the last
    # place on a one-time grid
    measure = eigendecompose(symmetrize(random_rates(rng, sites=9)))
    table = measure.weighted_chi
    assert table.flags.f_contiguous
    spectral_sum = spectral_walk.dynamics._spectral_sum
    for t in (np.array([0.5]), np.linspace(0.0, 5.0, 7)):
        for z in (-1.0, -1j):
            stacked = spectral_sum(measure.points, table[0] * table, t, z)
            for j, row in enumerate(stacked):
                assert same_bits(row, spectral_sum(measure.points, table[0] * table[j], t, z)), \
                    (t.size, z, j)


def direct_entry(rates, measure, i, j, t, z):
    """The entry evaluated for its target alone, its prefactor inline."""
    dynamics = spectral_walk.dynamics
    rows = spectral_walk.spectral._weighted_rows(measure, [i, j])
    values = dynamics._spectral_sum(measure.nodes_and_weights()[0], rows[0] * rows[1],
                                    np.asarray(t, dtype=float), z)
    if z == -1.0:
        lv = pi_coefficients(rates, measure.jacobi.size - 1).log_values
        values = ((-1.0) ** ((i + j) % 2) * float(np.exp(0.5 * (lv[j] - lv[i])))) * values
    return values


def series(rates, measure, i, j, t, z):
    if z == -1.0:
        return classical_transition(measure, rates, i, j, t)
    return quantum_amplitude(measure, i, j, t)


def entry(rates, measure, i, j, t, z):
    return series(rates, measure, i, j, t, z).values


def outcome(call, *args):
    """The series a call returns, or the message of the NumericError it raises."""
    try:
        return call(*args)
    except NumericError as exc:
        return str(exc)


def entry_is_direct(rates, measure, i, j, t, z) -> bool:
    return same_bits(entry(rates, measure, i, j, t, z), direct_entry(rates, measure, i, j, t, z))


def kept_stacks(measure) -> list:
    """The stacks of rows the measure's records hold: the payload beside
    a stack's sources."""
    return [record[-1] for record in measure._entries.values() if record[3]]


def memo_chains():
    """Chains served from one stack of all rows (12 sites and 5 times),
    from stacks of 10 rows (18 sites and 5 times), of one row (20 sites
    and 30 times), of 6 rows of a quadrature rule (8 nodes and 40 times)
    and of one row of a 16-node rule (40 times), chains evaluated entry
    by entry (300 sites and 30 times, a 64-node rule and 40 times), and a
    graded stiff chain (lambda_i = 1.8^i, mu_i = 1.05^i, 18 sites at the
    corpus times) whose first stack of 10 rows holds P_i,17 outside the
    probability band for i = 3..6, while its second stack passes."""
    gen = np.random.default_rng(7)
    chains = []
    for sites, steps in ((12, 5), (18, 5), (20, 30), (300, 30)):
        rates = random_rates(gen, sites=sites)
        chains.append((rates, eigendecompose(symmetrize(rates)), np.linspace(0.0, 3.0, steps)))
    for order in (8, 16, 64):
        chains.append((None, uniform_chain(quad_order=order)[1], np.linspace(0.0, 30.0, 40)))
    stiff = BirthDeathRates.from_arrays(1.8 ** np.arange(17.0),
                                        np.r_[0.0, 1.05 ** np.arange(1.0, 18)])
    chains.append((stiff, eigendecompose(symmetrize(stiff)), np.array([0.01, 0.1, 0.5, 1.0, 3.0])))
    return chains


MEMO_CHAINS = memo_chains()


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 7), st.booleans(), st.integers(0, 299),
                                st.integers(0, 299), st.booleans()),
                      min_size=1, max_size=30))
# the stiff chain's refused entries from a miss and from hits on the stack
# that failed, its passing entries from both stacks, in both orders
@example(calls=[(7, True, 4, 17, False), (7, True, 4, 16, False), (7, True, 5, 17, True),
                (7, True, 12, 17, False), (7, True, 3, 17, False)])
@example(calls=[(7, True, 0, 0, False), (7, False, 6, 17, False), (7, True, 6, 17, False),
                (7, True, 6, 17, True), (7, True, 9, 17, False)])
def test_entries_equal_direct_evaluation_in_any_call_order(calls):
    # random (i, j) order, classical and quantum calls interleaved, eight
    # measures interleaved, and times passed as the same or as an equal
    # array: each call returns what the checking constructor makes of the
    # entry evaluated alone, or raises its NumericError
    for chain, classical, i, j, fresh in calls:
        rates, measure, t = MEMO_CHAINS[chain]
        z = -1.0 if classical and rates is not None else -1j
        i, j = i % measure.jacobi.size, j % measure.jacobi.size
        kind = spectral_walk.dynamics.ProbabilitySeries if z == -1.0 else AmplitudeSeries
        want = outcome(kind, i, j, t, direct_entry(rates, measure, i, j, t, z))
        got = outcome(series, rates, measure, i, j, t.copy() if fresh else t, z)
        if isinstance(want, str):
            assert got == want, (chain, z, i, j)
            continue
        assert type(got) is kind and (got.i, got.j) == (i, j), (chain, z, i, j)
        assert same_bits(got.times, t), (chain, z, i, j)
        assert same_bits(got.values, want.values), (chain, z, i, j)
    # a record of an entry beyond one block holds pi but no stack
    for stack in (stack for _, measure, _ in MEMO_CHAINS for stack in kept_stacks(measure)):
        assert stack.size <= spectral_walk.dynamics._BLOCK_TERMS


def test_a_failed_stack_checks_only_its_refused_entries(monkeypatch):
    # the graded 18-site chain's first stack of 10 rows holds P_i,17
    # outside the band for i = 3..6: those entries alone go through the
    # checking constructor and raise its message, and every other entry
    # of both stacks is the entry evaluated alone
    rates, measure, t = MEMO_CHAINS[7]
    kind = spectral_walk.dynamics.ProbabilitySeries
    sites = range(measure.jacobi.size)
    want = {(i, j): outcome(kind, i, j, t, direct_entry(rates, measure, i, j, t, -1.0))
            for i in sites for j in sites}
    refused = {pair for pair, value in want.items() if isinstance(value, str)}
    assert refused == {(i, 17) for i in range(3, 7)}
    checked = []
    post_init = kind.__post_init__
    monkeypatch.setattr(kind, "__post_init__",
                        lambda self: checked.append((self.i, self.j)) or post_init(self))
    measure._entries.clear()
    for i in sites:
        for j in sites:
            got = outcome(series, rates, measure, i, j, t, -1.0)
            if (i, j) in refused:
                assert got == want[i, j], (i, j)
            else:
                assert same_bits(got.values, want[i, j].values), (i, j)
    assert sorted(checked) == sorted(refused)


def test_entries_follow_times_mutated_in_place(rng):
    rates = random_rates(rng, sites=10)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 2.0, 6)
    for z in (-1.0, -1j):
        entry(rates, measure, 3, 4, t, z)
        t[2] += 0.125
        assert entry_is_direct(rates, measure, 3, 5, t, z)
        t[2] -= 0.125


def test_entries_of_a_replaced_measure_are_its_own(rng):
    # the replacement is built right after the old measure is freed, so it
    # usually takes the old one's address; the memo must not take it for
    # the old measure
    t = np.array([0.0, 0.5, 1.0])
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    for _ in range(5):
        new_rates = random_rates(rng, sites=8)
        parts = eigendecompose(symmetrize(new_rates))
        for z in (-1.0, -1j):
            assert entry_is_direct(rates, measure, 2, 3, t, z)
        del measure
        measure = SpectralMeasure(jacobi=parts.jacobi, points=parts.points, masses=parts.masses,
                                  weighted_chi=parts.weighted_chi)
        rates = new_rates
        del parts
    for z in (-1.0, -1j):
        assert entry_is_direct(rates, measure, 2, 3, t, z)


def test_returned_values_are_not_the_memo(rng):
    rates = random_rates(rng, sites=7)
    measure = eigendecompose(symmetrize(rates))
    t = np.array([0.25, 1.0])
    for z in (-1.0, -1j):
        # the first call evaluates the row, the second reads the kept row
        first = entry(rates, measure, 1, 2, t, z)
        again = entry(rates, measure, 1, 2, t, z)
        first[:] = 0.5
        again[:] = 0.5
        assert entry_is_direct(rates, measure, 1, 2, t, z)
        assert entry_is_direct(rates, measure, 1, 3, t, z)


def test_memo_keeps_no_measure_alive(rng):
    rates = random_rates(rng, sites=6)
    measure = eigendecompose(symmetrize(rates))
    classical_transition(measure, rates, 1, 4, np.array([1.0]))
    quantum_amplitude(measure, 1, 4, np.array([1.0]))
    measure_ref = weakref.ref(measure)
    del measure
    gc.collect()
    assert measure_ref() is None


def counted_kernel(monkeypatch) -> list:
    """Patch the kernel to record (coefficient shape, kernel terms) per call."""
    calls = []
    original = spectral_walk.dynamics._spectral_sum

    def counting(x, coeff, times, z, table=None):
        calls.append((coeff.shape, coeff.size * np.size(times)))
        return original(x, coeff, times, z, table)

    monkeypatch.setattr(spectral_walk.dynamics, "_spectral_sum", counting)
    return calls


def test_memo_holds_at_most_one_block_of_values(two_state, monkeypatch):
    block = spectral_walk.dynamics._BLOCK_TERMS
    calls = counted_kernel(monkeypatch)
    # full sweeps of the chains served from stacks: a miss does at most
    # one block of kernel work
    for rates, measure, t in (MEMO_CHAINS[0], MEMO_CHAINS[1], MEMO_CHAINS[4]):
        for i in range(measure.jacobi.size):
            for j in range(measure.jacobi.size):
                for z in ((-1.0, -1j) if rates is not None else (-1j,)):
                    entry(rates, measure, i, j, t, z)
    assert calls and max(terms for _, terms in calls) <= block
    # an entry beyond one block is evaluated alone and keeps nothing
    rates, _, measure = two_state
    t = np.linspace(0.0, 10.0, 20001)
    for z in (-1.0, -1j):
        assert entry_is_direct(rates, measure, 0, 1, t, z)
    assert kept_stacks(measure) == []


def test_a_stack_holds_only_certified_rows(monkeypatch):
    # sc-c at k = 0.01 certifies the Lanczos rows of its sites 0 to 17 of
    # 24: a stack takes those rows as its targets, and an entry past them
    # raises before any kernel pass and leaves the stack in place
    _, measure = stieltjes_carlitz_chain("C", 0.01)
    calls = counted_kernel(monkeypatch)
    t = np.array([0.0, 1.0])
    for i in range(11):
        for j in range(11):
            quantum_amplitude(measure, i, j, t)
    assert [shape for shape, _ in calls] == [(14, 18, 24)]
    for i, j, site in ((5, 18, 18), (19, 0, 19), (0, 19, 19), (3, 23, 23), (23, 20, 23)):
        with pytest.raises(NumericError, match=f"site {site}: certificate"):
            quantum_amplitude(measure, i, j, t)
    quantum_amplitude(measure, 5, 17, t)
    assert len(calls) == 1
    assert [stack.shape for stack in kept_stacks(measure)] == [(14, 18, 2)]


def test_full_sweep_runs_one_kernel_pass_per_kind(rng, monkeypatch):
    calls = counted_kernel(monkeypatch)
    rates = random_rates(rng, sites=8)
    measure = eigendecompose(symmetrize(rates))
    t = np.array([0.5, 2.0])
    for i in range(8):
        for j in range(8):
            classical_transition(measure, rates, i, j, t)
            quantum_amplitude(measure, i, j, t)
    assert [shape for shape, _ in calls] == [(8, 8, 8)] * 2


def test_full_sweep_checks_the_classical_stack_once(rng, monkeypatch):
    # the probability band check runs once per finished classical stack,
    # never per hit, and never for amplitudes
    calls = []
    real = spectral_walk.dynamics._in_band
    monkeypatch.setattr(spectral_walk.dynamics, "_in_band",
                        lambda values: calls.append(values.shape) or real(values))
    rates = random_rates(rng, sites=12)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 3.0, 5)
    for i in range(12):
        for j in range(12):
            classical_transition(measure, rates, i, j, t)
            quantum_amplitude(measure, i, j, t)
    assert calls == [(12, 12, 5)]


def test_negative_time_rejected_after_a_memo_fill(rng):
    rates = random_rates(rng, sites=6)
    measure = eigendecompose(symmetrize(rates))
    t = np.array([0.0, 0.5, 1.0])
    classical_transition(measure, rates, 2, 3, t)
    with pytest.raises(UsageError, match="t >= 0"):
        classical_transition(measure, rates, 2, 4, np.array([0.0, -0.5, 1.0]))
    t[1] = -0.5
    with pytest.raises(UsageError, match="t >= 0"):
        classical_transition(measure, rates, 2, 4, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["classical", "quantum", "characteristic", "quadrature"])
def test_non_finite_time_is_refused_not_summed_to_nan(kind, bad, rng):
    rates = random_rates(rng, sites=6)
    measure = eigendecompose(symmetrize(rates))
    t = np.array([1.0, bad, 2.0])
    # a memo filled on a finite grid does not serve a non-finite one
    quantum_amplitude(measure, 2, 3, np.array([1.0, 1.5, 2.0]))
    calls = {
        "classical": lambda: classical_transition(measure, rates, 2, 3, t),
        "quantum": lambda: quantum_amplitude(measure, 2, 3, t),
        "characteristic": lambda: characteristic(measure, t),
        "quadrature": lambda: quantum_amplitude(uniform_chain(quad_order=64)[1], 0, 1, t),
    }
    # -inf is a negative time first, for the classical kernel
    message = "t >= 0" if kind == "classical" and bad < 0 else "times must be finite"
    with pytest.raises(UsageError, match=message):
        calls[kind]()


def test_second_rates_on_one_measure_get_their_own_prefactors(rng):
    # rates whose births are off by 4e-13 pass the provenance check of the
    # first rates' measure, but their pi, so their P, differ in the last bits
    lam, mu = rng.uniform(0.1, 2.0, 7), np.r_[0.0, rng.uniform(0.1, 2.0, 7)]
    rates = BirthDeathRates.from_arrays(lam, mu)
    other = BirthDeathRates.from_arrays(lam * (1.0 + 4e-13), mu)
    measure = eigendecompose(symmetrize(rates))
    t = np.array([0.25, 1.0])
    first = classical_transition(measure, rates, 0, 7, t).values
    assert entry_is_direct(other, measure, 0, 7, t, -1.0)
    assert not same_bits(first, classical_transition(measure, other, 0, 7, t).values)
    assert entry_is_direct(rates, measure, 0, 7, t, -1.0)


def test_vector_prefactors_equal_scalar_sqrt_ratio(rng):
    # log pi spanning the whole double range: ratios overflow, underflow
    # and everything between
    lv = np.r_[0.0, np.cumsum(rng.uniform(-60.0, 60.0, 199))]
    pi = PiCoefficients(log_values=lv)
    for sources, targets in ((range(0, 200), range(200)), (range(37, 51), range(200)),
                             (range(37, 51), [199, 0, 44, 44, 3])):
        got = spectral_walk.dynamics._prefactors(pi, sources, targets)
        want = np.array([[(-1.0) ** ((i + j) % 2) * float(np.exp(0.5 * (lv[j] - lv[i])))
                          for j in targets] for i in sources])
        assert same_bits(got, want)


def test_scalar_time_shape(two_state):
    rates, _, measure = two_state
    p = classical_transition(measure, rates, 0, 1, 2.0)
    assert p.values.shape == ()
    f = quantum_amplitude(measure, 0, 1, 2.0)
    assert f.values.shape == ()
    # an empty grid gives empty series
    assert classical_transition(measure, rates, 0, 1, []).values.shape == (0,)
    assert quantum_amplitude(measure, 0, 1, np.empty((2, 0))).values.shape == (2, 0)


# -- phases kept across large entries ---------------------------------------------

def kept_tables(measure) -> list:
    """The phase tables the measure's records hold: a payload without a
    stack's sources."""
    return [record[-1] for record in measure._entries.values()
            if record[-1] is not None and not record[3]]


def entry_alone(rates, measure, i, j, t, classical):
    """_rows for the entry alone, after the time check its callers make,
    or the message of the error either raises."""
    dynamics = spectral_walk.dynamics
    try:
        pi = dynamics._bind(measure, rates)[0] if classical else None
        dynamics._check_times(t, classical)
        return dynamics._rows(measure, range(i, i + 1), [j], t, pi)[0, 0, ...]
    except (UsageError, NumericError) as exc:
        return str(exc)


def entry_called(rates, measure, i, j, t, classical):
    """The values of the public call, or the message of the error it raises."""
    try:
        return entry(rates, measure, i, j, t, -1.0 if classical else -1j)
    except (UsageError, NumericError) as exc:
        return str(exc)


def phase_chains():
    """Measures with their eigenvector tables whose large entries keep
    phases on 20 and 65 times (150 random-rate sites, and a 150-site
    transfer chain with exactly mirrored points), one that keeps them on
    20 times but not on 65 (120 sites), a quadrature rule that never
    keeps them, and 12 random-rate sites whose entries are served from
    stacks (n S T = 2880 at 20 times and 9360 at 65), called between
    the entries that keep phases."""
    gen = np.random.default_rng(11)
    chains = []
    for sites in (150, 120):
        rates = random_rates(gen, sites=sites)
        chains.append((rates, eigendecompose(symmetrize(rates))))
    chains.append((None, eigendecompose(pst_demo_chain(150))))
    chains.append((None, uniform_chain(quad_order=512)[1]))
    rates = random_rates(gen, sites=12)
    chains.append((rates, eigendecompose(symmetrize(rates))))
    return chains


PHASE_CHAINS = phase_chains()


@settings(max_examples=60, deadline=None)
@given(calls=st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.integers(0, 4),
                                st.integers(0, 149), st.integers(0, 149), st.integers(0, 2)),
                      min_size=1, max_size=25))
# a kept quantum table over negative times, then a classical call on them;
# a kept table, then its grid poisoned with NaN or -inf in place, then restored;
# calls served from kept tables and from stacks, interleaved in each kind
@example(calls=[(0, False, 3, 5, 6, 0), (0, True, 3, 5, 6, 0), (0, True, 3, 7, 8, 0)])
@example(calls=[(2, False, 4, 0, 149, 0), (2, False, 4, 3, 5, 2), (0, True, 4, 0, 1, 0),
                (2, False, 4, 1, 2, 2), (2, False, 4, 0, 4, 2), (0, False, 4, 0, 1, 0),
                (0, True, 4, 0, 1, 2), (2, False, 4, 0, 149, 1), (0, True, 4, 0, 1, 0)])
@example(calls=[(0, False, 0, 3, 5, 0), (0, False, 0, 4, 6, 0), (4, False, 0, 1, 2, 0),
                (4, False, 0, 3, 2, 0), (0, False, 0, 7, 8, 0), (4, True, 2, 1, 2, 0),
                (0, True, 2, 5, 6, 0), (0, True, 2, 6, 5, 0), (4, True, 2, 11, 0, 0)])
def test_kept_phases_give_the_entry_alone_in_any_order(calls):
    # large entries on several measures, grids and both kinds, in random
    # order, among stack-sized ones on a measure of their own,
    # with one grid mutated in place between calls (to a NaN or -inf time,
    # and back): each value is the double _rows gives for the entry alone,
    # and each refusal its error, never an overflow on the way
    moving = np.linspace(0.0, 2.0, 20)
    grids = [np.linspace(0.0, 3.0, 20), np.linspace(0.5, 1.5, 20), np.linspace(0.0, 5.0, 65),
             np.r_[np.linspace(-2.0, 2.0, 19), -800.0], moving]
    for chain, classical, grid, i, j, change in calls:
        rates, measure = PHASE_CHAINS[chain]
        classical = classical and rates is not None
        size = measure.jacobi.size
        i, j, t = i % size, j % size, grids[grid]
        if change == 1:
            moving[i % moving.size] += 0.125
        elif change == 2 and not np.isfinite(moving).all():
            moving[~np.isfinite(moving)] = 0.75
        elif change == 2:
            moving[j % moving.size] = np.nan if j % 2 else -np.inf
        want = entry_alone(rates, measure, i, j, t, classical)
        got = entry_called(rates, measure, i, j, t, classical)
        if isinstance(want, str):
            assert got == want, (chain, classical, grid, i, j)
        else:
            assert same_bits(got, want), (chain, classical, grid, i, j)
    for table in (table for _, measure in PHASE_CHAINS for table in kept_tables(measure)):
        assert 2 * table.shape[0] <= table.shape[1]


@pytest.mark.parametrize("chain, classical", [("mirrored", False), ("random", False),
                                              ("random", True)])
def test_large_entries_on_one_grid_take_one_tables_exponentials(chain, classical, rng):
    rates = random_rates(rng, sites=300)
    measure = eigendecompose(pst_demo_chain(300) if chain == "mirrored" else symmetrize(rates))
    t = np.linspace(0.0, 3.0, 65)
    if classical:
        classical_transition(measure, rates, 0, 0, 1.0)  # bind pi first
    with counted_exp() as terms:
        for i, j in ((0, 299), (7, 250), (299, 3), (150, 150)):
            series(rates, measure, i, j, t, -1.0 if classical else -1j)
    sites = measure.points.size
    if chain == "mirrored":
        assert np.array_equal(measure.points[::-1], -measure.points)
        assert sum(terms) == t.size * (sites - sites // 2)
    else:
        # and one exponential per classical call, for its prefactor
        assert sum(terms) == t.size * sites + 4 * classical


def test_kept_phases_are_released_with_their_measure(rng):
    # a phase table (300 sites, 65 times) and a stack of rows (12 sites,
    # 5 times) each go when their measure is freed, not at the next call
    for sites, times, kept in ((300, 65, kept_tables), (12, 5, kept_stacks)):
        rates = random_rates(rng, sites=sites)
        measure = eigendecompose(symmetrize(rates))
        t = np.linspace(0.0, 3.0, times)
        classical_transition(measure, rates, 3, 4, t)
        quantum_amplitude(measure, 3, 4, t)
        payload_refs = [weakref.ref(payload) for payload in kept(measure)]
        assert len(payload_refs) == 2
        measure_ref = weakref.ref(measure)
        del measure
        gc.collect()
        assert measure_ref() is None
        assert [ref() for ref in payload_refs] == [None, None]


@pytest.mark.parametrize("sites", [6, 300])
def test_copies_and_pickles_of_a_measure_start_without_records(sites, rng):
    # the records (stacks on 6 sites, phase tables on 300) hold the
    # rates, whose arrays' lambdas do not pickle: a copy or a pickle of
    # the measure leaves them behind and gives the same entries
    rates = random_rates(rng, sites=sites)
    measure = eigendecompose(symmetrize(rates))
    t = np.linspace(0.0, 3.0, 65)
    classical_transition(measure, rates, 1, 2, t)
    quantum_amplitude(measure, 1, 2, t)
    assert len(measure._entries) == 2
    for copied in (pickle.loads(pickle.dumps(measure)), copy.copy(measure),
                   copy.deepcopy(measure)):
        assert copied._entries == {} and copied._entries is not measure._entries
        for i, j in ((1, 2), (3, 0)):
            assert same_bits(classical_transition(copied, rates, i, j, t).values,
                             classical_transition(measure, rates, i, j, t).values)
            assert same_bits(quantum_amplitude(copied, i, j, t).values,
                             quantum_amplitude(measure, i, j, t).values)
        assert len(copied._entries) == 2 and len(measure._entries) == 2


@pytest.mark.parametrize("case", ["quadrature", "long grid"])
def test_no_phases_are_kept_beyond_the_eigenvector_tables_memory(case, rng):
    # a quadrature rule carries no eigenvector table, and 2 T > n would
    # make the (T, S) complex table larger than the measure's n x S one:
    # either way a large entry stays within one block and keeps nothing
    if case == "quadrature":
        _, measure = uniform_chain(quad_order=1024)
        t = np.linspace(0.0, 50.0, 2001)
    else:
        measure = eigendecompose(symmetrize(random_rates(rng, sites=300)))
        t = np.linspace(0.0, 5.0, 151)
    measure._entries.clear()
    quantum_amplitude(measure, 0, 0, t)  # warm: first-call allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for j in range(3):
            quantum_amplitude(measure, 1, j, t)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a kept table would be 33 MB (quadrature) or 720 KB (151 x 300)
    assert peak < 2e6, peak
    assert current < 1e5, current
    assert kept_tables(measure) == []


def test_a_quadrature_rule_keeps_no_phases_within_the_time_bound():
    # 2 T = 800 <= n = 1024, so only the eigenvector-table half of the
    # gate refuses to keep the (T, S) table, 6.6 MB complex, that a
    # measure carrying its own table would keep here
    _, measure = uniform_chain(quad_order=1024)
    t = np.linspace(0.0, 50.0, 400)
    assert 2 * t.size <= measure.jacobi.size
    measure._entries.clear()
    quantum_amplitude(measure, 0, 0, t)  # warm: first-call allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for j in range(3):
            quantum_amplitude(measure, 1, j, t)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    assert current < 1e5, current
    assert kept_tables(measure) == []


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


def test_oracle_refuses_raw_array(rng):
    # the dense evolution of a raw matrix is ambiguous (classical or
    # quantum); only the two operator types are accepted
    m = rng.uniform(-1, 1, (4, 4))
    m = m + m.T
    with pytest.raises(UsageError, match="GeneratorMatrix or a JacobiOperator, got ndarray"):
        oracle_expm(m, 1.0)


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


def per_line_csv(series) -> str:
    # the writer series_csv replaced: one f-string per row, abs() per value
    lines = []
    if isinstance(series, AmplitudeSeries):
        lines.append("t,re,im,abs")
        for t, v in zip(np.atleast_1d(series.times), np.atleast_1d(series.values)):
            lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}")
    else:
        lines.append("t,p")
        for t, v in zip(np.atleast_1d(series.times), np.atleast_1d(series.values)):
            lines.append(f"{t:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.nan, np.inf, -np.inf,
                    1.0 / 3.0, 0.1, 1e-5, 123456789.125])


def complex_from(re, im):
    out = np.asarray(re, dtype=float).astype(complex)
    out.imag = im
    return out


def test_series_csv_bytes_match_per_line_writer():
    gen = np.random.default_rng(5)
    t = np.linspace(0.0, 50.0, 2001)
    _, measure = uniform_chain(quad_order=256)
    cases = [quantum_amplitude(measure, 0, 2, t),
             AmplitudeSeries(i=0, j=0, times=t[:3 * SPECIAL.size:3],
                             values=complex_from(SPECIAL, gen.permutation(SPECIAL))),
             AmplitudeSeries(i=0, j=1, times=np.tile(SPECIAL, 2),
                             values=complex_from(np.tile(SPECIAL, 2), np.repeat(SPECIAL, 2))),
             AmplitudeSeries(i=1, j=1, times=2.0, values=complex(-0.0, 5e-324)),
             AmplitudeSeries(i=1, j=1, times=np.array([0.5]), values=[complex(np.nan, -0.0)]),
             AmplitudeSeries(i=1, j=1, times=np.empty(0), values=np.empty(0))]
    # probability series with values outside [0, 1] bypass the band check
    cases += [types.SimpleNamespace(i=0, j=0, times=SPECIAL, values=gen.permutation(SPECIAL)),
              types.SimpleNamespace(i=0, j=0, times=np.array(1.5), values=np.array(-0.0)),
              types.SimpleNamespace(i=0, j=0, times=np.empty(0), values=np.empty(0))]
    rates = random_rates(gen, sites=5)
    cases.append(classical_transition(eigendecompose(symmetrize(rates)), rates, 0, 4, t))
    with np.errstate(over="ignore"):
        for series in cases:
            assert series_csv(series) == per_line_csv(series)
