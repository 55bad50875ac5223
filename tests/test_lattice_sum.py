"""The lattice form of the spectral sum.

Nodes on an exact arithmetic progression x_s = x_0 + s h, at least
dynamics._LATTICE_MIN of them, are summed by blocked Horner in
w = e^{zht} (dynamics._horner_blocks).  These tests hold its values to
30-digit mpmath sums and to the Meixner closed form, count its
exponentials, and check that every value is still the same double alone,
in any sub-grid, in a stack and from a per-entry record, while any other
spectrum keeps the direct form's doubles.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_walk.dynamics as dynamics
from spectral_walk import (JacobiOperator, SpectralMeasure, characteristic,
                           classical_transition, meixner_chain, quantum_amplitude)
from spectral_walk.spectral import _lanczos, _weighted_rows

from test_dynamics import BLOCK_SLICES, counted_exp, same_bits, whole_grid_sum

U = 2.0 ** -53
# the factor k of the roundoff bound k u (max_s |x_s t| + ceil(S/B) + B) sum_s |c_s|
K = 4


def roundoff_bound(x, coeff, t):
    """K u (max_s |x_s t| + ceil(S / B) + B) sum_s |c_s| at each time t:
    the rounding of the phases x_s t, of the ceil(S/B) Horner steps and
    of the B-term inner sums, on terms of size at most |c_s|."""
    blocks = -(-x.size // dynamics._LATTICE_BLOCK)
    scale = np.abs(np.multiply.outer(t, x)).max(axis=1) + blocks + dynamics._LATTICE_BLOCK
    return K * U * scale * np.abs(coeff).sum()


def mp_sum(x, coeff, t, z):
    """sum_s coeff[s] exp(z x_s t) at each time, to 30 digits."""
    out = []
    with mpmath.workdps(30):
        for tk in t.tolist():
            total = mpmath.mpf(0)
            for xs, cs in zip(x.tolist(), coeff.tolist()):
                angle = mpmath.mpf(xs) * mpmath.mpf(tk)
                total += cs * (mpmath.exp(-angle) if z == -1.0 else mpmath.expj(z.imag * angle))
            out.append(complex(total))
    return np.array(out)


@st.composite
def lattices(draw):
    """An exact progression of S nodes (the minimum up to 2048) with a
    dyadic spacing h and a dyadic x_0, so every x_0 + s h is a double and
    every np.diff is h; a kernel factor z, coefficients in [-1, 1] and a
    few times with |t| <= 1000.  The classical kernel (z = -1) has
    nonnegative nodes and times, as a generator's spectrum has."""
    size = draw(st.integers(dynamics._LATTICE_MIN, 2048))
    h = draw(st.integers(1, 16)) * 2.0 ** draw(st.integers(-6, 2))
    z = draw(st.sampled_from([-1.0, -1j, 1j]))
    low = 0 if z == -1.0 else -8 * 1024
    x = draw(st.integers(low, 8 * 1024)) / 1024 + h * np.arange(size)
    coeff = np.random.default_rng(draw(st.integers(0, 2 ** 32))).uniform(-1.0, 1.0, size)
    t = np.array(draw(st.lists(st.floats(-1000.0 * (z != -1.0), 1000.0), min_size=1,
                               max_size=3)))
    return x, coeff, t, z


@settings(max_examples=30, deadline=None)
@given(case=lattices())
def test_lattice_sums_meet_the_roundoff_bound(case):
    x, coeff, t, z = case
    assert dynamics._spacing(x) == x[1] - x[0]
    want = mp_sum(x, coeff, t, z)
    bound = roundoff_bound(x, coeff, t)
    assert (np.abs(dynamics._spectral_sum(x, coeff, t, z) - want) <= bound).all()
    # the direct form meets the same bound
    assert (np.abs(whole_grid_sum(x, coeff, t, z) - want) <= bound).all()


def test_meixner_return_amplitude_follows_its_closed_form_to_t_1000():
    # f_00(t) = sum_s M_s e^{-ist} = ((1 - c) / (1 - c e^{-it}))^beta on
    # the whole negative binomial law; the build leaves out a tail of
    # mass below 1e-12
    beta, c = 1.0, 0.5
    measure = meixner_chain(beta, c)[2]
    t = np.linspace(0.0, 1000.0, 1001)
    got = quantum_amplitude(measure, 0, 0, t).values
    with mpmath.workdps(30):
        want = np.array([complex(((1 - mpmath.mpf(c)) / (1 - c * mpmath.expj(-tk))) ** beta)
                         for tk in t.tolist()])
    coeff = _weighted_rows(measure, [0])[0] ** 2
    assert (np.abs(got - want) <= 1e-12 + roundoff_bound(measure.points, coeff, t)).all()


def test_a_lattice_takes_b_plus_2_exponentials_per_time():
    x = np.arange(300.0)
    coeff = np.random.default_rng(3).uniform(-1.0, 1.0, (2, x.size))
    t = np.linspace(0.0, 40.0, 1500)
    for z in (-1.0, -1j, 1j):
        with counted_exp() as terms:
            dynamics._spectral_sum(x, coeff, t, z)
        assert sum(terms) == t.size * (dynamics._LATTICE_BLOCK + 2), z


# -- the same doubles ---------------------------------------------------------------

def test_meixner_values_are_independent_of_blocking():
    rates, _, measure = meixner_chain(1.0, 0.5)
    assert measure.points.size == 160 and dynamics._spacing(measure.points) == 1.0
    t = np.linspace(0.0, 50.0, 2001)
    calls = (lambda tt: quantum_amplitude(measure, 0, 3, tt).values,
             lambda tt: classical_transition(measure, rates, 2, 5, tt).values,
             lambda tt: characteristic(measure, tt))
    for call in calls:
        whole = call(t)
        for part in BLOCK_SLICES:
            assert same_bits(call(t[part]), whole[part]), part
        assert same_bits(call(t[1234]), whole[1234])


def uniform_lattice_measure(size: int) -> SpectralMeasure:
    """Equal masses on 0..size-1 with their operator (the discrete
    Chebyshev recurrence) and its Lanczos table as weighted_chi: a
    lattice measure that carries its eigenvectors."""
    n = np.arange(1, size)
    j_op = JacobiOperator(b=np.full(size, (size - 1) / 2),
                          j=n / 2 * np.sqrt((size ** 2 - n ** 2) / (4 * n ** 2 - 1)))
    x, w = np.arange(float(size)), np.full(size, 1.0 / size)
    table, count, _, _ = _lanczos(x, w, j_op, size)
    assert count == size
    return SpectralMeasure(jacobi=j_op, points=x, masses=w, weighted_chi=table)


def test_a_lattice_entry_is_the_same_alone_in_a_stack_and_after_a_payload():
    size = 64
    # 20 times: n S T > 2**14 and 2 T <= n, the branch that would keep a
    # phase table; 2 times: a stack of rows
    t = np.linspace(0.0, 30.0, 20)
    pairs = ((0, 0), (3, 40), (63, 1), (17, 17))
    alone = {}
    for i, j in pairs:
        measure = uniform_lattice_measure(size)
        alone[i, j] = quantum_amplitude(measure, i, j, t).values
        assert same_bits(alone[i, j], dynamics._spectral_sum(
            measure.points, measure.weighted_chi[i] * measure.weighted_chi[j], t, -1j))
    measure = uniform_lattice_measure(size)
    for i, j in pairs + pairs[::-1]:
        assert same_bits(quantum_amplitude(measure, i, j, t).values, alone[i, j]), (i, j)
        assert measure._entries[False][-1] is None  # no phase table kept
    for i, j in pairs:
        stacked = quantum_amplitude(measure, i, j, t[:2]).values
        assert measure._entries[False][3]  # served from a stack
        assert same_bits(stacked, alone[i, j][:2]), (i, j)


@pytest.mark.parametrize("size, x0", [(64, 0.0), (300, -3.3), (1024, 1.7)])
def test_other_spectra_keep_the_direct_doubles(size, x0):
    # a progression that is not exact, an exact one with one interior
    # node 1 ulp off (its end and middle gaps still h), and an exact one
    # below the minimum
    gen = np.random.default_rng(size)
    t = np.r_[-0.0, np.linspace(0.0, 40.0, 77)]
    nudged = x0 + np.arange(size)
    nudged[size // 4] = np.nextafter(nudged[size // 4], np.inf)
    for x in (x0 + 0.37 * np.arange(size), nudged, np.arange(float(dynamics._LATTICE_MIN - 1))):
        assert dynamics._spacing(x) is None
        coeff = gen.uniform(-1.0, 1.0, x.size)
        for z in (-1.0, -1j, 1j):
            tz = np.abs(t) if z == -1.0 else t
            assert same_bits(dynamics._spectral_sum(x, coeff, tz, z),
                             whole_grid_sum(x, coeff, tz, z)), (x.size, z)
