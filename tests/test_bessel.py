"""In-repo Bessel evaluations against the scipy oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.special

from spectral_walk import DomainError, bessel_j1


def test_j1_matches_scipy_to_1e10_relative():
    t = np.linspace(-50.0, 50.0, 4001)
    ours = bessel_j1(t)
    ref = scipy.special.j1(t)
    scale = np.maximum(np.abs(ref), 1e-3)
    assert np.max(np.abs(ours - ref) / scale) < 1e-10


def test_j1_small_argument_series_branch():
    t = np.array([0.0, 1e-8, 0.3, -0.999])
    assert bessel_j1(t) == pytest.approx(list(scipy.special.j1(t)), abs=1e-15)
    assert bessel_j1(0.0) == 0.0


def test_j1_is_odd():
    t = np.linspace(0.1, 40.0, 57)
    assert bessel_j1(-t) == pytest.approx(list(-bessel_j1(t)), abs=0.0)


def test_j1_scalar_and_shape():
    assert np.ndim(bessel_j1(2.5)) == 0
    out = bessel_j1(np.ones((3, 2)))
    assert out.shape == (3, 2)


# -- the element-by-element implementation bessel_j1 replaced -----------------------

def scalar_j1_series(x):
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    for m in range(1, 30):
        term *= -q / (m * (m + 1))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return total


def scalar_j1_miller(x):
    ax = abs(x)
    start = 2 * (int(ax * 0.65 + 20) + 1)
    nxt = 0.0
    cur = 1e-30
    norm = 0.0
    j1 = 0.0
    for k in range(start, 0, -1):
        prev = (2.0 * k / ax) * cur - nxt
        nxt, cur = cur, prev
        if k - 1 == 1:
            j1 = cur
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += cur
        if abs(cur) > 1e250:
            cur /= 1e250
            nxt /= 1e250
            norm /= 1e250
            j1 /= 1e250
    norm = 2.0 * norm + cur
    val = j1 / norm
    return -val if x < 0 else val


def scalar_j1(t):
    return np.array([scalar_j1_series(v) if abs(v) <= 1.0 else scalar_j1_miller(v)
                     for v in np.asarray(t, dtype=float)])


def test_j1_equals_scalar_loop_bitwise():
    # 5000 makes the recurrence rescale its iterates; +-1 and their
    # neighbours sit on the branch cut between series and recurrence
    t = np.concatenate([np.linspace(-50.0, 50.0, 30000),
                        [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                         5e-324, -1e-310, 1e-8, 3500.25, -5000.0]])
    assert np.array_equal(bessel_j1(t).view(np.uint64), scalar_j1(t).view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 53, -1e20])
def test_j1_rejects_non_finite_arguments(bad):
    with pytest.raises(DomainError, match="finite"):
        bessel_j1(np.array([0.5, bad, 2.0]))
