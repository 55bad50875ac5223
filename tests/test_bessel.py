"""bessel_j1 against 30-digit mpmath references."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from spectral_walk import DomainError, bessel_j1


def _j1_reference(t) -> np.ndarray:
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(1, mpmath.mpf(x))) for x in t])


def test_j1_matches_scipy_to_1e10_relative():
    t = np.linspace(-50.0, 50.0, 4001)
    ours = bessel_j1(t)
    ref = _j1_reference(t)
    scale = np.maximum(np.abs(ref), 1e-3)
    assert np.max(np.abs(ours - ref) / scale) < 1e-10


def test_j1_small_argument_series_branch():
    t = np.array([0.0, 1e-8, 0.3, -0.999])
    assert bessel_j1(t) == pytest.approx(list(_j1_reference(t)), abs=1e-15)
    assert bessel_j1(0.0) == 0.0


def test_j1_is_odd():
    t = np.linspace(0.1, 40.0, 57)
    assert bessel_j1(-t) == pytest.approx(list(-bessel_j1(t)), abs=0.0)


def test_j1_scalar_and_shape():
    assert np.ndim(bessel_j1(2.5)) == 0
    out = bessel_j1(np.ones((3, 2)))
    assert out.shape == (3, 2)


@pytest.mark.parametrize("x", [1e3, 1e6, 1e9])
def test_j1_large_argument_against_mpmath(x):
    ref = _j1_reference([x])[0]
    assert abs(bessel_j1(x) - ref) < 1e-12
    assert abs(bessel_j1(-x) + ref) < 1e-12


# past |x| = 1e9 the error grows to 9e-10, so the domain ends there
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e12, 2.0 ** 53, -1e20])
def test_j1_rejects_non_finite_arguments(bad):
    with pytest.raises(DomainError, match="finite"):
        bessel_j1(np.array([0.5, bad, 2.0]))
