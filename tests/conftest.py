"""Shared fixtures: seeded random-chain corpus used by the unit tests
and by the acceptance suite (criteria over "random finite chains" all
draw from the same generator so runs are reproducible)."""

from __future__ import annotations

import numpy as np
import pytest

from spectral_walk import BirthDeathRates

CORPUS_SEED = 74022391


def random_rates(rng: np.random.Generator, sites: int | None = None,
                 lo: float = 0.1, hi: float = 2.0) -> BirthDeathRates:
    """A finite chain with rates uniform in (lo, hi), mu_0 = 0 and the
    reflecting boundary at the last site (lambda implicit 0)."""
    if sites is None:
        sites = int(rng.integers(2, 14))
    lambdas = rng.uniform(lo, hi, size=sites - 1)
    mus = np.concatenate([[0.0], rng.uniform(lo, hi, size=sites - 1)])
    return BirthDeathRates.from_arrays(lambdas, mus)


def chain_corpus(count: int, seed: int = CORPUS_SEED,
                 sites: int | None = None) -> list[BirthDeathRates]:
    rng = np.random.default_rng(seed)
    return [random_rates(rng, sites=sites) for _ in range(count)]


def plain_chi(j_op, n: int, x) -> np.ndarray:
    """chi_0..chi_n at the nodes x, shape (n+1, len(x)), by the plain
    unweighted three-term recurrence: a reference independent of the
    package's weighted table."""
    flat = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    table = np.empty((n + 1, flat.size))
    table[0] = 1.0
    if n >= 1:
        table[1] = (flat - j_op.b[0]) / j_op.j[0]
    for i in range(1, n):
        table[i + 1] = ((flat - j_op.b[i]) * table[i] - j_op.j[i - 1] * table[i - 1]) / j_op.j[i]
    return table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(CORPUS_SEED)
