"""Spectral transition probabilities checked against the matrix exponential.

Builds a small random birth-death chain, computes P_ij(t) through the
spectral measure, and compares every entry with expm(tA).
"""

import numpy as np

from spectral_walk import (BirthDeathRates, classical_transition,
                           eigendecompose, generator, oracle_expm, symmetrize)

rng = np.random.default_rng(7)
sites = 8
rates = BirthDeathRates.from_arrays(
    lambdas=rng.uniform(0.1, 2.0, size=sites - 1),
    mus=np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=sites - 1)]),
)

j_op = symmetrize(rates)
measure = eigendecompose(j_op)
times = np.array([0.1, 0.5, 1.0, 2.0, 5.0])

# each entry over the whole grid in one call: a value does not depend
# on the rest of the grid
dense = np.array([oracle_expm(generator(rates), t) for t in times])
worst = 0.0
for i in range(sites):
    for j in range(sites):
        series = classical_transition(measure, rates, i, j, times)
        worst = max(worst, np.max(np.abs(series.values - dense[:, i, j])))

print(f"{sites}-site chain, spectral sum vs expm over t in {times.tolist()}")
print(f"worst entrywise deviation: {worst:.3e}")
print()
print("P_00(t) decays toward the stationary weight of site 0:")
p00 = classical_transition(measure, rates, 0, 0, times)
for t, p in zip(times, p00.values):
    print(f"  t = {t:4.1f}   P_00 = {p:.12f}")
