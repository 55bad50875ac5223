"""Arguments are checked once, where they enter the library.

A site or a count is converted by operator.index, so a value that is not
an integer (2.7, 2.0, "1", None) raises UsageError naming the argument
and the value instead of being truncated, used as a bool index or failing
deep inside with a bare TypeError.  A site outside the chain and a time
the kernel refuses raise UsageError on every path: before and after the
per-entry memo holds a payload, on a chain served by stacks of rows (6
sites) and on one evaluated entry by entry (300 sites).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import spectral_walk.dynamics
import spectral_walk.return_analysis
from spectral_walk import (
    AmplitudeSeries,
    BirthDeathRates,
    ConfigurationError,
    NumericError,
    ProbabilitySeries,
    SpectralMeasure,
    UsageError,
    characteristic,
    classical_transition,
    classify_return,
    eigendecompose,
    generator,
    meixner_chain,
    modified_measure,
    pi_coefficients,
    pst_demo_chain,
    quantum_amplitude,
    stieltjes_carlitz_chain,
    symmetrize,
    uniform_chain,
)

from conftest import random_rates

TIMES = np.array([0.0, 0.5, 1.0, 2.0, 3.0])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def chains():
    gen = np.random.default_rng(21)
    out = {}
    for sites in (6, 300):
        rates = random_rates(gen, sites=sites)
        out[sites] = (rates, eigendecompose(symmetrize(rates)))
    return out


CHAINS = chains()


def set_memo(rates, measure, filled: bool) -> None:
    """Empty the per-entry records, or fill both with a payload for
    TIMES: a stack of rows on 6 sites, a phase table on 300."""
    measure._entries.clear()
    if filled:
        classical_transition(measure, rates, 1, 2, TIMES)
        quantum_amplitude(measure, 1, 2, TIMES)
        assert all(record[-1] is not None for record in measure._entries.values())


SITE_CALLS = {
    "classical i": lambda rates, measure, s: classical_transition(measure, rates, s, 0, TIMES),
    "classical j": lambda rates, measure, s: classical_transition(measure, rates, 1, s, TIMES),
    "quantum i": lambda rates, measure, s: quantum_amplitude(measure, s, 0, TIMES),
    "quantum j": lambda rates, measure, s: quantum_amplitude(measure, 1, s, TIMES),
    "modified i": lambda rates, measure, s: modified_measure(measure, measure.jacobi, s),
    "pi i": lambda rates, measure, s: pi_coefficients(rates).value(s),
    "series i": lambda rates, measure, s: ProbabilitySeries(i=s, j=0, times=TIMES,
                                                            values=0 * TIMES),
    "series j": lambda rates, measure, s: AmplitudeSeries(i=1, j=s, times=TIMES, values=TIMES),
}


@pytest.mark.parametrize("filled", [False, True], ids=["empty-memo", "filled-memo"])
@pytest.mark.parametrize("sites", [6, 300])
@pytest.mark.parametrize("call", list(SITE_CALLS))
@pytest.mark.parametrize("bad", [2.7, 2.0, "1", None, -1, "size"])
def test_a_bad_site_is_refused_by_name(bad, call, sites, filled):
    rates, measure = CHAINS[sites]
    set_memo(rates, measure, filled)
    name = call.split()[1]
    if bad == "size":
        bad = sites
    if call.startswith("series") and isinstance(bad, int):
        # a series label belongs to no chain: any integer is kept
        assert getattr(SITE_CALLS[call](rates, measure, bad), name) == bad
        return
    if bad == -1:
        message = "site index -1 must be nonnegative"
    elif bad == sites:
        message = f"site index {sites} beyond operator size {sites}"
    else:
        message = f"{name} is {bad!r}, expected an integer"
    with pytest.raises(UsageError) as info:
        SITE_CALLS[call](rates, measure, bad)
    assert str(info.value) == message


TIME_CALLS = {
    "classical": lambda rates, measure, t: classical_transition(measure, rates, 1, 2, t),
    "quantum": lambda rates, measure, t: quantum_amplitude(measure, 1, 2, t),
    "characteristic": lambda rates, measure, t: characteristic(measure, t),
}


@pytest.mark.parametrize("filled", [False, True], ids=["empty-memo", "filled-memo"])
@pytest.mark.parametrize("sites", [6, 300])
@pytest.mark.parametrize("call", list(TIME_CALLS))
@pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.5])
def test_a_bad_time_is_refused(bad, call, sites, filled):
    rates, measure = CHAINS[sites]
    set_memo(rates, measure, filled)
    t = TIMES.copy()
    t[2] = bad
    if bad == -0.5 and call != "classical":
        TIME_CALLS[call](rates, measure, t)  # a valid time but for the classical kernel
        return
    message = "t >= 0" if call == "classical" and bad < 0 else "times must be finite"
    with pytest.raises(UsageError, match=message):
        TIME_CALLS[call](rates, measure, t)
    # in place, over the very array the memo was filled with
    if filled:
        TIMES[2], saved = bad, TIMES[2]
        try:
            with pytest.raises(UsageError, match=message):
                TIME_CALLS[call](rates, measure, TIMES)
        finally:
            TIMES[2] = saved


@pytest.mark.parametrize("filled", [False, True], ids=["empty-memo", "filled-memo"])
@pytest.mark.parametrize("sites", [6, 300])
@pytest.mark.parametrize("kind", [int, np.int64, np.int32, bool])
def test_integer_sites_give_the_entry_alone_with_int_labels(kind, sites, filled):
    rates, measure = CHAINS[sites]
    set_memo(rates, measure, filled)
    pi = spectral_walk.dynamics._bind(measure, rates)[0]
    rows = spectral_walk.dynamics._rows
    pairs = [(True, True), (True, False), (False, True)] if kind is bool else [(1, 2), (3, 0)]
    for i, j in pairs:
        site_i, site_j = int(i), int(j)
        for got, p in ((classical_transition(measure, rates, kind(i), kind(j), TIMES), pi),
                       (quantum_amplitude(measure, kind(i), kind(j), TIMES), None)):
            want = rows(measure, range(site_i, site_i + 1), [site_j], TIMES, p)[0, 0, ...]
            assert same_bits(got.values, want), (kind, i, j)
            assert (type(got.i), type(got.j)) == (int, int) and (got.i, got.j) == (site_i, site_j)
    masses = modified_measure(measure, measure.jacobi, kind(1)).nodes_and_weights()[1]
    assert same_bits(masses, modified_measure(measure, measure.jacobi, 1).nodes_and_weights()[1])


@pytest.mark.parametrize("build, name, value", [
    (lambda: stieltjes_carlitz_chain("C", 0.5, s_max=10.5), "s_max", 10.5),
    (lambda: stieltjes_carlitz_chain("D", 0.5, s_max="10"), "s_max", "10"),
    (lambda: uniform_chain(quad_order=64.7), "quad_order", 64.7),
    (lambda: uniform_chain(n=3.5), "n", 3.5),
    (lambda: pst_demo_chain(10.5), "n", 10.5),
    (lambda: meixner_chain(1.0, 0.5, n=20.5), "n", 20.5),
], ids=["sc-c-s_max", "sc-d-s_max-str", "uniform-quad_order", "uniform-n", "pst-demo-n",
        "meixner-n"])
def test_a_non_integral_count_is_refused_by_name(build, name, value):
    with pytest.raises(UsageError) as info:
        build()
    assert str(info.value) == f"{name} is {value!r}, expected an integer"


@pytest.mark.parametrize("call", [symmetrize, generator, pi_coefficients,
                                  BirthDeathRates.validate])
def test_a_non_integral_truncation_order_is_refused_by_name(call):
    rates = random_rates(np.random.default_rng(3), sites=4)
    with pytest.raises(UsageError, match=r"^n is 1\.5, expected an integer$"):
        call(rates, 1.5)
    with pytest.raises(UsageError, match="truncation order -1 is negative"):
        call(rates, -1)
    call(rates, np.int64(2))


def test_integer_counts_of_any_integer_type_build_the_same_chain():
    for build in (lambda n: uniform_chain(quad_order=n)[1].quad_points,
                  lambda n: uniform_chain(n=n)[1].points,
                  lambda n: stieltjes_carlitz_chain("C", 0.5, s_max=n)[1].points,
                  lambda n: eigendecompose(pst_demo_chain(n)).points):
        assert same_bits(build(np.int32(10)), build(10))
    # a negative order is still a truncation meixner cannot satisfy
    with pytest.raises(ConfigurationError):
        meixner_chain(1.0, 0.5, n=-3)


def test_a_bad_time_takes_precedence_over_a_lost_row():
    # the sc-d chain at k = 0.01 and s_max = 9 certifies its Lanczos rows
    # up to site 14: at site 16 a finite time gets the row's NumericError,
    # a NaN time the argument's UsageError, which is checked first
    _, measure = stieltjes_carlitz_chain("D", 0.01, s_max=9)
    with pytest.raises(NumericError, match="site 16: certificate"):
        quantum_amplitude(measure, 16, 0, np.array([1.0]))
    with pytest.raises(UsageError, match="times must be finite"):
        quantum_amplitude(measure, 16, 0, np.array([np.nan]))


def test_full_row_targets_give_the_rows_of_their_list(rng):
    # a range of targets reads the weighted table by a slice: the same
    # bits as the list of its sites, from eigenvectors, from a closed form
    # and from Lanczos rows (the same rule built directly)
    rates = random_rates(rng, sites=9)
    rows = spectral_walk.dynamics._rows
    pi = pi_coefficients(rates)
    rule = uniform_chain(quad_order=9)[1]
    direct = SpectralMeasure(jacobi=rule.jacobi, points=np.empty(0), masses=np.empty(0),
                             quad_points=rule.quad_points, quad_weights=rule.quad_weights)
    for measure, p in ((eigendecompose(symmetrize(rates)), pi), (rule, None), (direct, None)):
        size = measure.jacobi.size
        for sources in (range(0, 3), range(4, size)):
            assert same_bits(rows(measure, sources, range(size), TIMES, p),
                             rows(measure, sources, list(range(size)), TIMES, p))


@pytest.mark.parametrize("measure", [meixner_chain(1.0, 0.5)[2], uniform_chain()[1]],
                         ids=["discrete", "continuous"])
def test_the_tolerance_is_checked_once_per_verdict(measure, monkeypatch):
    calls = []
    check = spectral_walk.return_analysis._check_tol
    monkeypatch.setattr(spectral_walk.return_analysis, "_check_tol",
                        lambda tol: calls.append(tol) or check(tol))
    classify_return(measure, tol=1e-9)
    assert calls == [1e-9]
    with pytest.raises(UsageError, match="tol"):
        classify_return(measure, tol=math.nan)
