"""Spectral measures and orthonormal polynomial evaluation."""

from __future__ import annotations

import contextlib
import copy
import pickle
import unittest.mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_walk import (
    JacobiOperator,
    SpectralMeasure,
    UsageError,
    eigendecompose,
    meixner_chain,
    pi_coefficients,
    quantum_amplitude,
    stieltjes_carlitz_chain,
    symmetrize,
    uniform_chain,
)
from spectral_walk.dynamics import oracle_expm
from spectral_walk.spectral import (
    _lanczos_rows,
    _mirrored_chain,
    _weighted_rows,
    chi_table_scaled,
)

from conftest import plain_chi, random_rates


def _random_jacobi(rng, size):
    return JacobiOperator(b=rng.uniform(-1.0, 1.0, size=size),
                          j=rng.uniform(0.2, 2.0, size=size - 1))


class TestEigendecompose:
    def test_masses_sum_to_one(self, rng):
        for size in (1, 2, 9, 33):
            measure = eigendecompose(_random_jacobi(rng, size))
            assert abs(measure.total_mass - 1.0) < 1e-12
            assert len(measure.points) == size

    def test_points_strictly_increasing(self, rng):
        measure = eigendecompose(_random_jacobi(rng, 20))
        assert (np.diff(measure.points) > 0).all()

    def test_matches_dense_eigensolver(self, rng):
        j_op = _random_jacobi(rng, 12)
        measure = eigendecompose(j_op)
        evals, evecs = np.linalg.eigh(j_op.dense())
        assert np.max(np.abs(measure.points - evals)) < 1e-12
        assert np.max(np.abs(measure.masses - evecs[0] ** 2)) < 1e-12

    def test_single_site(self):
        measure = eigendecompose(JacobiOperator(b=np.array([0.7]), j=np.empty(0)))
        assert measure.points[0] == 0.7
        assert measure.masses[0] == 1.0

    def test_orthonormality_n8_by_recurrence(self, rng):
        j_op = _random_jacobi(rng, 9)
        measure = eigendecompose(j_op)
        table = chi_table_scaled(j_op, 8, measure.points, measure.masses)
        gram = table @ table.T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10

    def test_orthonormality_up_to_n32(self, rng):
        # via the measure's own table; recurrence evaluation at edge
        # nodes is not reliable at this size (see weighted_chi docs)
        for size in (4, 16, 33):
            j_op = _random_jacobi(rng, size)
            measure = eigendecompose(j_op)
            table = measure.weighted_chi
            assert table is not None
            gram = table @ table.T
            assert np.max(np.abs(gram - np.eye(size))) < 1e-10

    def test_weighted_chi_consistent_with_masses_and_recurrence(self, rng):
        j_op = _random_jacobi(rng, 10)
        measure = eigendecompose(j_op)
        W = measure.weighted_chi
        assert np.max(np.abs(W[0] ** 2 - measure.masses)) < 1e-14
        # unit weights give the unweighted chi_i
        chi = chi_table_scaled(j_op, 9, measure.points, 1.0)
        assert np.max(np.abs(W / W[0] - chi)) < 1e-8

    def test_moments_match_operator_powers(self, rng):
        j_op = _random_jacobi(rng, 10)
        measure = eigendecompose(j_op)
        dense = j_op.dense()
        x, w = measure.nodes_and_weights()
        acc = np.eye(10)
        for k in range(7):
            assert np.sum(w * x**k) == pytest.approx(acc[0, 0], abs=1e-9)
            acc = acc @ dense


def _lapack_reference(j_op):
    """Points and sign-fixed eigenvector table from the tridiagonal
    eigensolver, the full-size solve that operators which are neither
    constant nor mirror-symmetric with a zero diagonal take."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(j_op.b, j_op.j)
    return vals, vecs * np.where(vecs[0] < 0, -1.0, 1.0)


class TestConstantChain:
    """Operators with one diagonal value a and one coupling c take the
    closed form a + 2c cos(k pi/(n+1)), sqrt(2/(n+1)) sin((i+1) k pi/(n+1))."""

    @pytest.mark.parametrize("size", [1, 2, 3, 64, 513])
    @pytest.mark.parametrize("a, c", [(0.0, 0.5), (-1.3, 0.37), (2.5, 1.75)])
    def test_matches_eigensolver(self, size, a, c):
        j_op = JacobiOperator(b=np.full(size, a), j=np.full(size - 1, c))
        measure = eigendecompose(j_op)
        vals, table = _lapack_reference(j_op)
        W = _weighted_rows(measure, range(size))
        assert np.max(np.abs(measure.points - vals)) <= 1e-14 * max(1.0, abs(a) + 2 * c)
        assert np.max(np.abs(W - table)) <= 1e-12
        assert np.max(np.abs(measure.masses - table[0] ** 2)) <= 1e-12
        assert np.max(np.abs(W.T @ W - np.eye(size))) <= 1e-14
        assert (W[0] > 0).all()
        assert (np.diff(measure.points) > 0).all()

    def test_one_ulp_off_takes_the_eigensolver(self, monkeypatch):
        j = np.full(63, 0.5)
        j[17] = np.nextafter(0.5, 1.0)
        j_op = JacobiOperator(b=np.zeros(64), j=j)
        calls = []
        solve = scipy.linalg.eigh_tridiagonal
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                            lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        measure = eigendecompose(j_op)
        assert calls == [1]
        closed = eigendecompose(JacobiOperator(b=np.zeros(64), j=np.full(63, 0.5)))
        assert np.max(np.abs(measure.points - closed.points)) < 1e-14
        assert np.max(np.abs(measure.weighted_chi - _weighted_rows(closed, range(64)))) < 1e-12

    @pytest.mark.parametrize("b", [np.full(3, 1e308), np.array([1e308, 1e308, 0.0])],
                             ids=["closed-form", "eigensolver"])
    def test_overflow_is_refused_by_name(self, b):
        with pytest.raises(UsageError, match="non-finite points"):
            eigendecompose(JacobiOperator(b=b, j=np.full(2, 1e308)))

    @pytest.mark.parametrize("b, k", [
        ([np.inf] * 3, 0), ([np.nan] * 3, 0),
        ([np.inf, 0.0, 0.0], 0), ([0.0, 0.0, -np.inf], 2), ([0.0, np.nan, 0.0], 1),
    ], ids=["closed-form-inf", "closed-form-nan", "eigensolver-inf", "eigensolver-minus-inf",
            "eigensolver-nan"])
    def test_non_finite_diagonal_is_refused_by_name(self, b, k):
        with pytest.raises(UsageError, match=rf"b\[{k}\] = .* is not finite"):
            eigendecompose(JacobiOperator(b=b, j=np.full(2, 0.5)))

    @pytest.mark.parametrize("j, k", [
        ([np.inf, 0.5], 1), ([0.5, -np.inf], 2), ([np.nan, 0.5], 1), ([np.inf, np.inf], 1),
    ], ids=["inf", "minus-inf", "nan", "constant-shape-inf"])
    def test_non_finite_coupling_is_refused_by_name(self, j, k):
        # an infinite coupling passed j > 0 and reached scipy's bare
        # "array must not contain infs or NaNs"
        with pytest.raises(UsageError, match=rf"coupling j\[{k}\] = .* is not finite"):
            eigendecompose(JacobiOperator(b=np.zeros(3), j=j))

    def test_uniform_chain_needs_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh_tridiagonal called for a constant chain")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        j_op, measure = uniform_chain(n=2047)
        assert _weighted_rows(measure, range(2048)).shape == (2048, 2048)
        assert measure.total_mass == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("sites", [41, 400], ids=["stacked", "alone"])
def test_a_closed_form_measure_pickles_and_copies(sites):
    # the measure keeps sines and wave numbers, not its n x n table
    _, measure = uniform_chain(n=sites - 1)
    t = np.linspace(0.0, 3.0, 5)
    pairs = [(0, 0), (3, sites - 1), (sites // 2, 7)]
    want = [quantum_amplitude(measure, i, j, t).values.tobytes() for i, j in pairs]
    table = _weighted_rows(measure, range(sites))
    assert len(pickle.dumps(measure)) < table.nbytes
    copies = [pickle.loads(pickle.dumps(measure)), copy.copy(measure), copy.deepcopy(measure)]
    for copied in copies:
        got = [quantum_amplitude(copied, i, j, t).values.tobytes() for i, j in pairs]
        assert got == want
        assert copied.weighted_chi is None
        assert all(np.array_equal(a, b)
                   for a, b in zip(copied._closed_form, measure._closed_form, strict=True))
        assert _weighted_rows(copied, range(sites)).tobytes() == table.tobytes()


def _mirrored(half_b, half_j, n):
    """The n-site operator reading the same reversed whose first
    ceil(n/2) diagonal entries and floor(n/2) couplings are given."""
    half_b, half_j = np.asarray(half_b, dtype=float), np.asarray(half_j, dtype=float)
    b = np.r_[half_b[:(n + 1) // 2], half_b[:n // 2][::-1]]
    j = np.r_[half_j[:n // 2], half_j[:(n - 1) // 2][::-1]]
    return JacobiOperator(b=b, j=j)


@st.composite
def mirrored_operators(draw):
    """Persymmetric operators of 2 to 200 sites, even and odd, with a
    zero diagonal or a drawn one, and couplings 1 +- spread.  A wide
    spread localizes eigenvectors, so mirror-image pairs come closer
    than roundoff and the interleaved half points leave their order."""
    n = draw(st.integers(2, 200))
    spread = draw(st.sampled_from([0.1, 0.9]))
    unit = st.floats(-1.0, 1.0)
    half_b = np.zeros(n) if draw(st.booleans()) else 2.0 * spread * np.array(
        draw(st.lists(unit, min_size=n, max_size=n)))
    half_j = 1.0 + spread * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return _mirrored(half_b, half_j, n)


@contextlib.contextmanager
def _solve_sizes():
    """Record the size of each tridiagonal eigensolve made inside."""
    sizes = []
    solve = scipy.linalg.eigh_tridiagonal
    with unittest.mock.patch.object(scipy.linalg, "eigh_tridiagonal",
                                    lambda b, e, **kw: sizes.append(len(b)) or solve(b, e, **kw)):
        yield sizes


def _disordered(n, seed):
    """A zero-diagonal operator of n sites with couplings uniform in
    [0.2, 2] that read the same reversed."""
    g = np.random.default_rng(seed).uniform(0.2, 2.0, n)
    return _mirrored(np.zeros(n), g, n)


class TestMirroredChain:
    """An operator with a zero diagonal and j[::-1] == j is solved as a
    symmetric and a skew half-size block, or with an even size as one
    block whose points mirror exactly.  A mirror-symmetric operator with
    a nonzero diagonal takes the full solve."""

    def check(self, j_op, vals, W):
        """The split table against dense eigh, the full tridiagonal solve
        and the dense unitary."""
        n = j_op.size
        dense = j_op.dense()
        evals = np.linalg.eigh(dense)[0]
        full_vals, full_W = _lapack_reference(j_op)
        scale = max(1.0, np.abs(evals).max())
        assert (np.diff(vals) >= 0).all()
        assert np.max(np.abs(vals - evals)) <= 1e-13 * scale
        assert np.max(np.abs(vals - full_vals)) <= 1e-13 * scale
        assert np.max(np.abs(W.T @ W - np.eye(n))) <= 1e-13
        assert np.max(np.abs(dense @ W - W * vals)) <= 1e-13 * scale
        assert (W[0] >= 0).all()
        # products W[i, s] W[j, s] of each atom whose eigenvector is
        # determined to roundoff (gap to its neighbours above 1e-2) ...
        gaps = np.diff(full_vals)
        isolated = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) > 1e-2
        for j in (0, n // 2, n - 1):
            assert (np.abs(W * W[j] - full_W * full_W[j])[:, isolated] <= 1e-12).all()
        # ... and every amplitude f_ij(t) = sum_s W[i, s] W[j, s] e^{-i x_s t}
        for t in (0.7, 3.0):
            f = (W * np.exp(-1j * vals * t)) @ W.T
            assert np.max(np.abs(f - oracle_expm(j_op, t))) <= 1e-12
            assert np.max(np.abs(f - (full_W * np.exp(-1j * full_vals * t)) @ full_W.T)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(j_op=mirrored_operators())
    def test_matches_dense_and_full_solves(self, j_op):
        with _solve_sizes() as sizes:
            measure = eigendecompose(j_op)
        table = _weighted_rows(measure, range(j_op.size))
        self.check(j_op, measure.points, table)
        assert np.array_equal(measure.masses, table[0] ** 2 / (table[0] ** 2).sum())
        n, m = j_op.size, j_op.size // 2
        if (j_op.b == j_op.b[0]).all() and (j_op.j == j_op.j[0]).all():
            assert sizes == []  # the closed form, 2 sites always among them
        elif j_op.b.any():
            assert sizes == [n]
            vals, W = _lapack_reference(j_op)
            assert np.array_equal(measure.points, vals)
            assert np.array_equal(table, W)
        else:
            # the split is taken at every spread: no full-size solve
            assert sizes == ([m + 1, m] if n % 2 else [m])
            if n % 2 == 0:
                assert np.array_equal(measure.points[::-1], -measure.points)

    @pytest.mark.parametrize("size, zero, blocks", [
        (64, True, [32]), (64, False, [64]), (65, True, [33, 32]), (65, False, [65]),
    ], ids=["even-zero", "even", "odd-zero", "odd"])
    def test_takes_half_size_solves_on_a_zero_diagonal(self, rng, size, zero, blocks):
        half_b = np.zeros(size) if zero else rng.uniform(-0.2, 0.2, size)
        j_op = _mirrored(half_b, rng.uniform(0.9, 1.1, size), size)
        with _solve_sizes() as sizes:
            measure = eigendecompose(j_op)
        assert sizes == blocks
        self.check(j_op, measure.points, measure.weighted_chi)

    @pytest.mark.parametrize("j", [[0.7], [0.4, 0.4], [0.4, 1.3, 0.4], [0.3, 0.9, 0.9, 0.3]],
                             ids=["n2", "n3", "n4", "n5"])
    def test_smallest_sizes(self, j):
        # 2- and 3-site mirrored operators are constant and take the
        # closed form in eigendecompose, so the split is checked directly
        j_op = JacobiOperator(b=np.zeros(len(j) + 1), j=j)
        self.check(j_op, *_mirrored_chain(j_op.j))

    def test_wilkinson_w21_takes_the_full_solve(self):
        # W21+: b_i = |10 - i|, unit couplings; mirrored, but its
        # diagonal is not zero.  Its top pair is 7e-14 apart.
        j_op = JacobiOperator(b=np.abs(10.0 - np.arange(21)), j=np.ones(20))
        with _solve_sizes() as sizes:
            measure = eigendecompose(j_op)
        assert sizes == [21]
        self.check(j_op, measure.points, measure.weighted_chi)
        assert np.max(np.abs(measure.points - np.linalg.eigh(j_op.dense())[0])) <= 1e-14

    def test_one_ulp_off_the_mirror_takes_the_full_solve(self, rng):
        j_op = _mirrored(np.zeros(64), rng.uniform(0.9, 1.1, 64), 64)
        with _solve_sizes() as sizes:
            split = eigendecompose(j_op)
        assert sizes == [32]
        j = j_op.j.copy()
        j[5] = np.nextafter(j[5], np.inf)
        with _solve_sizes() as sizes:
            measure = eigendecompose(JacobiOperator(b=j_op.b, j=j))
        assert sizes == [64]
        assert np.max(np.abs(measure.points - split.points)) <= 1e-13
        W, Ws = measure.weighted_chi, split.weighted_chi
        assert np.max(np.abs(W * W[0] - Ws * Ws[0])) <= 1e-12
        assert np.max(np.abs(W * W[63] - Ws * Ws[63])) <= 1e-12

    @pytest.mark.parametrize("size, seed", [(64, 6), (65, 18), (200, 0), (201, 0)])
    def test_disordered_chain_is_put_in_order_without_another_solve(self, size, seed):
        # mirror-image localized states pair up closer than roundoff, so
        # the interleaved half points leave their order; they are sorted
        # with their columns, and no full-size solve is paid
        j_op = _disordered(size, seed)
        m = size // 2
        with _solve_sizes() as sizes, unittest.mock.patch.object(
                np, "argsort", wraps=np.argsort) as argsort:
            vals, W = _mirrored_chain(j_op.j)
        assert sizes == ([m + 1, m] if size % 2 else [m])
        assert argsort.called
        self.check(j_op, vals, W)

    @pytest.mark.parametrize("size", [64, 65])
    def test_crossing_half_points_are_sorted_with_their_columns(self, monkeypatch, rng, size):
        j_op = _mirrored(np.zeros(size), rng.uniform(0.9, 1.1, size), size)
        m = size // 2
        sizes = []
        solve = scipy.linalg.eigh_tridiagonal

        def crossing(b, e, **kw):
            # the first block's points pushed past every other point
            sizes.append(len(b))
            vals, vecs = solve(b, e, **kw)
            return (vals + 100.0 if len(sizes) == 1 else vals), vecs

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", crossing)
        vals, W = _mirrored_chain(j_op.j)
        monkeypatch.undo()
        assert sizes == ([m + 1, m] if size % 2 else [m])
        assert (np.diff(vals) >= 0).all()
        # each column is still the eigenvector of its own point, shifted
        # by 100: up in the symmetric block, and with an even size down
        # in the skew block derived from it
        sym = vals > 50.0
        shift = np.where(sym, 100.0, np.where(vals < -50.0, -100.0, 0.0))
        dense = j_op.dense()
        assert np.max(np.abs(dense @ W - W * (vals - shift))) <= 1e-13
        assert np.max(np.abs(W.T @ W - np.eye(size))) <= 1e-13
        assert sym.sum() == size - m
        assert np.array_equal(W[::-1, sym], W[:, sym])
        assert np.array_equal(W[::-1, ~sym], -W[:, ~sym])

    def test_overflowing_block_entry_falls_back_to_the_full_solve(self):
        # sqrt(2) j[m-1] of the odd symmetric block overflows; the full
        # solve's non-finite points are refused by name
        with _solve_sizes() as sizes, pytest.raises(UsageError, match="non-finite points"):
            eigendecompose(JacobiOperator(b=np.zeros(5), j=[1.0, 1.5e308, 1.5e308, 1.0]))
        assert sizes == [5]


class TestSpectralMeasure:
    def test_rejects_unsorted_points(self):
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        with pytest.raises(UsageError, match="increasing"):
            SpectralMeasure(jacobi=j_op, points=np.array([1.0, 0.0]),
                            masses=np.array([0.5, 0.5]))

    def test_rejects_negative_mass(self):
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        with pytest.raises(UsageError, match="mass"):
            SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]),
                            masses=np.array([1.2, -0.2]))
        # the weighted table takes sqrt(w): a roundoff-sized negative
        # value is refused too, and each refusal names its part
        with pytest.raises(UsageError, match="negative mass -1e-16 in discrete part"):
            SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]),
                            masses=np.array([1.0, -1e-16]))
        with pytest.raises(UsageError,
                           match="negative quadrature weight -0.25 in continuous part"):
            SpectralMeasure(jacobi=j_op, points=np.empty(0), masses=np.empty(0),
                            quad_points=np.array([0.0, 1.0]),
                            quad_weights=np.array([1.25, -0.25]))
        # zero masses and weights are admitted
        SpectralMeasure(jacobi=j_op, points=np.array([0.0, 1.0]), masses=np.array([1.0, 0.0]),
                        quad_points=np.array([0.5]), quad_weights=np.array([0.0]))

    @pytest.mark.parametrize("part, bad", [
        ("points", {"points": [0.0, np.inf]}),
        ("masses", {"masses": [0.5, np.nan]}),
        ("quadrature points", {"quad_points": [np.nan]}),
        ("quadrature weights", {"quad_weights": [np.inf]}),
    ], ids=["inf-point", "nan-mass", "nan-quadrature-point", "inf-quadrature-weight"])
    def test_rejects_non_finite_values(self, part, bad):
        # a NaN mass passed the nonnegativity test: classify_return called
        # the measure Perfect and quantum_amplitude returned NaN
        j_op = JacobiOperator(b=np.zeros(2), j=np.array([1.0]))
        fields = {"points": [0.0, 1.0], "masses": [0.5, 0.25],
                  "quad_points": [0.5], "quad_weights": [0.25]} | bad
        with pytest.raises(UsageError, match=f"non-finite {part}"):
            SpectralMeasure(jacobi=j_op, **{k: np.array(v) for k, v in fields.items()})

    def test_nodes_and_weights_atoms_first(self):
        j_op = JacobiOperator(b=np.zeros(3), j=np.array([1.0, 1.0]))
        m = SpectralMeasure(jacobi=j_op,
                            points=np.array([0.5]), masses=np.array([0.5]),
                            quad_points=np.array([0.25, 0.75]),
                            quad_weights=np.array([0.25, 0.25]))
        x, w = m.nodes_and_weights()
        assert list(x) == [0.5, 0.25, 0.75]
        assert m.kind == "mixed"
        assert m.continuous_mass == pytest.approx(0.5)
        assert m.total_mass == pytest.approx(1.0)

    @pytest.mark.parametrize("points, weights, message", [
        (np.array([0.25, 0.5, 0.75]), np.array([1.0]), "3 quadrature points but 1"),
        (np.array([0.25, 0.75]), None, "both quadrature points and weights"),
        (None, np.array([0.5, 0.5]), "both quadrature points and weights"),
    ], ids=["lengths-differ", "weights-missing", "points-missing"])
    def test_rejects_unmatched_quadrature_rule(self, points, weights, message):
        j_op = JacobiOperator(b=np.zeros(3), j=np.array([1.0, 1.0]))
        with pytest.raises(UsageError, match=message):
            SpectralMeasure(jacobi=j_op, points=np.empty(0), masses=np.empty(0),
                            quad_points=points, quad_weights=weights)


# -- polynomial evaluation -----------------------------------------------------

def test_chi_matches_eigenvector_components(rng):
    # Independent oracle: the s-th normalized eigenvector of J has
    # components v[i] = sign * sqrt(M_s) * chi_i(x_s), which is the
    # recurrence table W and the measure's own weighted_chi.
    j_op = _random_jacobi(rng, 11)
    measure = eigendecompose(j_op)
    evals, evecs = np.linalg.eigh(j_op.dense())
    table = chi_table_scaled(j_op, 10, measure.points, measure.masses)
    assert np.max(np.abs(table - measure.weighted_chi)) < 1e-9
    for s in range(11):
        v = evecs[:, s] * np.sign(evecs[0, s])
        assert np.max(np.abs(table[:, s] - v)) < 1e-9


def test_chi_seeds():
    j_op = JacobiOperator(b=np.array([0.3, -0.2]), j=np.array([0.9]))
    x = np.array([-1.0, 0.0, 2.0])
    w = np.array([0.25, 1.0, 4.0])
    table = chi_table_scaled(j_op, 1, x, w)
    assert list(table[0]) == [0.5, 1.0, 2.0]
    # W_1 = sqrt(w) (x - b_0)/j_1 directly from the recurrence seed
    assert table[1] == pytest.approx(np.sqrt(w) * (x - 0.3) / 0.9)


def test_chi_scalar_input(rng):
    j_op = _random_jacobi(rng, 5)
    assert chi_table_scaled(j_op, 3, 0.25, 1.0).shape == (4, 1)


def test_chi_scaled_survives_growth():
    # Uniform couplings 1/2 with |x| > 1: chi_i grows like the larger
    # Chebyshev branch, 2.54 bits a degree at x = 3, and unweighted it
    # overflows float64 near degree 400.  The weight seeds the linear
    # recurrence, so W = sqrt(w) chi with w = 2**-1000 is still finite
    # at degree 450 and follows the growth law there, and a zero weight
    # is an exact zero row at every degree, never 0 * inf = NaN.
    j_op = JacobiOperator(b=np.zeros(1200), j=np.full(1199, 0.5))
    x = 3.0
    table = chi_table_scaled(j_op, 450, np.array([x]), np.array([2.0**-1000]))
    assert np.isfinite(table).all()
    growth = np.log2(x + np.sqrt(x * x - 1.0)) * 450
    assert np.log2(np.abs(table[450, 0])) + 500 == pytest.approx(growth, rel=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        unweighted = chi_table_scaled(j_op, 450, np.array([x]), 1.0)
    assert not np.isfinite(unweighted[450, 0])
    zero = chi_table_scaled(j_op, 1100, np.array([x, -x]), np.zeros(2))
    assert not zero.any() and not np.signbit(zero[0]).any()


def test_chi_scaled_agrees_with_plain(rng):
    # W = sqrt(w) chi against the independent plain recurrence: bit for
    # bit where sqrt(w) is a power of two (scaling by it is exact), and
    # to roundoff for any weights
    j_op = _random_jacobi(rng, 9)
    x = rng.uniform(-2.0, 2.0, size=7)
    chi = plain_chi(j_op, 8, x)
    powers = 4.0 ** rng.integers(-20, 20, size=7)
    assert np.array_equal(chi_table_scaled(j_op, 8, x, powers), np.sqrt(powers) * chi)
    w = rng.uniform(0.0, 1.0, size=7)
    assert chi_table_scaled(j_op, 8, x, w) == pytest.approx(np.sqrt(w) * chi, rel=1e-12)


def test_chi_table_rows_match_single_evaluations(rng):
    # reference: the plain three-term recurrence, one degree at a time
    j_op = _random_jacobi(rng, 7)
    x = rng.uniform(-2.0, 2.0, size=5)
    w = rng.uniform(0.0, 1.0, size=5)
    table = chi_table_scaled(j_op, 6, x, w)
    prev, curr = np.zeros_like(x), np.ones_like(x)
    for i in range(7):
        assert table[i] == pytest.approx(list(np.sqrt(w) * curr))
        if i < 6:
            coupling = j_op.j[i - 1] if i else 0.0
            prev, curr = curr, ((x - j_op.b[i]) * curr - coupling * prev) / j_op.j[i]


def test_chi_table_scaled_shapes(rng):
    j_op = _random_jacobi(rng, 6)
    w = np.full(4, 0.25)
    table = chi_table_scaled(j_op, 5, np.linspace(-1, 1, 4), w)
    assert table.shape == (6, 4)
    assert list(table[0]) == [0.5] * 4


def test_chi_table_caps_degree(rng):
    j_op = _random_jacobi(rng, 5)
    chi_table_scaled(j_op, 4, 0.0, 1.0)
    with pytest.raises(UsageError, match="recurrence rows"):
        chi_table_scaled(j_op, 5, 0.0, 1.0)


def test_weighted_table_rows_are_unit_on_a_gauss_rule():
    # the uniform chain's quadrature of order m is exact to degree
    # 2m - 1, so rows 0..m-1 of W have sum_s W[i, s]^2 = 1 and every
    # entry is at most 1 in size, where unweighted chi_i reaches ~i
    _, measure = uniform_chain(quad_order=128)
    x, w = measure.nodes_and_weights()
    table = chi_table_scaled(measure.jacobi, 127, x, w)
    assert np.max(np.abs((table * table).sum(axis=1) - 1.0)) < 1e-12
    assert np.abs(table).max() <= 1.0


def test_Q_relation_to_chi(rng):
    # Q_i = (-1)^i pi_i^{-1/2} chi_i on the symmetrized operator, with the
    # Karlin-McGregor polynomials from their own recurrence
    #     lambda_k Q_{k+1} = (lambda_k + mu_k - x) Q_k - mu_k Q_{k-1}
    rates = random_rates(rng, sites=8)
    j_op = symmetrize(rates)
    pi = pi_coefficients(rates, 7)
    x = rng.uniform(0.0, 4.0, size=6)
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    for i in range(7):
        expected = (-1.0) ** i * chi_table_scaled(j_op, i, x, 1.0)[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(list(expected), abs=1e-11)
        lam, mu = rates.lam(i), rates.mu(i)
        q_prev, q = q, ((lam + mu - x) * q - mu * q_prev) / lam


def test_Q_at_zero_is_one_when_mu0_vanishes(rng):
    # with mu_0 = 0, Q_i(0) = (-1)^i pi_i^{-1/2} chi_i(0) = 1: the constant
    # vector is the generator's null vector
    rates = random_rates(rng, sites=9)
    j_op = symmetrize(rates)
    pi = pi_coefficients(rates, 8)
    chi = chi_table_scaled(j_op, 8, 0.0, 1.0)[:, 0]
    for i in range(8):
        q = (-1.0) ** i * chi[i] / np.sqrt(pi.value(i))
        assert q == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("build", [lambda: meixner_chain(1.0, 0.5)[2],
                                   lambda: stieltjes_carlitz_chain("D", 0.01, s_max=60)[1]],
                         ids=["meixner-1-0.5", "sc-d-0.01-60"])
def test_lanczos_rows_read_one_site_at_a_time_equal_those_read_at_once(build):
    # a measure resumes its Lanczos state, the site tail's running
    # product included, so the rows it certifies and the certificate of
    # the first it does not are the same however the reads are split
    once, steps = build(), build()
    size = once.jacobi.size
    rows, certificate = _lanczos_rows(once, size)
    for stop in range(1, size + 1):
        got, got_certificate = _lanczos_rows(steps, stop)
    assert got.tobytes() == rows.tobytes() and got_certificate == certificate
