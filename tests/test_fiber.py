import math

import numpy as np
import pytest
import scipy.linalg as sl
import scipy.sparse as sp

from qp2d.fiber import (
    _DENSE_ROWS,
    _sparse_window,
    DimensionCap,
    DuplicateIndex,
    FiberMatrix,
    NotUnique,
    assemble,
    diagonal_energies,
    eigvals_oracle,
)
from qp2d.lattice import (
    LatticeIndex,
    ZERO_INDEX,
    components,
    dual_vector,
    enumerate_box_array,
    indices_to_array,
    row_positions,
    triple_norm_array,
)
from qp2d.potential import build


@pytest.fixture(scope="module")
def kappa():
    return np.array([3.1, -1.7])


class TestAssemble:
    def test_zero_potential_diagonal(self, zero_spec, params, kappa):
        idx = enumerate_box_array(2)
        h = assemble(kappa, idx, zero_spec, params)
        assert np.count_nonzero(h.entries - np.diag(np.diag(h.entries))) == 0
        d = diagonal_energies(kappa, idx, params)
        assert np.allclose(np.diag(h.entries).real, d, atol=0)

    def test_single_index(self, spec, params, kappa):
        m = LatticeIndex((1, 1), (0, 0))
        h = assemble(kappa, indices_to_array([m]), spec, params)
        p = dual_vector(m, params).p
        assert h.entries.shape == (1, 1)
        assert h.entries[0, 0] == pytest.approx(float((kappa + p) @ (kappa + p)))

    def test_two_by_two_closed_form(self, spec, params, kappa):
        q = LatticeIndex((1, 0), (0, 0))
        v = spec.coeffs[q]
        idx = [ZERO_INDEX, -q]  # difference 0 - (-q) = q couples them
        h = assemble(kappa, indices_to_array(idx), spec, params)
        a = float(kappa @ kappa)
        pq = dual_vector(-q, params).p
        b = float((kappa + pq) @ (kappa + pq))
        disc = math.sqrt((a - b) ** 2 + 4 * abs(v) ** 2)
        expected = sorted([(a + b - disc) / 2, (a + b + disc) / 2])
        got = eigvals_oracle(h)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_exact_hermiticity(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(3), spec, params).entries
        assert np.array_equal(h, h.conj().T)  # bit-level, not approximate

    def test_band_support(self, spec, params, kappa):
        idx = enumerate_box_array(3)
        h = assemble(kappa, idx, spec, params)
        far = triple_norm_array(idx[:, None, :] - idx[None, :, :]) > spec.Q
        assert far.any() and not np.any(h.entries[far])

    def test_duplicate_rejected(self, spec, params, kappa):
        with pytest.raises(DuplicateIndex):
            assemble(kappa, indices_to_array([ZERO_INDEX, ZERO_INDEX]), spec, params)

    def test_projection_consistency(self, spec, params, kappa):
        big = assemble(kappa, enumerate_box_array(2), spec, params)
        sub_idx = enumerate_box_array(1)
        direct = assemble(kappa, sub_idx, spec, params)
        pos = row_positions(big.rows, sub_idx)
        assert np.array_equal(big.entries[np.ix_(pos, pos)], direct.entries)


class TestOracle:
    def test_diagonal_input(self, zero_spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(2), zero_spec, params)
        vals = eigvals_oracle(h)
        assert np.allclose(vals, np.sort(np.diag(h.entries).real), rtol=1e-12)

    def test_trace_preserved(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(2), spec, params)
        vals = eigvals_oracle(h)
        assert np.sum(vals) == pytest.approx(
            np.trace(h.entries).real, rel=1e-10
        )

    def test_residual_and_orthonormality(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(2), spec, params)
        vals, vecs = np.linalg.eigh(h.entries)
        scale = np.linalg.norm(h.entries, 2)
        resid = h.entries @ vecs - vecs * vals[None, :]
        assert np.linalg.norm(resid, 2) <= 1e-10 * scale
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(h.dim))) <= 1e-10

    def test_free_eigenvalues_are_diagonal(self, zero_spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(3), zero_spec, params)
        vals = eigvals_oracle(h)
        d = np.sort(diagonal_energies(kappa, h.rows, params))
        assert np.allclose(vals, d, rtol=1e-12)

    def test_dimension_cap(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(1), spec, params)
        with pytest.raises(DimensionCap):
            eigvals_oracle(h, cap=5)


def resolvent_gap(mat, z):
    """dist(z, spec(M)) = 1/||(M - z)^{-1}|| for self-adjoint M."""
    return float(np.min(np.abs(eigvals_oracle(mat) - z)))


class TestResolventGap:
    def test_far_below_spectrum(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(1), spec, params)
        vals = eigvals_oracle(h)
        z = vals[0] - 100.0
        assert resolvent_gap(h, z) == pytest.approx(vals[0] - z, rel=1e-12)

    def test_at_eigenvalue(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(1), spec, params)
        vals = eigvals_oracle(h)
        assert resolvent_gap(h, vals[2]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_smallest_singular_value(self, params, rng):
        # independent route: 1/||(M-z)^-1||_2 via direct dense inversion
        for _ in range(5):
            a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
            h = (a + a.conj().T) / 2
            mat = FiberMatrix(
                rows=np.zeros((20, 4), dtype=np.int64), kappa=np.zeros(2), entries=h
            )
            z = complex(rng.normal(scale=10), 0)
            inv_norm = np.linalg.norm(np.linalg.inv(h - z * np.eye(20)), 2)
            assert resolvent_gap(mat, z) == pytest.approx(1 / inv_norm, abs=1e-8)


class TestSpectralWindow:
    def test_simple_eigenvalue(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(1), spec, params)
        vals = eigvals_oracle(h)
        inside = eigvals_oracle(h, float(vals[0]), 1e-9)
        assert len(inside) == 1 and inside[0] == pytest.approx(vals[0])

    def test_covers_all(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(1), spec, params)
        assert len(eigvals_oracle(h, 0.0, 1e9)) == h.dim

    def test_recount(self, spec, params, kappa, rng):
        h = assemble(kappa, enumerate_box_array(2), spec, params)
        vals = eigvals_oracle(h)
        for _ in range(10):
            c = float(rng.uniform(vals[0], vals[-1]))
            r = float(rng.uniform(0.1, 50.0))
            inside = eigvals_oracle(h, c, r)
            assert len(inside) == int(np.sum(np.abs(vals - c) <= r))
            # eigenvalue errors are absolute, relative to the matrix norm
            ref = vals[np.abs(vals - c) <= r]
            assert np.all(np.abs(inside - ref) <= 1e-13 * np.max(np.abs(vals)))


def hermitian(rng, n, scale):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def as_fiber(h):
    return FiberMatrix(rows=np.zeros((h.shape[0], 4), dtype=np.int64), kappa=np.zeros(2), entries=h)


class TestWindowedOracle:
    @pytest.mark.parametrize("n", [30, 60])
    def test_planted_double_eigenvalue(self, n, rng):
        # block_diag(A, A) has every eigenvalue of A twice, one copy in each
        # of its two coupling components, and the count must find both
        a = np.diag(np.arange(n, dtype=float)) + hermitian(rng, n, 0.1)
        ev = np.linalg.eigvalsh(a)
        h = sl.block_diag(a, a)
        for t in (0, n // 2, n - 1):
            radius = 0.3 * np.min(np.abs(np.delete(ev, t) - ev[t]))
            got = eigvals_oracle(as_fiber(sp.csr_matrix(h)), ev[t], radius)
            assert len(got) == 2
            assert np.all(np.abs(got - ev[t]) <= 1e-13 * max(1.0, abs(ev[t])))

    def test_wide_window_is_the_dense_finish(self, rng):
        # one component past _DENSE_ROWS with more than d/2 eigenvalues
        # inside: the sparse route declines, and the dense finish is eigvalsh
        # of the same matrix shifted by the center
        n = _DENSE_ROWS + 40
        h = sp.csr_matrix(np.diag(np.arange(n, dtype=float)) + hermitian(rng, n, 0.05))
        center, radius = float(np.linalg.eigvalsh(h.toarray())[n // 2]), n / 3
        vals = np.linalg.eigvalsh(h.toarray() - center * np.eye(n)) + center
        got = eigvals_oracle(as_fiber(h), center, radius)
        assert len(got) > n // 2
        assert np.array_equal(got, vals[np.abs(vals - center) <= radius])

    def test_off_diagonal_pivot_at_an_edge(self):
        # at the shift 3 the pair [[3, 2], [2, 3]] leaves a zero diagonal
        # entry, the LU pivots off the diagonal, and its pivot signs no
        # longer count the eigenvalues below the shift: the sparse window
        # declines, and the oracle, which takes the pair as a 2-row
        # component, still finds the one eigenvalue
        n = 30
        h = np.diag(np.arange(n) + 0.25)
        h[0, 0] = h[1, 1] = 3.0
        h[0, 1] = h[1, 0] = 2.0
        vals = np.linalg.eigvalsh(h)
        assert _sparse_window(sp.csc_matrix(h), 2.5, 0.5, None) is None
        got = eigvals_oracle(as_fiber(sp.csr_matrix(h)), 2.5, 0.5)
        assert np.array_equal(got, vals[np.abs(vals - 2.5) <= 0.5])
        assert len(got) == 1

    def test_center_on_an_eigenvalue(self, zero_spec, params, kappa):
        # a diagonal section shifted by one of its entries is exactly
        # singular, so the sparse window declines; the oracle reads the
        # singletons off the diagonal
        h = assemble(kappa, enumerate_box_array(2), zero_spec, params)
        d = np.sort(np.diag(h.entries).real)
        assert _sparse_window(sp.csc_matrix(h.entries), float(d[50]), 1e-9, None) is None
        got = eigvals_oracle(h, float(d[50]), 1e-9)
        assert np.array_equal(got, d[np.abs(d - d[50]) <= 1e-9])

    def test_empty_window(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(2), spec, params)
        vals = np.linalg.eigvalsh(h.entries)
        gap = np.argmax(np.diff(vals))
        center = float(vals[gap] + vals[gap + 1]) / 2
        got = eigvals_oracle(h, center, 0.25 * float(vals[gap + 1] - vals[gap]))
        assert got.shape == (0,)

    def test_cap_binds_only_the_dense_finish(self, spec, params, kappa):
        h = assemble(kappa, enumerate_box_array(2), spec, params)
        vals = np.linalg.eigvalsh(h.entries)
        assert len(eigvals_oracle(h, float(vals[40]), 1e-9, cap=5)) == 1
        with pytest.raises(DimensionCap):
            eigvals_oracle(h, cap=5)


def four_generator_spec(params):
    """A potential whose support spans all four lattice directions, so a box
    section is one coupling component but for a few rows."""
    gens = [((1, 0), (0, 0)), ((0, -1), (0, 1)), ((0, 0), (1, 1)), ((1, 0), (0, 1))]
    coeffs = [0.1, 0.075 + 0.025j, 0.05, 0.04 - 0.02j]
    return build([(LatticeIndex(*g), c) for g, c in zip(gens, coeffs)], Q=4, params=params)


def banded(rng, n, scale):
    """diag(0..n-1) plus a Hermitian tridiagonal: one coupling component."""
    off = scale * (rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
    return np.diag(np.arange(n, dtype=complex)) + np.diag(off, 1) + np.diag(off.conj(), -1)


class TestComponentOracle:
    def test_four_generator_section_takes_the_sparse_window(self, params, monkeypatch):
        import scipy.sparse.linalg as spl

        spec4 = four_generator_spec(params)
        rows = enumerate_box_array(4)
        k, phi = 40.0, 0.37
        mat = assemble(k * np.array([math.cos(phi), math.sin(phi)]), rows, spec4, params)
        coo = sp.coo_matrix(mat.entries)
        assert np.bincount(components(mat.dim, coo.row, coo.col)).max() == 1119
        vals = np.linalg.eigvalsh(mat.entries)
        t = int(np.argmin(np.abs(vals - k * k)))
        radius = 0.3 * float(np.min(np.abs(np.delete(vals, t) - vals[t])))
        calls = []
        splu = spl.splu

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(spl, "splu", spy)
        sparse = FiberMatrix(rows=mat.rows, kappa=mat.kappa, entries=sp.csr_matrix(mat.entries))
        got = eigvals_oracle(sparse, float(vals[t]), radius, count=1)
        assert calls and set(calls) == {1119}
        assert abs(got[0] - vals[t]) <= 1e-13 * abs(vals[t])

    def test_infinite_radius_is_the_whole_spectrum(self, rng):
        # blocks of several sizes, rows shuffled so no component is contiguous
        sizes = [1, 3, 3, 7, 12, 1, 20]
        h = sl.block_diag(*[hermitian(rng, s, 1.0) + 10.0 * i for i, s in enumerate(sizes)])
        perm = rng.permutation(len(h))
        h = h[np.ix_(perm, perm)]
        vals = np.linalg.eigvalsh(h)
        for entries in (h, sp.csr_matrix(h)):
            got = eigvals_oracle(as_fiber(entries))
            assert got.shape == vals.shape
            assert np.all(np.abs(got - vals) <= 1e-13 * np.max(np.abs(vals)))

    @pytest.mark.parametrize("n", [30, _DENSE_ROWS + 20])
    @pytest.mark.parametrize("joined", [False, True])
    def test_planted_double_in_one_or_two_components(self, n, joined, rng):
        # the double eigenvalue's copies sit in two components of n rows
        # (block_diag(A, A)) or in one of 2n rows (block_diag(A, A) rotated
        # by a unitary that joins the copies along a band); n past
        # _DENSE_ROWS takes the sparse window
        a = banded(rng, n, 0.1)
        ev = np.linalg.eigvalsh(a)
        h = sl.block_diag(a, a)
        if joined:
            # rotating rows i and n + i by an angle th_i keeps the spectrum
            # and the band; entry (i, j) of A reappears between the copies
            # times sin(th_i - th_j), so unequal angles join them
            g = np.eye(2 * n)
            for i, th in enumerate(0.3 * np.arange(n)):
                g[np.ix_([i, n + i], [i, n + i])] = [[math.cos(th), -math.sin(th)],
                                                     [math.sin(th), math.cos(th)]]
            h = g @ h @ g.T
            h = (h + h.conj().T) / 2
        coo = sp.coo_matrix(h)
        labels = components(2 * n, coo.row, coo.col)
        assert labels.max() + 1 == (1 if joined else 2)
        t = n // 2
        radius = 0.3 * float(np.min(np.abs(np.delete(ev, t) - ev[t])))
        mat = as_fiber(sp.csr_matrix(h))
        got = eigvals_oracle(mat, ev[t], radius)
        assert len(got) == 2
        assert np.all(np.abs(got - ev[t]) <= 1e-13 * max(1.0, abs(ev[t])))
        with pytest.raises(NotUnique, match="^2 oracle eigenvalues"):
            eigvals_oracle(mat, ev[t], radius, count=1)
