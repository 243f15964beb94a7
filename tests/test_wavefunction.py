import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qp2d.fiber import assemble, coupling_matrix, diagonal_energies
from qp2d.lattice import (
    ZERO_INDEX,
    array_to_indices,
    dual_array,
    enumerate_box_array,
    indices_to_array,
    row_positions,
    triple_norm,
    triple_norm_array,
)
from qp2d.perturb import eigenvalue_level
from qp2d.profile import make_profile
from qp2d.resonance import build_omega1
from qp2d.wavefunction import residual, sample, synthesize, unit_cell_grid

TWO_PI = 2.0 * math.pi


def admissible_kappa(k, params, rng, factor=1.0):
    prof = make_profile(k)
    om = build_omega1(k, prof, params, factor)
    while True:
        phi = float(rng.uniform(0, TWO_PI))
        if om.contains(phi):
            return k * np.array([math.cos(phi), math.sin(phi)]), prof


class TestSynthesize:
    def test_zero_potential_one_hot(self, zero_spec, params, rng):
        kap, prof = admissible_kappa(30.0, params, rng)
        wf = synthesize(1, kap, zero_spec, prof)
        assert set(wf.coeffs) == {ZERO_INDEX}
        assert wf.coeffs[ZERO_INDEX] == 1.0
        assert wf.lam == float(kap @ kap)

    def test_unit_norm_phase_fixed(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        assert np.linalg.norm(wf.amps) == pytest.approx(1.0, abs=1e-12)
        v0 = wf.coeffs[ZERO_INDEX]
        assert v0.imag == 0.0 and v0.real > 0.5

    def test_matches_oracle_eigenvector(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        rows = enumerate_box_array(prof.core_radius)
        idx = array_to_indices(rows)
        h = assemble(kap, rows, spec, spec.params)
        vals, vecs = np.linalg.eigh(h.entries)
        pos = int(np.argmin(np.abs(vals - wf.lam)))
        v = vecs[:, pos]
        i0 = idx.index(ZERO_INDEX)
        v = v * (abs(v[i0]) / v[i0])
        ours = np.array([wf.coeff(m) for m in idx])
        assert np.linalg.norm(ours - v) <= 1e-7

    def test_coeffs_as_built_from_the_series(self, spec, params, rng):
        # the dict at the API edge: the phase-fixed series vector's nonzero
        # entries keyed by the level's rows, in their order
        kap, prof = admissible_kappa(40.0, params, rng, factor=8.0)
        for level in (1, 2):
            wf = synthesize(level, kap, spec, prof)
            res = eigenvalue_level(level, kap, spec, prof, check_oracle=False)
            points = array_to_indices(res.rows)
            i0 = points.index(ZERO_INDEX)
            v = res.vector * (abs(res.vector[i0]) / res.vector[i0])
            ref = {m: complex(c) for m, c in zip(points, v) if c != 0}
            assert list(wf.coeffs.items()) == list(ref.items())

    def test_coeff_outside_support_is_zero(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        outside = array_to_indices(enumerate_box_array(wf.box_radius + 1)[:1])[0]
        assert outside not in wf.coeffs
        assert wf.coeff(outside) == 0j
        assert wf.coeff(ZERO_INDEX) == wf.coeffs[ZERO_INDEX]


class TestResidual:
    def test_row_outside_box_rejected(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        far = enumerate_box_array(wf.box_radius + 1)[:1]
        stray = dataclasses.replace(
            wf, rows=np.vstack([far, wf.rows]), amps=np.append(1e-3, wf.amps)
        )
        with pytest.raises(ValueError):
            residual(stray, spec)

    def test_zero_potential_zero_residual(self, zero_spec, params, rng):
        kap, prof = admissible_kappa(30.0, params, rng)
        wf = synthesize(1, kap, zero_spec, prof)
        *_, l1, interior = residual(wf, zero_spec)
        assert l1 == 0.0 and interior == 0.0

    def test_shell_support_exact(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        rows, vals, l1, interior = residual(wf, spec)
        h_scale = float(kap @ kap)
        assert interior <= 1e-12 * h_scale
        norms = triple_norm_array(rows[np.abs(vals) > 1e-12 * h_scale])
        assert np.all(wf.box_radius < norms)
        assert np.all(norms <= wf.box_radius + spec.max_support_norm)

    def test_l2_matches_direct_application(self, spec, params, rng):
        # independent route: assemble the enlarged matrix and apply it
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        big = enumerate_box_array(wf.box_radius + spec.max_support_norm)
        big_idx = array_to_indices(big)
        h = assemble(kap, big, spec, spec.params).entries
        v = np.array([wf.coeff(m) for m in big_idx])
        direct = np.linalg.norm(h @ v - wf.lam * v)
        assert np.linalg.norm(residual(wf, spec)[1]) == pytest.approx(direct, abs=1e-12)

    def test_l1_dominates_l2(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        _, vals, l1, _ = residual(wf, spec)
        assert l1 >= np.linalg.norm(vals) - 1e-15


def residual_full_matrix(wf, spec):
    """The enlarged-box product residual replaced: the coupling matrix of the
    whole box |||s||| <= box_radius + Q applied to the zero-padded vector."""
    rows = enumerate_box_array(wf.box_radius + spec.max_support_norm)
    c = np.zeros(len(rows), dtype=complex)
    c[row_positions(rows, wf.rows)] = wf.amps
    diag = diagonal_energies(wf.kappa, rows, spec.params)
    g = coupling_matrix(rows, spec) @ c + (diag - wf.lam) * c
    nz = np.flatnonzero(g)
    interior = np.max(np.abs(g[triple_norm_array(rows) <= wf.box_radius]), initial=0.0)
    return rows[nz], g[nz], float(np.sum(np.abs(g))), float(interior)


class TestResidualFullMatrix:
    @pytest.mark.parametrize("k", [15.0, 40.0])
    @pytest.mark.parametrize("level", [1, 2])
    def test_bit_identical(self, spec, params, rng, level, k):
        kap, prof = admissible_kappa(k, params, rng, factor=8.0)
        wf = synthesize(level, kap, spec, prof)
        rows, vals, l1, interior = residual(wf, spec)
        ref_rows, ref_vals, ref_l1, ref_interior = residual_full_matrix(wf, spec)
        assert np.array_equal(rows, ref_rows)
        assert vals.tobytes() == ref_vals.tobytes()
        assert l1 == ref_l1 and interior == ref_interior


def residual_reference(wf, spec):
    """The per-index loop residual replaced, and the roundoff scale
    |d_s - lam||c_s| + sum_q |V_q||c_{s-q}| of each entry."""
    radius = wf.box_radius + spec.max_support_norm
    diag = diagonal_energies(wf.kappa, enumerate_box_array(radius), spec.params)
    nz = [(q, v) for q, v in spec.coeffs.items() if v != 0]
    g, scale = {}, {}
    for s, d in zip(array_to_indices(enumerate_box_array(radius)), diag):
        val = (d - wf.lam) * wf.coeff(s)
        scale[s] = abs(d - wf.lam) * abs(wf.coeff(s))
        for q, vq in nz:
            val += vq * wf.coeff(s - q)
            scale[s] += abs(vq) * abs(wf.coeff(s - q))
        if val != 0:
            g[s] = val
    return g, scale


class TestResidualReference:
    @pytest.mark.parametrize("level", [1, 2])
    def test_within_summation_bound(self, spec, params, rng, level):
        kap, prof = admissible_kappa(40.0, params, rng, factor=8.0)
        wf = synthesize(level, kap, spec, prof)
        rows, vals, l1, interior = residual(wf, spec)
        g = dict(zip(array_to_indices(rows), vals))
        ref, scale = residual_reference(wf, spec)
        eps = 2.0**-52
        bound = {s: 4 * (1 + len(spec.nonzero_support)) * eps * a for s, a in scale.items()}
        for s in scale:
            assert abs(g.get(s, 0j) - ref.get(s, 0j)) <= bound[s]
        assert set(g) <= set(scale)
        # the entry bounds plus the roundoff of summing |g_s|
        ref_l1 = sum(abs(v) for v in ref.values())
        assert abs(l1 - ref_l1) <= sum(bound.values()) + len(scale) * eps * ref_l1
        inside = [s for s in scale if triple_norm(s) <= wf.box_radius]
        ref_interior = max(abs(ref.get(s, 0j)) for s in inside)
        assert abs(interior - ref_interior) <= max(bound[s] for s in inside)


def sample_reference(wf, xs, prev=None):
    """The per-point sum sample replaced: one complex exponential per grid
    point and support row, over the support in sorted order; (psi, u)."""
    support = sorted(wf.coeffs)
    amps = np.array([wf.coeffs[m] for m in support])
    freqs = dual_array(indices_to_array(support), wf.params) + wf.kappa[None, :]
    psi = (np.exp(1j * (xs @ freqs.T)) * amps[None, :]).sum(axis=1)
    carrier = np.exp(-1j * (xs @ wf.kappa))
    if prev is None:
        return psi, carrier * psi - 1.0
    return psi, carrier * (psi - sample_reference(prev, xs)[0])


def _grids():
    g = np.random.default_rng(5)
    gx, gy = np.meshgrid(np.sort(g.uniform(0, 1, 24)), np.sort(g.uniform(0, 1, 16)), indexing="ij")
    return {
        "unit-cell-32": unit_cell_grid(32),
        "tensor-24x16": np.stack([gx.ravel(), gy.ravel()], axis=1),
        "shuffled-32": unit_cell_grid(32)[g.permutation(32 * 32)],
        "random-50": g.uniform(0, 1, (50, 2)),
    }


@pytest.fixture(scope="module")
def level_pair(spec, params):
    """Level-1 and level-2 wave functions at one 8tau-admissible k = 40 point."""
    kap, prof = admissible_kappa(40.0, params, np.random.default_rng(20260809), factor=8.0)
    return {1: synthesize(1, kap, spec, prof), 2: synthesize(2, kap, spec, prof)}


class TestSample:
    def test_zero_potential_plane_wave(self, zero_spec, params, rng):
        kap, prof = admissible_kappa(30.0, params, rng)
        wf = synthesize(1, kap, zero_spec, prof)
        out = sample(wf, unit_cell_grid(16))
        assert np.allclose(np.abs(out["psi"]), 1.0, atol=1e-12)
        assert out["sup_u"] <= 1e-12

    def test_sup_psi_triangle_bound(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        out = sample(wf, unit_cell_grid(32))
        l1_minus_center = sum(
            abs(v) for m, v in wf.coeffs.items() if m != ZERO_INDEX
        )
        bound = abs(wf.coeffs[ZERO_INDEX]) + l1_minus_center
        assert out["sup_psi"] <= bound + 1e-12

    def test_level_difference_bound(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng, factor=8.0)
        wf1 = synthesize(1, kap, spec, prof)
        wf2 = synthesize(2, kap, spec, prof)
        out = sample(wf2, unit_cell_grid(32), prev=wf1)
        support = set(wf1.coeffs) | set(wf2.coeffs)
        l1_diff = sum(abs(wf2.coeff(m) - wf1.coeff(m)) for m in support)
        assert out["sup_u"] <= l1_diff + 1e-12

    def test_central_coefficient_dominates(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        assert abs(wf.coeffs[ZERO_INDEX]) > 0.5

    @pytest.mark.parametrize("grid", sorted(_grids()))
    @pytest.mark.parametrize("level,prev", [(1, None), (1, 2), (2, None), (2, 1)])
    def test_matches_direct_sum(self, level_pair, level, prev, grid):
        wf = level_pair[level]
        wf_prev = None if prev is None else level_pair[prev]
        xs = _grids()[grid]
        out = sample(wf, xs, prev=wf_prev)
        psi, u = sample_reference(wf, xs, prev=wf_prev)
        # the sums are reordered and each exponential factored by axis
        bound = 1e-13 * sum(abs(a) for a in wf.coeffs.values())
        assert np.max(np.abs(out["psi"] - psi)) <= bound
        assert np.max(np.abs(out["u"] - u)) <= bound
        assert abs(out["sup_psi"] - np.max(np.abs(psi))) <= bound
        assert abs(out["sup_u"] - np.max(np.abs(u))) <= bound

    def test_no_grid_by_support_array(self, level_pair):
        # the direct sum holds an (N, S) complex array: N*S*16 bytes
        wf, xs = level_pair[2], unit_cell_grid(64)
        limit = len(xs) * len(wf.coeffs) * 16 / 4
        tracemalloc.start()
        try:
            sample(wf, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
