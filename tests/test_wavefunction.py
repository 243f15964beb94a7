import math

import numpy as np
import pytest

from qp2d.fiber import assemble, diagonal_energies, eig_oracle
from qp2d.lattice import (
    ZERO_INDEX,
    array_to_indices,
    box_indices,
    enumerate_box_array,
    triple_norm,
)
from qp2d.profile import make_profile
from qp2d.resonance import build_omega1
from qp2d.wavefunction import residual, residual_l2, sample, synthesize, unit_cell_grid

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
        assert wf.l2_norm == pytest.approx(1.0, abs=1e-12)
        v0 = wf.coeffs[ZERO_INDEX]
        assert v0.imag == 0.0 and v0.real > 0.5

    def test_matches_oracle_eigenvector(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        idx = array_to_indices(enumerate_box_array(prof.core_radius))
        h = assemble(kap, idx, spec, spec.params)
        sd = eig_oracle(h)
        pos = int(np.argmin(np.abs(sd.eigenvalues - wf.lam)))
        v = sd.eigenvectors[:, pos]
        i0 = idx.index(ZERO_INDEX)
        v = v * (abs(v[i0]) / v[i0])
        ours = np.array([wf.coeff(m) for m in idx])
        assert np.linalg.norm(ours - v) <= 1e-7


class TestResidual:
    def test_zero_potential_zero_residual(self, zero_spec, params, rng):
        kap, prof = admissible_kappa(30.0, params, rng)
        wf = synthesize(1, kap, zero_spec, prof)
        g, l1, interior = residual(wf, zero_spec)
        assert l1 == 0.0 and interior == 0.0

    def test_shell_support_exact(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        g, l1, interior = residual(wf, spec)
        h_scale = float(kap @ kap)
        assert interior <= 1e-12 * h_scale
        for s in g:
            if abs(g[s]) > 1e-12 * h_scale:
                assert (
                    wf.box_radius
                    < triple_norm(s)
                    <= wf.box_radius + spec.max_support_norm
                )

    def test_l2_matches_direct_application(self, spec, params, rng):
        # independent route: assemble the enlarged matrix and apply it
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        big_idx = array_to_indices(
            enumerate_box_array(wf.box_radius + spec.max_support_norm)
        )
        h = assemble(kap, big_idx, spec, spec.params).entries
        v = np.array([wf.coeff(m) for m in big_idx])
        direct = np.linalg.norm(h @ v - wf.lam * v)
        assert residual_l2(wf, spec) == pytest.approx(direct, abs=1e-12)

    def test_l1_dominates_l2(self, spec, params, rng):
        kap, prof = admissible_kappa(40.0, params, rng)
        wf = synthesize(1, kap, spec, prof)
        _, l1, _ = residual(wf, spec)
        assert l1 >= residual_l2(wf, spec) - 1e-15


def residual_reference(wf, spec):
    """The per-index loop residual replaced, and the roundoff scale
    |d_s - lam||c_s| + sum_q |V_q||c_{s-q}| of each entry."""
    radius = wf.box_radius + spec.max_support_norm
    diag = diagonal_energies(wf.kappa, enumerate_box_array(radius), spec.params)
    nz = [(q, v) for q, v in spec.coeffs.items() if v != 0]
    g, scale = {}, {}
    for s, d in zip(box_indices(radius), diag):
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
        g, l1, interior = residual(wf, spec)
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
