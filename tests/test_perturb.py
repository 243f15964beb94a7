import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qp2d import perturb
from qp2d.fiber import FiberMatrix, assemble, eigvals_oracle
from qp2d.lattice import (
    LatticeIndex,
    ZERO_INDEX,
    array_to_indices,
    dual_array,
    dual_vector,
    enumerate_box,
    enumerate_box_array,
    indices_to_array,
    triple_norm_array,
)
from qp2d.perturb import (
    ContourHit,
    LevelEvaluator,
    NonConvergent,
    NotUnique,
    build_state,
    contour_coeff_series,
    contour_projector_series,
    derivative_probe,
    eigenvalue_level,
    generic_step,
    level2_geometry,
    projector_level,
    toy_state,
)
from qp2d.potential import InvariantViolation, build
from qp2d.profile import make_profile
from qp2d.resonance import build_omega1

TWO_PI = 2.0 * math.pi


def admissible_phi(om, rng):
    while True:
        phi = float(rng.uniform(0, TWO_PI))
        if om.contains(phi):
            return phi


def pair_norms(rows):
    """|||s||| + |||s'||| for every entry (s, s') of a matrix over rows."""
    norms = triple_norm_array(rows)
    return norms[:, None] + norms[None, :]


def g2_closed_form(kappa, spec, radius):
    """Direct summation over the small box: the independent route."""
    total = 0.0
    kap = np.asarray(kappa, dtype=float)
    a2 = float(kap @ kap)
    for q in enumerate_box(radius):
        if q.is_zero():
            continue
        v = spec.coeffs.get(q, 0j)
        if v == 0:
            continue
        p = dual_vector(q, spec.params).p
        total += abs(v) ** 2 / (a2 - float((kap + p) @ (kap + p)))
    return total


class TestSeriesStructure:
    def test_zero_potential_all_orders_vanish(self, zero_spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = eigenvalue_level(1, kap, zero_spec, prof, check_oracle=True)
        assert np.all(res.g == 0.0)
        assert res.lam == float(kap @ kap)

    def test_first_order_vanishes_exactly(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        for _ in range(5):
            phi = admissible_phi(om, rng)
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            res = eigenvalue_level(1, kap, spec, prof, check_oracle=False)
            assert res.g[0] == 0.0

    def test_second_order_closed_form(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        for _ in range(5):
            phi = admissible_phi(om, rng)
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            res = eigenvalue_level(1, kap, spec, prof, check_oracle=False)
            expected = g2_closed_form(kap, spec, prof.core_radius)
            assert res.g[1] == pytest.approx(expected, rel=1e-10)

    def test_quadrature_agrees_with_recursion(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(1, kap, spec, prof)
        res = generic_step(state, prof, with_projector=False)
        gq = contour_coeff_series(state, prof, r_max=10)
        scale = np.max(np.abs(gq)) + 1e-300
        assert np.max(np.abs(gq - res.g[:10])) <= 1e-11 * max(scale, 1.0)

    def test_quadrature_node_doubling_consistency(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(1, kap, spec, prof)
        g64 = contour_coeff_series(state, prof, r_max=6, max_nodes=64)
        g128 = contour_coeff_series(state, prof, r_max=6, max_nodes=128)
        lam64 = state.lambda0 + np.sum(g64[1:])
        lam128 = state.lambda0 + np.sum(g128[1:])
        assert abs(lam64 - lam128) <= 1e-12 * abs(lam128)

    def test_decay_ratio_zero_potential(self, zero_spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params), rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = eigenvalue_level(1, kap, zero_spec, prof, check_oracle=False)
        assert res.decay_ratio == 0.0
        assert res.orders == prof.r_max == len(res.g)

    def test_decay_ratio_converged_point(self, spec, params, rng):
        # at k = 15 several orders stay above the significance floor
        k = 15.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params), rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = eigenvalue_level(1, kap, spec, prof, check_oracle=False)
        assert res.converged
        assert 0.0 < res.decay_ratio < prof.divergence_ratio
        short = generic_step(build_state(1, kap, spec, prof), prof, r_max=10)
        assert short.orders == 10

    def test_contour_hit_raised(self, spec, params):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        state = toy_state(
            h, [[0], [1], [2]], indices_to_array([LatticeIndex((i, 0), (0, 0)) for i in range(3)]),
            target_value=0.0, profile=make_profile(10.0),
        )
        state.contour = type(state.contour)(0.0, 1.0)
        with pytest.raises(ContourHit):
            generic_step(state, make_profile(10.0))

    def test_nonconvergent_raised(self):
        # coupling comparable to the gap: the coefficient sequence stalls
        prof = make_profile(10.0)
        h = np.array([[0.0, 0.9], [0.9, 1.0]], dtype=complex)
        idx = indices_to_array([LatticeIndex((0, 0), (0, 0)), LatticeIndex((1, 0), (0, 0))])
        state = toy_state(h, [[0], [1]], idx, target_value=0.0, profile=prof)
        with pytest.raises(NonConvergent):
            generic_step(state, prof)

    def test_not_unique_raised(self):
        # a strongly coupled pair away from the target pushes an eigenvalue
        # inside the contour: the series converges but the interval check
        # must fail
        prof = make_profile(10.0)
        h = np.array(
            [
                [0.0, 0.05, 0.0],
                [0.05, 1.0, 0.6],
                [0.0, 0.6, 1.0],
            ],
            dtype=complex,
        )
        idx = indices_to_array([LatticeIndex((i, 0), (0, 0)) for i in range(3)])
        state = toy_state(h, [[0], [1], [2]], idx, target_value=0.0, profile=prof)
        with pytest.raises(NotUnique):
            generic_step(state, prof, check_oracle=True)


class TestProjector:
    def test_zero_potential_one_hot(self, zero_spec, params, rng):
        k = 30.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = projector_level(1, kap, zero_spec, prof)
        i0 = array_to_indices(res.rows).index(ZERO_INDEX)
        expected = np.zeros((len(res.rows),) * 2, dtype=complex)
        expected[i0, i0] = 1.0
        assert np.array_equal(res.projector, expected)

    def test_projector_invariants(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = projector_level(1, kap, spec, prof)
        e = res.projector
        assert np.max(np.abs(e - e.conj().T)) <= 1e-12
        assert np.max(np.abs(e @ e - e)) <= 1e-8
        assert abs(np.trace(e) - 1.0) <= 1e-8
        assert np.linalg.matrix_rank(e, tol=1e-6) == 1

    def test_support_rule_exact(self, params, rng):
        # sharp configuration: single unit-norm generator, cutoff 1, wide box
        g = LatticeIndex((1, 0), (0, 0))
        spec1 = build([(g, 0.05)], Q=1, params=params)
        k = 40.0
        prof = make_profile(k, core_radius=4)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(1, kap, spec1, prof)
        res = generic_step(state, prof, with_projector=True, store_orders=6)
        pair_norm = pair_norms(res.rows)
        for r, g_r in enumerate(res.g_matrices, start=1):
            mask = r * spec1.Q < pair_norm
            assert np.all(g_r[mask] == 0.0)  # bit-exact, not approximate

    def test_support_rule_quadrature_route(self, params, rng):
        g = LatticeIndex((1, 0), (0, 0))
        spec1 = build([(g, 0.05)], Q=1, params=params)
        k = 40.0
        prof = make_profile(k, core_radius=3)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(1, kap, spec1, prof)
        _, gs = contour_projector_series(state, prof, r_max=4)
        scale = max(np.max(np.abs(gm)) for gm in gs)
        pair_norm = pair_norms(state.rows)
        for r, g_r in enumerate(gs, start=1):
            mask = r * spec1.Q < pair_norm
            assert np.all(np.abs(g_r[mask]) <= 1e-12 * scale)

    def test_matches_oracle_eigenprojector(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = projector_level(1, kap, spec, prof)
        h = assemble(kap, res.rows, spec, params)
        vals, vecs = np.linalg.eigh(h.entries)
        pos = int(np.argmin(np.abs(vals - res.lam)))
        v = vecs[:, pos]
        assert np.linalg.norm(res.projector - np.outer(v, v.conj()), 2) <= 1e-7

    def test_projector_quadrature_route(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(1, kap, spec, prof)
        res = generic_step(state, prof, with_projector=True)
        e_quad, _ = contour_projector_series(state, prof, r_max=24)
        assert np.max(np.abs(e_quad - res.projector)) <= 1e-9


def dense_reference(state, prof):
    """Reference: the recursion on dense arrays, W~ = U^H W U formed as a
    d x d matrix.  Returns (lam, unit vector, [v_0 .. v_r], dense U)."""
    u = state.u_full
    w_tilde = u.conj().T @ state.w.toarray() @ u
    t, d = state.target, state.dim
    denom = state.block_vals - state.lambda0
    inv = np.zeros(d)
    nz = np.abs(denom) > 0
    inv[nz] = 1.0 / denom[nz]
    inv[t] = 0.0
    vs = [np.zeros(d, dtype=complex)]
    vs[0][t] = 1.0
    g = np.zeros(prof.r_max)
    for n in range(1, prof.r_max + 1):
        rhs = -(w_tilde @ vs[n - 1])
        for j in range(1, n):
            rhs += g[j - 1] * vs[n - j]
        g[n - 1] = (-rhs[t]).real
        rhs[t] += -rhs[t]
        vs.append(rhs * inv)
    lam = state.lambda0 + float(np.sum(g[1:]))
    v = u @ np.sum(vs, axis=0)
    return lam, v / np.linalg.norm(v), vs, u


def outer_product_orders(state, prof, n_store):
    """Reference: the order vectors by the dense recursion, then every
    projector order as a sum of outer products in the eigenbasis, rotated
    back as a d x d matrix.  Returns (lam, vector, G_1..G_n, norms)."""
    lam, v, vs, u = dense_reference(state, prof)
    d = state.dim
    c = [sum(np.vdot(vs[a], vs[nn - a]) for a in range(nn + 1)) for nn in range(n_store + 1)]
    d_ser = np.zeros(n_store + 1, dtype=complex)
    d_ser[0] = 1.0
    for nn in range(1, n_store + 1):
        d_ser[nn] = -sum(c[j] * d_ser[nn - j] for j in range(1, nn + 1))
    mats = []
    for r in range(1, n_store + 1):
        acc = np.zeros((d, d), dtype=complex)
        for a in range(r + 1):
            for b in range(r - a + 1):
                acc += d_ser[r - a - b] * np.outer(vs[a], vs[b].conj())
        mats.append(u @ acc @ u.conj().T)
    return lam, v, mats, np.array([np.linalg.norm(m) for m in mats])


def assert_vectors_close(v, ref):
    """Entries within 1e-13 of the largest, exact zeros in the same places."""
    assert np.array_equal(v == 0, ref == 0)
    assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFactoredOrders:
    """G_r = V~ C_r V~^H against the outer-product reference.  The engine
    applies sparse W and U to vectors where the reference multiplies dense
    matrices: only the summation order differs (CSR skips exact-zero
    products) and no term is dropped, so values agree to a few ulps and
    exact zeros stay exact."""

    def check(self, state, prof, n_orders):
        res = generic_step(state, prof, with_projector=True)
        eig = generic_step(state, prof, with_projector=False)
        lam, v, mats, norms = outer_product_orders(state, prof, n_orders)
        # engine-internal identities are exact
        assert res.lam == eig.lam
        assert np.array_equal(res.vector, eig.vector)
        assert np.array_equal(res.projector, np.outer(res.vector, res.vector.conj()))
        # engine against the dense reference
        assert abs(res.lam - lam) <= 1e-15 * abs(lam)
        assert_vectors_close(res.vector, v)
        assert len(res.g_matrices) == n_orders
        for g_r, ref in zip(res.g_matrices, mats):
            assert np.array_equal(g_r == 0, ref == 0)
            assert np.max(np.abs(g_r - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.allclose(res.g_norms, norms, rtol=1e-13, atol=0.0)

    def test_level1_all_orders(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params), rng)
        state = build_state(1, k * np.array([math.cos(phi), math.sin(phi)]), spec, prof)
        assert state.dim == 113
        self.check(state, prof, prof.r_max)

    def test_level2_blocks(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(2, kap, spec, prof)
        assert state.dim == 1121
        assert any(len(pos) > 1 for pos in state.blocks)
        self.check(state, prof, 8)


def in_block_model(h, blocks):
    """The diagonal plus every in-block entry of h, zero elsewhere."""
    h_model = np.zeros_like(h)
    for pos in blocks:
        sel = np.ix_(pos, pos)
        h_model[sel] = h[sel]
    return h_model


class TestSparseState:
    def level2_point(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        return prof, k * np.array([math.cos(phi), math.sin(phi)])

    def test_w_is_the_cross_block_coupling(self, spec, params, rng):
        prof, kap = self.level2_point(spec, params, rng)
        state = build_state(2, kap, spec, prof)
        h = assemble(kap, state.rows, spec, params).entries
        assert np.array_equal(state.w.toarray(), h - in_block_model(h, state.blocks))
        owner = np.empty(state.dim, dtype=np.int64)
        for b, pos in enumerate(state.blocks):
            owner[pos] = b
        coo = state.w.tocoo()
        assert coo.nnz > 0
        assert np.all(owner[coo.row] != owner[coo.col])  # no diagonal or in-block entry

    @pytest.mark.parametrize("level", [1, 2])
    def test_h_full_is_assemble(self, level, spec, params, rng):
        prof, kap = self.level2_point(spec, params, rng)
        state = build_state(level, kap, spec, prof)
        h = assemble(kap, state.rows, spec, params).entries
        assert np.array_equal(state.section.toarray(), h)

    def test_block_eigenvalues_from_the_dense_section(self, spec, params, rng):
        # each multi-index block is eigendecomposed from exactly the entries
        # of the dense section, so its eigenvalues are the same bits
        prof, kap = self.level2_point(spec, params, rng)
        state = build_state(2, kap, spec, prof)
        h = state.section.toarray()
        multi = [pos for pos in state.blocks if len(pos) > 1]
        assert multi
        for pos in multi:
            assert np.array_equal(
                np.linalg.eigh(h[np.ix_(pos, pos)])[0], state.block_vals[pos]
            )

    def test_sparse_matches_dense_level2(self, spec, params, rng):
        for _ in range(3):
            prof, kap = self.level2_point(spec, params, rng)
            state = build_state(2, kap, spec, prof)
            res = generic_step(state, prof, with_projector=False)
            lam, v, _, _ = dense_reference(state, prof)
            assert abs(res.lam - lam) <= 1e-15 * abs(lam)
            assert_vectors_close(res.vector, v)


class TestBlockPartition:
    def chain(self):
        h = np.diag([0.0, 0.3, 0.7, 1.2]).astype(complex)
        for a in range(3):
            h[a, a + 1] = h[a + 1, a] = 0.1
        return h, indices_to_array([LatticeIndex((a, 0), (0, 0)) for a in range(4)])

    @pytest.mark.parametrize(
        "blocks", [[[0, 1], [1, 2], [3]], [[0, 1], [3]], [[0, 1], [2], [3], [4]]]
    )
    def test_toy_state_needs_a_partition(self, blocks):
        # blocks that overlap, leave a position out or name one past the
        # matrix would give a U that is not unitary, so they must not pass
        h, idx = self.chain()
        prof = make_profile(10.0)
        with pytest.raises(ValueError, match="exactly once"):
            toy_state(h, blocks, idx, target_value=0.0, profile=prof)
        state = toy_state(h, [[0, 1], [2], [3]], idx, target_value=0.0, profile=prof)
        u = state.u_full
        assert np.allclose(u.conj().T @ u, np.eye(4), rtol=0.0, atol=1e-15)

    def test_overlapping_projector_blocks_raise(self, spec, params, rng, monkeypatch):
        # one label per row cannot hold a row of two blocks: the overlap is
        # raised, not resolved by whichever block is labelled last
        from qp2d.resonance import Block, BlockProjector

        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        real = perturb.assemble_projector

        def overlapping(*args, **kwargs):
            proj = real(*args, **kwargs)
            core = proj.blocks[0]
            return BlockProjector(
                proj.blocks + (Block("m1-box", core.positions[:2]),)
            )

        level2_geometry(phi, spec, prof)
        monkeypatch.setattr(perturb, "assemble_projector", overlapping)
        with pytest.raises(InvariantViolation, match="block"):
            level2_geometry(phi, spec, prof)


def resonance_block_state(state, kap, geometry, prof):
    """The state at kap with one eigh per multi-row resonance block of the
    geometry, as before blocks were split into coupling components: the
    reference for the split."""
    h = state.section.toarray()
    labels = geometry.block_labels
    vals = state.diag.real.copy()
    couplings, vecs = [], []
    firsts, sizes = np.unique(labels, return_counts=True)
    for first in firsts[sizes > 1]:
        pos = np.flatnonzero(labels == first)
        blk = h[np.ix_(pos, pos)]
        bv, bu = np.linalg.eigh(blk)
        vals[pos] = bv
        couplings.append((pos[None], (blk - np.diag(np.diag(blk)))[None]))
        vecs.append(bu[None])
    t, lam0, radius = perturb._aim_nearest(
        vals[None], geometry.core_positions, np.array([kap @ kap]), prof.contour_margin
    )
    return replace(
        state, labels=labels, couplings=couplings, block_vals=vals, vecs=vecs,
        target=int(t[0]), lambda0=float(lam0[0]),
        contour=perturb.Contour(float(lam0[0]), float(radius[0])),
    )


def assert_phase_aligned(v, ref, tol):
    phase = np.vdot(v, ref)
    assert np.max(np.abs(v * phase / abs(phase) - ref)) <= tol


class TestComponentBlocks:
    """Each block of the model is eigendecomposed per connected component of
    its own coupling.  The model is the same operator entry for entry; the
    eigenpairs come from smaller LAPACK inputs, so lambda may move by a few
    ulp (bound: 16 ulp) and no rejection may move."""

    ULPS = 16

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except (ContourHit, NonConvergent) as exc:
            return type(exc)

    @staticmethod
    def stopped_eigenvalue(state, prof):
        # LevelEvaluator.eigenvalue on a given state: the stopped series
        (res,), _, _ = perturb._columns(
            state.w, state.couplings, [u[None] for u in state.vecs], state.block_vals[None],
            np.array([state.target]), np.array([state.lambda0]), [state.contour.radius],
            prof.r_max, True, prof,
        )
        if isinstance(res, Exception):
            raise res
        return res[0]

    def test_model_unchanged_and_lambda_close(self, spec, params, rng):
        from scipy.sparse.csgraph import connected_components

        rejected = 0
        for k in [15.0, 40.0]:
            prof = make_profile(k)
            om8 = build_omega1(k, prof, params, 8.0)
            for _ in range(2):
                phi = admissible_phi(om8, rng)
                geometry = level2_geometry(phi, spec, prof)
                wide = replace(prof, contour_margin=1.0)
                ang = phi + rng.uniform(-1e-4, 1e-4, 6)
                pts = (k + rng.uniform(-0.05, 0.05, 6))[:, None] * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=1
                )
                # the same model as the resonance partition's, every state
                # block connected and inside one resonance block
                state = LevelEvaluator(spec, prof, geometry).state(pts[0])
                h = state.section.toarray()
                same = geometry.block_labels[:, None] == geometry.block_labels[None, :]
                assert np.array_equal(in_block_model(h, state.blocks), np.where(same, h, 0))
                for pos in state.blocks:
                    assert len(np.unique(geometry.block_labels[pos])) == 1
                    sub = sp.csr_matrix(h[np.ix_(pos, pos)] != 0)
                    assert len(pos) == 1 or connected_components(sub, directed=False)[0] == 1
                for pr, kaps in [(prof, pts), (wide, pts[:2])]:
                    ev = LevelEvaluator(spec, pr, geometry)
                    for kap in kaps:
                        state = ev.state(kap)
                        ref = resonance_block_state(state, kap, geometry, pr)
                        assert ref.target in geometry.core_positions
                        got = self.outcome(lambda: ev.eigenvalue(kap))
                        want = self.outcome(lambda: self.stopped_eigenvalue(ref, pr))
                        full = self.outcome(lambda: generic_step(state, pr, with_projector=False))
                        full_ref = self.outcome(lambda: generic_step(ref, pr, with_projector=False))
                        if isinstance(want, type):
                            rejected += 1
                            assert got is want and full is full_ref
                            continue
                        tol = self.ULPS * np.spacing(want)
                        assert abs(got - want) <= tol
                        assert abs(full.lam - full_ref.lam) <= tol
                        assert_phase_aligned(full.vector, full_ref.vector, 1e-11)
        assert rejected > 0

    def test_stacked_eigh_is_per_matrix_eigh(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
        state = ev.state(k * np.array([math.cos(phi), math.sin(phi)]))
        h = state.section.toarray()
        assert len(state.couplings) > 1
        for pos, _ in state.couplings:
            stack = np.stack([h[np.ix_(p, p)] for p in pos])
            vals, vecs = np.linalg.eigh(stack)
            for c, p in enumerate(pos):
                one_vals, one_vecs = np.linalg.eigh(stack[c])
                assert np.array_equal(vals[c], one_vals)
                assert np.array_equal(vecs[c], one_vecs)
                assert np.array_equal(state.block_vals[p], one_vals)


class TestLevels:
    def test_diagonal_fast_path_identical(self, spec, params, rng):
        # the evaluator's allocation-light level-1 recursion must reproduce
        # the generic engine bit for bit
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        for _ in range(5):
            phi = admissible_phi(om, rng)
            kap = (k + rng.uniform(-1e-3, 1e-3)) * np.array(
                [math.cos(phi), math.sin(phi)]
            )
            ev = LevelEvaluator(spec, prof)
            fast = ev.eigenvalue(kap)
            slow = generic_step(
                ev.state(kap), prof, with_projector=False
            ).lam
            assert fast == slow

    @pytest.mark.parametrize("level", [1, 2])
    def test_batch_eigenvalues_identical(self, level, spec, params, rng, monkeypatch):
        # a block of kappas gives each row's one-column value or rejection
        # bit for bit, whatever the block's make-up, at either level
        k = 40.0
        prof = make_profile(k)
        if level == 1:
            ev = LevelEvaluator(spec, prof)
            phis = rng.uniform(0, TWO_PI, 240)
            radii = k + rng.uniform(-0.05, 0.05, 240)
            kaps = radii[:, None] * np.stack([np.cos(phis), np.sin(phis)], axis=1)
            # kappa = -p_m/2 puts the free level of m on the target's exactly
            m = indices_to_array([LatticeIndex((1, 0), (0, 0))])
            kaps[7] = -0.5 * dual_array(m, params)[0]
            # near-resonant kappas (off -p_m/2 along p_m) stop after more
            # orders than far ones
            near = kaps[7] + np.array([[0.1, 0.0], [0.2, 0.0], [-0.3, 0.0], [0.5, 0.0]])
        else:
            phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
            ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
            ang = phi + rng.uniform(-1e-4, 1e-4, 24)
            kaps = (k + rng.uniform(-0.05, 0.05, 24))[:, None] * np.stack(
                [np.cos(ang), np.sin(ang)], axis=1
            )
            # across the resonance line 2 kappa.p + |p|^2 = 0 of another row
            # of the target's component, the target moves to another position
            # and the series takes more orders
            state = ev.state(kaps[0])
            assert state.target == len(ev.rows) // 2  # the zero row's
            comp = np.flatnonzero(state.labels == state.labels[state.target])
            p = dual_array(ev.rows[comp[comp != state.target]], params)
            pp = np.sum(p * p, axis=1)
            on = kaps[0] - ((2 * p @ kaps[0] + pp) / (2 * pp))[:, None] * p
            unit = p / np.sqrt(pp)[:, None]
            near = np.concatenate([on - 1e-3 * unit, on + 1e-3 * unit])
            kaps = np.concatenate([kaps, near])

        def one(kap):
            try:
                return ev.eigenvalue(kap)
            except (ContourHit, NonConvergent) as exc:
                return type(exc)

        def typed(values):
            return [type(v) if isinstance(v, Exception) else v for v in values]

        want = [one(kap) for kap in kaps]
        if level == 1:
            assert want[7] is ContourHit
        assert typed(ev.eigenvalues(kaps)) == want
        assert typed(ev.eigenvalues(kaps[::-1]))[::-1] == want
        assert typed(ev.eigenvalues(kaps[5:9])) == want[5:9]

        # a block of near and far kappas still gives each column its
        # one-kappa value bit for bit, and each block of it runs as many
        # orders as its slowest column
        far = kaps[:6]
        assert all(isinstance(w, float) for w in want[:6])
        mixed = np.concatenate([near[:2], far[:3], near[2:], far[3:]])
        if level == 2:
            assert len({ev.state(kap).target for kap in mixed}) >= 2
        calls = []
        real = perturb._rs_orders

        def counting(apply_w, *args):
            def counted(v):
                calls.append(1)
                return apply_w(v)

            return real(counted, *args)

        monkeypatch.setattr(perturb, "_rs_orders", counting)
        want, orders = [], []
        for kap in mixed:
            calls.clear()
            want.append(ev.eigenvalue(kap))
            orders.append(len(calls))
        near_orders = orders[:2] + orders[5 : len(near) + 3]
        far_orders = orders[2:5] + orders[len(near) + 3 :]
        assert max(far_orders) < max(near_orders) < prof.r_max
        assert len(set(orders)) >= 3
        step = perturb._BLOCK_ENTRIES // len(ev.rows)
        blocks = range(0, len(mixed), step)
        calls.clear()
        assert ev.eigenvalues(mixed) == want
        assert len(calls) == sum(max(orders[at : at + step]) for at in blocks)

    def test_divergent_column_in_a_block(self, spec, params, rng):
        # at kappa = -p_m/2, m = ((-1, -3), (0, 0)), the level-1 series
        # diverges until its coefficients are no longer real: the column is
        # NonConvergent, and the rest of its block is unchanged bit for bit
        k = 40.0
        prof = make_profile(k)
        ev = LevelEvaluator(spec, prof)
        bad = -0.5 * dual_vector(LatticeIndex((-1, -3), (0, 0)), params).p
        phis = rng.uniform(0, TWO_PI, 5)
        kaps = np.concatenate([k * np.stack([np.cos(phis), np.sin(phis)], axis=1), [bad]])
        got = ev.eigenvalues(kaps)
        assert got[:5] == [ev.eigenvalue(kap) for kap in kaps[:5]]
        assert isinstance(got[5], NonConvergent)
        state = ev.state(bad)
        with pytest.raises(NonConvergent):
            generic_step(state, prof, with_projector=False)
        # both defects are there: decay is judged first
        lam0 = np.array([state.lambda0])
        inv = perturb._reduced_inverse(state.block_vals[None], lam0, [state.target])
        g, _, real = perturb._rs_orders(state.w.dot, inv, [state.target], prof.r_max)
        assert not real[0]
        with pytest.raises(NonConvergent):
            perturb._decay(g[:, 0], state.lambda0, prof)

    def test_no_sparse_matrix_per_kappa(self, spec, params, rng, monkeypatch):
        # the model eigenbasis is applied from its eigh stacks: a level-2
        # eigenvalues block and generic_step without the oracle build no
        # scipy.sparse matrix
        from scipy.sparse import _base

        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
        ang = phi + rng.uniform(-1e-4, 1e-4, 8)
        kaps = k * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        state = ev.state(kaps[0])
        assert state.couplings
        built = []
        real_init = _base._spbase.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(_base._spbase, "__init__", counting)
        assert all(isinstance(v, float) for v in ev.eigenvalues(kaps))
        generic_step(state, prof, with_projector=False)
        assert built == []
        assert state.section.nnz > 0 and built  # the oracle's CSR section is counted

    def test_level2_same_code_path(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        phi = admissible_phi(om8, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
        state1, state2 = ev.state(kap), ev.state(kap)
        r1 = generic_step(state1, prof, with_projector=False)
        r2 = generic_step(state2, prof, with_projector=False)
        assert r1.lam == r2.lam and np.array_equal(r1.g, r2.g)

    def test_w_identity_entrywise(self, spec, params, rng):
        # W = P(r1) V P(r1) - sum of in-block pieces, exactly
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        phi = admissible_phi(om8, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        state = build_state(2, kap, spec, prof)
        h_full = state.section.toarray()
        h_model = in_block_model(h_full, state.blocks)
        w = state.w.toarray()
        assert np.array_equal(h_model + w, h_full)
        v_full = h_full - np.diag(np.diag(h_full))
        v_model = h_model - np.diag(np.diag(h_model))
        assert np.array_equal(w, v_full - v_model)

    def test_level3_toy_unique_eigenvalue(self, spec, params, rng):
        # structurally higher level: block model over a small box with an
        # artificial second-scale split, oracle sees one eigenvalue inside
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        idx = enumerate_box_array(3)
        h = assemble(kap, idx, spec, params).entries
        norms = triple_norm_array(idx)
        core = np.flatnonzero(norms <= 2).tolist()
        rest = [[i] for i in np.flatnonzero(norms > 2).tolist()]
        state = toy_state(
            h, [core] + rest, idx, target_value=float(kap @ kap), profile=prof
        )
        res = generic_step(state, prof, check_oracle=True)
        assert res.oracle_count == 1
        assert abs(res.lam - res.oracle_lambda) <= max(
            1e-9 * k * k, 10 * res.tail_estimate
        )


class TestLambdaOnlyStop:
    """The eigenvalue-only route stops a series once later orders cannot move
    lam: it must still give the 30-order generic_step lam, or its rejection."""

    @staticmethod
    def outcome(fn):
        try:
            return fn()
        except (ContourHit, NonConvergent) as exc:
            return type(exc)

    def test_matches_full_series(self, spec, params, rng):
        m = indices_to_array([LatticeIndex((1, 0), (0, 0))])
        half = -0.5 * dual_array(m, params)[0]
        seen = {1: [], 2: []}
        for k in [15.0, 25.0, 40.0, 60.0]:
            prof = make_profile(k)
            om8 = build_omega1(k, prof, params, 8.0)
            phis = rng.uniform(0, TWO_PI, 30)
            level1 = (k + rng.uniform(-0.05, 0.05, 30))[:, None] * np.stack(
                [np.cos(phis), np.sin(phis)], axis=1
            )
            # the exact hit, and near-resonances that do not converge
            level1 = np.concatenate([level1, [half, half + [1e-3, 0.0]]])
            if k == 40.0:
                # -p_m/2 and points 1e-3 off it, on and off the resonance line,
                # for the exclusion-zone rows m outside the core box: their
                # free levels set the contour radius of the core-box series
                rows = enumerate_box_array(prof.tilde_radius)
                p = dual_array(rows[triple_norm_array(rows) > prof.core_radius], params)
                unit = p / np.linalg.norm(p, axis=1)[:, None]
                on = unit[:, ::-1] * [-1.0, 1.0]
                level1 = np.concatenate([level1, -0.5 * p, -0.5 * p + 1e-3 * on, -0.5 * p + 1e-3 * unit])
            cases = [(LevelEvaluator(spec, prof), prof, level1)]
            for _ in range(2):
                phi = admissible_phi(om8, rng)
                ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
                ang = phi + rng.uniform(-1e-4, 1e-4, 9)
                pts = (k + rng.uniform(-0.05, 0.05, 9))[:, None] * np.stack(
                    [np.cos(ang), np.sin(ang)], axis=1
                )
                cases.append((ev, prof, pts))
            # a contour as wide as the gap touches the model spectrum
            wide = replace(prof, contour_margin=1.0)
            cases.append((LevelEvaluator(spec, wide, ev.geometry), wide, pts[:2]))
            for ev, pr, kaps in cases:
                for kap in kaps:
                    got = self.outcome(lambda: ev.eigenvalue(kap))
                    want = self.outcome(
                        lambda: generic_step(ev.state(kap), pr, with_projector=False).lam
                    )
                    assert got == want
                    seen[1 if ev.geometry is None else 2].append(want)
        assert len(seen[1]) + len(seen[2]) >= 200
        kinds = {lv: {w if isinstance(w, type) else float for w in seen[lv]} for lv in seen}
        assert kinds == {1: {float, ContourHit, NonConvergent}, 2: {float, ContourHit}}

    def test_floor_of_four_orders(self):
        # g_1 = 0 and g_2 below ulp(lam0)/16 must not stop the series: the
        # order-4 coefficient, far above that, is still computed
        lam0, eps, c = 1600.0, 1e-8, 1e2
        tol = np.spacing(lam0) / 16
        w = np.array([[0.0, eps, 0.0], [eps, 0.0, c], [0.0, c, 0.0]], dtype=complex)
        inv = np.array([[0.0], [1.0], [1.0]])  # one column, target 0

        def run(w, lam0=None):
            calls = []

            def apply_w(v):
                calls.append(1)
                return w @ v

            g, _, _ = perturb._rs_orders(apply_w, inv, [0], 12, lam0)
            return g[:, 0], len(calls)

        full, _ = run(w)
        assert full[0] == 0.0 and 0.0 < abs(full[1]) < tol < abs(full[3])
        g, orders = run(w, lam0)
        assert orders > 4 and np.array_equal(g[:4], full[:4])
        # with every order below the bound it stops at the floor, not before
        g, orders = run(1e-6 * w, lam0)
        assert orders == 4 and not g[4:].any()

    def test_sum_outside_the_contour_is_rejected(self, spec, params):
        # here the level-2 magnitudes zig-zag upward past _decay (the full
        # series sums to ~1e12) and the stopped one lands 1.1e-6 from lam0:
        # both outside the contour radius 5.4e-7, so both must raise
        prof = make_profile(15.0)
        ev = LevelEvaluator(spec, prof, level2_geometry(5.9254, spec, prof))
        kap = -0.5 * dual_vector(LatticeIndex((-2, -2), (0, 0)), params).p
        state = ev.state(kap)
        assert state.contour.radius < 1e-6
        with pytest.raises(NonConvergent, match="outside the contour"):
            generic_step(state, prof, with_projector=False)
        with pytest.raises(NonConvergent, match="outside the contour"):
            ev.eigenvalue(kap)


class TestWindowedOracle:
    """The component oracle in generic_step against dense eigvalsh of the
    same section, kept here as the independent reference."""

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("k", [15.0, 25.0, 40.0, 60.0])
    def test_matches_dense(self, level, k, spec, params, rng):
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = eigenvalue_level(level, kap, spec, prof, check_oracle=True)
        state = build_state(level, kap, spec, prof)
        vals = np.linalg.eigvalsh(state.section.toarray())
        inside = vals[np.abs(vals - state.contour.center) <= state.contour.radius]
        assert state.dim == (113 if level == 1 else 1121)
        assert res.oracle_count == len(inside) == 1
        assert abs(res.oracle_lambda - inside[0]) <= 1e-13 * abs(inside[0])

    def test_level2_diagonalizes_only_near_components(self, spec, params, rng, monkeypatch):
        # the default potential splits the d = 1121 section into 81 coupling
        # components of at most 33 rows: Gershgorin leaves a few of them,
        # each one dense stack, and no sparse LU or Arnoldi runs
        import scipy.sparse.linalg as spl

        def no_sparse(*args, **kwargs):
            raise AssertionError("the sparse window ran on small components")

        monkeypatch.setattr(spl, "splu", no_sparse)
        monkeypatch.setattr(spl, "eigsh", no_sparse)
        rows = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            rows.append(int(np.prod(a.shape[:-1])))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        res = eigenvalue_level(
            2, k * np.array([math.cos(phi), math.sin(phi)]), spec, prof, check_oracle=True
        )
        assert len(res.rows) == 1121 and res.oracle_count == 1
        assert 0 < sum(rows) <= 1121 // 10

    def test_repeats_are_bit_identical(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        state = build_state(2, k * np.array([math.cos(phi), math.sin(phi)]), spec, prof)
        mat = FiberMatrix(rows=state.rows, kappa=np.zeros(2), entries=state.section)
        runs = [
            eigvals_oracle(mat, state.contour.center, state.contour.radius).tobytes()
            for _ in range(10)
        ]
        assert len(runs[0]) > 0 and len(set(runs)) == 1

    @staticmethod
    def planted_double(rng, prof):
        """H = block_diag(A, A) with the first copy as singletons and the
        second as one block: the target, an eigenvalue of that block, has
        W~ v_0 = 0 (an all-zero, converged series), while its contour holds
        the eigenvalue twice."""
        n = 20
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = np.diag(np.arange(n, dtype=float)) + 0.05 * (c + c.conj().T)
        h = np.zeros((2 * n, 2 * n), dtype=complex)
        h[:n, :n] = h[n:, n:] = a
        blocks = [[i] for i in range(n)] + [list(range(n, 2 * n))]
        idx = indices_to_array([LatticeIndex((i, 0), (0, 0)) for i in range(2 * n)])
        lam = float(np.linalg.eigvalsh(a)[n // 2])
        return toy_state(h, blocks, idx, target_value=lam, profile=prof)

    def test_planted_double_is_not_unique(self, rng):
        prof = make_profile(10.0)
        state = self.planted_double(rng, prof)
        mat = FiberMatrix(rows=state.rows, kappa=np.zeros(2), entries=state.section)
        assert len(eigvals_oracle(mat, state.contour.center, state.contour.radius)) == 2
        with pytest.raises(NotUnique):
            generic_step(state, prof, with_projector=False, check_oracle=True)

    def test_planted_double_past_cap_from_count(self, rng, monkeypatch):
        # with the cap below the two 20-row coupling components, both go by
        # the sparse window, and its certified inertia count alone raises
        # NotUnique, before Arnoldi runs
        prof = make_profile(10.0, eig_cap=10)
        state = self.planted_double(rng, prof)

        def no_arnoldi(*args, **kwargs):
            raise AssertionError("Arnoldi ran after a certified count of two")

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_arnoldi)
        with pytest.raises(NotUnique, match="^2 oracle eigenvalues"):
            generic_step(state, prof, with_projector=False, check_oracle=True)

    def test_larger_box_level2(self, spec, params, rng):
        # d = 4817 is beyond the dense cap: the sparse route decides alone
        k = 40.0
        prof = make_profile(k, box_r1=6)
        phi = admissible_phi(build_omega1(k, prof, params, 8.0), rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        res = eigenvalue_level(2, kap, spec, prof, check_oracle=True)
        assert len(res.rows) == 4817 > prof.eig_cap
        assert res.oracle_count == 1
        assert res.delta_vs_oracle <= max(1e-9 * k * k, 10 * res.tail_estimate)


class TestDerivatives:
    def test_zero_potential_exact(self, zero_spec, params, rng):
        k = 30.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        dk, dphi = derivative_probe(1, kap, zero_spec, prof, h=1e-5)
        assert dk == pytest.approx(2 * k, rel=1e-9)
        assert dphi == pytest.approx(0.0, abs=1e-4)

    def test_leading_term(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        for _ in range(5):
            phi = admissible_phi(om, rng)
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            dk, _ = derivative_probe(1, kap, spec, prof, h=1e-5)
            assert dk == pytest.approx(2 * k, rel=1e-3)

    def test_against_analytic_second_order(self, spec, params, rng):
        # analytic kappa-derivative of the second-order closed form,
        # compared with the finite difference of the full series
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        phi = admissible_phi(om, rng)
        nu = np.array([math.cos(phi), math.sin(phi)])

        def lam_series(r):
            return float(r * r) + g2_closed_form(r * nu, spec, prof.core_radius)

        h = 1e-4
        expected = (lam_series(k + h) - lam_series(k - h)) / (2 * h)
        dk, _ = derivative_probe(1, k * nu, spec, prof, h=h)
        assert dk == pytest.approx(expected, abs=1e-6 * max(1.0, abs(expected)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_batch_matches_per_probe_series(self, spec, params, rng, n):
        # one batch call gives the per-probe generic_step values bit for bit
        k, h = 40.0, 1e-5
        prof = make_profile(k)
        om = build_omega1(k, prof, params, 8.0)
        for _ in range(3):
            phi = admissible_phi(om, rng)
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            r, p = float(np.hypot(kap[0], kap[1])), math.atan2(kap[1], kap[0])
            # derivative_probe's own evaluator: level 2 at the point's angle
            geo = level2_geometry(p % TWO_PI, spec, prof) if n == 2 else None
            ev = LevelEvaluator(spec, prof, geo)

            def at(rr, pp):
                pt = rr * np.array([math.cos(pp), math.sin(pp)])
                return generic_step(ev.state(pt), prof, with_projector=False).lam

            expected = (
                (at(r + h, p) - at(r - h, p)) / (2.0 * h),
                (at(r, p + h) - at(r, p - h)) / (2.0 * h),
            )
            assert derivative_probe(n, kap, spec, prof, h=h) == expected

    def test_angular_derivative_small_trend(self, spec, params, rng):
        sups = []
        for k in [15.0, 25.0, 40.0, 60.0]:
            prof = make_profile(k)
            om = build_omega1(k, prof, params)
            worst = 0.0
            rng_local = np.random.default_rng(int(k))
            for _ in range(5):
                phi = admissible_phi(om, rng_local)
                kap = k * np.array([math.cos(phi), math.sin(phi)])
                dk, dphi = derivative_probe(1, kap, spec, prof, h=1e-5)
                worst = max(worst, abs(dphi) / abs(dk))
            sups.append(worst)
        # relative angular sensitivity stays far below radial
        assert all(s < 0.05 for s in sups)


GUARDS_SCRIPT = """
import sys
import numpy as np
from qp2d.lattice import LatticeIndex, QPParams, indices_to_array
from qp2d.perturb import contour_coeff_series, generic_step, toy_state
from qp2d.potential import InvariantViolation, PotentialSpec, evaluate
from qp2d.profile import make_profile

if not sys.flags.optimize:
    sys.exit("run without -O: assert statements are still live")
prof = make_profile(10.0)
# non-Hermitian coupling: the second-order coefficient is imaginary
h = np.array([[0.0, 0.1], [0.1j, 1.0]])
idx = indices_to_array([LatticeIndex((0, 0), (0, 0)), LatticeIndex((1, 0), (0, 0))])
state = toy_state(h, [[0], [1]], idx, target_value=0.0, profile=prof)
g = LatticeIndex((1, 0), (0, 0))
params = QPParams(quadratic=(-1, 1, 2, 1), mu=2.0)
spec = PotentialSpec(coeffs={g: 0.1, -g: 0.1j}, Q=1, generators=(), params=params)
for name, call in [
    ("generic_step", lambda: generic_step(state, prof, with_projector=False)),
    ("contour_coeff_series", lambda: contour_coeff_series(state, prof, r_max=4)),
    ("evaluate", lambda: evaluate(spec, np.array([0.1, 0.2]))),
]:
    try:
        call()
        print(name, "returned")
    except InvariantViolation:
        print(name, "raised")
"""


class TestRuntimeGuards:
    def test_not_a_rejection_type(self):
        from qp2d.potential import InvariantViolation

        assert not issubclass(InvariantViolation, (ValueError, ArithmeticError))

    def test_guards_hold_under_optimize(self):
        # python -O strips assert statements; the guards must still raise
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", GUARDS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n")[:3] == [
            "generic_step raised",
            "contour_coeff_series raised",
            "evaluate raised",
        ]
