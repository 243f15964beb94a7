import dataclasses
import math

import numpy as np
import pytest

from qp2d.lattice import (
    LatticeIndex,
    ZERO_INDEX,
    array_to_indices,
    dual_array,
    enumerate_box_array,
    indices_to_array,
    triple_norm_array,
)
from qp2d.multiscale import (
    RegionComponent,
    RegionMap,
    boundary_check,
    build_m2set,
    local_pole_discs,
    region_map,
    region_stats,
    second_resonant_set,
)
from qp2d.potential import build
from qp2d.profile import make_profile
from qp2d.resonance import OverlapDetected, ResonantBase, build_omega1, classify

TWO_PI = 2.0 * math.pi


def synthetic_m2(params, profile, rng, n_dense=9, n_sparse=5):
    """Deep-resonance stand-in: one dense dual-plane clump plus scattered
    points, all outside the inner box."""
    rows = enumerate_box_array(profile.box_r2)
    norms = triple_norm_array(rows)
    duals = dual_array(rows, params)
    outer = (norms > profile.box_r1) & (norms <= profile.box_r2 - 1)
    rows_o, duals_o = rows[outer], duals[outer]
    center = duals_o[rng.integers(len(rows_o))]
    d2 = np.linalg.norm(duals_o - center, axis=1)
    dense = np.argsort(d2)[:n_dense]
    far = np.nonzero(d2 > 10 * profile.cell_black)[0]
    sparse = rng.choice(far, size=min(n_sparse, len(far)), replace=False)
    picked = sorted(set(dense.tolist()) | set(sparse.tolist()))
    return rows_o[picked]


class TestSecondResonantSet:
    def test_empty_decomposition_gives_no_discs(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        while True:
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            if not len(classify(phi0, k, spec, prof).m_set):
                break
        assert local_pole_discs(phi0, k, spec, prof) == []

    def test_component_size_bounded_by_disc_budget(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        grid = [
            float(p)
            for p in rng.uniform(0, TWO_PI, size=40)
            if om8.contains(float(p))
        ]
        o2, omega2 = second_resonant_set(k, grid, spec, prof)
        n_discs = 0
        for phi0 in grid:
            try:
                n_discs += len(local_pole_discs(phi0, k, spec, prof))
            except (ResonantBase, OverlapDetected):
                pass
        for a, b in o2.intervals:
            assert (b - a) <= max(n_discs, 1) * 2 * prof.o2_disc_radius + 1e-12
        # omega2 never intersects the excised set
        assert omega2.minus(o2).measure == pytest.approx(omega2.measure)

    def test_omega2_inside_expanded_omega1(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om1 = build_omega1(k, prof, params)
        grid = np.linspace(0, TWO_PI, 50, endpoint=False)
        _, omega2 = second_resonant_set(k, grid, spec, prof)
        allowed = om1.expanded(prof.interval_width / 2.0)
        assert omega2.minus(allowed).measure <= 1e-12


class TestM2Set:
    def test_disjoint_from_inner_box(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        checked = 0
        for _ in range(200):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            try:
                m2, dec = build_m2set(phi0, k, None, spec, prof)
            except (ResonantBase, OverlapDetected):
                continue
            assert np.all(triple_norm_array(m2) > prof.box_r1)
            checked += 1
            if checked >= 3:
                break
        assert checked > 0

    def test_membership_blockwise(self, spec, params, rng):
        # membership is decided per component, so windows are all-in or
        # all-out
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        for _ in range(300):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            try:
                m2, dec = build_m2set(phi0, k, None, spec, prof)
            except (ResonantBase, OverlapDetected):
                continue
            m2set = set(array_to_indices(m2))
            for cls in dec.classes:
                for sub in cls.subsets:
                    if sub.strength == "weak":
                        continue
                    outer = triple_norm_array(sub.members) > prof.box_r1
                    inside = array_to_indices(sub.members[outer])
                    got = [m in m2set for m in inside]
                    assert len(set(got)) <= 1
            return
        pytest.fail("no sampled base angle gave a deep-resonance set")


class TestRegionMap:
    def test_empty_m2(self, spec, params):
        prof = make_profile(40.0)
        rmap = region_map([], 40.0, spec, prof)
        assert all(c.color == "simple" for c in rmap.components)

    def test_deterministic_and_idempotent(self, spec, params, rng):
        prof = make_profile(40.0)
        m2 = synthetic_m2(params, prof, rng)
        a = region_map(m2, 40.0, spec, prof)
        b = region_map(m2, 40.0, spec, prof)
        assert a == b

    def test_equality_compares_rows(self, spec, params, rng):
        # components hold rows, so equality must compare them exactly
        prof = make_profile(40.0)
        a = region_map(synthetic_m2(params, prof, rng), 40.0, spec, prof)
        i = next(i for i, c in enumerate(a.components) if len(c.boundary) > 1)
        c = a.components[i]
        for changed in (
            dataclasses.replace(c, boundary=c.boundary[1:]),
            dataclasses.replace(c, rows=c.rows[::-1]),
            dataclasses.replace(c, n_resonant_points=c.n_resonant_points + 1),
        ):
            b = dataclasses.replace(a, components=a.components[:i] + (changed,) + a.components[i + 1 :])
            assert a != b and not (a == b)
        assert a == dataclasses.replace(a, components=tuple(dataclasses.replace(c) for c in a.components))

    def test_colors_present_and_disjoint(self, spec, params, rng):
        prof = make_profile(40.0)
        m2 = synthetic_m2(params, prof, rng)
        rmap = region_map(m2, 40.0, spec, prof)
        seen: dict = {}
        for c in rmap.components:
            for m in array_to_indices(c.rows):
                assert m not in seen, "components must be pairwise disjoint"
                seen[m] = c.color
        assert any(c.color in ("black", "grey", "white") for c in rmap.components)

    def test_same_color_separation(self, spec, params, rng):
        prof = make_profile(40.0)
        m2 = synthetic_m2(params, prof, rng, n_dense=12, n_sparse=8)
        rmap = region_map(m2, 40.0, spec, prof)
        seps = {
            "black": prof.black_nbhd + 1,
            "grey": prof.grey_nbhd + 1,
            "white": prof.white_nbhd + 1,
        }
        comps = list(rmap.components)
        for i, a in enumerate(comps):
            for b in comps[i + 1 :]:
                if a.color != b.color or a.color not in seps:
                    continue
                d = triple_norm_array(a.rows[:, None, :] - b.rows[None, :, :]).min()
                assert d >= seps[a.color]

    def test_boundary_identities_exact(self, spec, params, rng):
        prof = make_profile(40.0)
        for seed in (1, 2):
            local = np.random.default_rng(seed)
            m2 = synthetic_m2(params, prof, local)
            rmap = region_map(m2, 40.0, spec, prof)
            assert boundary_check(rmap, spec) == 0.0

    def test_point_cap_per_white_component(self, spec, params, rng):
        prof = make_profile(40.0)
        m2 = synthetic_m2(params, prof, rng, n_dense=4, n_sparse=10)
        rmap = region_map(m2, 40.0, spec, prof)
        for c in rmap.by_color("white"):
            assert c.n_resonant_points <= max(prof.n_grey, 1) * 9


def planted_map(*parts) -> RegionMap:
    """RegionMap from (points, boundary points) pairs."""
    return RegionMap(
        tuple(
            RegionComponent("white", indices_to_array(ix), indices_to_array(bd), 0)
            for ix, bd in parts
        ),
        r2_radius=8,
    )


class TestBoundaryCheck:
    def test_planted_cross_component_coupling(self, spec):
        for q in spec.nonzero_support:
            rmap = planted_map(([ZERO_INDEX], [ZERO_INDEX]), ([q], [q]))
            assert boundary_check(rmap, spec) == abs(spec.coeffs[q])

    def test_planted_interior_leak(self, params):
        g = LatticeIndex((1, 0), (0, 0))
        one_pair = build([(g, 0.075 + 0.025j)], Q=4, params=params)
        whole = ([ZERO_INDEX, g], [ZERO_INDEX, g])
        assert boundary_check(planted_map(whole), one_pair) == 0.0
        # g + g leaves the component from g, which is not on the boundary
        leak = ([ZERO_INDEX, g], [ZERO_INDEX])
        assert boundary_check(planted_map(leak), one_pair) == abs(0.075 + 0.025j)


class TestRegionStats:
    def test_empty_map_zero_counts(self, spec, params):
        prof = make_profile(40.0)
        rmap = region_map([], 40.0, spec, prof)
        stats = region_stats(rmap, [], spec, prof)
        assert stats["counting_ratios"] == []

    def test_counting_ratio_bounded(self, spec, params, rng):
        prof = make_profile(40.0)
        m2 = synthetic_m2(params, prof, rng)
        rmap = region_map(m2, 40.0, spec, prof)
        stats = region_stats(rmap, m2, spec, prof, rng=rng)
        assert stats["max_counting_ratio"] <= 1000.0
        assert len(stats["counting_ratios"]) > 0
