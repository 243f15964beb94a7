import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qp2d.lattice import (
    DualBuckets,
    LatticeIndex,
    QPParams,
    ZERO_INDEX,
    array_to_indices,
    box_table,
    components,
    dual_buckets,
    dual_vector,
    enumerate_box_array,
    indices_to_array,
    triple_norm,
    triple_norm_array,
)
from qp2d.fiber import shifted_energies
from qp2d.perturb import ContourHit, LevelEvaluator, NonConvergent
from qp2d.potential import build
from qp2d.profile import make_profile
from qp2d.resonance import (
    AngleSet,
    OverlapDetected,
    ResonantBase,
    appendix4_count,
    assemble_projector,
    block_poles,
    build_omega1,
    classify,
    detuning,
    disc_radius,
    norm_ball,
    orthogonality_violation,
    resonant_set_step1,
    step1_arcs,
    strength,
    tangent_angles,
    _near_circle,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# chain-rich configuration: alpha with a large partial quotient makes the
# direction ((-1,0),(3,0)) nearly null, so resonant windows along it contain
# several lattice points
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain_params():
    return QPParams(cf_prefix=[0, 3, 30, 1, 1, 1, 1, 1, 1, 1], mu=2.0)


@pytest.fixture(scope="module")
def chain_spec(chain_params):
    q_c = LatticeIndex((-1, 0), (3, 0))
    g2 = LatticeIndex((0, 1), (0, 0))
    return build([(q_c, 0.05), (g2, 0.08)], Q=4, params=chain_params)


def chain_profile(k: float):
    return make_profile(k, tau=0.05, core_radius=1, tilde_radius=3, box_r1=8)


def find_chain_setup(chain_spec, chain_params):
    """(k, phi0, profile, decomposition) with a genuine non-trivial chain."""
    from qp2d.resonance import tangency_base

    q_c = LatticeIndex((-1, 0), (3, 0))
    m0 = LatticeIndex((2, 0), (1, 2))
    for t_frac in np.linspace(0.05, 0.95, 19):
        k, phi0 = tangency_base(m0, q_c, chain_params, t_frac=float(t_frac))
        prof = chain_profile(k)
        for off in np.linspace(0.0, 2e-4, 5):
            try:
                dec = classify(float((phi0 + off) % TWO_PI), k, chain_spec, prof)
            except ResonantBase:
                continue
            for cls in dec.classes:
                if not cls.trivial and cls.colinear_ok:
                    widths = [s.n_plus - s.n_minus for s in cls.subsets]
                    if max(widths) >= 2:
                        return k, float((phi0 + off) % TWO_PI), prof, dec
    raise AssertionError("no chain-resonant admissible angle found")


def m1_by_pairs(dec, eff_iso):
    """The rows of M with no other M' row within eff_iso, by pairwise
    triple norms."""
    dist = triple_norm_array(dec.m_set[:, None, :] - dec.m_prime[None, :, :])
    crowded = ((dist > 0) & (dist <= eff_iso)).any(axis=1)
    return dec.m_set[~crowded]


# ---------------------------------------------------------------------------


class TestAngleSet:
    def test_normalization_merges(self):
        s = AngleSet.from_raw([(0.5, 1.0), (0.8, 1.4), (3.0, 3.5)])
        assert s.intervals == ((0.5, 1.4), (3.0, 3.5))
        assert s.measure == pytest.approx(1.4)

    def test_wrapping(self):
        s = AngleSet.from_raw([(-0.5, 0.5)])
        assert len(s.intervals) == 2
        assert s.measure == pytest.approx(1.0)
        assert s.contains(0.2) and s.contains(TWO_PI - 0.2)
        assert not s.contains(1.0)

    def test_contains_edges_and_wrap(self):
        s = AngleSet(((0.0, 0.25), (0.5, 1.0), (6.0, TWO_PI)))
        # intervals are closed at both ends
        assert s.contains(0.5) and s.contains(1.0) and s.contains(0.25)
        assert not s.contains(math.nextafter(0.5, 0.0))
        assert not s.contains(math.nextafter(1.0, 2.0))
        assert not s.contains(math.nextafter(0.25, 1.0))
        # angles wrap at 2*pi
        assert s.contains(0.0) and s.contains(TWO_PI) and s.contains(-0.1)
        assert s.contains(TWO_PI + 0.1) and not s.contains(TWO_PI + 0.3)
        # the same answers as a scan of the intervals, and an unchanged value
        for phi in np.linspace(-7.0, 14.0, 2001):
            x = phi % TWO_PI
            assert s.contains(phi) == any(a <= x <= b for a, b in s.intervals)
        assert s == AngleSet(s.intervals) and hash(s) == hash(AngleSet(s.intervals))
        assert s.complement().contains(0.3) and not s.complement().contains(0.7)

    def test_complement_involution(self):
        s = AngleSet.from_raw([(0.1, 0.4), (2.0, 2.7)])
        assert s.complement().complement().intervals == s.intervals
        assert s.complement().measure == pytest.approx(TWO_PI - s.measure)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, TWO_PI - 1e-6), st.floats(0.0, 1.0)
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_measure_additivity(self, raw):
        arcs = [(a, a + w) for a, w in raw]
        s = AngleSet.from_raw(arcs)
        assert 0.0 <= s.measure <= TWO_PI + 1e-9
        assert s.measure + s.complement().measure == pytest.approx(TWO_PI)

    def test_union_minus(self):
        a = AngleSet.from_raw([(0.0, 1.0)])
        b = AngleSet.from_raw([(0.5, 2.0)])
        assert a.union(b).measure == pytest.approx(2.0)
        assert a.minus(b).measure == pytest.approx(0.5)


def step1_resonant(phi, k, m, tau, prof, params):
    """Small-denominator test of one index at the step-I threshold
    tau*k^(1-40*mu*delta)."""
    dv = dual_vector(m, params)
    return abs(detuning(phi, k, dv.length, dv.angle)) <= tau * (prof.t1 / prof.tau)


class TestStepOneResonant:
    def test_far_vector_never_resonant(self, params):
        k = 40.0
        prof = make_profile(k)
        # |||m||| large enough that p_m > 4k
        m = LatticeIndex((30, 0), (0, 0))
        assert dual_vector(m, params).length > 4 * k
        for phi in np.linspace(0, TWO_PI, 50):
            assert not step1_resonant(float(phi), k, m, 1.0, prof, params)

    def test_exact_quadratic_root(self, params):
        k, m = 40.0, LatticeIndex((2, 1), (0, -1))
        prof = make_profile(k)
        dv = dual_vector(m, params)
        c = -dv.length / (2 * k)
        assert abs(c) <= 1
        phi = dv.angle + math.acos(c)
        assert abs(detuning(phi, k, dv.length, dv.angle)) < 1e-9
        assert step1_resonant(phi, k, m, 1.0, prof, params)

    def test_monotone_in_tau(self, params, rng):
        k = 25.0
        prof = make_profile(k)
        m = LatticeIndex((1, -1), (2, 0))
        for phi in rng.uniform(0, TWO_PI, size=200):
            if step1_resonant(float(phi), k, m, 0.5, prof, params):
                assert step1_resonant(float(phi), k, m, 2.0, prof, params)

    def test_zero_index_rejected(self, params):
        # the step-I tests read the nonzero rows of the box table only
        prof = make_profile(10.0)
        rows = box_table(prof.tilde_radius, params)[0]
        assert len(rows) == len(enumerate_box_array(prof.tilde_radius)) - 1
        assert not np.any(np.all(rows == 0, axis=1))
        assert all(np.any(m != 0) for m, *_ in step1_arcs(10.0, prof, params))


class TestOmegaOne:
    def test_potential_independent_by_construction(self, params):
        # the set is a function of (k, profile, alpha) only; the signature
        # admits no potential, so sameness is structural
        k = 25.0
        prof = make_profile(k)
        a = build_omega1(k, prof, params)
        b = build_omega1(k, prof, params)
        assert a.intervals == b.intervals

    def test_every_excluded_angle_in_a_disc(self, params, rng):
        k = 40.0
        prof = make_profile(k)
        arcs = step1_arcs(k, prof, params)
        excluded = resonant_set_step1(k, prof, params)
        for _ in range(300):
            phi = float(rng.uniform(0, TWO_PI))
            if not excluded.contains(phi):
                continue
            hit = False
            for m, p, ang, _ in arcs:
                tg = tangent_angles(k, p, ang)
                if tg is None:
                    continue
                rad = disc_radius(k, p, prof.t1, prof.tau)
                d = min(
                    min(abs((phi - t + math.pi) % TWO_PI - math.pi) for t in tg)
                    for t in [0]
                )
                if d <= rad:
                    hit = True
                    break
            assert hit, f"angle {phi} outside every tangent disc"

    def test_symmetry_under_half_turn(self, params):
        k = 25.0
        prof = make_profile(k)
        oate = resonant_set_step1(k, prof, params)
        shifted = oate.shifted(math.pi)
        assert len(oate.intervals) == len(shifted.intervals)
        for (a1, b1), (a2, b2) in zip(oate.intervals, shifted.intervals):
            assert a1 == pytest.approx(a2, abs=1e-9)
            assert b1 == pytest.approx(b2, abs=1e-9)

    def test_complement_measure_trend(self, params):
        meas = []
        for k in [15.0, 25.0, 40.0, 60.0]:
            prof = make_profile(k)
            meas.append(resonant_set_step1(k, prof, params).measure)
        assert all(a >= b - 1e-12 for a, b in zip(meas, meas[1:]))


def _check_m_from_m_prime(phi0, k, spec, prof, params):
    """M and M' of classify at both boxes against the direct threshold pass."""
    kvec = k * np.array([math.cos(phi0), math.sin(phi0)])
    for radius in (prof.box_r1, prof.box_r2):
        dec = classify(phi0, k, spec, prof, box_radius=radius)
        for got, r in ((dec.m_set, radius), (dec.m_prime, 2 * radius)):
            rows, norms, duals = box_table(r, params)
            det = shifted_energies(kvec, duals) - k * k
            thr = np.where(norms <= prof.tilde_radius, prof.t1, prof.t_star)
            assert np.array_equal(got, rows[np.abs(det) <= thr])


class TestClassify:
    def test_resonant_base_rejected(self, params, spec):
        k = 40.0
        prof = make_profile(k)
        bad = resonant_set_step1(k, prof, params, 8.0)
        phi0 = 0.5 * sum(bad.intervals[0])
        with pytest.raises(ResonantBase):
            classify(phi0, k, spec, prof)

    def test_empty_decomposition(self, params, spec, rng):
        # most admissible angles have no deep resonances in the small box
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        found = None
        for _ in range(200):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = classify(phi0, k, spec, prof)
            if not len(dec.m_set):
                found = dec
                break
        assert found is not None
        assert found.m1.shape == (0, 4) and found.classes == []

    def test_partition_refinement(self, params, spec, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        checked = 0
        for _ in range(400):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = classify(phi0, k, spec, prof)
            if not len(dec.m_set):
                continue
            checked += 1
            m1 = set(array_to_indices(dec.m1))
            subsets = [
                set(array_to_indices(s.members)) for c in dec.classes for s in c.subsets
            ]
            for m in array_to_indices(dec.m_set):
                owners = int(m in m1) + sum(m in s for s in subsets)
                assert owners == 1, f"{m} appears in {owners} components"
            if checked >= 10:
                break
        assert checked > 0

    @pytest.mark.parametrize("box", ["r1", "r2"])
    def test_m1_matches_pairwise_isolation(self, params, spec, box):
        k = 40.0
        prof = make_profile(k)
        radius = prof.box_r1 if box == "r1" else prof.box_r2
        eff_iso = max(prof.m1_isolation, spec.max_support_norm)
        om8 = build_omega1(k, prof, params, 8.0)
        checked = n_m1 = 0
        for phi0 in np.linspace(0.0, TWO_PI, 1000, endpoint=False):
            if not om8.contains(phi0):
                continue
            dec = classify(float(phi0), k, spec, prof, box_radius=radius)
            if len(dec.m_set):
                assert np.array_equal(dec.m1, m1_by_pairs(dec, eff_iso))
                checked += 1
                n_m1 += len(dec.m1)
            if checked == 6:
                break
        assert checked == 6 and n_m1 > 0

    def test_m_is_the_r_box_part_of_m_prime(self, params, spec):
        # classify takes M from M'; both equal the direct threshold pass over
        # their box, in box order
        for k in (25.0, 40.0):
            prof = make_profile(k)
            om8 = build_omega1(k, prof, params, 8.0)
            grid = np.linspace(0.0, TWO_PI, 300)
            angles = [float(p) for p in grid if om8.contains(p)][::20][:5]
            assert len(angles) == 5
            for phi0 in angles:
                _check_m_from_m_prime(phi0, k, spec, prof, params)

    def test_chain_windows(self, chain_params, chain_spec):
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        cls = next(
            c
            for c in dec.classes
            if not c.trivial and max(s.n_plus - s.n_minus for s in c.subsets) >= 2
        )
        assert cls.colinear_ok
        assert cls.in_support
        # members of every window line on the class direction, exactly
        for sub in cls.subsets:
            for m in array_to_indices(sub.members):
                d = m - sub.central
                if not d.is_zero():
                    from qp2d.lattice import rational_ratio

                    r = rational_ratio(cls.direction, d)
                    assert r is not None and r.denominator == 1
        # the windows are the residues of the class members modulo the
        # direction, by the pairwise exact test
        from qp2d.lattice import rational_ratio

        windows = [set(array_to_indices(sub.members)) for sub in cls.subsets]
        members = array_to_indices(cls.members)
        assert sorted(m for w in windows for m in w) == members
        for a in members:
            for b in members:
                r = rational_ratio(cls.direction, a - b) if a != b else Fraction(1)
                together = any(a in w and b in w for w in windows)
                assert together == (r is not None and r.denominator == 1)
        # window endpoints agree within one across residues
        if len(cls.subsets) >= 2:
            for s1 in cls.subsets:
                for s2 in cls.subsets:
                    assert abs(s1.n_plus - s2.n_plus) <= 1
                    assert abs(s1.n_minus - s2.n_minus) <= 1

    def test_chain_colinearity_exact(self, chain_params, chain_spec):
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        eff_iso = max(prof.m1_isolation, chain_spec.max_support_norm)
        assert np.array_equal(dec.m1, m1_by_pairs(dec, eff_iso))
        assert not np.array_equal(dec.m1, dec.m_set)
        from qp2d.lattice import duals_colinear

        for cls in dec.classes:
            if cls.colinear_ok and len(cls.members) > 1:
                base, *rest = array_to_indices(cls.members)
                for m in rest:
                    assert duals_colinear(m - base, rest[0] - base, chain_params)


def full_scan(duals, kvec, k, thr):
    """The reference the bucket index replaced: (positions, det) of every
    row with |det| <= thr, by one pass over all rows."""
    det = shifted_energies(kvec, duals) - k * k
    keep = np.flatnonzero(np.abs(det) <= thr)
    return keep, det[keep]


def every_row(self, center, r_lo, r_hi):
    """DualBuckets.annulus as a full scan: every row is a candidate."""
    return np.arange(len(self.duals))


class TestAnnulusIndex:
    """The bucket index only narrows the rows to test; it never drops a
    resonant row."""

    @pytest.mark.parametrize("k", [15.0, 25.0, 40.0, 60.0])
    def test_classify_matches_full_box_scan(self, params, spec, k, monkeypatch):
        prof = make_profile(k)
        zone = box_table(prof.tilde_radius, params)[2]
        n_base = n_rows = 0
        for phi in np.linspace(0.0, TWO_PI, 64, endpoint=False) + 0.0123:
            phi = float(phi)
            kvec = k * np.array([math.cos(phi), math.sin(phi)])
            resonant_base = len(full_scan(zone, kvec, k, 8.0 * prof.t1)[0]) > 0
            for radius in (prof.box_r1, prof.box_r2):
                outs = []
                for patch in (False, True):
                    with monkeypatch.context() as mp:
                        if patch:
                            mp.setattr(DualBuckets, "annulus", every_row)
                        try:
                            outs.append(classify(phi, k, spec, prof, box_radius=radius))
                        except ResonantBase as exc:
                            outs.append(exc)
                with np.printoptions(threshold=sys.maxsize):
                    assert repr(outs[0]) == repr(outs[1])
                assert isinstance(outs[0], ResonantBase) == resonant_base
                n_rows += 0 if resonant_base else len(outs[0].m_prime)
            if resonant_base:
                n_base += 1
            else:
                _check_m_from_m_prime(phi, k, spec, prof, params)
        assert n_base > 0 and n_rows > 0

    def test_rows_at_the_radii_and_the_threshold(self, rng):
        k, thr = 40.0, 0.15
        kvec = k * np.array([math.cos(0.3), math.sin(0.3)])
        r_lo, r_hi = math.sqrt(k * k - thr), math.sqrt(k * k + thr)
        ang = rng.uniform(0.0, TWO_PI, 64)
        ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        # duals at both radii and a few ulp either side, among random ones
        radii = [r + n * np.spacing(r) for r in (r_lo, r_hi) for n in range(-4, 5)]
        duals = np.concatenate(
            [-kvec + r * ring for r in radii] + [rng.uniform(-90.0, 90.0, (4000, 2))]
        )
        buckets = DualBuckets(duals)
        pos, det = _near_circle(buckets, kvec, k, thr)
        ref_pos, ref_det = full_scan(duals, kvec, k, thr)
        assert np.array_equal(pos, ref_pos) and np.array_equal(det, ref_det)
        assert 0 < len(pos) < len(radii) * len(ang)
        # a threshold equal to a row's own |det| keeps that row
        det_all = shifted_energies(kvec, duals) - k * k
        for i in np.argsort(np.abs(np.abs(det_all) - thr))[:40]:
            at = float(np.abs(det_all[i]))
            pos, _ = _near_circle(buckets, kvec, k, at)
            assert i in pos
            assert np.array_equal(pos, full_scan(duals, kvec, k, at)[0])

    @pytest.mark.parametrize("side", ["inner", "outer"])
    def test_bucket_that_touches_the_annulus_at_a_corner(self, side):
        # duals >= 0 put the bucket edges at even coordinates.  A resonant
        # row at a bucket corner, 1e-11 inside the annulus along the
        # diagonal, is in a bucket whose distance range from the center ends
        # right there: its far corner at the inner radius, or its near corner
        # at the outer one
        k, thr, delta = 40.0, 0.15, 1e-11
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        if side == "inner":
            p = np.nextafter(np.array([40.0, 60.0]), 0.0)
            center = p - (math.sqrt(k * k - thr) + delta) * u
        else:
            p = np.array([40.0, 60.0])
            center = p - (math.sqrt(k * k + thr) - delta) * u
        duals = np.array([[0.0, 0.0], p, [99.0, 99.0]])
        pos, _ = _near_circle(DualBuckets(duals), -center, k, thr)
        assert pos.tolist() == [1] == full_scan(duals, -center, k, thr)[0].tolist()

    def test_index_reads_a_small_part_of_the_box(self, params):
        # the gain: at k = 40 the 16-box query reads a few percent of its rows
        k = 40.0
        buckets = dual_buckets(16, params)
        center = -k * np.array([math.cos(0.3), math.sin(0.3)])
        cand = buckets.annulus(center, math.sqrt(k * k - 1.2), math.sqrt(k * k + 1.2))
        assert np.all(np.diff(cand) > 0)
        assert len(cand) < len(buckets.duals) / 10
        assert buckets.order.nbytes + buckets.starts.nbytes < 2**21


def double_resonance_points(m, mp, params, k_lo=12.0, k_hi=80.0):
    """(k, phi0) pairs where both lattice points sit exactly on the resonant
    circle: the two tangency conditions pin one angle equation, bisected."""
    dm = dual_vector(m, params)
    dp = dual_vector(mp, params)

    def k_of(phi, d):
        c = math.cos(phi - d.angle)
        return -d.length / (2.0 * c) if c < -1e-9 else math.nan

    grid = np.linspace(0, TWO_PI, 4001)
    g = np.array([k_of(p, dm) - k_of(p, dp) for p in grid])
    out = []
    for i in range(len(grid) - 1):
        a, b = g[i], g[i + 1]
        if math.isnan(a) or math.isnan(b) or a * b > 0:
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        fa = a
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fm = k_of(mid, dm) - k_of(mid, dp)
            if math.isnan(fm):
                break
            if fa * fm <= 0:
                hi = mid
            else:
                lo, fa = mid, fm
        phi0 = 0.5 * (lo + hi)
        k = k_of(phi0, dm)
        if not math.isnan(k) and k_lo <= k <= k_hi:
            out.append((float(k), float(phi0 % TWO_PI)))
    return out


class TestStrength:
    def _double_resonance_candidates(self, params):
        diffs = [
            LatticeIndex((0, 1), (0, -1)),
            LatticeIndex((1, 0), (-1, 0)),
            LatticeIndex((1, 1), (0, -1)),
            LatticeIndex((0, 1), (1, 0)),
            LatticeIndex((1, -1), (0, 1)),
        ]
        bases = [
            LatticeIndex((4, 3), (0, 0)),
            LatticeIndex((4, -3), (0, 0)),
            LatticeIndex((3, 4), (0, 0)),
            LatticeIndex((4, 2), (0, 2)),
            LatticeIndex((2, 4), (1, 0)),
            LatticeIndex((-4, 3), (0, 1)),
            LatticeIndex((4, 0), (0, 3)),
        ]
        for m in bases:
            for e in diffs:
                mp = m + e
                if triple_norm(mp) > 4 or mp.is_zero():
                    continue
                for k, phi0 in double_resonance_points(m, mp, params):
                    yield k, phi0

    def test_scalar_crossing_rule(self, params, spec):
        # engineer a pair of neighbors exactly on the resonant circle: they
        # form a class whose window split leaves single points, so strength
        # reduces to the explicit scalar crossing test
        tested = 0
        for k, phi0 in self._double_resonance_candidates(params):
            prof = make_profile(k)
            for off in (0.0, 0.3, -0.3, 0.8):
                p0 = float((phi0 + off * prof.pole_window) % TWO_PI)
                try:
                    dec = classify(p0, k, spec, prof)
                except ResonantBase:
                    continue
                if not any(c.trivial and len(c.members) > 1 for c in dec.classes):
                    continue
                dec = strength(dec, k, p0, spec, prof)
                for cls in dec.classes:
                    if not cls.trivial:
                        continue
                    for sub in cls.subsets:
                        if len(sub.members) != 1:
                            continue
                        mm = LatticeIndex.from_row(sub.members[0])
                        dv = dual_vector(mm, params)
                        w = 2.0 * prof.pole_window
                        grid = np.linspace(p0 - w, p0 + w, 4001)
                        vals = detuning(grid, k, dv.length, dv.angle)
                        crosses = bool(
                            np.any(np.signbit(vals[:-1]) != np.signbit(vals[1:]))
                        )
                        assert crosses == (sub.strength == "strong")
                        tested += 1
                if tested >= 2:
                    return
        raise AssertionError("no trivial multi-point class could be engineered")

    def test_pole_caps(self, chain_params, chain_spec):
        # at the engineered chain scale the 1D zones are narrower than the
        # eigenvalue sweep across the window, so the asymptotic two-pole cap
        # does not bind; the structural bound is one crossing per monotone
        # branch, and strong clusters still hold at most two windows
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        dec = strength(dec, k, phi0, chain_spec, prof)
        for cls in dec.classes:
            for sub in cls.subsets:
                assert len(sub.poles) <= len(sub.members)
                assert all(
                    phi0 - 2.1 * prof.pole_window
                    <= p
                    <= phi0 + 2.1 * prof.pole_window
                    for p in sub.poles
                )
        for group in dec.strong_clusters:
            assert len(group) <= 2

    def test_two_pole_cap_at_default_scale(self, params, spec, rng):
        # with O(1) dual steps the zones near the working energy are wide,
        # so every window resolvent has at most two poles
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        windows = 0
        for _ in range(800):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = classify(phi0, k, spec, prof)
            if not len(dec.m_set):
                continue
            dec = strength(dec, k, phi0, spec, prof)
            for cls in dec.classes:
                for sub in cls.subsets:
                    assert len(sub.poles) <= 2
                    windows += 1
            for m in dec.m1:
                w = 2 * prof.pole_window
                poles = block_poles(m[None], k, (phi0 - w, phi0 + w), spec, prof, scan_points=400)
                assert len(poles) <= 2
                windows += 1
            if windows >= 25:
                return
        assert windows > 0

    def test_labels_stable_under_denser_scan(self, chain_params, chain_spec):
        # independent route: a much denser scan of each window must agree
        # with the sparse label
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        dec = strength(dec, k, phi0, chain_spec, prof)
        w = 2.0 * prof.pole_window
        for cls in dec.classes:
            for sub in cls.subsets:
                dense = block_poles(
                    sub.members,
                    k,
                    (phi0 - w, phi0 + w),
                    chain_spec,
                    prof,
                    scan_points=400,
                )
                assert (len(dense) > 0) == (sub.strength == "strong")

    def test_derivative_sign_definite(self, chain_params, chain_spec):
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        w = 2.0 * prof.pole_window
        for cls in dec.classes:
            for sub in cls.subsets:
                signs = []
                for m in array_to_indices(sub.members):
                    dv = dual_vector(m, chain_params)
                    der = -2.0 * k * dv.length * math.sin(phi0 - dv.angle)
                    signs.append(math.copysign(1.0, der))
                assert len(set(signs)) == 1


class TestBlockPoles:
    def test_free_single_point_roots(self, zero_spec, params):
        k = 30.0
        prof = make_profile(k)
        m = LatticeIndex((2, 0), (1, 1))
        dv = dual_vector(m, params)
        tg = tangent_angles(k, dv.length, dv.angle)
        assert tg is not None
        phi_plus = tg[0]
        poles = block_poles(
            indices_to_array([m]), k, (phi_plus - 1e-3, phi_plus + 1e-3), zero_spec, prof,
            scan_points=400,
        )
        assert len(poles) == 1
        assert poles[0][0] == pytest.approx(phi_plus, abs=1e-9)

    def test_isolated_box_at_most_one_pole(self, params, spec, rng):
        # windows around isolated resonances with |2k - p_m| >= 1 carry at
        # most one pole
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        seen = 0
        for _ in range(600):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = classify(phi0, k, spec, prof)
            for m in dec.m1:
                p = dual_vector(LatticeIndex.from_row(m), params).length
                if abs(2 * k - p) < 1:
                    continue
                w = 2 * prof.pole_window
                poles = block_poles(m[None], k, (phi0 - w, phi0 + w), spec, prof, scan_points=400)
                assert len(poles) <= 1
                seen += 1
            if seen >= 5:
                return
        pytest.skip("no isolated resonances sampled")


def block_owner(proj, box_radius: int) -> dict:
    """The block of each lattice point of the projector's blocks."""
    box = array_to_indices(enumerate_box_array(box_radius))
    return {box[p]: i for i, b in enumerate(proj.blocks) for p in b.positions.tolist()}


class TestProjector:
    def _labeled(self, phi0, k, spec, prof):
        dec = classify(phi0, k, spec, prof)
        return strength(dec, k, phi0, spec, prof)

    def test_empty_decomposition_gives_core_only(self, params, spec, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        while True:
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = self._labeled(phi0, k, spec, prof)
            if not len(dec.m_set):
                break
        proj = assemble_projector(dec, k, prof, spec)
        assert [b.kind for b in proj.blocks] == ["core"]
        from qp2d.lattice import box_size

        assert len(proj.blocks[0].positions) == box_size(prof.core_radius)

    def test_orthogonality_exact(self, params, spec, rng):
        k = 40.0
        prof = make_profile(k)
        om8 = build_omega1(k, prof, params, 8.0)
        built = 0
        for _ in range(800):
            phi0 = float(rng.uniform(0, TWO_PI))
            if not om8.contains(phi0):
                continue
            dec = self._labeled(phi0, k, spec, prof)
            if not len(dec.m_set):
                continue
            try:
                proj = assemble_projector(dec, k, prof, spec)
            except OverlapDetected:
                continue
            built += 1
            owner = block_owner(proj, prof.box_r1)
            # exact: no potential coefficient connects two distinct blocks
            for m, i in owner.items():
                for q in spec.nonzero_support:
                    j = owner.get(m - q)
                    assert j is None or j == i
            if built >= 6:
                return
        pytest.skip("no non-empty decompositions sampled")

    def test_chain_blocks_orthogonal(self, chain_params, chain_spec):
        k, phi0, prof, dec = find_chain_setup(chain_spec, chain_params)
        dec = strength(dec, k, phi0, chain_spec, prof)
        proj = assemble_projector(dec, k, prof, chain_spec)
        kinds = {b.kind for b in proj.blocks}
        assert "core" in kinds
        owner = block_owner(proj, prof.box_r1)
        for m, i in owner.items():
            for q in chain_spec.nonzero_support:
                j = owner.get(m - q)
                assert j is None or j == i


coord = st.integers(min_value=-6, max_value=6)
lattice_points = st.builds(
    LatticeIndex, st.tuples(coord, coord), st.tuples(coord, coord)
)


def norm_ball_reference(centers, radius: int, ambient: set) -> set:
    """The set formula norm_ball replaced: members of ambient within
    triple-norm distance radius of some center."""
    offsets = array_to_indices(enumerate_box_array(radius))
    return {m for c in centers for m in (c + off for off in offsets) if m in ambient}


class TestNormBall:
    @given(
        centers=st.lists(lattice_points, max_size=6),
        radius=st.integers(0, 2),
        box_radius=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_set_formula(self, centers, radius, box_radius):
        got = norm_ball(indices_to_array(centers), radius, box_radius)
        assert np.all(np.diff(got) > 0)
        box = enumerate_box_array(box_radius)
        ambient = set(array_to_indices(box))
        assert array_to_indices(box[got]) == sorted(
            norm_ball_reference(centers, radius, ambient)
        )


class TestOrthogonalityViolation:
    def test_planted_coupling(self, spec):
        far = LatticeIndex((9, 9), (0, 0))
        for q in spec.nonzero_support:
            blocks = [indices_to_array([ZERO_INDEX, far]), indices_to_array([ZERO_INDEX - q])]
            assert orthogonality_violation(blocks, spec) == abs(spec.coeffs[q])

    def test_coupling_inside_one_block_allowed(self, spec):
        blocks = [enumerate_box_array(1), indices_to_array([LatticeIndex((9, 9), (0, 0))])]
        assert orthogonality_violation(blocks, spec) == 0.0

    def test_against_pairwise_brute_force(self, spec, rng):
        # disjoint random blocks from the r1-box: split at random, they are
        # coupled; made of whole coupling components, they are not
        box = enumerate_box_array(4)
        support = spec.nonzero_table[0]
        seen = set()
        for trial in range(60):
            rows = box[np.sort(rng.choice(len(box), size=int(rng.integers(2, 160)), replace=False))]
            n_blocks = int(rng.integers(1, 6))
            if trial % 2:
                # owners by coupling component: no support vector crosses blocks
                d = rows[:, None, :] - rows[None, :, :]
                i, j = np.nonzero((d[:, :, None, :] == support[None, None, :, :]).all(-1).any(-1))
                owner = components(len(rows), i, j) % n_blocks
            else:
                owner = rng.integers(0, n_blocks, size=len(rows))
            blocks = [rows[owner == b] for b in range(n_blocks)]
            blocks = [blk for blk in blocks if len(blk)]
            want = pairwise_violation(blocks, spec)
            assert orthogonality_violation(blocks, spec) == want
            if len(blocks) == 1:
                assert want == 0.0
            seen.add((len(blocks) == 1, want == 0.0))
        assert seen >= {(True, True), (False, True), (False, False)}


def pairwise_violation(blocks, spec) -> float:
    """Max |V_{m-m'}| over every pair of rows in distinct blocks."""
    worst = 0.0
    for bi, blk in enumerate(blocks):
        for other in blocks[bi + 1 :]:
            for m in array_to_indices(blk):
                for mp in array_to_indices(other):
                    for q in (m - mp, mp - m):
                        worst = max(worst, abs(spec.coeffs.get(q, 0.0)))
    return worst


class TestAppendix4Rejections:
    """Only the evaluator's typed rejections make a scan point NaN; the
    stand-ins return per row a value or a rejection, as `eigenvalues` does."""

    M = LatticeIndex((2, 2), (0, -1))

    def test_bug_propagates(self, spec, monkeypatch):
        def broken(self, kappas):
            raise ValueError("shape mismatch")

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", broken)
        with pytest.raises(ValueError, match="shape mismatch"):
            appendix4_count(self.M, 25.0, 0.0, spec, make_profile(25.0), scan_points=50)

    def test_contour_hit_is_a_gap(self, spec, monkeypatch):
        def rejected(self, kappas):
            return [ContourHit("on the contour") for _ in kappas]

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", rejected)
        count, roots = appendix4_count(
            self.M, 25.0, 0.0, spec, make_profile(25.0), scan_points=50
        )
        assert (count, roots) == (0, [])

    def test_newton_stall_is_a_gap(self, spec, monkeypatch):
        # the true derivative is kappa, so the 2*kappa guess only halves the
        # error per step and the radius never reaches tolerance in 6 steps
        def half(self, kappas):
            return [float(kappa @ kappa) / 2.0 for kappa in kappas]

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", half)
        count, roots = appendix4_count(
            self.M, 25.0, 0.0, spec, make_profile(25.0), scan_points=50
        )
        assert (count, roots) == (0, [])

    def test_bisection_rejection_is_a_gap(self, spec, monkeypatch):
        # with the free eigenvalue |kappa|^2 the roots sit where M's detuning
        # equals eps0; a rejection within 1e-6 of a root is met only by the
        # bisection, which must drop that bracket as the grid drops a point
        k, prof = 25.0, make_profile(25.0)
        eps0 = dual_vector(self.M, spec.params).length ** 2

        def free(self, kappas):
            return [float(kappa @ kappa) for kappa in kappas]

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", free)
        count, roots = appendix4_count(self.M, k, eps0, spec, prof, scan_points=50)
        assert count > 0

        def near_root(kappa) -> bool:
            phi = math.atan2(kappa[1], kappa[0])
            return any(abs((phi - root + math.pi) % TWO_PI - math.pi) < 1e-6 for root in roots)

        def rejected_near_roots(self, kappas):
            return [
                NonConvergent("near a root") if near_root(kappa) else float(kappa @ kappa)
                for kappa in kappas
            ]

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", rejected_near_roots)
        assert appendix4_count(self.M, k, eps0, spec, prof, scan_points=50) == (0, [])
