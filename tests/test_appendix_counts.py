"""Solution counts for the shifted dressed-eigenvalue equation and the
bracketed radius solver's failure modes."""

import math

import numpy as np
import pytest

from qp2d.isoenergetic import NoRoot, _newton_root
from qp2d.lattice import LatticeIndex, dual_vector
from qp2d.perturb import ContourHit, LevelEvaluator, NonConvergent
from qp2d.profile import make_profile
from qp2d.resonance import appendix4_count, build_omega1, tangent_angles

TWO_PI = 2.0 * math.pi


def expected_free_roots(k, m, eps0, params, omega):
    """Closed-form roots of the free shifted equation inside the good set."""
    dv = dual_vector(m, params)
    c = (eps0 - dv.length**2) / (2.0 * k * dv.length)
    if abs(c) > 1:
        return []
    th = math.acos(c)
    cands = [(dv.angle + th) % TWO_PI, (dv.angle - th) % TWO_PI]
    return sorted(p for p in cands if omega.contains(p))


def scalar_count(m, k, eps0, spec, profile, scan_points):
    """The scalar scan that appendix4_count replaced, kept as its reference:
    one `eigenvalue` call per Newton step, shifted value and midpoint."""
    omega = build_omega1(k, profile, spec.params)
    dv = dual_vector(m, spec.params)
    ev = LevelEvaluator(spec, profile)
    lam_target = k * k

    def f(phi: float) -> float:
        nu = np.array([math.cos(phi), math.sin(phi)])
        kap = k
        for _ in range(6):
            r = ev.eigenvalue(kap * nu) - lam_target
            if abs(r) <= 1e-10 * lam_target:
                break
            kap -= r / (2.0 * kap)
        else:
            raise NonConvergent(f"radius Newton at phi={phi:.6f} left |r| = {abs(r):.3g}")
        lam = ev.eigenvalue(kap * nu + dv.p)
        return lam - lam_target - eps0

    roots: list[float] = []
    for a, b in omega.intervals:
        if b - a < 1e-9:
            continue
        grid = np.linspace(a, b, max(8, int(scan_points * (b - a) / TWO_PI)) + 1)
        vals = []
        for phi in grid:
            try:
                vals.append(f(float(phi)))
            except (ContourHit, NonConvergent):
                vals.append(math.nan)
        for i in range(len(grid) - 1):
            f0, f1 = vals[i], vals[i + 1]
            if math.isnan(f0) or math.isnan(f1) or f0 * f1 > 0:
                continue
            lo_, hi_ = float(grid[i]), float(grid[i + 1])
            flo = f0
            try:
                for _ in range(80):
                    mid = 0.5 * (lo_ + hi_)
                    fm = f(mid)
                    if flo * fm <= 0:
                        hi_ = mid
                    else:
                        lo_, flo = mid, fm
                    if hi_ - lo_ < 1e-12:
                        break
            except (ContourHit, NonConvergent):
                continue
            roots.append(0.5 * (lo_ + hi_))
    roots.sort()
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-8:
            dedup.append(r)
    return len(dedup), dedup


class TestAgainstScalarScan:
    """The lockstep scan returns the scalar scan's count and roots exactly."""

    K = 25.0

    def test_plain_draw(self, spec, params):
        prof = make_profile(self.K)
        m = LatticeIndex((1, 2), (1, 0))
        eps0 = -0.17 * dual_vector(m, params).length
        got = appendix4_count(m, self.K, eps0, spec, prof, scan_points=50)
        assert got[0] > 0 and got == scalar_count(m, self.K, eps0, spec, prof, 50)

    def test_bracket_ending_in_a_rejection(self, spec, params, monkeypatch):
        # a rejection within 1e-6 of the first root is met only by that
        # bracket's bisection, which ends in it; the grid is untouched
        prof = make_profile(self.K)
        m = LatticeIndex((2, 2), (0, -1))
        eps0 = 0.2 * dual_vector(m, params).length
        count, roots = appendix4_count(m, self.K, eps0, spec, prof, scan_points=50)
        assert count > 0
        series = LevelEvaluator.eigenvalues

        def rejected_near_first_root(self, kappas):
            vals = series(self, kappas)
            for i, kappa in enumerate(kappas):
                phi = math.atan2(kappa[1], kappa[0])
                if abs((phi - roots[0] + math.pi) % TWO_PI - math.pi) < 1e-6:
                    vals[i] = NonConvergent("near the first root")
            return vals

        monkeypatch.setattr(LevelEvaluator, "eigenvalues", rejected_near_first_root)
        got = appendix4_count(m, self.K, eps0, spec, prof, scan_points=50)
        assert got == (count - 1, roots[1:])
        assert got == scalar_count(m, self.K, eps0, spec, prof, 50)


class TestAppendix4Count:
    def test_free_case_matches_cosine_roots(self, zero_spec, params):
        k = 25.0
        prof = make_profile(k)
        omega = build_omega1(k, prof, params)
        m = LatticeIndex((2, 2), (0, -1))
        eps0 = 0.3 * dual_vector(m, params).length
        count, roots = appendix4_count(m, k, eps0, zero_spec, prof)
        expected = expected_free_roots(k, m, eps0, params, omega)
        assert count == len(expected)
        for r, e in zip(roots, expected):
            assert r == pytest.approx(e, abs=1e-6)

    def test_perturbed_at_most_two(self, spec, params, rng):
        # random (m, eps0) draws against the dense-scan count; the sign of a
        # wide-scale trigonometric feature needs no fine grid
        k = 25.0
        prof = make_profile(k)
        draws = 0
        rows = [
            LatticeIndex((2, 2), (0, -1)),
            LatticeIndex((1, 2), (1, 0)),
            LatticeIndex((3, 0), (0, 1)),
            LatticeIndex((2, -1), (1, 1)),
        ]
        for m in rows:
            p = dual_vector(m, params).length
            for _ in range(3):
                eps0 = float(rng.uniform(-0.4, 0.4)) * p
                count, _ = appendix4_count(
                    m, k, eps0, spec, prof, scan_points=500
                )
                assert count <= 2
                draws += 1
        assert draws == 12

    def test_roots_near_tangency_angles(self, spec, params):
        k = 25.0
        prof = make_profile(k)
        m = LatticeIndex((2, 2), (0, -1))
        dv = dual_vector(m, params)
        eps0 = 0.2 * dv.length
        _, roots = appendix4_count(m, k, eps0, spec, prof, scan_points=900)
        tg = tangent_angles(k, dv.length, dv.angle)
        bound = 4.0 / k * k ** (2 * prof.delta)
        for r in roots:
            d = min(abs((r - t + math.pi) % TWO_PI - math.pi) for t in tg)
            assert d < max(bound, 0.05)


class TestNewtonBracket:
    NU = np.array([1.0, 0.0])

    def test_no_root_in_bracket(self, along):
        with pytest.raises(NoRoot):
            _newton_root(along(lambda cols, x: x * x), self.NU, start=5.0, lam=1.0, halfwidth=0.5)

    def test_falls_back_to_bisection(self, along):
        # derivative guess 2*kappa is wrong for this function; bisection
        # still lands on the root
        f = lambda x: 100.0 * (x - 3.02) + 7.0
        root = _newton_root(
            along(lambda cols, x: f(x)), self.NU, start=3.0, lam=7.0, halfwidth=0.1
        )
        assert f(root) - 7.0 == pytest.approx(0.0, abs=1e-9 * 7.0)

    def test_jump_is_not_a_root(self, along):
        # f jumps across lam at 3.2 without reaching it: bisection closes in
        # on the jump, and its last midpoint must not come back as a root
        f = lambda cols, x: np.where(x < 3.2, 0.0, 10.0)
        with pytest.raises(NoRoot):
            _newton_root(along(f), self.NU, start=3.0, lam=5.0, halfwidth=0.5)
