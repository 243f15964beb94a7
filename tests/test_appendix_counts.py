"""Solution counts for the shifted dressed-eigenvalue equation and the
bracketed radius solver's failure modes."""

import math

import numpy as np
import pytest

from qp2d.isoenergetic import NoRoot, _newton_root
from qp2d.lattice import LatticeIndex, dual_vector
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
    def test_no_root_in_bracket(self):
        with pytest.raises(NoRoot):
            _newton_root(lambda cols, x: x * x, start=5.0, lam=1.0, halfwidth=0.5)

    def test_falls_back_to_bisection(self):
        # derivative guess 2*kappa is wrong for this function; bisection
        # still lands on the root
        f = lambda x: 100.0 * (x - 3.02) + 7.0
        root = _newton_root(lambda cols, x: f(x), start=3.0, lam=7.0, halfwidth=0.1)
        assert f(root) - 7.0 == pytest.approx(0.0, abs=1e-9 * 7.0)

    def test_jump_is_not_a_root(self):
        # f jumps across lam at 3.2 without reaching it: bisection closes in
        # on the jump, and its last midpoint must not come back as a root
        f = lambda cols, x: np.where(x < 3.2, 0.0, 10.0)
        with pytest.raises(NoRoot):
            _newton_root(f, start=3.0, lam=5.0, halfwidth=0.5)
