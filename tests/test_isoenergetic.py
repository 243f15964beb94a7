import math

import numpy as np
import pytest

from qp2d.fiber import FiberMatrix, eigvals_oracle
from qp2d.isoenergetic import (
    REJECTIONS,
    _newton_solve,
    deviation_profile,
    export_curve,
    read_curve,
    solve_radius,
    trace_curve,
)
from qp2d.perturb import (
    ContourHit,
    LevelEvaluator,
    NonConvergent,
    generic_step,
    level2_geometry,
)
from qp2d.multiscale import local_pole_discs
from qp2d.profile import make_profile
from qp2d.resonance import ResonantBase, build_omega1, resonant_set_step1

TWO_PI = 2.0 * math.pi


class TestSolveRadius:
    def test_zero_potential_exact_sqrt(self, zero_spec, params, rng):
        lam = 1600.0
        prof = make_profile(40.0)
        om = build_omega1(40.0, prof, params)
        for _ in range(5):
            phi = float(rng.uniform(0, TWO_PI))
            if not om.contains(phi):
                continue
            kappa = solve_radius(1, lam, phi, zero_spec, prof)
            assert kappa == math.sqrt(lam)

    def test_residual_tolerance(self, spec, params, rng):
        lam = 1600.0
        k = math.sqrt(lam)
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        from qp2d.perturb import LevelEvaluator

        done = 0
        while done < 20:
            phi = float(rng.uniform(0, TWO_PI))
            if not om.contains(phi):
                continue
            kappa = solve_radius(1, lam, phi, spec, prof)
            ev = LevelEvaluator(spec, prof)
            nu = np.array([math.cos(phi), math.sin(phi)])
            assert abs(ev.eigenvalue(kappa * nu) - lam) <= 1e-9 * lam
            done += 1

    def test_dkappa_dlambda(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        while True:
            phi = float(rng.uniform(0, TWO_PI))
            if om.contains(phi):
                break
        lam = k * k
        d = 2.0
        k_plus = solve_radius(1, lam + d, phi, spec, make_profile(math.sqrt(lam + d)))
        k_minus = solve_radius(1, lam - d, phi, spec, make_profile(math.sqrt(lam - d)))
        deriv = (k_plus - k_minus) / (2 * d)
        assert deriv == pytest.approx(1.0 / (2.0 * k), rel=1e-4)

    def test_uniqueness_bracketing(self, spec, params, rng):
        k = 40.0
        prof = make_profile(k)
        om = build_omega1(k, prof, params)
        while True:
            phi = float(rng.uniform(0, TWO_PI))
            if om.contains(phi):
                break
        kappa = solve_radius(1, k * k, phi, spec, prof, check_unique=True)
        assert abs(kappa - k) <= prof.kappa_window_1


class TestLockstepNewton:
    """One lockstep solve over columns equals each column's own solve."""

    LAM, HALF = 4.0, 0.1

    @staticmethod
    def toy(cols, radii, seen=None):
        out = []
        for c, x in zip(cols, radii):
            if seen is not None:
                seen.setdefault(int(c), []).append(float(x))
            if c == 3 and x < 1.96:
                out.append(NonConvergent("toy rejection"))
            else:
                out.append([x * x, x * x + 0.3, 100.0 * (x - 2.02) + 4.0, x * x + 0.2][c])
        return out

    NUS = [np.array([1.0, c]) for c in range(4)]

    def test_columns_match_their_own_solves(self, along):
        seen = {}
        out = _newton_solve(
            along(lambda c, x: self.toy(c, x, seen)), self.NUS, [2.0] * 4, self.LAM, self.HALF
        )
        # column 0 converges at step 0, column 1 after several Newton steps
        assert out[0] == 2.0 and seen[0] == [2.0]
        assert len(seen[1]) > 2 and abs(out[1] ** 2 + 0.3 - self.LAM) <= 1e-9 * self.LAM
        # column 2's Newton leaves its bracket: both ends, then bisection
        assert 2.0 - self.HALF in seen[2] and 2.0 + self.HALF in seen[2]
        assert abs(100.0 * (out[2] - 2.02)) <= 1e-9 * self.LAM
        # column 3 is rejected at its second evaluation, and only column 3
        assert isinstance(out[3], NonConvergent) and len(seen[3]) == 2
        for c in range(3):
            own = _newton_solve(
                along(self.toy), self.NUS[c : c + 1], [2.0], self.LAM, self.HALF
            )
            assert isinstance(out[c], float) and own == [out[c]]

    def test_plain_exception_value_propagates(self, along):
        with pytest.raises(ValueError, match="not a rejection"):
            _newton_solve(
                along(lambda c, x: [ValueError("not a rejection")]), self.NUS[:1], [2.0], 4.0, 0.1
            )


class TestRadiusAgainstOracle:
    """The solved radii checked by the windowed oracle on the section, not
    by the solver's own stopping rule."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_oracle_eigenvalue_at_lambda(self, n, spec):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        curve = trace_curve(n, lam, np.linspace(0, TWO_PI, 41, endpoint=False), spec, prof)
        picks = curve.admissible_samples[::4]
        assert len(picks) >= 5
        for s in picks:
            point = s.kappa * np.array([math.cos(s.phi), math.sin(s.phi)])
            geometry = level2_geometry(s.phi, spec, prof) if n == 2 else None
            state = LevelEvaluator(spec, prof, geometry).state(point)
            tail = generic_step(state, prof, with_projector=False).tail_estimate
            mat = FiberMatrix(rows=state.rows, kappa=point, entries=state.section)
            inside = eigvals_oracle(mat, lam, state.contour.radius)
            assert len(inside) == 1
            assert abs(inside[0] - lam) <= max(1e-9 * lam, 10.0 * tail)


class TestTraceCurve:
    def test_zero_potential_circle(self, zero_spec, params):
        lam = 625.0
        k = math.sqrt(lam)
        prof = make_profile(k)
        grid = np.linspace(0, TWO_PI, 180, endpoint=False)
        curve = trace_curve(1, lam, grid, zero_spec, prof)
        adm = curve.admissible_samples
        assert len(adm) > 100
        assert all(s.kappa == k for s in adm)
        assert all(s.h == 0.0 for s in adm)

    def test_hole_measure_matches_excised_set(self, zero_spec, params):
        lam = 1600.0
        k = math.sqrt(lam)
        prof = make_profile(k)
        n = 700
        grid = np.linspace(0, TWO_PI, n, endpoint=False)
        curve = trace_curve(1, lam, grid, zero_spec, prof)
        excluded = resonant_set_step1(k, prof, params)
        # recount at grid resolution
        assert curve.hole_measure == pytest.approx(
            excluded.measure, abs=4 * TWO_PI / n * (len(excluded.intervals) + 1)
        )

    def test_samples_sorted_and_flagged(self, spec, params):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 90, endpoint=False)
        curve = trace_curve(1, lam, grid, spec, prof)
        phis = [s.phi for s in curve.samples]
        assert phis == sorted(phis)
        for s in curve.samples:
            if not s.admissible:
                assert math.isnan(s.kappa)

    def test_one_angle_hole_is_the_circle(self, spec, params):
        lam = 1600.0
        k = math.sqrt(lam)
        prof = make_profile(k)
        a, b = resonant_set_step1(k, prof, params).intervals[0]
        phi = 0.5 * (a + b)
        assert not build_omega1(k, prof, params).contains(phi)
        curve = trace_curve(1, lam, [phi], spec, prof)
        assert curve.holes == ((phi, phi + TWO_PI),)

    def test_level2_subset_of_level1(self, spec, params):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 60, endpoint=False)
        c1 = trace_curve(1, lam, grid, spec, prof)
        c2 = trace_curve(2, lam, grid, spec, prof)
        for s1, s2 in zip(c1.samples, c2.samples):
            if s2.admissible:
                assert s1.admissible


def pole_disc_angle(spec, prof):
    """A pole of a local resonance block, from the first geometry along a
    grid that has one: an angle inside its own pole disc."""
    omega = build_omega1(prof.k, prof, spec.params)
    for phi in np.linspace(0, TWO_PI, 3000, endpoint=False):
        phi = float(phi)
        if not omega.contains(phi):
            continue
        try:
            geometry = level2_geometry(phi, spec, prof)
        except REJECTIONS:
            continue
        for pole, _ in local_pole_discs(phi, prof.k, spec, prof, geometry=geometry):
            if omega.contains(pole):
                return pole
    raise AssertionError("no pole disc on the grid")


class TestAdmission:
    """trace_curve and solve_radius admit the same level-2 angles, and a
    sample says why it is not admissible."""

    def test_pole_disc_angle_is_a_hole_and_not_solved(self, spec):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        phi = pole_disc_angle(spec, prof)
        curve = trace_curve(2, lam, [phi], spec, prof)
        (sample,) = curve.samples
        assert sample.reason == "pole-disc" and not sample.admissible
        assert curve.holes == ((phi, phi + TWO_PI),)
        with pytest.raises(ResonantBase, match="pole-disc"):
            solve_radius(2, lam, phi, spec, prof)
        # level 1 does not excise pole discs
        assert trace_curve(1, lam, [phi], spec, prof).samples[0].admissible

    def test_level2_radius_where_the_curve_solves(self, spec, params):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 24, endpoint=False)
        curve = trace_curve(2, lam, grid, spec, prof)
        for s in curve.samples[:8]:
            if s.admissible:
                assert solve_radius(2, lam, s.phi, spec, prof) == pytest.approx(s.kappa, abs=1e-9)
            elif s.reason in ("step-I", "pole-disc", "ResonantBase"):
                with pytest.raises(ResonantBase):
                    solve_radius(2, lam, s.phi, spec, prof)

    @pytest.mark.parametrize("n", [1, 2])
    def test_reasons(self, n, spec, params):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        omega = build_omega1(prof.k, prof, params)
        a, b = resonant_set_step1(prof.k, prof, params).intervals[0]
        grid = np.sort(np.append(np.linspace(0, TWO_PI, 120, endpoint=False), 0.5 * (a + b)))
        curve = trace_curve(n, lam, grid, spec, prof)
        names = {"step-I", "pole-disc"} | {exc.__name__ for exc in REJECTIONS}
        for s in curve.samples:
            assert s.admissible == (s.reason is None)
            assert s.reason is None or s.reason in names
            assert (s.reason == "step-I") == (not omega.contains(s.phi))
        reasons = {s.reason for s in curve.samples}
        assert None in reasons and "step-I" in reasons
        assert ("pole-disc" in reasons) == (n == 2)


class TestEvaluatorReuse:
    """The level-1 model depends on no angle, so a call builds it once; a
    level-2 evaluator is built once per block partition."""

    @pytest.mark.parametrize(
        "fn, n", [(trace_curve, 2), (deviation_profile, 1), (deviation_profile, 2)]
    )
    def test_one_level1_build_per_call(self, fn, n, spec, monkeypatch):
        level1_builds = []
        init = LevelEvaluator.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            level1_builds.append(self.geometry is None)

        monkeypatch.setattr(LevelEvaluator, "__init__", counting_init)
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        out = fn(n, lam, np.linspace(0, TWO_PI, 24, endpoint=False), spec, prof)
        solved = out.admissible_samples if fn is trace_curve else out
        assert len(solved) >= 2
        assert level1_builds.count(True) == 1

    @pytest.mark.parametrize("fn", [trace_curve, deviation_profile])
    def test_one_level2_build_per_partition(self, fn, spec, monkeypatch):
        partitions = []
        init = LevelEvaluator.__init__

        def counting_init(self, spec, profile, geometry=None):
            init(self, spec, profile, geometry)
            if geometry is not None:
                partitions.append(geometry.block_labels.tobytes())

        monkeypatch.setattr(LevelEvaluator, "__init__", counting_init)
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 24, endpoint=False)
        out = fn(2, lam, grid, spec, prof)
        solved = [s.phi for s in out.admissible_samples] if fn is trace_curve else [p for p, _ in out]
        assert len(solved) >= 2
        # one build per distinct partition, and every solved angle's partition
        # among them
        assert len(partitions) == len(set(partitions))
        for phi in solved:
            geometry = level2_geometry(phi, spec, prof)
            assert geometry.block_labels.tobytes() in partitions
        assert len(partitions) < len(solved)


class TestRejections:
    """Only typed numerical rejections become holes; any other exception
    raised while evaluating a sample is a bug and must propagate."""

    @pytest.fixture()
    def raising(self, monkeypatch):
        def install(exc):
            def eigenvalue(self, kappa):
                raise exc("raised by the evaluator")

            def eigenvalues(self, kappas):
                return [exc("raised by the evaluator") for _ in kappas]

            monkeypatch.setattr(LevelEvaluator, "eigenvalue", eigenvalue)
            monkeypatch.setattr(LevelEvaluator, "eigenvalues", eigenvalues)

        return install

    @pytest.mark.parametrize("fn", [trace_curve, deviation_profile])
    def test_plain_value_error_propagates(self, fn, spec, raising):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        raising(ValueError)
        with pytest.raises(ValueError, match="raised by the evaluator"):
            fn(1, lam, np.linspace(0, TWO_PI, 8, endpoint=False), spec, prof)

    def test_typed_rejection_is_a_hole(self, spec, raising):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        raising(ContourHit)
        grid = np.linspace(0, TWO_PI, 8, endpoint=False)
        curve = trace_curve(1, lam, grid, spec, prof)
        assert curve.admissible_samples == []
        assert deviation_profile(1, lam, grid, spec, prof) == []


def curve_delta(lam, phi_grid, spec, profile):
    """sup |kappa_2 - kappa_1| over the common admissible grid and its
    argmax angle, plus the two traced curves.

    The sup is taken from the stable correction-sum estimator; the direct
    difference of the two solved radii sits at the solver-tolerance floor.
    """
    c1 = trace_curve(1, lam, phi_grid, spec, profile)
    c2 = trace_curve(2, lam, phi_grid, spec, profile)
    common = {
        s1.phi
        for s1, s2 in zip(c1.samples, c2.samples)
        if s1.admissible and s2.admissible
    }
    best = 0.0
    arg = math.nan
    for phi, dev in deviation_profile(2, lam, sorted(common), spec, profile):
        if abs(dev) > best:
            best, arg = abs(dev), phi
    return best, arg, c1, c2


class TestCurveDelta:
    def test_zero_potential_zero_delta(self, zero_spec, params):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 40, endpoint=False)
        best, _, c1, c2 = curve_delta(lam, grid, zero_spec, prof)
        assert best == 0.0

    def test_delta_below_level1_deviation(self, spec, params):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 48, endpoint=False)
        best, arg, c1, c2 = curve_delta(lam, grid, spec, prof)
        assert best <= c1.sup_h + 1e-12


class TestExport:
    def test_round_trip(self, spec, params, tmp_path):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 36, endpoint=False)
        curve = trace_curve(1, lam, grid, spec, prof)
        path = str(tmp_path / "curve.csv")
        export_curve(curve, path)
        back = read_curve(path)
        assert back.level == curve.level and back.lam == curve.lam
        assert back.holes == curve.holes
        for a, b in zip(curve.samples, back.samples):
            assert a.phi == b.phi and a.admissible == b.admissible
            if a.admissible:
                assert a.kappa == b.kappa and a.h == b.h

    def test_reasons_round_trip(self, spec, tmp_path):
        lam = 1600.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 60, endpoint=False)
        curve = trace_curve(2, lam, grid, spec, prof)
        path = str(tmp_path / "curve.csv")
        export_curve(curve, path)
        back = read_curve(path)
        assert [s.reason for s in back.samples] == [s.reason for s in curve.samples]
        assert len({s.reason for s in curve.samples}) >= 2

    def test_header_only_for_empty_grid(self, spec, tmp_path):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        curve = trace_curve(1, lam, np.zeros((0,)), spec, prof)
        path = str(tmp_path / "empty.csv")
        export_curve(curve, path)
        lines = open(path).read().strip().splitlines()
        assert lines == ["phi,kappa,h,dkappa_dphi,admissible"]

    def test_row_count_equals_grid(self, spec, tmp_path):
        lam = 625.0
        prof = make_profile(math.sqrt(lam))
        grid = np.linspace(0, TWO_PI, 25, endpoint=False)
        curve = trace_curve(1, lam, grid, spec, prof)
        path = str(tmp_path / "c.csv")
        export_curve(curve, path)
        assert len(open(path).read().strip().splitlines()) == 26
