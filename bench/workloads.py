"""The four seeded benchmark workloads.

Each workload draws a few distinct inputs from the seed alone and passes
only those inputs to qp2d's public API.  ``run`` is the timed call; ``check``
and ``finish`` form the output gate and run after the timed phase.  Every call
goes through a module attribute (``isoenergetic.trace_curve``, not a bound
name), so the traced run sees it.
"""

from __future__ import annotations

import math

import numpy as np

from qp2d import isoenergetic, perturb, resonance, wavefunction, multiscale
from qp2d.isoenergetic import NoRoot, NotUniqueRoot
from qp2d.lattice import LatticeIndex, dual_vector
from qp2d.perturb import ContourHit, NonConvergent, NotUnique
from qp2d.resonance import OverlapDetected, ResonantBase
from qp2d.verify import RunConfig

TWO_PI = 2.0 * math.pi

# Typed numerical rejections: a sample the mathematics excludes, not a bug.
REJECTIONS = (
    ResonantBase,
    OverlapDetected,
    ContourHit,
    NonConvergent,
    NotUnique,
    NoRoot,
    NotUniqueRoot,
)


def _oracle_failures(res, k: float, label: str) -> list[str]:
    out = []
    if res.oracle_count != 1:
        out.append(f"{label}: oracle count {res.oracle_count}")
    if not res.converged:
        out.append(f"{label}: series not converged")
    tol = max(1e-9 * k * k, 10.0 * res.tail_estimate)
    if not res.delta_vs_oracle <= tol:
        out.append(f"{label}: |series-oracle| {res.delta_vs_oracle:.3g} > {tol:.3g}")
    return out


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(rng, n: int) -> list[float]:
    """n points of [0, 1): a seeded start, then golden-ratio steps.

    The points cover [0, 1) almost evenly, so the few inputs of a run mix
    easy and hard cases alike whatever the seed; the seed only shifts them.
    """
    u = float(rng.uniform())
    return [(u + j * GOLDEN) % 1.0 for j in range(n)]


def _angle_at(omega, t: float) -> float:
    """The angle at arc length t * measure into the admissible set."""
    left = t * omega.measure
    for a, b in omega.intervals:
        if left <= b - a:
            return a + left
        left -= b - a
    return omega.intervals[-1][1]


class Workload:
    """Seeded inputs, the timed call and the output gate of one workload."""

    unit = "call"
    call = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        # gate draws come from their own stream, so they do not depend on how
        # many calls the timed phase made
        self.gate_rng = np.random.default_rng([seed, 1])
        cfg = RunConfig.default()
        self.params = cfg.params()
        self.spec = cfg.spec()
        self.cfg = cfg

    def inputs(self) -> list:
        """The run's distinct seeded inputs, which the timed loop cycles."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def units(self, item, out) -> tuple[int, int, int]:
        """(attempted, rejected, solved) work units of one completed call;
        items_per_s counts the solved ones."""
        return 1, 0, 1

    def fingerprint(self, out):
        """A value equal for bit-identical outputs."""
        raise NotImplementedError

    def check(self, item, out) -> list[str]:
        return []

    def finish(self, done) -> list[tuple[int, str]]:
        """Run-level checks over [(item, out)]; (index, message) failures."""
        return []


class CurveL2(Workload):
    """`qp curve --level 2`: one phase-shifted angle grid per call."""

    unit = "admissible angle samples"
    call = "isoenergetic.trace_curve(2, lam=1600) over one shifted grid of 41 angles"
    lam = 1600.0
    oracle_samples = 2

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.k = math.sqrt(self.lam)
        self.prof = self.cfg.profile_at(self.k)
        self.omega = resonance.build_omega1(self.k, self.prof, self.params)
        # 41, not 40: the curve has the square's symmetry, and a grid of a
        # multiple of four angles samples each quarter-turn image again
        self.n_angles = 7 if smoke else 41
        self.n_grids = 1 if smoke else 3

    def inputs(self):
        step = TWO_PI / self.n_angles
        return [
            step * (u + np.arange(self.n_angles))
            for u in _spread(self.rng, self.n_grids)
        ]

    def run(self, grid):
        return isoenergetic.trace_curve(
            2, self.lam, grid, self.spec, self.prof, omega=self.omega
        )

    def units(self, grid, curve):
        n, ok = len(curve.samples), len(curve.admissible_samples)
        return n, n - ok, ok

    def fingerprint(self, curve):
        return np.array([(s.phi, s.kappa) for s in curve.samples]).tobytes()

    def _point(self, s):
        return s.kappa * np.array([math.cos(s.phi), math.sin(s.phi)])

    def check(self, grid, curve):
        out = []
        tol = 1e-9 * self.lam
        for s in curve.admissible_samples:
            if not self.omega.contains(s.phi):
                out.append(f"phi={s.phi:.9f} level-2 admissible, not level-1")
                continue
            try:
                res = perturb.eigenvalue_level(
                    2, self._point(s), self.spec, self.prof, check_oracle=False
                )
            except REJECTIONS as exc:
                out.append(f"phi={s.phi:.9f} re-solve rejected: {exc!r}")
                continue
            if not abs(res.lam - self.lam) <= tol:
                out.append(
                    f"phi={s.phi:.9f} re-solve |lam2-lam|={abs(res.lam - self.lam):.3g}"
                )
        return out

    def finish(self, done):
        pool = [
            (i, s)
            for i, (_, curve) in enumerate(done)
            for s in curve.admissible_samples
        ]
        if not pool:
            return []
        picks = self.gate_rng.choice(len(pool), size=min(self.oracle_samples, len(pool)), replace=False)
        out = []
        for p in sorted(picks.tolist()):
            i, s = pool[p]
            try:
                res = perturb.eigenvalue_level(
                    2, self._point(s), self.spec, self.prof, check_oracle=True
                )
            except REJECTIONS as exc:
                out.append((i, f"phi={s.phi:.9f} oracle check rejected: {exc!r}"))
                continue
            out.extend((i, m) for m in _oracle_failures(res, self.k, f"phi={s.phi:.9f}"))
        return out


class EigenOracle(Workload):
    """`qp eigen` and verify criteria 1-2: both levels against the dense
    oracle at one 8tau-admissible point per k of the verify grid."""

    unit = "points"
    call = "perturb.eigenvalue_level(1 and 2, check_oracle=True) at one point"
    k_grid = (15.0, 25.0, 40.0, 60.0)

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.sets = []
        for k in self.k_grid[:1] if smoke else self.k_grid:
            prof = self.cfg.profile_at(k)
            self.sets.append((k, prof, resonance.build_omega1(k, prof, self.params, 8.0)))

    def inputs(self):
        """One point per k."""
        out = []
        for k, prof, omega in self.sets:
            phi = _angle_at(omega, float(self.rng.uniform()))
            out.append((k, prof, k * np.array([math.cos(phi), math.sin(phi)])))
        return out

    def run(self, item):
        k, prof, kap = item
        r1 = perturb.eigenvalue_level(1, kap, self.spec, prof, check_oracle=True)
        r2 = perturb.eigenvalue_level(2, kap, self.spec, prof, check_oracle=True)
        return r1, r2

    def fingerprint(self, out):
        return tuple((r.lam, r.oracle_lambda, r.tail_estimate) for r in out)

    def check(self, item, out):
        k = item[0]
        return _oracle_failures(out[0], k, "level 1") + _oracle_failures(
            out[1], k, "level 2"
        )


class RootScan(Workload):
    """The Appendix-4 root count: one (m, eps0) draw per call at k = 25."""

    unit = "draws"
    call = "resonance.appendix4_count(m, k=25, eps0)"
    k = 25.0
    rows = (
        LatticeIndex((2, 2), (0, -1)),
        LatticeIndex((1, 2), (1, 0)),
        LatticeIndex((3, 0), (0, 1)),
        LatticeIndex((2, -1), (1, 1)),
    )
    sign_probe = 1e-6  # radians either side of a root

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.prof = self.cfg.profile_at(self.k)

    def inputs(self):
        """One draw: a draw takes seconds, so a run repeats it."""
        m = self.rows[int(self.rng.integers(len(self.rows)))]
        u = float(self.rng.uniform(-0.4, 0.4))
        return [(m, u * dual_vector(m, self.params).length)]

    def run(self, item):
        m, eps0 = item
        return resonance.appendix4_count(m, self.k, eps0, self.spec, self.prof)

    def fingerprint(self, out):
        return out[0], tuple(out[1])

    def _shifted(self, m, eps0, phi: float) -> float:
        """lambda_1(kappa_1(phi) nu + p_m) - k^2 - eps0 through the public
        level-1 API."""
        lam = self.k * self.k
        kap1 = isoenergetic.solve_radius(1, lam, phi, self.spec, self.prof)
        nu = np.array([math.cos(phi), math.sin(phi)])
        point = kap1 * nu + dual_vector(m, self.params).p
        res = perturb.eigenvalue_level(1, point, self.spec, self.prof, check_oracle=False)
        return res.lam - lam - eps0

    def check(self, item, out):
        m, eps0 = item
        count, roots = out
        fails = []
        if count > 2 or count != len(roots):
            fails.append(f"count {count} with {len(roots)} roots")
        for r in roots:
            try:
                lo = self._shifted(m, eps0, r - self.sign_probe)
                hi = self._shifted(m, eps0, r + self.sign_probe)
            except REJECTIONS as exc:
                fails.append(f"root {r:.12f}: re-evaluation rejected: {exc!r}")
                continue
            if not lo * hi < 0.0:
                fails.append(f"root {r:.12f}: no sign change ({lo:.3g}, {hi:.3g})")
        return fails


class BasepointL2(Workload):
    """Level-2 eigenfunction plus the multiscale region map at one
    8tau-admissible base angle, k = 40."""

    unit = "base angles"
    call = (
        "wavefunction.synthesize/residual/sample(2) + "
        "multiscale.build_m2set/region_map/boundary_check at one angle"
    )
    k = 40.0

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.prof = self.cfg.profile_at(self.k)
        self.omega = resonance.build_omega1(self.k, self.prof, self.params, 8.0)
        self.grid = wavefunction.unit_cell_grid(16 if smoke else 64)
        self.n_angles = 1 if smoke else 3

    def inputs(self):
        return [_angle_at(self.omega, u) for u in _spread(self.rng, self.n_angles)]

    def run(self, phi):
        kap = self.k * np.array([math.cos(phi), math.sin(phi)])
        wf = wavefunction.synthesize(2, kap, self.spec, self.prof)
        wavefunction.residual(wf, self.spec)
        wavefunction.sample(wf, self.grid)
        m2, decomp = multiscale.build_m2set(phi, self.k, None, self.spec, self.prof)
        rmap = multiscale.region_map(m2, self.k, self.spec, self.prof, decomp=decomp)
        return wf, multiscale.boundary_check(rmap, self.spec)

    def fingerprint(self, out):
        wf, violation = out
        return tuple(wf.coeffs), np.array(list(wf.coeffs.values())).tobytes(), violation

    def check(self, phi, out):
        wf, violation = out
        fails = []
        v = np.array(list(wf.coeffs.values()))
        proj = np.outer(v, v.conj())
        idem = float(np.linalg.norm(proj @ proj - proj))
        if not idem <= 1e-8:
            fails.append(f"projector |E^2-E|_F = {idem:.3g}")
        rank = int(np.linalg.matrix_rank(proj, tol=1e-8))
        if rank != 1:
            fails.append(f"projector rank {rank}")
        if violation != 0.0:
            fails.append(f"boundary_check = {violation!r}")
        return fails


WORKLOADS = {
    "curve-l2": CurveL2,
    "eigen-oracle": EigenOracle,
    "rootscan": RootScan,
    "basepoint-l2": BasepointL2,
}
