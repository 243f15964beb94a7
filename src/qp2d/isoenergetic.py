"""Isoenergetic curves: solve the dressed-eigenvalue equation
lambda_n(kappa * nu(phi)) = lambda for the radius kappa at each admissible
angle and trace the resulting distorted circle with holes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .perturb import (
    ContourHit,
    Level2Geometry,
    LevelEvaluator,
    NonConvergent,
    NotUnique,
    generic_step,
    level2_geometry,
)
from .potential import PotentialSpec
from .profile import ParameterProfile
from .resonance import AngleSet, OverlapDetected, ResonantBase, build_omega1
from .multiscale import local_pole_discs

TWO_PI = 2.0 * math.pi


class NoRoot(ArithmeticError):
    pass


class NotUniqueRoot(ArithmeticError):
    pass


# the typed numerical rejections that make a curve sample a hole; any other
# exception is a bug and propagates
REJECTIONS = (
    NoRoot,
    NotUniqueRoot,
    ResonantBase,
    OverlapDetected,
    ContourHit,
    NonConvergent,
    NotUnique,
)


@dataclass(frozen=True)
class CurveSample:
    phi: float
    kappa: float
    h: float
    dkappa_dphi: float
    admissible: bool


@dataclass(frozen=True)
class IsoCurve:
    level: int
    lam: float
    samples: tuple[CurveSample, ...]
    holes: tuple[tuple[float, float], ...]

    @property
    def admissible_samples(self) -> list[CurveSample]:
        return [s for s in self.samples if s.admissible]

    @property
    def sup_h(self) -> float:
        vals = [abs(s.h) for s in self.admissible_samples]
        return max(vals) if vals else math.nan

    @property
    def hole_measure(self) -> float:
        return float(sum(b - a for a, b in self.holes))


def _newton_solve(
    f, start: float, lam: float, halfwidth: float, max_iter: int = 25
) -> float:
    """Newton with derivative 2*kappa, bisection fallback on the bracket."""
    tol = 1e-9 * lam
    kappa = start
    lo, hi = start - halfwidth, start + halfwidth
    for _ in range(max_iter):
        r = f(kappa) - lam
        if abs(r) <= tol:
            return kappa
        kappa -= r / (2.0 * kappa)
        if not (lo <= kappa <= hi):
            break
    flo, fhi = f(lo) - lam, f(hi) - lam
    if flo * fhi > 0:
        raise NoRoot(
            f"no bracketed root in [{lo:.9g}, {hi:.9g}] (f ends {flo:.3g}, {fhi:.3g})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - lam
        if abs(fm) <= tol:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _at_energy(
    n: int, lam: float, spec: PotentialSpec, profile: ParameterProfile
) -> tuple[float, ParameterProfile, LevelEvaluator]:
    """(k, the profile at k, the level-1 evaluator) for lambda = k^2.  The
    level-1 evaluator depends on no angle, so one serves a whole call."""
    if n not in (1, 2):
        raise ValueError(f"level {n}: radii are solved at levels 1 and 2")
    k = math.sqrt(lam)
    prof = profile if profile.k == k else profile.with_k(k)
    return k, prof, LevelEvaluator(spec, prof)


def _level1_radius(ev1: LevelEvaluator, nu: np.ndarray, lam: float) -> float:
    """kappa_1 along nu: Newton from sqrt(lambda) within kappa_window_1."""
    return _newton_solve(
        lambda kap: ev1.eigenvalue(kap * nu),
        math.sqrt(lam),
        lam,
        ev1.profile.kappa_window_1,
    )


def _admissible_geometry(
    phi: float, spec: PotentialSpec, prof: ParameterProfile
) -> Level2Geometry:
    """The level-2 geometry at phi; ResonantBase when phi lies in a pole disc
    of its local resonance blocks."""
    geometry = level2_geometry(phi, spec, prof)
    discs = local_pole_discs(phi, prof.k, spec, prof, geometry=geometry)
    if any(abs(phi - p) <= r for p, r in discs):
        raise ResonantBase("inside a second-level pole disc")
    return geometry


def solve_radius(
    n: int,
    lam: float,
    phi: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    check_unique: bool = False,
) -> float:
    """The radius kappa(lambda, phi) with lambda_n(kappa*nu) = lambda.

    Newton from sqrt(lambda) (level 1) or from the level-1 radius (level 2),
    derivative approximated by 2*kappa; residual at exit <= 1e-9*lambda.
    """
    k, prof, ev1 = _at_energy(n, lam, spec, profile)
    nu = np.array([math.cos(phi), math.sin(phi)])
    if n == 1:
        ev, start, half = ev1, k, prof.kappa_window_1
    else:
        ev = LevelEvaluator(spec, prof, level2_geometry(phi, spec, prof))
        start, half = _level1_radius(ev1, nu, lam), prof.kappa_window_2
    f = lambda kap: ev.eigenvalue(kap * nu)
    root = _newton_solve(f, start, lam, half)
    if check_unique:
        grid = np.linspace(start - half, start + half, 7)
        vals = [f(float(g)) - lam for g in grid]
        crossings = sum(
            1 for a, b in zip(vals, vals[1:]) if a == 0 or a * b < 0
        )
        if crossings == 0:
            raise NoRoot("no sign change across the bracket")
        if crossings > 1:
            raise NotUniqueRoot(f"{crossings} sign changes across the bracket")
    return root


def _holes_from_flags(grid: np.ndarray, ok: list[bool]):
    holes = []
    start = None
    for phi, good in zip(grid, ok):
        if not good and start is None:
            start = phi
        elif good and start is not None:
            holes.append((float(start), float(phi)))
            start = None
    if start is not None:
        # a trailing hole runs one grid step on; on a one-angle grid, the circle
        step = float(grid[1] - grid[0]) if len(grid) > 1 else TWO_PI
        holes.append((float(start), float(grid[-1]) + step))
    return holes


def trace_curve(
    n: int,
    lam: float,
    phi_grid,
    spec: PotentialSpec,
    profile: ParameterProfile,
    omega: AngleSet | None = None,
) -> IsoCurve:
    """Radius samples over the grid with admissibility flags and holes.

    Level-1 admissibility is the step-I good set; level 2 additionally
    excises the pole discs of the local resonance blocks.
    """
    k, prof, ev1 = _at_energy(n, lam, spec, profile)
    grid = np.asarray(phi_grid, dtype=float)
    if omega is None:
        omega = build_omega1(k, prof, spec.params)
    samples: list[CurveSample] = []
    for phi in grid:
        phi = float(phi)
        good = omega.contains(phi)
        kappa = math.nan
        h = math.nan
        if good:
            try:
                nu = np.array([math.cos(phi), math.sin(phi)])
                geometry = _admissible_geometry(phi, spec, prof) if n == 2 else None
                k1 = _level1_radius(ev1, nu, lam)
                if n == 1:
                    kappa, h = k1, k1 - k
                else:
                    ev2 = LevelEvaluator(spec, prof, geometry)
                    kappa = _newton_solve(
                        lambda kap: ev2.eigenvalue(kap * nu),
                        k1,
                        lam,
                        prof.kappa_window_2,
                    )
                    h = kappa - k1
            except REJECTIONS:
                good = False
        samples.append(CurveSample(phi, kappa, h, math.nan, good))

    # centered differences between adjacent admissible samples
    out: list[CurveSample] = []
    for i, s in enumerate(samples):
        d = math.nan
        if s.admissible:
            il, ir = i - 1, i + 1
            if 0 <= il and ir < len(samples):
                sl, sr = samples[il], samples[ir]
                if sl.admissible and sr.admissible:
                    d = (sr.kappa - sl.kappa) / (sr.phi - sl.phi)
        out.append(CurveSample(s.phi, s.kappa, s.h, d, s.admissible))
    return IsoCurve(
        level=n,
        lam=lam,
        samples=tuple(out),
        holes=tuple(_holes_from_flags(grid, [s.admissible for s in samples])),
    )


def deviation_profile(
    n: int,
    lam: float,
    phi_grid,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> list[tuple[float, float]]:
    """Stable per-angle deviation estimates: the correction sum divided by
    the radial derivative.

    For level 1 this is (lambda_1(k nu) - k^2)/(2k), the leading term of
    kappa_1 - k; for level 2 it is (lambda_2 - lambda_1)/(2 kappa_1) with
    both eigenvalues evaluated at the level-1 radius, so the difference is a
    pure correction sum and survives far below the radius-solver tolerance.
    """
    k, prof, ev1 = _at_energy(n, lam, spec, profile)
    omega = build_omega1(k, prof, spec.params)
    out: list[tuple[float, float]] = []
    for phi in np.asarray(phi_grid, dtype=float):
        phi = float(phi)
        if not omega.contains(phi):
            continue
        try:
            nu = np.array([math.cos(phi), math.sin(phi)])
            if n == 1:
                dev = (ev1.eigenvalue(k * nu) - lam) / (2.0 * k)
            else:
                geometry = _admissible_geometry(phi, spec, prof)
                k1 = _level1_radius(ev1, nu, lam)
                res = generic_step(
                    LevelEvaluator(spec, prof, geometry).state(k1 * nu),
                    prof,
                    with_projector=False,
                )
                dev = (res.lam - res.lambda_base) / (2.0 * k1)
            out.append((phi, dev))
        except REJECTIONS:
            continue
    return out


def curve_delta(
    lam: float,
    phi_grid,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> tuple[float, float, IsoCurve, IsoCurve]:
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


def export_curve(curve: IsoCurve, path: str) -> None:
    """CSV of the samples plus a JSON sidecar with the holes."""
    with open(path, "w") as fh:
        fh.write("phi,kappa,h,dkappa_dphi,admissible\n")
        for s in curve.samples:
            fh.write(
                "%.17g,%.17g,%.17g,%.17g,%d\n"
                % (s.phi, s.kappa, s.h, s.dkappa_dphi, int(s.admissible))
            )
    with open(path + ".holes.json", "w") as fh:
        json.dump(
            {
                "level": curve.level,
                "lambda": curve.lam,
                "holes": [list(h) for h in curve.holes],
            },
            fh,
            indent=1,
        )


def read_curve(path: str) -> IsoCurve:
    samples = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            phi, kappa, h, d, adm = line.strip().split(",")
            samples.append(
                CurveSample(
                    float(phi), float(kappa), float(h), float(d), bool(int(adm))
                )
            )
    with open(path + ".holes.json") as fh:
        meta = json.load(fh)
    return IsoCurve(
        level=int(meta["level"]),
        lam=float(meta["lambda"]),
        samples=tuple(samples),
        holes=tuple((a, b) for a, b in meta["holes"]),
    )
