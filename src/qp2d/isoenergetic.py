"""Isoenergetic curves: solve lambda_n(kappa * nu(phi)) = lambda for the
radius kappa at each admissible angle, the level-1 radii of a whole grid in
one lockstep Newton, and trace the resulting distorted circle with holes.
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
    NoRoot,
    NotUnique,
    generic_step,
    level2_geometry,
)
from .potential import PotentialSpec
from .profile import ParameterProfile
from .resonance import AngleSet, OverlapDetected, ResonantBase, build_omega1
from .multiscale import local_pole_discs

TWO_PI = 2.0 * math.pi


class NotUniqueRoot(ArithmeticError):
    pass


class Excised(ResonantBase):
    """The angle lies outside the level's admissible set; `reason` names the
    excision: "step-I" (the step-I arcs) or "pole-disc" (a pole disc of a
    local level-2 resonance block)."""

    def __init__(self, reason: str, phi: float):
        super().__init__(f"phi={phi:.9f} lies in a {reason} excision")
        self.reason = reason


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
    # why the sample is not admissible: "step-I", "pole-disc" or the type
    # name of the REJECTIONS member raised; None when it is admissible
    reason: str | None

    @property
    def admissible(self) -> bool:
        return self.reason is None


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


def _newton(kappa: float, nu: np.ndarray, lam: float, halfwidth: float):
    """A `LevelEvaluator.solve` column for the radius along nu: Newton from
    kappa with derivative 2*kappa, bisection fallback on kappa +- halfwidth.
    The root once |f - lam| <= 1e-9*lam; NoRoot when the bracket ends share a
    sign or 200 bisections miss."""
    tol = 1e-9 * lam
    lo, hi = kappa - halfwidth, kappa + halfwidth
    for _ in range(25):
        r = (yield kappa * nu) - lam
        if abs(r) <= tol:
            return kappa
        kappa -= r / (2.0 * kappa)
        if not (lo <= kappa <= hi):
            break
    flo = (yield lo * nu) - lam
    fhi = (yield hi * nu) - lam
    if flo * fhi > 0:
        raise NoRoot(f"no bracketed root in [{lo:.9g}, {hi:.9g}]: f ends {flo:.3g}, {fhi:.3g}")
    for _ in range(201):  # 200 bisections, then the last midpoint's check
        mid = 0.5 * (lo + hi)
        fm = (yield mid * nu) - lam
        if abs(fm) <= tol:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    raise NoRoot(f"bisection ended at {mid:.9g} with |f - lambda| = {abs(fm):.3g}")


def _value(point: np.ndarray):
    """A `LevelEvaluator.solve` column: the value at point."""
    return (yield point)


def _newton_solve(ev: LevelEvaluator, nus, starts, lam: float, halfwidth: float) -> list:
    """Per row of nus, the radius from its start on ev, or its rejection."""
    return ev.solve(_newton(float(s), nu, lam, halfwidth) for s, nu in zip(starts, nus))


def _newton_root(ev: LevelEvaluator, nu, start: float, lam: float, halfwidth: float) -> float:
    """_newton_solve on one row: its root, or its rejection raised."""
    (root,) = _newton_solve(ev, [nu], [start], lam, halfwidth)
    if isinstance(root, Exception):
        raise root
    return root


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


def _admit(n: int, phi: float, omega: AngleSet, spec, prof, built: dict) -> LevelEvaluator | None:
    """The level-2 evaluator at phi (None at level 1) when level n admits phi:
    phi lies in omega and, at level 2, its geometry exists and puts phi
    outside the pole discs of its local resonance blocks.  Raises Excised,
    or the rejection the geometry raised, when it does not."""
    if not omega.contains(phi):
        raise Excised("step-I", phi)
    if n == 1:
        return None
    geo = level2_geometry(phi, spec, prof)
    if any(abs(phi - p) <= r for p, r in local_pole_discs(phi, prof.k, spec, prof, geometry=geo)):
        raise Excised("pole-disc", phi)
    return _level2_evaluator(built, geo, spec, prof)


def _reason(exc: Exception) -> str:
    """A rejected sample's reason: the excision, or the rejection's type."""
    return exc.reason if isinstance(exc, Excised) else type(exc).__name__


def _admissible(n: int, phis, omega: AngleSet, spec, prof) -> tuple[list, np.ndarray, dict, dict]:
    """(grid positions, their nu(phi) rows, {position: level-2 evaluator or
    None}) of the angles that level n admits, and {position: reason} of the
    others."""
    evaluators, reasons, built = {}, {}, {}
    for i, phi in enumerate(phis):
        try:
            evaluators[i] = _admit(n, phi, omega, spec, prof, built)
        except REJECTIONS as exc:
            reasons[i] = _reason(exc)
    idx = list(evaluators)
    nus = np.array([[math.cos(phis[i]), math.sin(phis[i])] for i in idx]).reshape(-1, 2)
    return idx, nus, evaluators, reasons


def _level2_evaluator(built: dict, geometry: Level2Geometry, spec, prof) -> LevelEvaluator:
    """geometry's evaluator from the caller's own dict: an evaluator depends
    on its geometry only through the rows (the profile's box_r1 box) and the
    block labels and core positions, so geometries of one partition share one
    (and the others are freed)."""
    key = (geometry.block_labels.tobytes(), geometry.core_positions.tobytes())
    if key not in built:
        built[key] = LevelEvaluator(spec, prof, geometry)
    return built[key]


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
    Level 2 admits the angles trace_curve admits and raises Excised (a
    ResonantBase) at the others; level 1 solves at any angle.
    """
    k, prof, ev1 = _at_energy(n, lam, spec, profile)
    nu = np.array([math.cos(phi), math.sin(phi)])
    ev, start, half = ev1, k, prof.kappa_window_1
    if n == 2:
        ev = _admit(2, phi, build_omega1(k, prof, spec.params), spec, prof, {})
        start, half = _newton_root(ev1, nu, k, lam, half), prof.kappa_window_2
    root = _newton_root(ev, nu, start, lam, half)
    if check_unique:
        grid = np.linspace(start - half, start + half, 7)
        vals = ev.eigenvalues(grid[:, None] * nu)
        for v in vals:
            if isinstance(v, Exception):
                raise v
        diffs = [v - lam for v in vals]
        crossings = sum(1 for a, b in zip(diffs, diffs[1:]) if a == 0 or a * b < 0)
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
    excises the pole discs of the local resonance blocks.  One lockstep Newton
    solves every level-1 radius, then one per level-2 evaluator (one per
    block partition) every level-2 radius it serves.
    """
    k, prof, ev1 = _at_energy(n, lam, spec, profile)
    grid = np.asarray(phi_grid, dtype=float)
    if omega is None:
        omega = build_omega1(k, prof, spec.params)
    phis = [float(phi) for phi in grid]
    idx, nus, evaluators, reasons = _admissible(n, phis, omega, spec, prof)
    solved: dict[int, tuple[float, float]] = {}
    level2: dict[LevelEvaluator, list] = {}  # per evaluator, its (position, nu, kappa_1)
    for i, nu, k1 in zip(idx, nus, _newton_solve(ev1, nus, [k] * len(idx), lam, prof.kappa_window_1)):
        if isinstance(k1, Exception):
            reasons[i] = _reason(k1)
        elif n == 1:
            solved[i] = (k1, k1 - k)
        else:
            level2.setdefault(evaluators[i], []).append((i, nu, k1))
    for ev, cols in level2.items():
        _, nus2, starts = zip(*cols)
        for (i, _, k1), kappa in zip(cols, _newton_solve(ev, nus2, starts, lam, prof.kappa_window_2)):
            if isinstance(kappa, Exception):
                reasons[i] = _reason(kappa)
            else:
                solved[i] = (kappa, kappa - k1)

    def slope(i: int) -> float:  # centered difference between admissible neighbours
        if i - 1 in solved and i in solved and i + 1 in solved:
            return (solved[i + 1][0] - solved[i - 1][0]) / (phis[i + 1] - phis[i - 1])
        return math.nan

    return IsoCurve(
        level=n,
        lam=lam,
        samples=tuple(
            CurveSample(phi, *solved.get(i, (math.nan, math.nan)), slope(i), reasons.get(i))
            for i, phi in enumerate(phis)
        ),
        holes=tuple(_holes_from_flags(grid, [i in solved for i in range(len(phis))])),
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
    phis = [float(phi) for phi in np.asarray(phi_grid, dtype=float)]
    idx, nus, evaluators, _ = _admissible(n, phis, omega, spec, prof)
    if n == 1:
        lams = ev1.solve(_value(point) for point in k * nus)
        return [(phis[i], (v - lam) / (2.0 * k)) for i, v in zip(idx, lams) if isinstance(v, float)]
    out: list[tuple[float, float]] = []
    level1 = _newton_solve(ev1, nus, [k] * len(idx), lam, prof.kappa_window_1)
    for i, nu, k1 in zip(idx, nus, level1):
        if isinstance(k1, Exception):
            continue
        try:
            res = generic_step(evaluators[i].state(k1 * nu), prof, with_projector=False)
        except REJECTIONS:
            continue
        out.append((phis[i], (res.lam - res.lambda_base) / (2.0 * k1)))
    return out


def export_curve(curve: IsoCurve, path: str) -> None:
    """CSV of the samples plus a JSON sidecar with the holes and the
    samples' reasons."""
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
                "reasons": [s.reason for s in curve.samples],
            },
            fh,
            indent=1,
        )


def read_curve(path: str) -> IsoCurve:
    with open(path + ".holes.json") as fh:
        meta = json.load(fh)
    samples = []
    with open(path) as fh:
        next(fh)
        for line, reason in zip(fh, meta["reasons"], strict=True):
            phi, kappa, h, d, _ = line.strip().split(",")
            samples.append(CurveSample(float(phi), float(kappa), float(h), float(d), reason))
    return IsoCurve(
        level=int(meta["level"]),
        lam=float(meta["lambda"]),
        samples=tuple(samples),
        holes=tuple((a, b) for a, b in meta["holes"]),
    )
