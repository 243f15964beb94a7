"""Acceptance battery: one record per check, machine-readable, reproducible
from a single seeded configuration.

Each criterion function returns CheckRecord entries carrying the measured
quantity, its threshold and the verdict; `run_all` executes the full battery
in order.  Quantitative checks follow the property-plus-trend discipline:
exact identities are asserted exactly, asymptotic statements as monotone
trends over the k- or lambda-grid at fixed profile shape.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import band1d, isoenergetic, multiscale, perturb, resonance, wavefunction
from .fiber import assemble
from .lattice import (
    LatticeIndex,
    QPParams,
    best_rational,
    cluster_decompose,
    count_short_vectors,
    dual_vector,
    enumerate_box,
    enumerate_box_array,
    primitive_direction,
    triple_norm_array,
    dual_array,
)
from .potential import PotentialSpec, build
from .profile import ParameterProfile, make_profile

TWO_PI = 2.0 * math.pi


@dataclass
class CheckRecord:
    name: str
    passed: bool
    measured: float
    threshold: float
    runtime: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g} ({self.runtime:.2f}s) {self.detail}"
        )

    def as_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "status": "pass" if self.passed else "fail",
                "measured": self.measured,
                "threshold": self.threshold,
                "runtime": round(self.runtime, 6),  # a sub-ms check is not 0.0
                "detail": self.detail,
            }
        )


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    alpha: dict
    mu: float = 2.0
    Q: int = 4
    generators: list = field(
        default_factory=lambda: [
            [1, 0, 0, 0, 0.1, 0.0],
            [0, -1, 0, 1, 0.075, 0.025],
        ]
    )
    k_grid: list = field(default_factory=lambda: [15.0, 25.0, 40.0, 60.0])
    lambda_grid: list = field(default_factory=lambda: [225.0, 625.0, 1600.0, 3600.0])
    phi_points: int = 160
    seed: int = 20260809
    out_dir: str | None = None
    profile: dict = field(default_factory=dict)

    @staticmethod
    def default() -> "RunConfig":
        return RunConfig(alpha={"quadratic": [-1, 1, 2, 1]})

    @staticmethod
    def from_json(path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        known = set(RunConfig.__dataclass_fields__)
        bad = set(raw) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        if "alpha" not in raw:
            raise ConfigError("config requires an 'alpha' descriptor")
        # k is set per run and mu at the top level
        bad = set(raw.get("profile", {})) - (
            set(ParameterProfile.__dataclass_fields__) - {"k", "mu"}
        )
        if bad:
            raise ConfigError(f"unknown profile overrides: {sorted(bad)}")
        return RunConfig(**raw)

    def params(self) -> QPParams:
        a = self.alpha
        try:
            if "quadratic" in a:
                return QPParams(
                    quadratic=tuple(int(x) for x in a["quadratic"]), mu=self.mu
                )
            if "cf" in a:
                return QPParams(
                    cf_prefix=tuple(int(x) for x in a["cf"]), mu=self.mu
                )
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad alpha descriptor: {exc}") from exc
        raise ConfigError("alpha must carry 'quadratic' or 'cf'")

    def spec(self) -> PotentialSpec:
        params = self.params()
        gens = []
        for row in self.generators:
            if len(row) != 6:
                raise ConfigError(
                    "generator rows are [s1x, s1y, s2x, s2y, re, im]"
                )
            s1x, s1y, s2x, s2y, re, im = row
            gens.append(
                (
                    LatticeIndex((int(s1x), int(s1y)), (int(s2x), int(s2y))),
                    complex(float(re), float(im)),
                )
            )
        return build(gens, Q=int(self.Q), params=params)

    def profile_at(self, k: float) -> ParameterProfile:
        return make_profile(k, mu=self.mu, **self.profile)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def _admissible_angles(k, prof, params, rng, count, tau_factor=1.0):
    om = resonance.build_omega1(k, prof, params, tau_factor)
    out = []
    tries = 0
    while len(out) < count and tries < 100 * count:
        tries += 1
        phi = float(rng.uniform(0, TWO_PI))
        if om.contains(phi):
            out.append(phi)
    return out


def _common_trend_angles(cfg: RunConfig, spec, count=4):
    """Angles admissible (with margin) at every k of the grid, along which
    the leading small denominators grow monotonically with k, so dressed
    quantities decrease pointwise.

    The growth filter requires each support direction's cosine to stay away
    from zero and the linear term to dominate the quadratic one already at
    the smallest k.
    """
    params = spec.params
    omegas = [
        resonance.build_omega1(k, cfg.profile_at(k), params, 2.0)
        for k in cfg.k_grid
    ]
    k_min = min(cfg.k_grid)
    support = [dual_vector(q, params) for q in spec.nonzero_support]
    out = []
    ranked = sorted(
        omegas[0].intervals, key=lambda ab: ab[1] - ab[0], reverse=True
    )
    for a, b in ranked:
        for frac in (0.5, 0.3, 0.7, 0.4, 0.6):
            phi = a + frac * (b - a)
            if not all(om.contains(phi) for om in omegas):
                continue
            ok = True
            for dv in support:
                c = abs(math.cos(phi - dv.angle))
                if c < 0.15 or 2.0 * k_min * dv.length * c < 2.0 * dv.length**2:
                    ok = False
                    break
            if ok:
                out.append(phi)
                break
        if len(out) >= count:
            break
    return out


def _disc_edge_angles(k, prof, spec, params, n_directions=6):
    """Angles just outside the level-2 pole discs around the tangency roots
    of the smallest outer-shell dual vectors; the level-2 deviation peaks
    there."""
    rows = enumerate_box_array(prof.box_r1)
    norms = triple_norm_array(rows)
    shell = rows[norms > prof.tilde_radius]
    lengths = np.linalg.norm(dual_array(shell, params), axis=1)
    order = np.argsort(lengths)
    out = []
    om8 = resonance.build_omega1(k, prof, params, 8.0)
    for i in order[: 4 * n_directions]:
        if len(out) >= 4 * n_directions:
            break
        dv = dual_vector(LatticeIndex.from_row(shell[i]), params)
        tg = resonance.tangent_angles(k, dv.length, dv.angle)
        if tg is None:
            continue
        for t in tg:
            for factor in (1.5, 3.0):
                phi = float((t + factor * prof.o2_disc_radius) % TWO_PI)
                if om8.contains(phi):
                    out.append(phi)
    return out


def _strictly_decreasing(seq) -> bool:
    """Strict decrease, vacuously true on an identically-zero sequence (the
    zero-potential configuration has no corrections to decay)."""
    return all((a > b) or (a == 0.0 and b == 0.0) for a, b in zip(seq, seq[1:]))


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def check_oracle_level1(cfg: RunConfig) -> list[CheckRecord]:
    """Dressed-eigenvalue series vs dense diagonalization at level 1."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    t0 = time.perf_counter()
    worst = 0.0
    n_points = 0
    per_k = max(1, 100 // len(cfg.k_grid))
    for k in cfg.k_grid:
        prof = cfg.profile_at(k)
        for phi in _admissible_angles(k, prof, params, rng, per_k):
            r = k + rng.uniform(-prof.kappa_window_1, prof.kappa_window_1)
            kap = r * np.array([math.cos(phi), math.sin(phi)])
            res = perturb.eigenvalue_level(1, kap, spec, prof, check_oracle=True)
            tol = max(1e-9 * k * k, 10 * res.tail_estimate)
            worst = max(worst, res.delta_vs_oracle / tol)
            n_points += 1
            if res.oracle_count != 1 or not res.converged:
                worst = math.inf
    rt = time.perf_counter() - t0
    return [
        CheckRecord(
            "step1-series-matches-oracle",
            worst <= 1.0 and n_points >= 0.9 * per_k * len(cfg.k_grid),
            worst,
            1.0,
            rt,
            f"{n_points} points, worst |series-oracle|/tol",
        )
    ]


def check_oracle_level2(cfg: RunConfig) -> list[CheckRecord]:
    """Level-2 series vs oracle with the block model, plus the correction
    hierarchy |lam2 - lam1| <= |lam1 - kappa^2| on at least 95% of points."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    t0 = time.perf_counter()
    worst = 0.0
    hier_ok = 0
    hier_rt = 0.0  # the hierarchy record's own work: the level-1 series
    n_points = 0
    rejected = 0
    per_k = max(1, 30 // len(cfg.k_grid) + (1 if 30 % len(cfg.k_grid) else 0))
    for k in cfg.k_grid:
        prof = cfg.profile_at(k)
        got = 0
        for phi in _admissible_angles(k, prof, params, rng, 8 * per_k, 8.0):
            if got >= per_k or n_points >= 30:
                break
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            try:
                r1, dt = _timed(
                    lambda: perturb.eigenvalue_level(1, kap, spec, prof, check_oracle=False)
                )
                hier_rt += dt
                r2 = perturb.eigenvalue_level(2, kap, spec, prof, check_oracle=True)
            except (resonance.OverlapDetected, perturb.NotUnique, perturb.NonConvergent):
                rejected += 1
                continue
            tol = max(1e-9 * k * k, 10 * r2.tail_estimate)
            worst = max(worst, r2.delta_vs_oracle / tol)
            if abs(r2.lam - r1.lam) <= abs(r1.lam - float(kap @ kap)) + 1e-14:
                hier_ok += 1
            n_points += 1
            got += 1
    rt = time.perf_counter() - t0 - hier_rt
    frac = hier_ok / max(n_points, 1)
    return [
        CheckRecord(
            "step2-series-matches-oracle",
            worst <= 1.0 and n_points >= 25,
            worst,
            1.0,
            rt,
            f"{n_points} points ({rejected} rejected), worst |series-oracle|/tol",
        ),
        CheckRecord(
            "step2-correction-hierarchy",
            frac >= 0.95,
            frac,
            0.95,
            hier_rt,
            f"{hier_ok}/{n_points} points with |lam2-lam1| <= |lam1-kappa^2|",
        ),
    ]


def _chain_setup(cfg: RunConfig):
    """Non-trivial chain configuration used by the exact-identity and band
    checks (near-null support direction via a large partial quotient)."""
    chain_params = QPParams(cf_prefix=[0, 3, 30, 1, 1, 1, 1, 1, 1, 1], mu=2.0)
    q_c = LatticeIndex((-1, 0), (3, 0))
    g2 = LatticeIndex((0, 1), (0, 0))
    chain_spec = build([(q_c, 0.05), (g2, 0.08)], Q=4, params=chain_params)
    m0 = LatticeIndex((2, 0), (1, 2))
    for t_frac in np.linspace(0.05, 0.95, 19):
        k, phi0 = resonance.tangency_base(m0, q_c, chain_params, t_frac=float(t_frac))
        prof = make_profile(k, tau=0.05, core_radius=1, tilde_radius=3, box_r1=8)
        for off in np.linspace(0.0, 2e-4, 5):
            p0 = float((phi0 + off) % TWO_PI)
            try:
                dec = resonance.classify(p0, k, chain_spec, prof)
            except resonance.ResonantBase:
                continue
            for cls in dec.classes:
                if not cls.trivial and cls.colinear_ok:
                    if max(s.n_plus - s.n_minus for s in cls.subsets) >= 2:
                        dec = resonance.strength(dec, k, p0, chain_spec, prof)
                        return k, p0, prof, chain_spec, chain_params, dec
    raise RuntimeError("chain construction failed")


def check_exact_identities(cfg: RunConfig) -> list[CheckRecord]:
    """Bit-level Hermiticity, separation of variables, block orthogonality,
    and residual shell support."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []

    def herm():
        worst = 0
        for k in cfg.k_grid[:2]:
            prof = cfg.profile_at(k)
            phi = _admissible_angles(k, prof, params, rng, 1)[0]
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            for radius in (prof.core_radius, prof.box_r1):
                h = assemble(kap, enumerate_box_array(radius), spec, params).entries
                worst = max(worst, int(not np.array_equal(h, h.conj().T)))
        return float(worst)

    v, rt = _timed(herm)
    out.append(
        CheckRecord("hermiticity-bit-exact", v == 0.0, v, 0.0, rt, "assembled sections")
    )

    def separation():
        k, phi0, prof, chain_spec, chain_params, dec = _chain_setup(cfg)
        kap = k * np.array([math.cos(phi0), math.sin(phi0)])
        worst = 0.0
        n = 0
        for cls in dec.classes:
            if cls.trivial or not cls.colinear_ok:
                continue
            for sub in cls.subsets:
                worst = max(
                    worst,
                    band1d.separation_check(cls, sub, kap, chain_spec) / (k * k),
                )
                n += 1
        return worst if n else math.inf

    v, rt = _timed(separation)
    out.append(
        CheckRecord(
            "separation-of-variables", v <= 1e-12, v, 1e-12, rt, "relative to k^2"
        )
    )

    def orthogonality():
        worst = 0.0
        built = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            for phi0 in _admissible_angles(k, prof, params, rng, 40, 8.0):
                try:
                    dec = resonance.classify(phi0, k, spec, prof)
                    if not len(dec.m_set):
                        continue
                    dec = resonance.strength(dec, k, phi0, spec, prof)
                    proj = resonance.assemble_projector(dec, k, prof, spec)
                except resonance.OverlapDetected:
                    continue
                built += 1
                box = enumerate_box_array(prof.box_r1)
                worst = max(
                    worst,
                    resonance.orthogonality_violation(
                        [box[b.positions] for b in proj.blocks], spec
                    ),
                )
                if built >= 6:
                    return worst
        return worst if built else math.inf

    v, rt = _timed(orthogonality)
    out.append(
        CheckRecord(
            "block-orthogonality-exact", v == 0.0, v, 0.0, rt, "largest coupling |V|"
        )
    )

    def shell():
        k = cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angles(k, prof, params, rng, 1)[0]
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        wf = wavefunction.synthesize(1, kap, spec, prof)
        rows, vals, _, interior = wavefunction.residual(wf, spec)
        norms = triple_norm_array(rows[np.abs(vals) > 1e-12 * k * k])
        shell = (wf.box_radius < norms) & (norms <= wf.box_radius + spec.max_support_norm)
        return interior / (k * k) if np.all(shell) else math.inf

    v, rt = _timed(shell)
    out.append(
        CheckRecord(
            "residual-shell-support", v <= 1e-12, v, 1e-12, rt, "interior leak / k^2"
        )
    )
    return out


def check_resonance_geometry(cfg: RunConfig) -> list[CheckRecord]:
    """Excised-measure trend, disc containment, and per-kind pole caps."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []

    def measure_trend():
        meas = [
            resonance.resonant_set_step1(k, cfg.profile_at(k), params).measure
            for k in cfg.k_grid
        ]
        drops = all(a >= b - 1e-12 for a, b in zip(meas, meas[1:]))
        return 0.0 if drops else 1.0

    v, rt = _timed(measure_trend)
    out.append(
        CheckRecord(
            "excised-measure-monotone", v == 0.0, v, 0.0, rt, "over the k grid"
        )
    )

    def containment():
        k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        arcs = resonance.step1_arcs(k, prof, params)
        excluded = resonance.resonant_set_step1(k, prof, params)
        misses = 0
        tested = 0
        for _ in range(400):
            phi = float(rng.uniform(0, TWO_PI))
            if not excluded.contains(phi):
                continue
            tested += 1
            hit = False
            for m, p, ang, _ in arcs:
                tg = resonance.tangent_angles(k, p, ang)
                if tg is None:
                    continue
                rad = resonance.disc_radius(k, p, prof.t1, prof.tau)
                if any(
                    abs((phi - t + math.pi) % TWO_PI - math.pi) <= rad for t in tg
                ):
                    hit = True
                    break
            misses += not hit
        return misses / max(tested, 1)

    v, rt = _timed(containment)
    out.append(
        CheckRecord(
            "excluded-angles-inside-discs", v == 0.0, v, 0.0, rt, "miss fraction"
        )
    )

    def pole_caps():
        windows = 0
        bad = 0
        strong_cluster_bad = 0

        def candidate_angles(k, prof):
            # uniform admissible angles, enriched with angles targeted near
            # the tangency roots of outer-shell vectors (where windows are
            # guaranteed to appear)
            for phi in _admissible_angles(k, prof, params, rng, 40, 8.0):
                yield phi
            rows = enumerate_box_array(prof.box_r1)
            norms = triple_norm_array(rows)
            shell = rows[norms > prof.tilde_radius]
            order = rng.permutation(len(shell))
            for i in order[:40]:
                dv = dual_vector(LatticeIndex.from_row(shell[i]), params)
                tg = resonance.tangent_angles(k, dv.length, dv.angle)
                if tg is None:
                    continue
                for t in tg:
                    yield float((t + rng.uniform(-0.5, 0.5) * prof.pole_window) % TWO_PI)

        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            for phi0 in candidate_angles(k, prof):
                if windows >= 50:
                    break
                try:
                    dec = resonance.classify(phi0, k, spec, prof)
                except resonance.ResonantBase:
                    continue
                if not len(dec.m_set):
                    continue
                dec = resonance.strength(dec, k, phi0, spec, prof)
                w = 2 * prof.pole_window
                for m in dec.m1:
                    p = dual_vector(LatticeIndex.from_row(m), params).length
                    poles = resonance.block_poles(
                        m[None], k, (phi0 - w, phi0 + w), spec, prof, scan_points=32
                    )
                    cap = 2 if abs(2 * k - p) < 1 else 1
                    bad += len(poles) > cap
                    windows += 1
                for cls in dec.classes:
                    for sub in cls.subsets:
                        bad += len(sub.poles) > 2
                        windows += 1
                for group in dec.strong_clusters:
                    strong_cluster_bad += len(group) > 2
        return bad + strong_cluster_bad, windows

    (v, windows), rt = _timed(pole_caps)
    out.append(
        CheckRecord(
            "pole-count-caps",
            v == 0 and windows >= 50,
            float(v),
            0.0,
            rt,
            f"{windows} windows sampled",
        )
    )
    return out


def check_lattice_counting(cfg: RunConfig) -> list[CheckRecord]:
    """Cluster separation, short-vector counting bounds, and the
    curve-neighborhood count."""
    params, rng = cfg.params(), cfg.rng()
    spec = cfg.spec()
    out = []

    def counting():
        worst2 = 0.0
        worst3 = 0.0
        for k in cfg.k_grid:
            for r in (0.6, 0.8, 1.0):
                ap = best_rational(params, k, r)
                box_radius = int(2 * k**r)
                n2 = count_short_vectors(
                    box_radius, abs(ap.eps_q) * ap.q * k ** (r / 3.0), params
                )
                worst2 = max(worst2, n2 / k ** (2 * r / 3.0))
                if ap.q > k ** (2 * r / 3.0):
                    n3 = count_short_vectors(box_radius, k ** (-2 * r / 3.0), params)
                    worst3 = max(worst3, n3 / (2**12 * k ** (2 * r / 3.0)))
        return max(worst2, worst3)

    v, rt = _timed(counting)
    out.append(
        CheckRecord(
            "short-vector-counting-bounds", v <= 1.0, v, 1.0, rt, "worst count/bound"
        )
    )

    def separation():
        # the separation hypothesis needs an alpha with a huge partial
        # quotient; quadratic alphas never satisfy it inside the window
        p = QPParams(cf_prefix=[0, 3, 300, 2, 1, 1, 1, 1], mu=2.0)
        worst = 0.0
        active = 0
        for k, r in [(15.0, 0.6), (25.0, 0.6), (15.0, 0.8)]:
            ap = best_rational(p, k, r)
            if abs(ap.eps_q) > (1.0 / 64.0) / (ap.q * k**r):
                continue
            active += 1
            grid = cluster_decompose(enumerate_box_array(6), ap, p)
            if grid.cluster_diameter >= 1.0 / (8 * ap.q):
                worst = max(worst, 1.0)
            if grid.min_separation <= 1.0 / (2 * ap.q):
                worst = max(worst, 1.0)
        return worst if active else math.inf

    v, rt = _timed(separation)
    out.append(
        CheckRecord(
            "cluster-separation", v == 0.0, v, 0.0, rt, "diameter/separation bounds"
        )
    )

    def curve_neighborhood():
        k = cfg.k_grid[1]
        prof = cfg.profile_at(k)
        rows = enumerate_box_array(prof.box_r1)
        duals = dual_array(rows, params)
        eps0 = k ** (-5.0 * params.mu * prof.r1_exp)
        bound = 1000.0 * k ** (2 * prof.r1_exp / 3.0 + 1.0)
        worst = 0.0
        for _ in range(10):
            kap0 = rng.uniform(-1.5 * k, 1.5 * k, size=2)
            pts = kap0[None, :] + duals
            dist = np.abs(np.linalg.norm(pts, axis=1) - k)
            count = int(np.sum(dist <= eps0))
            worst = max(worst, count / bound)
        return worst

    v, rt = _timed(curve_neighborhood)
    out.append(
        CheckRecord(
            "curve-neighborhood-count", v <= 1.0, v, 1.0, rt, "count/bound at 10 centers"
        )
    )
    return out


def check_series_structure(cfg: RunConfig) -> list[CheckRecord]:
    """First-order vanishing, second-order closed form, support rule, and
    projector idempotency."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []
    k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
    prof = cfg.profile_at(k)
    phi = _admissible_angles(k, prof, params, rng, 1)[0]
    kap = k * np.array([math.cos(phi), math.sin(phi)])

    res, rt = _timed(lambda: perturb.eigenvalue_level(1, kap, spec, prof, check_oracle=False))
    g1 = abs(res.g[0])
    out.append(CheckRecord("first-order-vanishes", g1 <= 1e-12, g1, 1e-12, rt))

    def g2_closed_form():
        a2 = float(kap @ kap)
        closed = 0.0
        for q in enumerate_box(prof.core_radius):
            if q.is_zero():
                continue
            vq = spec.coeffs.get(q, 0j)
            if vq == 0:
                continue
            p = dual_vector(q, params).p
            closed += abs(vq) ** 2 / (a2 - float((kap + p) @ (kap + p)))
        return abs(res.g[1] - closed) / max(abs(closed), 1e-300)

    g2_rel, rt = _timed(g2_closed_form)
    out.append(
        CheckRecord(
            "second-order-closed-form", g2_rel <= 1e-10, g2_rel, 1e-10, rt,
            "relative to direct summation",
        )
    )

    def support():
        sharp = build([(LatticeIndex((1, 0), (0, 0)), 0.05)], Q=1, params=params)
        prof_wide = make_profile(k, mu=cfg.mu, core_radius=4)
        state = perturb.build_state(1, kap, sharp, prof_wide)
        res = perturb.generic_step(state, prof_wide, with_projector=True, store_orders=6)
        norms = triple_norm_array(res.rows)
        pair_norm = norms[:, None] + norms[None, :]
        viol = 0.0
        for r, g_r in enumerate(res.g_matrices, start=1):
            mask = r * sharp.Q < pair_norm
            if mask.any():
                viol = max(viol, float(np.max(np.abs(g_r[mask]))))
        return viol

    v, rt = _timed(support)
    out.append(
        CheckRecord("projector-order-support-rule", v == 0.0, v, 0.0, rt, "bit-exact")
    )

    def idempotent():
        res = perturb.projector_level(1, kap, spec, prof)
        e = res.projector
        dev = float(np.linalg.norm(e @ e - e, 2))
        rank = int(np.linalg.matrix_rank(e, tol=1e-6))
        return dev if rank == 1 else math.inf

    v, rt = _timed(idempotent)
    out.append(
        CheckRecord("projector-idempotent-rank-one", v <= 1e-8, v, 1e-8, rt)
    )
    return out


def check_isoenergetic(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    zero = build([], Q=cfg.Q, params=params)
    out = []
    grid = np.linspace(0, TWO_PI, cfg.phi_points, endpoint=False)

    def free_circle():
        lam = cfg.lambda_grid[1]
        prof = cfg.profile_at(math.sqrt(lam))
        c = isoenergetic.trace_curve(1, lam, grid[::4], zero, prof)
        return max(
            (abs(s.kappa - math.sqrt(lam)) for s in c.admissible_samples),
            default=math.inf,
        )

    v, rt = _timed(free_circle)
    out.append(CheckRecord("free-curve-is-circle", v == 0.0, v, 0.0, rt))

    # each record of the shared block carries the time of its own calls
    times = dict.fromkeys(("residual", "nested", "dev1", "dev2"), 0.0)

    def timed(key, fn, *args):
        value, dt = _timed(lambda: fn(*args))
        times[key] += dt
        return value

    def residuals_and_trends():
        sup_h1 = []
        sup_d2 = []
        worst_res = 0.0
        nested_bad = 0
        for lam in cfg.lambda_grid:
            k = math.sqrt(lam)
            prof = cfg.profile_at(k)
            sub = grid[:: max(1, len(grid) // 80)]
            c1 = timed("nested", isoenergetic.trace_curve, 1, lam, sub, spec, prof)
            c2 = timed("nested", isoenergetic.trace_curve, 2, lam, sub, spec, prof)
            ev = timed("residual", perturb.LevelEvaluator, spec, prof)
            for s in c1.admissible_samples:
                nu = np.array([math.cos(s.phi), math.sin(s.phi)])
                lam_s = timed("residual", ev.eigenvalue, s.kappa * nu)
                worst_res = max(worst_res, abs(lam_s - lam) / lam)
            for sa, sb in zip(c1.samples, c2.samples):
                if sb.admissible and not sa.admissible:
                    nested_bad += 1
            # deviation sups over a family of common admissible directions
            # (pointwise decreasing, so the max inherits the trend); the
            # level-2 deviation instead peaks at the pole-disc edges
            probes1 = timed("dev1", _common_trend_angles, cfg, spec)
            dev1 = [
                abs(d)
                for _, d in timed(
                    "dev1", isoenergetic.deviation_profile, 1, lam, probes1, spec, prof
                )
            ]
            probes2 = timed("dev2", _disc_edge_angles, k, prof, spec, params)
            dev2 = [
                abs(d)
                for _, d in timed(
                    "dev2", isoenergetic.deviation_profile, 2, lam, probes2, spec, prof
                )
            ]
            sup_h1.append(max(dev1) if dev1 else math.nan)
            sup_d2.append(max(dev2) if dev2 else math.nan)
        mono1 = _strictly_decreasing(sup_h1)
        mono2 = _strictly_decreasing(sup_d2)
        return worst_res, nested_bad, mono1, mono2, sup_h1, sup_d2

    worst_res, nested_bad, mono1, mono2, sup_h1, sup_d2 = residuals_and_trends()
    out.append(
        CheckRecord(
            "radius-solver-residual", worst_res <= 1e-9, worst_res, 1e-9, times["residual"],
            "relative, all admissible samples",
        )
    )
    out.append(
        CheckRecord(
            "level2-admissible-nested", nested_bad == 0, float(nested_bad), 0.0,
            times["nested"],
        )
    )
    out.append(
        CheckRecord(
            "level1-deviation-decreasing",
            mono1,
            0.0 if mono1 else 1.0,
            0.0,
            times["dev1"],
            "sup|h1| over lambda grid: " + ", ".join(f"{x:.3g}" for x in sup_h1),
        )
    )
    out.append(
        CheckRecord(
            "level2-deviation-decreasing",
            mono2,
            0.0 if mono2 else 1.0,
            0.0,
            times["dev2"],
            "sup|k2-k1| over lambda grid: " + ", ".join(f"{x:.3g}" for x in sup_d2),
        )
    )
    return out


def check_derivatives(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []

    def radial():
        worst = 0.0
        pts = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            # points interior to the admissible window: the sharper excision
            # keeps every denominator a factor two above the threshold
            for phi in _admissible_angles(k, prof, params, rng, 13, 2.0):
                kap = k * np.array([math.cos(phi), math.sin(phi)])
                dk, _ = perturb.derivative_probe(1, kap, spec, prof, h=1e-5)
                worst = max(worst, abs(dk - 2 * k) / (2 * k))
                pts += 1
                if pts >= 50:
                    return worst
        return worst

    v, rt = _timed(radial)
    out.append(
        CheckRecord("radial-derivative-leading-term", v <= 1e-3, v, 1e-3, rt, "50 points")
    )

    def vs_closed_form():
        k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angles(k, prof, params, rng, 1, 2.0)[0]
        nu = np.array([math.cos(phi), math.sin(phi)])

        def lam2(r):
            kapr = r * nu
            a2 = float(kapr @ kapr)
            total = a2
            for q in enumerate_box(prof.core_radius):
                if q.is_zero():
                    continue
                vq = spec.coeffs.get(q, 0j)
                if vq == 0:
                    continue
                p = dual_vector(q, params).p
                total += abs(vq) ** 2 / (a2 - float((kapr + p) @ (kapr + p)))
            return total

        h = 1e-4
        expected = (lam2(k + h) - lam2(k - h)) / (2 * h)
        dk, _ = perturb.derivative_probe(1, k * nu, spec, prof, h=h)
        return abs(dk - expected) / max(abs(expected), 1.0)

    v, rt = _timed(vs_closed_form)
    out.append(
        CheckRecord(
            "derivative-matches-analytic-second-order", v <= 1e-6, v, 1e-6, rt
        )
    )
    return out


def check_band1d(cfg: RunConfig) -> list[CheckRecord]:
    out = []

    def refinement():
        k, phi0, prof, chain_spec, chain_params, dec = _chain_setup(cfg)
        worst_monotone = 0.0
        found = 0
        for cls in dec.classes:
            if cls.trivial or not cls.colinear_ok:
                continue
            for sub in cls.subsets:
                gaps = []
                for half in (2, 4, 8, 16):
                    win = resonance.ClusterSubset(
                        members=sub.members,
                        central=sub.central,
                        n_minus=-half,
                        n_plus=half,
                        t_q=sub.t_q,
                    )
                    gaps.append(
                        band1d.finite_vs_periodic(
                            cls, win, sub.t_q, k, chain_spec, prof, n_ref=96
                        )
                    )
                found += 1
                if not all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:])):
                    worst_monotone = 1.0
        return worst_monotone if found else math.inf

    v, rt = _timed(refinement)
    out.append(
        CheckRecord(
            "finite-vs-periodic-refinement", v == 0.0, v, 0.0, rt,
            "gap decreases under window growth",
        )
    )

    def periodicity():
        params = cfg.params()
        spec = cfg.spec()
        q = None
        for cand in spec.nonzero_support:
            if primitive_direction(cand) == cand:
                q = cand
                break
        p_q = dual_vector(q, params).length
        worst = 0.0
        for t in (0.17 * p_q, 0.62 * p_q):
            a = np.linalg.eigvalsh(band1d.assemble_periodic(q, t, 48, spec))[:4]
            b = np.linalg.eigvalsh(band1d.assemble_periodic(q, t + p_q, 48, spec))[:4]
            worst = max(worst, float(np.max(np.abs(a - b))))
        return worst

    v, rt = _timed(periodicity)
    out.append(
        CheckRecord("band-quasimomentum-periodicity", v <= 1e-8, v, 1e-8, rt)
    )
    return out


def check_multiscale(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []
    k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
    prof = cfg.profile_at(k)

    rows = enumerate_box_array(prof.box_r2)
    norms = triple_norm_array(rows)
    duals = dual_array(rows, params)
    outer = (norms > prof.box_r1) & (norms <= prof.box_r2 - 1)
    rows_o, duals_o = rows[outer], duals[outer]
    center = duals_o[rng.integers(len(rows_o))]
    d2 = np.linalg.norm(duals_o - center, axis=1)
    dense = np.argsort(d2)[:10]
    far = np.nonzero(d2 > 10 * prof.cell_black)[0]
    sparse = rng.choice(far, size=min(6, len(far)), replace=False)
    m2 = rows_o[sorted(set(dense.tolist()) | set(sparse.tolist()))]

    def determinism():
        a = multiscale.region_map(m2, k, spec, prof)
        b = multiscale.region_map(m2, k, spec, prof)
        return 0.0 if a == b else 1.0, a

    (v, rmap), rt = _timed(determinism)
    out.append(CheckRecord("region-map-deterministic", v == 0.0, v, 0.0, rt))

    def separations():
        seps = {
            "black": prof.black_nbhd + 1,
            "grey": prof.grey_nbhd + 1,
            "white": prof.white_nbhd + 1,
        }
        comps = [(c.color, c.rows) for c in rmap.components]
        for i, (color, a) in enumerate(comps):
            for other, b in comps[i + 1 :]:
                if other != color or color not in seps:
                    continue
                d = int(triple_norm_array(a[:, None, :] - b[None, :, :]).min())
                if d < seps[color]:
                    return 1.0
        return 0.0

    v, rt = _timed(separations)
    out.append(CheckRecord("same-color-separation", v == 0.0, v, 0.0, rt))

    v, rt = _timed(lambda: multiscale.boundary_check(rmap, spec))
    out.append(
        CheckRecord("region-boundary-identities", v == 0.0, v, 0.0, rt, "exact")
    )

    def counting():
        stats = multiscale.region_stats(
            rmap, m2, spec, prof, rng=np.random.default_rng(cfg.seed + 1)
        )
        return stats["max_counting_ratio"], len(stats["counting_ratios"])

    (ratio, n_centers), rt = _timed(counting)
    out.append(
        CheckRecord(
            "neighborhood-counting-ratio",
            ratio <= 1000.0 and n_centers >= 20,
            ratio,
            1000.0,
            rt,
            f"constant recorded over {n_centers} centers",
        )
    )
    return out


def check_eigenfunction(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    out = []

    def trends():
        grid = wavefunction.unit_cell_grid(64)
        sup_u = []
        res_l1 = []
        res_time = 0.0
        # common directions with monotone-growing denominators: dressing
        # and residual both decrease pointwise in k, so the max over the
        # family inherits strict decrease
        angles = _common_trend_angles(cfg, spec)
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            worst_u = 0.0
            worst_l1 = 0.0
            for phi in angles:
                kap = k * np.array([math.cos(phi), math.sin(phi)])
                wf = wavefunction.synthesize(1, kap, spec, prof)
                worst_u = max(worst_u, wavefunction.sample(wf, grid)["sup_u"])
                (*_, l1, _), dt = _timed(lambda: wavefunction.residual(wf, spec))
                res_time += dt
                worst_l1 = max(worst_l1, l1)
            sup_u.append(worst_u)
            res_l1.append(worst_l1)
        ok_u = _strictly_decreasing(sup_u)
        ok_l1 = _strictly_decreasing(res_l1)
        return ok_u, ok_l1, sup_u, res_l1, res_time

    # the synthesis and sampling time is the first check's, the residual's
    # the second's
    (ok_u, ok_l1, sup_u, res_l1, res_rt), rt = _timed(trends)
    out.append(
        CheckRecord(
            "correction-sup-decreasing", ok_u, 0.0 if ok_u else 1.0, 0.0, rt - res_rt,
            "sup|u1|: " + ", ".join(f"{x:.3g}" for x in sup_u),
        )
    )
    out.append(
        CheckRecord(
            "residual-l1-decreasing", ok_l1, 0.0 if ok_l1 else 1.0, 0.0, res_rt,
            "l1: " + ", ".join(f"{x:.3g}" for x in res_l1),
        )
    )

    def level_difference():
        k = cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angles(k, prof, params, rng, 1, 8.0)[0]
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        wf1 = wavefunction.synthesize(1, kap, spec, prof)
        wf2 = wavefunction.synthesize(2, kap, spec, prof)
        outg = wavefunction.sample(wf2, wavefunction.unit_cell_grid(64), prev=wf1)
        support = set(wf1.coeffs) | set(wf2.coeffs)
        l1 = sum(abs(wf2.coeff(m) - wf1.coeff(m)) for m in support)
        return outg["sup_u"] - l1

    v, rt = _timed(level_difference)
    out.append(
        CheckRecord(
            "level-difference-dominated-by-l1", v <= 1e-12, v, 0.0, rt,
            "grid sup minus coefficient l1",
        )
    )
    return out


CRITERIA = [
    ("1-oracle-level1", check_oracle_level1),
    ("2-oracle-level2", check_oracle_level2),
    ("3-exact-identities", check_exact_identities),
    ("4-resonance-geometry", check_resonance_geometry),
    ("5-lattice-counting", check_lattice_counting),
    ("6-series-structure", check_series_structure),
    ("7-isoenergetic-curves", check_isoenergetic),
    ("8-derivatives", check_derivatives),
    ("9-band-oracle", check_band1d),
    ("10-multiscale-regions", check_multiscale),
    ("11-eigenfunction-quality", check_eigenfunction),
]


def run_all(cfg: RunConfig, emit=None) -> list[CheckRecord]:
    records = []
    for label, fn in CRITERIA:
        for rec in fn(cfg):
            rec.name = f"{label}/{rec.name}"
            records.append(rec)
            if emit:
                emit(rec)
    return records
