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
    box_table,
    cluster_decompose,
    count_short_vectors,
    dual_array,
    dual_vector,
    enumerate_box_array,
    primitive_direction,
    triple_norm_array,
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


class _Clock:
    """The records of one criterion, each timed by its own work.

    `timed(name, fn, ...)` adds the wall time of fn(...) to the record `name`,
    and `add` appends that record with the time summed under its name.
    `sample(fn, ...)` evaluates one sampled point: a point that raises a
    member of isoenergetic.REJECTIONS is counted in `rejected` and gives None.
    A fixed computation is never sampled, so its rejection propagates.
    """

    def __init__(self):
        self.records: list[CheckRecord] = []
        self.rejected = 0
        self._spent: dict[str, float] = {}

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._spent[name] = self._spent.get(name, 0.0) + time.perf_counter() - t0

    def sample(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except isoenergetic.REJECTIONS:
            self.rejected += 1
            return None

    def skipped(self, detail: str) -> str:
        """detail, with the count of rejected points when there is one."""
        return f"{detail}, {self.rejected} rejected" if self.rejected else detail

    def add(self, name: str, passed, measured, threshold, detail: str = "") -> None:
        self.records.append(
            CheckRecord(name, passed, measured, threshold, self._spent.get(name, 0.0), detail)
        )


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


def _admissible_angle(k, prof, params, rng, tau_factor) -> float:
    """The first draw of `_admissible_angles`; raises ResonantBase when the
    draws find none, as on an empty good set."""
    got = _admissible_angles(k, prof, params, rng, 1, tau_factor)
    if not got:
        raise resonance.ResonantBase(
            f"no admissible base angle at k={k:g} with tau factor {tau_factor:g}"
        )
    return got[0]


def _polar(duals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and angles in [0, 2 pi) of the rows of an (N, 2) dual array."""
    return np.hypot(duals[:, 0], duals[:, 1]), np.arctan2(duals[:, 1], duals[:, 0]) % TWO_PI


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
    lengths, angles = _polar(dual_array(spec.nonzero_table[0], params))
    out = []
    ranked = sorted(
        omegas[0].intervals, key=lambda ab: ab[1] - ab[0], reverse=True
    )
    for a, b in ranked:
        for frac in (0.5, 0.3, 0.7, 0.4, 0.6):
            phi = a + frac * (b - a)
            if not all(om.contains(phi) for om in omegas):
                continue
            c = np.abs(np.cos(phi - angles))
            if np.all((c >= 0.15) & (2.0 * k_min * lengths * c >= 2.0 * lengths**2)):
                out.append(phi)
                break
        if len(out) >= count:
            break
    return out


def _outer_shell(prof, params) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and angles of the dual vectors of the box_r1 rows outside the
    step-I exclusion zone, in box order."""
    _, norms, duals = box_table(prof.box_r1, params)
    return _polar(duals[norms > prof.tilde_radius])


def _tangencies(k, lengths: np.ndarray, angles: np.ndarray):
    """The tangency root pair of each dual vector in turn; a vector longer
    than 2k has none and is passed over."""
    for p, ang in zip(lengths.tolist(), angles.tolist()):
        tg = resonance.tangent_angles(k, p, ang)
        if tg is not None:
            yield tg


def _disc_edge_angles(k, prof, params, n_directions=6):
    """Angles just outside the level-2 pole discs around the tangency roots
    of the smallest outer-shell dual vectors; the level-2 deviation peaks
    there."""
    out = []
    om8 = resonance.build_omega1(k, prof, params, 8.0)
    lengths, angles = _outer_shell(prof, params)
    smallest = np.argsort(lengths)[: 4 * n_directions]
    for tg in _tangencies(k, lengths[smallest], angles[smallest]):
        if len(out) >= 4 * n_directions:
            break
        for t in tg:
            for factor in (1.5, 3.0):
                phi = float((t + factor * prof.o2_disc_radius) % TWO_PI)
                if om8.contains(phi):
                    out.append(phi)
    return out


def _second_order(kap, spec, radius: int, plus_free: bool = False) -> float:
    """sum_q |V_q|^2 / (|kap|^2 - |kap + p_q|^2) over the nonzero support with
    0 < |||q||| <= radius, after |kap|^2 when plus_free (the second-order
    eigenvalue).  The terms are added one at a time in box order, and each
    |kap + p_q|^2 is taken by the dot kernel of `kap @ kap`, so the value
    equals a row-by-row direct summation bit for bit."""
    rows, vals = spec.nonzero_table
    norms = triple_norm_array(rows)
    keep = (norms > 0) & (norms <= radius)
    a2 = float(kap @ kap)
    s = kap + dual_array(rows[keep], spec.params)
    terms = np.abs(vals[keep]) ** 2 / (a2 - (s[:, None, :] @ s[:, :, None]).ravel())
    return float(np.cumsum(np.concatenate(([a2 if plus_free else 0.0], terms)))[-1])


def _strictly_decreasing(seq) -> bool:
    """Strict decrease, vacuously true on an identically-zero sequence (the
    zero-potential configuration has no corrections to decay)."""
    return all((a > b) or (a == 0.0 and b == 0.0) for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def check_oracle_level1(cfg: RunConfig) -> list[CheckRecord]:
    """Dressed-eigenvalue series vs dense diagonalization at level 1."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()
    per_k = max(1, 100 // len(cfg.k_grid))

    def oracle():
        worst = 0.0
        n_points = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            for phi in _admissible_angles(k, prof, params, rng, per_k):
                r = k + rng.uniform(-prof.kappa_window_1, prof.kappa_window_1)
                kap = r * np.array([math.cos(phi), math.sin(phi)])
                res = clock.sample(perturb.eigenvalue_level, 1, kap, spec, prof, check_oracle=True)
                if res is None:
                    continue
                tol = max(1e-9 * k * k, 10 * res.tail_estimate)
                worst = max(worst, res.delta_vs_oracle / tol)
                n_points += 1
                # NaN-safe: a NaN rate fails too
                if res.oracle_count != 1 or not res.decay_ratio < prof.divergence_ratio:
                    worst = math.inf
        return worst, n_points

    name = "step1-series-matches-oracle"
    worst, n_points = clock.timed(name, oracle)
    clock.add(
        name, worst <= 1.0 and n_points >= 0.9 * per_k * len(cfg.k_grid), worst, 1.0,
        clock.skipped(f"{n_points} points, worst |series-oracle|/tol"),
    )
    return clock.records


def check_oracle_level2(cfg: RunConfig) -> list[CheckRecord]:
    """Level-2 series vs oracle with the block model, plus the correction
    hierarchy |lam2 - lam1| <= |lam1 - kappa^2| on at least 95% of points."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()
    oracle, hier = "step2-series-matches-oracle", "step2-correction-hierarchy"

    def point(kap, prof):
        # the hierarchy record's own work is the level-1 series
        r1 = clock.timed(hier, perturb.eigenvalue_level, 1, kap, spec, prof, check_oracle=False)
        r2 = clock.timed(oracle, perturb.eigenvalue_level, 2, kap, spec, prof, check_oracle=True)
        return r1, r2

    worst = 0.0
    hier_ok = 0
    n_points = 0
    per_k = max(1, 30 // len(cfg.k_grid) + (1 if 30 % len(cfg.k_grid) else 0))
    for k in cfg.k_grid:
        prof = cfg.profile_at(k)
        got = 0
        for phi in clock.timed(oracle, _admissible_angles, k, prof, params, rng, 8 * per_k, 8.0):
            if got >= per_k or n_points >= 30:
                break
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            pair = clock.sample(point, kap, prof)
            if pair is None:
                continue
            r1, r2 = pair
            tol = max(1e-9 * k * k, 10 * r2.tail_estimate)
            worst = max(worst, r2.delta_vs_oracle / tol)
            if abs(r2.lam - r1.lam) <= abs(r1.lam - float(kap @ kap)) + 1e-14:
                hier_ok += 1
            n_points += 1
            got += 1
    frac = hier_ok / max(n_points, 1)
    clock.add(
        oracle, worst <= 1.0 and n_points >= 25, worst, 1.0,
        f"{n_points} points ({clock.rejected} rejected), worst |series-oracle|/tol",
    )
    clock.add(
        hier, frac >= 0.95, frac, 0.95,
        f"{hier_ok}/{n_points} points with |lam2-lam1| <= |lam1-kappa^2|",
    )
    return clock.records


def _chain_setup():
    """Non-trivial chain configuration used by the exact-identity and band
    checks (near-null support direction via a large partial quotient):
    (k, phi0, profile, spec, strength-dressed decomposition)."""
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
            if any(sub.n_plus - sub.n_minus >= 2 for _, sub in _chain_windows(dec)):
                dec = resonance.strength(dec, k, p0, chain_spec, prof)
                return k, p0, prof, chain_spec, dec
    raise RuntimeError("chain construction failed")


def _chain_windows(dec):
    """The (class, subset) windows of the non-trivial colinear classes."""
    for cls in dec.classes:
        if not cls.trivial and cls.colinear_ok:
            for sub in cls.subsets:
                yield cls, sub


def check_exact_identities(cfg: RunConfig) -> list[CheckRecord]:
    """Bit-level Hermiticity, separation of variables, block orthogonality,
    and residual shell support."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()

    def herm():
        worst = 0
        for k in cfg.k_grid[:2]:
            prof = cfg.profile_at(k)
            phi = _admissible_angle(k, prof, params, rng, 1.0)
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            for radius in (prof.core_radius, prof.box_r1):
                h = assemble(kap, enumerate_box_array(radius), spec, params).entries
                worst = max(worst, int(not np.array_equal(h, h.conj().T)))
        return float(worst)

    v = clock.timed("hermiticity-bit-exact", herm)
    clock.add("hermiticity-bit-exact", v == 0.0, v, 0.0, "assembled sections")

    def separation():
        k, phi0, _, chain_spec, dec = _chain_setup()
        kap = k * np.array([math.cos(phi0), math.sin(phi0)])
        worst = 0.0
        n = 0
        for cls, sub in _chain_windows(dec):
            worst = max(worst, band1d.separation_check(cls, sub, kap, chain_spec) / (k * k))
            n += 1
        return worst if n else math.inf

    v = clock.timed("separation-of-variables", separation)
    clock.add("separation-of-variables", v <= 1e-12, v, 1e-12, "relative to k^2")

    def blocks(phi0, k, prof):
        dec = resonance.classify(phi0, k, spec, prof)
        if not len(dec.m_set):
            return ()
        dec = resonance.strength(dec, k, phi0, spec, prof)
        return resonance.assemble_projector(dec, k, prof, spec).blocks

    def orthogonality():
        worst = 0.0
        built = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            for phi0 in _admissible_angles(k, prof, params, rng, 40, 8.0):
                got = clock.sample(blocks, phi0, k, prof)
                if not got:
                    continue
                built += 1
                box = enumerate_box_array(prof.box_r1)
                worst = max(
                    worst,
                    resonance.orthogonality_violation([box[b.positions] for b in got], spec),
                )
                if built >= 6:
                    return worst
        return worst if built else math.inf

    v = clock.timed("block-orthogonality-exact", orthogonality)
    clock.add(
        "block-orthogonality-exact", v == 0.0, v, 0.0, clock.skipped("largest coupling |V|")
    )

    def shell():
        k = cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angle(k, prof, params, rng, 1.0)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        wf = wavefunction.synthesize(1, kap, spec, prof)
        rows, vals, _, interior = wavefunction.residual(wf, spec)
        norms = triple_norm_array(rows[np.abs(vals) > 1e-12 * k * k])
        shell = (wf.box_radius < norms) & (norms <= wf.box_radius + spec.max_support_norm)
        return interior / (k * k) if np.all(shell) else math.inf

    v = clock.timed("residual-shell-support", shell)
    clock.add("residual-shell-support", v <= 1e-12, v, 1e-12, "interior leak / k^2")
    return clock.records


def check_resonance_geometry(cfg: RunConfig) -> list[CheckRecord]:
    """Excised-measure trend, disc containment, and per-kind pole caps."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()

    def measure_trend():
        meas = [
            resonance.resonant_set_step1(k, cfg.profile_at(k), params).measure
            for k in cfg.k_grid
        ]
        drops = all(a >= b - 1e-12 for a, b in zip(meas, meas[1:]))
        return 0.0 if drops else 1.0

    v = clock.timed("excised-measure-monotone", measure_trend)
    clock.add("excised-measure-monotone", v == 0.0, v, 0.0, "over the k grid")

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

    v = clock.timed("excluded-angles-inside-discs", containment)
    clock.add("excluded-angles-inside-discs", v == 0.0, v, 0.0, "miss fraction")

    def candidate_angles(k, prof):
        # angles admissible at tau = 8: uniform ones, enriched with ones
        # targeted near the tangency roots of outer-shell vectors (where
        # windows are guaranteed to appear)
        yield from _admissible_angles(k, prof, params, rng, 40, 8.0)
        om8 = resonance.build_omega1(k, prof, params, 8.0)
        lengths, angles = _outer_shell(prof, params)
        pick = rng.permutation(len(lengths))[:40]
        for tg in _tangencies(k, lengths[pick], angles[pick]):
            for t in tg:
                phi = float((t + rng.uniform(-0.5, 0.5) * prof.pole_window) % TWO_PI)
                if om8.contains(phi):
                    yield phi

    def caps(phi0, k, prof):
        """(windows, windows over their pole cap) at one base angle; a strong
        cluster over two members counts as one more over its cap."""
        dec = resonance.classify(phi0, k, spec, prof)
        if not len(dec.m_set):
            return 0, 0
        dec = resonance.strength(dec, k, phi0, spec, prof)
        w = 2 * prof.pole_window
        over = []
        for m, p in zip(dec.m1, _polar(dual_array(dec.m1, params))[0].tolist()):
            poles = resonance.block_poles(
                m[None], k, (phi0 - w, phi0 + w), spec, prof, scan_points=32
            )
            over.append(len(poles) > (2 if abs(2 * k - p) < 1 else 1))
        over += [len(sub.poles) > 2 for cls in dec.classes for sub in cls.subsets]
        return len(over), sum(over) + sum(len(group) > 2 for group in dec.strong_clusters)

    def pole_caps():
        windows = 0
        bad = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            for phi0 in candidate_angles(k, prof):
                if windows >= 50:
                    break
                got = clock.sample(caps, phi0, k, prof)
                if got is not None:
                    windows += got[0]
                    bad += got[1]
        return bad, windows

    v, windows = clock.timed("pole-count-caps", pole_caps)
    clock.add(
        "pole-count-caps", v == 0 and windows >= 50, float(v), 0.0,
        clock.skipped(f"{windows} windows sampled"),
    )
    return clock.records


def check_lattice_counting(cfg: RunConfig) -> list[CheckRecord]:
    """Cluster separation, short-vector counting bounds, and the
    curve-neighborhood count."""
    params, rng = cfg.params(), cfg.rng()
    clock = _Clock()

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

    v = clock.timed("short-vector-counting-bounds", counting)
    clock.add("short-vector-counting-bounds", v <= 1.0, v, 1.0, "worst count/bound")

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

    v = clock.timed("cluster-separation", separation)
    clock.add("cluster-separation", v == 0.0, v, 0.0, "diameter/separation bounds")

    def curve_neighborhood():
        k = cfg.k_grid[1]
        prof = cfg.profile_at(k)
        duals = dual_array(enumerate_box_array(prof.box_r1), params)
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

    v = clock.timed("curve-neighborhood-count", curve_neighborhood)
    clock.add("curve-neighborhood-count", v <= 1.0, v, 1.0, "count/bound at 10 centers")
    return clock.records


def check_series_structure(cfg: RunConfig) -> list[CheckRecord]:
    """First-order vanishing, second-order closed form, support rule, and
    projector idempotency."""
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()
    k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
    prof = cfg.profile_at(k)
    phi = _admissible_angle(k, prof, params, rng, 1.0)
    kap = k * np.array([math.cos(phi), math.sin(phi)])

    res = clock.timed(
        "first-order-vanishes", perturb.eigenvalue_level, 1, kap, spec, prof, check_oracle=False
    )
    g1 = abs(res.g[0])
    clock.add("first-order-vanishes", g1 <= 1e-12, g1, 1e-12)

    closed = clock.timed("second-order-closed-form", _second_order, kap, spec, prof.core_radius)
    g2_rel = abs(res.g[1] - closed) / max(abs(closed), 1e-300)
    clock.add(
        "second-order-closed-form", g2_rel <= 1e-10, g2_rel, 1e-10, "relative to direct summation"
    )

    def support():
        sharp = build([(LatticeIndex((1, 0), (0, 0)), 0.05)], Q=1, params=params)
        # the state's own core and exclusion zone, so that the drawn angle
        # keeps every core row's level off the contour
        wide = make_profile(k, mu=cfg.mu, **{**cfg.profile, "core_radius": 4, "tilde_radius": 4})
        phi_w = _admissible_angle(k, wide, params, rng, 1.0)
        kap_w = k * np.array([math.cos(phi_w), math.sin(phi_w)])
        res = perturb.generic_step(
            perturb.build_state(1, kap_w, sharp, wide), wide, with_projector=True, store_orders=6
        )
        norms = triple_norm_array(res.rows)
        pair_norm = norms[:, None] + norms[None, :]
        viol = 0.0
        for r, g_r in enumerate(res.g_matrices, start=1):
            mask = r * sharp.Q < pair_norm
            if mask.any():
                viol = max(viol, float(np.max(np.abs(g_r[mask]))))
        return viol

    v = clock.timed("projector-order-support-rule", support)
    clock.add("projector-order-support-rule", v == 0.0, v, 0.0, "bit-exact")

    def idempotent():
        e = perturb.projector_level(1, kap, spec, prof).projector
        dev = float(np.linalg.norm(e @ e - e, 2))
        rank = int(np.linalg.matrix_rank(e, tol=1e-6))
        return dev if rank == 1 else math.inf

    v = clock.timed("projector-idempotent-rank-one", idempotent)
    clock.add("projector-idempotent-rank-one", v <= 1e-8, v, 1e-8)
    return clock.records


def check_isoenergetic(cfg: RunConfig) -> list[CheckRecord]:
    params, spec = cfg.params(), cfg.spec()
    zero = build([], Q=cfg.Q, params=params)
    clock = _Clock()
    grid = np.linspace(0, TWO_PI, cfg.phi_points, endpoint=False)

    def free_circle():
        lam = cfg.lambda_grid[1]
        prof = cfg.profile_at(math.sqrt(lam))
        c = isoenergetic.trace_curve(1, lam, grid[::4], zero, prof)
        return max(
            (abs(s.kappa - math.sqrt(lam)) for s in c.admissible_samples),
            default=math.inf,
        )

    v = clock.timed("free-curve-is-circle", free_circle)
    clock.add("free-curve-is-circle", v == 0.0, v, 0.0)

    residual, nested = "radius-solver-residual", "level2-admissible-nested"
    dev1, dev2 = "level1-deviation-decreasing", "level2-deviation-decreasing"
    sup_h1 = []
    sup_d2 = []
    worst_res = 0.0
    nested_bad = 0
    for lam in cfg.lambda_grid:
        k = math.sqrt(lam)
        prof = cfg.profile_at(k)
        sub = grid[:: max(1, len(grid) // 80)]
        c1 = clock.timed(nested, isoenergetic.trace_curve, 1, lam, sub, spec, prof)
        c2 = clock.timed(nested, isoenergetic.trace_curve, 2, lam, sub, spec, prof)
        ev = clock.timed(residual, perturb.LevelEvaluator, spec, prof)
        for s in c1.admissible_samples:
            nu = np.array([math.cos(s.phi), math.sin(s.phi)])
            lam_s = clock.timed(residual, ev.eigenvalue, s.kappa * nu)
            worst_res = max(worst_res, abs(lam_s - lam) / lam)
        for sa, sb in zip(c1.samples, c2.samples):
            if sb.admissible and not sa.admissible:
                nested_bad += 1
        # deviation sups over a family of common admissible directions
        # (pointwise decreasing, so the max inherits the trend); the
        # level-2 deviation instead peaks at the pole-disc edges
        probes1 = clock.timed(dev1, _common_trend_angles, cfg, spec)
        d1 = clock.timed(dev1, isoenergetic.deviation_profile, 1, lam, probes1, spec, prof)
        probes2 = clock.timed(dev2, _disc_edge_angles, k, prof, params)
        d2 = clock.timed(dev2, isoenergetic.deviation_profile, 2, lam, probes2, spec, prof)
        sup_h1.append(max((abs(d) for _, d in d1), default=math.nan))
        sup_d2.append(max((abs(d) for _, d in d2), default=math.nan))
    mono1 = _strictly_decreasing(sup_h1)
    mono2 = _strictly_decreasing(sup_d2)
    clock.add(residual, worst_res <= 1e-9, worst_res, 1e-9, "relative, all admissible samples")
    clock.add(nested, nested_bad == 0, float(nested_bad), 0.0)
    clock.add(
        dev1, mono1, 0.0 if mono1 else 1.0, 0.0,
        "sup|h1| over lambda grid: " + ", ".join(f"{x:.3g}" for x in sup_h1),
    )
    clock.add(
        dev2, mono2, 0.0 if mono2 else 1.0, 0.0,
        "sup|k2-k1| over lambda grid: " + ", ".join(f"{x:.3g}" for x in sup_d2),
    )
    return clock.records


def check_derivatives(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()

    def radial():
        worst = 0.0
        pts = 0
        for k in cfg.k_grid:
            prof = cfg.profile_at(k)
            # points interior to the admissible window: the sharper excision
            # keeps every denominator a factor two above the threshold
            for phi in _admissible_angles(k, prof, params, rng, 13, 2.0):
                kap = k * np.array([math.cos(phi), math.sin(phi)])
                got = clock.sample(perturb.derivative_probe, 1, kap, spec, prof, h=1e-5)
                if got is None:
                    continue
                worst = max(worst, abs(got[0] - 2 * k) / (2 * k))
                pts += 1
                if pts >= 50:
                    return worst, pts
        return worst, pts

    # skipped points must not thin out the 50 points the record stands on
    v, pts = clock.timed("radial-derivative-leading-term", radial)
    clock.add(
        "radial-derivative-leading-term", v <= 1e-3 and pts >= 50, v, 1e-3,
        clock.skipped(f"{pts} points"),
    )

    def vs_closed_form():
        k = cfg.k_grid[2] if len(cfg.k_grid) > 2 else cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angle(k, prof, params, rng, 2.0)
        nu = np.array([math.cos(phi), math.sin(phi)])
        h = 1e-4
        up, down = (
            _second_order(r * nu, spec, prof.core_radius, plus_free=True) for r in (k + h, k - h)
        )
        expected = (up - down) / (2 * h)
        dk, _ = perturb.derivative_probe(1, k * nu, spec, prof, h=h)
        return abs(dk - expected) / max(abs(expected), 1.0)

    v = clock.timed("derivative-matches-analytic-second-order", vs_closed_form)
    clock.add("derivative-matches-analytic-second-order", v <= 1e-6, v, 1e-6)
    return clock.records


def check_band1d(cfg: RunConfig) -> list[CheckRecord]:
    clock = _Clock()

    def refinement():
        k, _, prof, chain_spec, dec = _chain_setup()
        worst_monotone = 0.0
        found = 0
        for cls, sub in _chain_windows(dec):
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
                    band1d.finite_vs_periodic(cls, win, sub.t_q, k, chain_spec, prof, n_ref=96)
                )
            found += 1
            if not all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:])):
                worst_monotone = 1.0
        return worst_monotone if found else math.inf

    v = clock.timed("finite-vs-periodic-refinement", refinement)
    clock.add(
        "finite-vs-periodic-refinement", v == 0.0, v, 0.0, "gap decreases under window growth"
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

    v = clock.timed("band-quasimomentum-periodicity", periodicity)
    clock.add("band-quasimomentum-periodicity", v <= 1e-8, v, 1e-8)
    return clock.records


def check_multiscale(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()
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

    v, rmap = clock.timed("region-map-deterministic", determinism)
    clock.add("region-map-deterministic", v == 0.0, v, 0.0)

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

    v = clock.timed("same-color-separation", separations)
    clock.add("same-color-separation", v == 0.0, v, 0.0)

    v = clock.timed("region-boundary-identities", multiscale.boundary_check, rmap, spec)
    clock.add("region-boundary-identities", v == 0.0, v, 0.0, "exact")

    stats = clock.timed(
        "neighborhood-counting-ratio",
        multiscale.region_stats, rmap, m2, spec, prof, rng=np.random.default_rng(cfg.seed + 1),
    )
    ratio, n_centers = stats["max_counting_ratio"], len(stats["counting_ratios"])
    clock.add(
        "neighborhood-counting-ratio", ratio <= 1000.0 and n_centers >= 20, ratio, 1000.0,
        f"constant recorded over {n_centers} centers",
    )
    return clock.records


def check_eigenfunction(cfg: RunConfig) -> list[CheckRecord]:
    params, spec, rng = cfg.params(), cfg.spec(), cfg.rng()
    clock = _Clock()
    # the synthesis and sampling time is the first check's, the residual's
    # the second's
    sup, residual = "correction-sup-decreasing", "residual-l1-decreasing"
    grid = clock.timed(sup, wavefunction.unit_cell_grid, 64)
    sup_u = []
    res_l1 = []
    # common directions with monotone-growing denominators: dressing and
    # residual both decrease pointwise in k, so the max over the family
    # inherits strict decrease
    angles = clock.timed(sup, _common_trend_angles, cfg, spec)
    for k in cfg.k_grid:
        prof = cfg.profile_at(k)
        worst_u = 0.0
        worst_l1 = 0.0
        for phi in angles:
            kap = k * np.array([math.cos(phi), math.sin(phi)])
            wf = clock.timed(sup, wavefunction.synthesize, 1, kap, spec, prof)
            worst_u = max(worst_u, clock.timed(sup, wavefunction.sample, wf, grid)["sup_u"])
            *_, l1, _ = clock.timed(residual, wavefunction.residual, wf, spec)
            worst_l1 = max(worst_l1, l1)
        sup_u.append(worst_u)
        res_l1.append(worst_l1)
    ok_u = _strictly_decreasing(sup_u)
    ok_l1 = _strictly_decreasing(res_l1)
    clock.add(
        sup, ok_u, 0.0 if ok_u else 1.0, 0.0, "sup|u1|: " + ", ".join(f"{x:.3g}" for x in sup_u)
    )
    clock.add(
        residual, ok_l1, 0.0 if ok_l1 else 1.0, 0.0,
        "l1: " + ", ".join(f"{x:.3g}" for x in res_l1),
    )

    def level_difference():
        k = cfg.k_grid[-1]
        prof = cfg.profile_at(k)
        phi = _admissible_angle(k, prof, params, rng, 8.0)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        wf1 = wavefunction.synthesize(1, kap, spec, prof)
        wf2 = wavefunction.synthesize(2, kap, spec, prof)
        outg = wavefunction.sample(wf2, wavefunction.unit_cell_grid(64), prev=wf1)
        support = set(wf1.coeffs) | set(wf2.coeffs)
        l1 = sum(abs(wf2.coeff(m) - wf1.coeff(m)) for m in support)
        return outg["sup_u"] - l1

    v = clock.timed("level-difference-dominated-by-l1", level_difference)
    clock.add(
        "level-difference-dominated-by-l1", v <= 1e-12, v, 0.0, "grid sup minus coefficient l1"
    )
    return clock.records


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
