"""Resonance geometry on the angle circle and in the lattice.

Step I excises the angles where some small-norm dual vector makes
|k(phi) + p_m|^2 - k^2 small.  Step II classifies the surviving resonances in
the larger box into isolated points, colinear chains (split into residue
windows along a direction from the potential's support), labels each window
weakly or strongly resonant via real pole detection of its block resolvent,
and assembles the mutually orthogonal block projector of the model operator.

Every point set here is an (N, 4) int64 array of lattice rows: the resonant
sets M', M and M1 and class members in box order, window members in order of
their offset along the class direction.  A block is its positions in the
r1-box.  Only the per-class scalars (a window's central point, a class
direction) are `LatticeIndex`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fiber import coupling_matrix, diagonal_energies, shifted_energies
from .lattice import (
    DualBuckets,
    LatticeIndex,
    QPParams,
    box_table,
    concat_rows,
    dual_array,
    dual_buckets,
    dual_vector,
    duals_colinear,
    duals_colinear_rows,
    enumerate_box_array,
    primitive_direction,
    row_positions,
    triple_norm_components,
)
from .potential import PotentialSpec
from .profile import ParameterProfile

TWO_PI = 2.0 * math.pi


class ResonantBase(ValueError):
    """The base angle lies inside the step-I resonant set."""


class OverlapDetected(ValueError):
    """Constructed blocks intersect or are connected by the potential."""


# ---------------------------------------------------------------------------
# Angle sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleSet:
    """Disjoint sorted sub-intervals of [0, 2*pi)."""

    intervals: tuple[tuple[float, float], ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_starts", tuple(a for a, _ in self.intervals))

    @staticmethod
    def from_raw(raw) -> "AngleSet":
        """Normalize arbitrary (possibly wrapping/overlapping) arcs."""
        pieces = []
        for a, b in raw:
            if b <= a:
                continue
            if b - a >= TWO_PI:
                pieces.append((0.0, TWO_PI))
                continue
            a_m = a % TWO_PI
            b_m = a_m + (b - a)
            if b_m <= TWO_PI:
                pieces.append((a_m, b_m))
            else:
                pieces.append((a_m, TWO_PI))
                pieces.append((0.0, b_m - TWO_PI))
        pieces.sort()
        merged: list[list[float]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return AngleSet(tuple((a, b) for a, b in merged))

    @staticmethod
    def full() -> "AngleSet":
        return AngleSet(((0.0, TWO_PI),))

    @property
    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def contains(self, phi: float) -> bool:
        x = phi % TWO_PI
        i = bisect_right(self._starts, x) - 1
        return i >= 0 and x <= self.intervals[i][1]

    def union(self, other: "AngleSet") -> "AngleSet":
        return AngleSet.from_raw(list(self.intervals) + list(other.intervals))

    def complement(self) -> "AngleSet":
        out = []
        prev = 0.0
        for a, b in self.intervals:
            if a > prev:
                out.append((prev, a))
            prev = max(prev, b)
        if prev < TWO_PI:
            out.append((prev, TWO_PI))
        return AngleSet(tuple(out))

    def minus(self, other: "AngleSet") -> "AngleSet":
        return other.union(self.complement()).complement()

    def shifted(self, delta: float) -> "AngleSet":
        return AngleSet.from_raw([(a + delta, b + delta) for a, b in self.intervals])

    def expanded(self, eps: float) -> "AngleSet":
        return AngleSet.from_raw([(a - eps, b + eps) for a, b in self.intervals])


# ---------------------------------------------------------------------------
# Step-I resonance arcs
# ---------------------------------------------------------------------------


def detuning(phi, k: float, p: float, phi_m: float):
    """|k(phi) + p_m|^2 - k^2 = p^2 + 2*k*p*cos(phi - phi_m)."""
    return p * p + 2.0 * k * p * np.cos(np.asarray(phi) - phi_m)


def resonance_arcs(k: float, p: float, phi_m: float, threshold: float):
    """Arcs of phi where |detuning| <= threshold, exact in closed form."""
    if p <= 0:
        return []
    lo = (-p * p - threshold) / (2.0 * k * p)
    hi = (-p * p + threshold) / (2.0 * k * p)
    lo, hi = max(lo, -1.0), min(hi, 1.0)
    if lo > hi:
        return []
    th_lo = math.acos(hi)  # arccos is decreasing
    th_hi = math.acos(lo)
    return [
        (phi_m + th_lo, phi_m + th_hi),
        (phi_m - th_hi, phi_m - th_lo),
    ]


def tangent_angles(k: float, p: float, phi_m: float) -> tuple[float, float] | None:
    """The two roots phi_m^+- of detuning = 0, or None when p > 2k."""
    c = -p / (2.0 * k)
    if abs(c) > 1.0:
        return None
    th = math.acos(c)
    return ((phi_m + th) % TWO_PI, (phi_m - th) % TWO_PI)


def disc_radius(k: float, p: float, threshold: float, tau_factor: float = 1.0) -> float:
    """Radius of the discs around phi_m^+- guaranteed to contain the arcs.

    Away from tangency the arc is a linearized band of width threshold over
    the derivative 2*k*p*sin; near tangency (|4k^2 - p^2| <= 4*threshold) the
    square-root scale takes over.
    """
    if p > 4.0 * k:
        return 0.0
    if abs(4.0 * k * k - p * p) > 4.0 * threshold:
        s = math.sqrt(max(1.0 - (p / (2.0 * k)) ** 2, 1e-300))
        return threshold / (k * p * s)
    return 32.0 * math.sqrt(tau_factor * threshold) / k


def step1_arcs(
    k: float,
    profile: ParameterProfile,
    params: QPParams,
    tau_factor: float = 1.0,
):
    """Per-index resonance arcs over the step-I exclusion zone.

    Returns a list of (row, p, phi_m, arcs) for the nonzero rows of the zone.
    """
    rows, _, duals = box_table(profile.tilde_radius, params)
    ps = np.linalg.norm(duals, axis=1)
    angs = np.arctan2(duals[:, 1], duals[:, 0])
    thr = tau_factor * profile.t1
    out = []
    for row, p, ang in zip(rows, ps, angs):
        arcs = resonance_arcs(k, float(p), float(ang), thr)
        if arcs:
            out.append((row, float(p), float(ang), arcs))
    return out


def build_omega1(
    k: float,
    profile: ParameterProfile,
    params: QPParams,
    tau_factor: float = 1.0,
) -> AngleSet:
    """Angles surviving the step-I excision: [0, 2*pi) minus all arcs."""
    raw = []
    for _, _, _, arcs in step1_arcs(k, profile, params, tau_factor):
        raw.extend(arcs)
    return AngleSet.from_raw(raw).complement()


def resonant_set_step1(
    k: float,
    profile: ParameterProfile,
    params: QPParams,
    tau_factor: float = 1.0,
) -> AngleSet:
    return build_omega1(k, profile, params, tau_factor).complement()


# ---------------------------------------------------------------------------
# Step-II classification
# ---------------------------------------------------------------------------


@dataclass
class ClusterSubset:
    """One residue window m_c + n*q, n in [n_minus, n_plus], along a class
    direction, as rows by ascending n; for a trivial class, a single row."""

    members: np.ndarray
    central: LatticeIndex
    n_minus: int
    n_plus: int
    t_q: float
    strength: str | None = None  # 'weak' | 'strong'
    poles: tuple[float, ...] = ()


@dataclass
class ClusterClass:
    """A maximal chain-connected component of the resonant set (colinear in
    the dual plane) as rows in box order, with its direction data and residue
    windows."""

    members: np.ndarray
    direction: LatticeIndex | None  # generating vector in the support, if any
    in_support: bool
    trivial: bool
    colinear_ok: bool
    t_perp: float
    p_q: float
    subsets: list[ClusterSubset] = field(default_factory=list)


@dataclass
class ClusterDecomposition:
    """M (`m_set`), M' (`m_prime`) and M1 (`m1`) as rows in box order, and
    the chain classes of the rest of M."""

    phi0: float
    k: float
    m_set: np.ndarray
    m_prime: np.ndarray
    m1: np.ndarray
    classes: list[ClusterClass]
    strong_clusters: list[list[tuple[int, int]]] = field(default_factory=list)

    def trivial_weak_points(self) -> np.ndarray:
        """The rows of the weak windows of trivial classes, in box order."""
        rows = concat_rows(
            sub.members for cls in self.classes if cls.trivial
            for sub in cls.subsets if sub.strength == "weak"
        )
        return rows[np.lexsort(rows.T[::-1])]


def _near_circle(
    buckets: DualBuckets, kvec: np.ndarray, k: float, thr: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sorted positions, det) of the duals p of buckets with
    |det| = ||kvec + p|^2 - k^2| <= thr.  Such a p lies at a distance in
    [sqrt(k^2 - thr), sqrt(k^2 + thr)] from -kvec, so only the rows of that
    annulus are tested, by the same arithmetic as over every row."""
    cand = buckets.annulus(-kvec, math.sqrt(max(k * k - thr, 0.0)), math.sqrt(k * k + thr))
    det = shifted_energies(kvec, buckets.duals[cand]) - k * k
    keep = np.abs(det) <= thr
    return cand[keep], det[keep]


def _direction_in_support(
    spec: PotentialSpec, step: LatticeIndex
) -> LatticeIndex | None:
    """Generating vector of the support sharing the dual direction of step."""
    for q in sorted(spec.coeffs):
        if q.is_zero():
            continue
        if duals_colinear(q, step, spec.params):
            return primitive_direction(q)
    return None


def classify(
    phi0: float,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    box_radius: int | None = None,
) -> ClusterDecomposition:
    """Resonant-set decomposition at a non-resonant base angle.

    Splits the resonant set of the r1-box into isolated points and chain
    classes, verifies colinearity of each class by exact integer arithmetic,
    computes the direction data, and cuts non-trivial classes into residue
    windows along their support direction.
    """
    params = spec.params
    r1 = profile.box_r1 if box_radius is None else box_radius
    kvec = k * np.array([math.cos(phi0), math.sin(phi0)])
    # one pass over a box holding the step-I zone and the 2*r1-box, at the
    # widest threshold: first the tau = 8 test of the base angle on the zone,
    # then M' with |det| <= t1 inside the zone and <= t_star beyond it
    radius = max(2 * r1, profile.tilde_radius)
    rows, norms, _ = box_table(radius, params)
    near, det = _near_circle(
        dual_buckets(radius, params), kvec, k, max(8.0 * profile.t1, profile.t_star)
    )
    zone = norms[near] <= profile.tilde_radius
    if np.any(zone & (np.abs(det) <= 8.0 * profile.t1)):
        raise ResonantBase(
            f"phi0={phi0:.6f} lies in the step-I resonant set at tau=8"
        )
    keep = (np.abs(det) <= np.where(zone, profile.t1, profile.t_star)) & (norms[near] <= 2 * r1)
    mp_rows = rows[near[keep]]

    # M is the part of M' in the r-box: the same thresholds on the same rows
    pos = np.flatnonzero(norms[near[keep]] <= r1)
    m_rows = mp_rows[pos]

    if len(m_rows) == 0:
        return ClusterDecomposition(phi0, k, m_rows, mp_rows, m_rows, [])

    # the separation scales must dominate the potential's reach, otherwise
    # isolated points could still be coupled
    eff_iso = max(profile.m1_isolation, spec.max_support_norm)
    eff_chain = max(profile.chain_radius, spec.max_support_norm)

    # M1, the members of M isolated from every other M' point, are the M
    # rows that are singletons of M' at the isolation scale
    iso_labels = triple_norm_components(mp_rows, eff_iso)
    isolated = np.bincount(iso_labels)[iso_labels[pos]] == 1

    # chain classes over M', one per component holding an M2 point
    labels = triple_norm_components(mp_rows, eff_chain)
    duals = dual_array(mp_rows, params)
    classes: list[ClusterClass] = []
    for lab in np.unique(labels[pos[~isolated]]):
        at = np.flatnonzero(labels == lab)
        members, p = mp_rows[at], duals[at]
        # colinear when every step from the first member is colinear with
        # the first step, exactly
        steps = members[1:] - members[0]
        colinear_ok = len(steps) > 0 and bool(
            duals_colinear_rows(steps[0], steps[1:], params).all()
        )
        direction = None
        if colinear_ok:
            step = LatticeIndex.from_row(steps[0])
            direction = _direction_in_support(spec, step)
        in_support = direction is not None
        if colinear_ok and not in_support:
            direction = primitive_direction(step)

        t_perp = math.nan
        p_q = math.nan
        trivial = True
        if direction is not None:
            dvq = dual_vector(direction, params)
            p_q = dvq.length
            nu = dvq.p / p_q
            nu_perp = np.array([-nu[1], nu[0]])
            t_perp = float((kvec + p[0]) @ nu_perp)
            if in_support:
                trivial = abs(k * k - t_perp * t_perp) > profile.t_star / 8.0
        cls = ClusterClass(
            members=members,
            direction=direction,
            in_support=in_support,
            trivial=trivial,
            colinear_ok=colinear_ok,
            t_perp=t_perp,
            p_q=p_q,
        )
        if trivial:
            for i, m in enumerate(members):
                t_here = float((kvec + p[i]) @ nu) if direction is not None else math.nan
                cls.subsets.append(
                    ClusterSubset(
                        members=members[i : i + 1], central=LatticeIndex.from_row(m),
                        n_minus=0, n_plus=0, t_q=t_here,
                    )
                )
        else:
            # residues modulo the primitive direction d: two rows differ by a
            # multiple of d exactly when their 2x2 minors with d agree
            d = np.array(direction.as_row(), dtype=np.int64)
            i, j = np.triu_indices(4, 1)
            minors = members[:, i] * d[j] - members[:, j] * d[i]
            _, first, residue = np.unique(minors, axis=0, return_index=True, return_inverse=True)
            residue = residue.reshape(-1)
            lead = np.flatnonzero(d)[0]
            for r in np.argsort(first):  # residues by their first member
                t0 = float((kvec + p[first[r]]) @ nu)
                shift_n = math.floor(t0 / p_q)
                central = members[first[r]] - shift_n * d
                offs = np.sort((members[residue == r, lead] - central[lead]) // d[lead])
                cls.subsets.append(
                    ClusterSubset(
                        members=central + offs[:, None] * d,
                        central=LatticeIndex.from_row(central),
                        n_minus=int(offs[0]),
                        n_plus=int(offs[-1]),
                        t_q=t0 - shift_n * p_q,
                    )
                )
            cls.subsets.sort(key=lambda s: s.central)
        classes.append(cls)

    return ClusterDecomposition(
        phi0=phi0,
        k=k,
        m_set=m_rows,
        m_prime=mp_rows,
        m1=m_rows[isolated],
        classes=classes,
    )


def tangency_base(
    m0: LatticeIndex,
    q: LatticeIndex,
    params: QPParams,
    t_frac: float = 1.0 / 3.0,
    eps: float = 0.0,
) -> tuple[float, float]:
    """(k, phi0) making the lattice line through m0 in direction q resonant.

    Solves for the circle |k(phi0) + x| = k passing through p_m0 with
    prescribed along-line component t_frac * p_q and transverse defect
    k^2 - t_perp^2 = eps; the whole line then sits inside the resonant band,
    which is the non-trivial chain geometry.
    """
    dq = dual_vector(q, params)
    nu = dq.p / dq.length
    nu_perp = np.array([-nu[1], nu[0]])
    p0 = dual_vector(m0, params).p
    p_nu = float(p0 @ nu)
    p_perp = float(p0 @ nu_perp)
    if p_perp < 0:
        nu_perp = -nu_perp
        p_perp = -p_perp
    if p_perp <= 0:
        raise ValueError("m0 has no transverse component along q")
    t0 = t_frac * dq.length
    k = ((t0 - p_nu) ** 2 + p_perp**2 - eps) / (2.0 * p_perp)
    t_perp = math.sqrt(k * k - eps)
    kvec = t0 * nu + t_perp * nu_perp - p0
    phi0 = math.atan2(kvec[1], kvec[0]) % TWO_PI
    return k, phi0


# ---------------------------------------------------------------------------
# Pole detection and weak/strong labels
# ---------------------------------------------------------------------------


def block_poles(
    rows: np.ndarray,
    k: float,
    phi_interval: tuple[float, float],
    spec: PotentialSpec,
    profile: ParameterProfile,
    scan_points: int,
) -> list[tuple[float, int]]:
    """All phi in the interval where the matrix of the block (its (n, 4)
    rows) at kappa = k(phi) has the eigenvalue k^2.

    Eigenvalue branches are sampled on a grid of scan_points intervals and
    each sign change is refined by bisection; branches are monotone over
    windows of the stated width, so each carries at most one crossing per
    sign change.
    """
    lo, hi = phi_interval
    target = k * k
    n = len(rows)
    coupling = coupling_matrix(rows, spec).toarray()

    def eigs(phi: float) -> np.ndarray:
        h = coupling.copy()
        kappa = k * np.array([math.cos(phi), math.sin(phi)])
        np.fill_diagonal(h, diagonal_energies(kappa, rows, spec.params))
        return np.linalg.eigvalsh(h)

    grid = np.linspace(lo, hi, scan_points + 1)
    table = np.array([eigs(p) for p in grid]) - target
    roots: list[float] = []
    for b in range(n):
        col = table[:, b]
        for i in range(len(grid) - 1):
            f0, f1 = col[i], col[i + 1]
            if f0 == 0.0:
                roots.append(float(grid[i]))
                continue
            if f0 * f1 < 0.0:
                a, c = float(grid[i]), float(grid[i + 1])
                fa = f0
                while c - a > profile.pole_bisect_tol:
                    mid = 0.5 * (a + c)
                    fm = eigs(mid)[b] - target
                    if fm == 0.0:
                        a = c = mid
                        break
                    if fa * fm < 0:
                        c = mid
                    else:
                        a, fa = mid, fm
                roots.append(0.5 * (a + c))
        if abs(col[-1]) == 0.0:
            roots.append(float(grid[-1]))
    roots.sort()
    out: list[tuple[float, int]] = []
    for r in roots:
        if out and abs(r - out[-1][0]) <= 10 * profile.pole_bisect_tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return out


def strength(
    decomp: ClusterDecomposition,
    k: float,
    phi0: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> ClusterDecomposition:
    """Attach weak/strong labels to every residue window and group the strong
    ones into adjacency clusters: two strong windows are adjacent when some of
    their members lie within the chain radius of each other."""
    if not decomp.classes:
        decomp.strong_clusters = []
        return decomp
    window = 2.0 * profile.pole_window
    for cls in decomp.classes:
        for sub in cls.subsets:
            # branches are monotone across the narrow window, so a coarse
            # scan catches every sign change
            poles = block_poles(
                sub.members,
                k,
                (phi0 - window, phi0 + window),
                spec,
                profile,
                scan_points=16,
            )
            sub.poles = tuple(p for p, _ in poles)
            sub.strength = "strong" if poles else "weak"

    # adjacency clusters among strong subsets (within one class by
    # construction: chain connectivity bounds the adjacency radius)
    strong_ids = [
        (ci, si)
        for ci, cls in enumerate(decomp.classes)
        for si, sub in enumerate(cls.subsets)
        if sub.strength == "strong"
    ]
    subsets = [decomp.classes[ci].subsets[si] for ci, si in strong_ids]
    sizes = [len(sub.members) for sub in subsets]
    labels = triple_norm_components(
        concat_rows(sub.members for sub in subsets),
        max(profile.chain_radius, spec.max_support_norm),
        group=np.repeat(np.arange(len(subsets)), sizes),
    )
    # labels follow first rows, and the rows follow strong_ids, so the
    # clusters come out sorted
    groups: dict = {}
    for sid, first in zip(strong_ids, np.cumsum([0] + sizes[:-1])):
        groups.setdefault(labels[first], []).append(sid)
    decomp.strong_clusters = list(groups.values())
    return decomp


# ---------------------------------------------------------------------------
# Block projector
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Block:
    """One block of the model operator: its rows are
    enumerate_box_array(box_r1)[positions]."""

    kind: str  # core | m1-box | trivial-strong | nontrivial-strong | nontrivial-weak
    positions: np.ndarray  # in the box_r1 box, ascending


@dataclass(frozen=True)
class BlockProjector:
    blocks: tuple[Block, ...]


def norm_ball(center_rows: np.ndarray, radius: int, box_radius: int) -> np.ndarray:
    """Sorted positions in enumerate_box_array(box_radius) of the points
    within triple-norm distance radius of some center row."""
    pos = row_positions(
        enumerate_box_array(box_radius),
        center_rows[:, None, :] + enumerate_box_array(radius)[None, :, :],
    )
    return np.unique(pos[pos >= 0])


def orthogonality_violation(blocks, spec: PotentialSpec) -> float:
    """Max |V_{m-m'}| over pairs in distinct blocks, each an (n, 4) row array
    (0.0 when orthogonal): one lookup of every block row shifted by every
    support vector q finds the owner of each shifted row."""
    rows = concat_rows(blocks)
    owner = np.repeat(np.arange(len(blocks)), [len(blk) for blk in blocks])
    support, vals = spec.nonzero_table
    pos = row_positions(rows, rows[None, :, :] - support[:, None, :])
    crossed = ((pos >= 0) & (owner[pos] != owner)).any(axis=1)
    return max((abs(v) for v in vals[crossed].tolist()), default=0.0)


@lru_cache(maxsize=32)
def _core_positions(core_radius: int, box_radius: int) -> np.ndarray:
    """Positions of the core_radius box in the box_radius box (-1 outside)."""
    pos = row_positions(enumerate_box_array(box_radius), enumerate_box_array(core_radius))
    pos.setflags(write=False)
    return pos


def assemble_projector(
    decomp: ClusterDecomposition,
    k: float,
    profile: ParameterProfile,
    spec: PotentialSpec,
) -> BlockProjector:
    """Build the model-operator blocks and verify their separations exactly.

    Construction order: strong-cluster neighborhoods (body first, then weak
    windows attached until nothing in the class is potential-connected to the
    block), then isolated-resonance boxes, then standalone weak windows of
    non-trivial classes.  The small central box is always a block of its own;
    the rest of the r1-box belongs to no block.  Blocks are committed as
    positions in the r1-box.
    """
    if any(sub.strength is None for cls in decomp.classes for sub in cls.subsets):
        raise ValueError("strength labels must be attached first")
    r1 = profile.box_r1
    box = enumerate_box_array(r1)
    core = _core_positions(profile.core_radius, r1)

    blocks: list[Block] = [Block("core", core)]
    taken = np.zeros(len(box), dtype=bool)
    taken[core] = True

    def commit(kind: str, members: np.ndarray, what: str) -> None:
        """members: sorted positions in the r1-box."""
        if taken[members].any():
            raise OverlapDetected(f"{what} intersects an earlier block")
        blocks.append(Block(kind, members))
        taken[members] = True

    def in_box(rows: np.ndarray) -> np.ndarray:
        pos = row_positions(box, rows)
        return np.unique(pos[pos >= 0])

    # a weak window touches the body when a member, or a member shifted by a
    # support vector, lies in it
    support = spec.nonzero_table[0]
    shifts = np.concatenate([np.zeros((1, 4), np.int64), support, -support])

    # strong clusters with attached weak windows; class members come from the
    # 2*r1 classification, so the body is kept as rows, not box positions
    attached: set[tuple[int, int]] = set()
    for group in decomp.strong_clusters:
        ci = group[0][0]
        cls = decomp.classes[ci]
        members = concat_rows(decomp.classes[gci].subsets[si].members for gci, si in group)
        body = np.concatenate(
            [box[norm_ball(members, profile.body_radius, r1)], members]
        )
        if not cls.trivial:
            changed = True
            while changed:
                changed = False
                for si, sub in enumerate(cls.subsets):
                    if sub.strength != "weak" or (ci, si) in attached:
                        continue
                    near = sub.members[None, :, :] + shifts[:, None, :]
                    if np.any(row_positions(body, near) >= 0):
                        body = np.concatenate([body, sub.members])
                        attached.add((ci, si))
                        changed = True
        kind = "trivial-strong" if cls.trivial else "nontrivial-strong"
        commit(kind, in_box(body), f"{kind} block")

    # isolated resonances not swallowed by a strong neighborhood
    for m in decomp.m1[:, None, :]:
        if taken[in_box(m)].any():
            continue
        commit("m1-box", norm_ball(m, profile.m1_box_radius, r1), f"m1 box at {m[0].tolist()}")

    # standalone weak windows of non-trivial classes
    for ci, cls in enumerate(decomp.classes):
        if cls.trivial:
            continue
        for si, sub in enumerate(cls.subsets):
            if sub.strength == "weak" and (ci, si) not in attached:
                commit(
                    "nontrivial-weak",
                    in_box(sub.members),
                    f"weak window at {sub.central}",
                )

    # a lone block has no other block to couple to
    rows = [box[b.positions] for b in blocks]
    viol = orthogonality_violation(rows, spec) if len(blocks) > 1 else 0.0
    if viol != 0.0:
        raise OverlapDetected(
            f"blocks are connected by the potential (max |V| = {viol:.3g})"
        )
    return BlockProjector(blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Solution counting for the shifted eigenvalue equation
# ---------------------------------------------------------------------------


def appendix4_count(
    m: LatticeIndex,
    k: float,
    eps0: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    scan_points: int = 2000,
) -> tuple[int, list[float]]:
    """Count angles phi solving lambda1(kappa1(phi) nu + p_m) = k^2 + eps0.

    Each interval of the step-I good set at least 1e-9 long gets
    max(8, floor(scan_points * length / 2pi)) + 1 points; at k = 25 the set has
    769 intervals, so >= 6,921 points and scan_points=500 is mostly that floor.
    A point's value runs a 6-step Newton from k for kappa1 (|r| <= 1e-10 k^2),
    then the shifted eigenvalue; a sign change between neighbours is bisected
    80 times or to 1e-12, and a rejected point or midpoint makes its bracket a
    gap.  Returns the count and the sorted roots, those within 1e-8 merged.
    """
    from .perturb import LevelEvaluator, NonConvergent

    omega = build_omega1(k, profile, spec.params)
    p = dual_vector(m, spec.params).p
    ev = LevelEvaluator(spec, profile)
    lam = k * k

    def f(phi: float):  # every Newton starts from k: no value depends on the order
        nu = np.array([math.cos(phi), math.sin(phi)])
        kap = k
        for _ in range(6):
            r = (yield kap * nu) - lam
            if abs(r) <= 1e-10 * lam:
                break
            kap -= r / (2.0 * kap)
        else:
            raise NonConvergent(f"radius Newton at phi={phi:.6f} left |r| = {abs(r):.3g}")
        return (yield kap * nu + p) - lam - eps0

    def bisect(lo: float, hi: float, flo: float):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = yield from f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-12:
                break
        return 0.5 * (lo + hi)

    grids = [
        np.linspace(a, b, max(8, int(scan_points * (b - a) / TWO_PI)) + 1)
        for a, b in omega.intervals
        if b - a >= 1e-9
    ]
    phis = [float(phi) for grid in grids for phi in grid]
    vals = [math.nan if isinstance(v, Exception) else v for v in ev.solve(map(f, phis))]
    ends = set(np.cumsum([len(grid) for grid in grids]) - 1)  # no bracket across intervals
    brackets = [
        bisect(phis[i], phis[i + 1], vals[i])
        for i in range(len(phis) - 1)
        if i not in ends and vals[i] * vals[i + 1] <= 0
    ]
    roots = sorted(r for r in ev.solve(brackets) if not isinstance(r, Exception))
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-8:
            dedup.append(r)
    return len(dedup), dedup
