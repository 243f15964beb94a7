"""Second resonant set on the angle circle, the deep-resonance set M^(2) in
the larger momentum box, and the simple/black/grey/white/non-resonant region
map with its merging rules and exact boundary identities.

Boxes for the coloring are cells of the 2D dual-plane tiling (counts of deep
resonances per cell and its 8 neighbors); regions themselves are index sets
in Z^4, grown by triple-norm neighborhoods and merged lighter-into-darker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    LatticeIndex,
    array_to_indices,
    dual_array,
    enumerate_box_array,
    indices_to_array,
    triple_norm,
    triple_norm_array,
    triple_norm_components,
)
from .potential import PotentialSpec
from .profile import ParameterProfile
from .resonance import (
    AngleSet,
    ClusterDecomposition,
    ResonantBase,
    assemble_projector,
    block_poles,
    build_omega1,
    classify,
    norm_ball,
    strength,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Second resonant set
# ---------------------------------------------------------------------------


def pole_discs_from_blocks(
    blocks,
    phi0: float,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    kappa_fn=None,
    scan_points: int = 64,
) -> list[tuple[float, float]]:
    """(pole, disc radius) pairs of the given resonance blocks inside the
    local window around phi0."""
    half = profile.interval_width / 2.0
    discs = []
    for block in blocks:
        for pole, _ in block_poles(
            block,
            k,
            (phi0 - half, phi0 + half),
            spec,
            profile,
            kappa_fn=kappa_fn,
            scan_points=scan_points,
        ):
            discs.append((pole, profile.o2_disc_radius))
    return discs


def local_pole_discs(
    phi0: float,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    kappa_fn=None,
    scan_points: int = 64,
    geometry=None,
) -> list[tuple[float, float]]:
    """Pole discs of every resonance-block resolvent near one base angle.

    Returns (pole, disc radius) pairs inside the local window.  Raises
    ResonantBase when phi0 itself fails the step-I test.
    """
    if geometry is not None:
        blocks = [
            blk.indices for blk in geometry.projector.blocks if blk.kind != "core"
        ]
    else:
        decomp = classify(phi0, k, spec, profile)
        decomp = strength(decomp, k, phi0, spec, profile)
        projector = assemble_projector(decomp, k, profile, spec)
        blocks = [blk.indices for blk in projector.blocks if blk.kind != "core"]
    return pole_discs_from_blocks(
        blocks, phi0, k, spec, profile, kappa_fn=kappa_fn, scan_points=scan_points
    )


def second_resonant_set(
    k: float,
    phi0_grid,
    spec: PotentialSpec,
    profile: ParameterProfile,
    kappa_fn=None,
) -> tuple[AngleSet, AngleSet]:
    """(O2, omega2): pole discs collected over the base-angle grid, and the
    expanded step-I good set minus those discs."""
    omega1 = build_omega1(k, profile, spec.params)
    raw = []
    for phi0 in np.asarray(phi0_grid, dtype=float):
        if not omega1.contains(float(phi0)):
            continue
        try:
            discs = local_pole_discs(float(phi0), k, spec, profile, kappa_fn)
        except ResonantBase:
            continue
        for pole, rad in discs:
            raw.append((pole - rad, pole + rad))
    o2 = AngleSet.from_raw(raw)
    omega2 = omega1.expanded(profile.interval_width / 2.0).minus(o2)
    return o2, omega2


# ---------------------------------------------------------------------------
# The deep-resonance set M^(2)
# ---------------------------------------------------------------------------


def build_m2set(
    phi0: float,
    k: float,
    r2_radius: int | None,
    spec: PotentialSpec,
    profile: ParameterProfile,
    kappa_fn=None,
) -> tuple[list[LatticeIndex], ClusterDecomposition]:
    """Members of the r2-box resonant set (minus weak windows) whose local
    block resolvent has a pole within the membership disc of phi0.

    Membership is decided per block, so all indices of one block share it.
    """
    r2 = profile.box_r2 if r2_radius is None else r2_radius
    decomp = classify(phi0, k, spec, profile, box_radius=r2)
    decomp = strength(decomp, k, phi0, spec, profile)

    half = max(profile.m2_disc_radius * 4.0, 2.0 * profile.pole_window)
    out: set[LatticeIndex] = set()

    def block_has_near_pole(block) -> bool:
        poles = block_poles(
            block,
            k,
            (phi0 - half, phi0 + half),
            spec,
            profile,
            kappa_fn=kappa_fn,
            scan_points=32,
        )
        return any(abs(p - phi0) <= profile.m2_disc_radius for p, _ in poles)

    for m in decomp.m1:
        if block_has_near_pole((m,)):
            out.add(m)
    for cls in decomp.classes:
        for sub in cls.subsets:
            if sub.strength == "weak":
                continue
            if block_has_near_pole(sub.members):
                out.update(sub.members)
    inner = {m for m in out if triple_norm(m) <= profile.box_r1}
    out -= inner
    return sorted(out), decomp


# ---------------------------------------------------------------------------
# Region map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionComponent:
    color: str  # simple | black | grey | white | nonresonant
    indices: tuple[LatticeIndex, ...]
    boundary: tuple[LatticeIndex, ...]
    n_resonant_points: int


@dataclass(frozen=True)
class RegionMap:
    components: tuple[RegionComponent, ...]
    r2_radius: int

    def by_color(self, color: str) -> list[RegionComponent]:
        return [c for c in self.components if c.color == color]


def region_map(
    m2_points,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    decomp: ClusterDecomposition | None = None,
) -> RegionMap:
    """Color the r2-box by local density of deep resonances.

    Cell counts (cell plus its 8 neighbors in the dual-plane tiling) decide
    black cells; non-black cells are subdivided, and the subcell counts decide
    grey; remaining deep resonances get point neighborhoods (white).  Merging
    runs lighter-into-darker: a lighter point joins the darker region when
    the two regions' union links it to a darker point in steps shorter than
    the lighter scale (white into grey, white into black, then grey into
    black).  Components of one color are the classes of the same linking at
    their own scale, ordered by their smallest index.
    """
    r2 = profile.box_r2
    ambient_rows = enumerate_box_array(r2)
    ambient = set(array_to_indices(ambient_rows))
    m2_list = sorted(set(m2_points))
    m2_rows = indices_to_array(m2_list) if m2_list else np.zeros((0, 4), np.int64)
    duals = dual_array(m2_rows, spec.params) if m2_list else np.zeros((0, 2))

    all_duals = dual_array(ambient_rows, spec.params)
    all_norms = triple_norm_array(ambient_rows)
    p_len = np.linalg.norm(all_duals, axis=1)

    # simple region: small dual length, fat neighborhoods
    simple_centers = [
        LatticeIndex.from_row(r)
        for r, nrm, pl in zip(ambient_rows, all_norms, p_len)
        if nrm > 0 and 0.0 < pl <= profile.simple_threshold
    ]
    simple = norm_ball(simple_centers, profile.simple_nbhd, ambient)

    inner = {m for m in ambient if triple_norm(m) <= profile.box_r1}
    live = [
        (m, d)
        for m, d in zip(m2_list, duals)
        if m not in simple and m not in inner
    ]

    def cell_of(d, side):
        return (int(math.floor(d[0] / side)), int(math.floor(d[1] / side)))

    counts_black: dict = {}
    for _, d in live:
        counts_black[cell_of(d, profile.cell_black)] = (
            counts_black.get(cell_of(d, profile.cell_black), 0) + 1
        )

    def nbhd_count(counts, cell):
        return sum(
            counts.get((cell[0] + dx, cell[1] + dy), 0)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        )

    black_cells = {
        c for c in counts_black if nbhd_count(counts_black, c) > profile.n_black
    }
    black_pts = [
        m for m, d in live if cell_of(d, profile.cell_black) in black_cells
    ]
    black = norm_ball(black_pts, profile.black_nbhd, ambient)

    white_candidates = [
        (m, d) for m, d in live if cell_of(d, profile.cell_black) not in black_cells
    ]
    counts_grey: dict = {}
    for _, d in white_candidates:
        cg = cell_of(d, profile.cell_grey)
        counts_grey[cg] = counts_grey.get(cg, 0) + 1
    grey_cells = {
        c for c in counts_grey if nbhd_count(counts_grey, c) > profile.n_grey
    }
    grey_pts = [
        m for m, d in white_candidates if cell_of(d, profile.cell_grey) in grey_cells
    ]
    grey = norm_ball(grey_pts, profile.grey_nbhd, ambient) - black

    white_pts = [
        m
        for m, d in white_candidates
        if cell_of(d, profile.cell_grey) not in grey_cells
    ]
    white = norm_ball(white_pts, profile.white_nbhd, ambient) - black - grey

    # non-resonant leftovers: resonance components of the r2 classification
    # that carry no deep resonance
    nonres: set[LatticeIndex] = set()
    if decomp is not None:
        m2set = set(m2_list)
        tw = set(decomp.trivial_weak_points())
        leftovers = [
            m
            for m in decomp.m_set
            if m not in m2set
            and m not in tw
            and m not in inner
            and m not in simple
            and triple_norm(m) <= r2
        ]
        nonres = norm_ball(leftovers, profile.m1_box_radius, ambient)
        nonres -= black | grey | white | simple

    # merge lighter clusters into close darker regions
    def absorb(lighter: set, darker: set, sep: int) -> tuple[set, set]:
        pts = sorted(lighter | darker)
        labels = triple_norm_components(indices_to_array(pts), sep - 1)
        dark = {lab for m, lab in zip(pts, labels) if m in darker}
        moved = {m for m, lab in zip(pts, labels) if lab in dark and m in lighter}
        return lighter - moved, darker | moved

    white, grey = absorb(white, grey, max(profile.white_nbhd, 1) + 1)
    white, black = absorb(white, black, max(profile.white_nbhd, 1) + 1)
    grey, black = absorb(grey, black, max(profile.grey_nbhd, 1) + 1)

    m2set = set(m2_list)
    comps: list[RegionComponent] = []

    def push(color: str, region: set, sep: int) -> None:
        pts = sorted(region)
        groups: dict = {}
        for m, lab in zip(pts, triple_norm_components(indices_to_array(pts), sep - 1)):
            groups.setdefault(lab, []).append(m)
        for comp in groups.values():
            indices = tuple(comp)
            comp_set = set(comp)
            boundary = tuple(
                m
                for m in comp
                if any(
                    (m + q) not in comp_set
                    for q, v in spec.coeffs.items()
                    if v != 0
                )
            )
            comps.append(
                RegionComponent(
                    color=color,
                    indices=indices,
                    boundary=boundary,
                    n_resonant_points=sum(1 for m in comp if m in m2set),
                )
            )

    push("simple", simple, max(profile.simple_nbhd, 1))
    push("black", black, max(profile.black_nbhd, 1) + 1)
    push("grey", grey, max(profile.grey_nbhd, 1) + 1)
    push("white", white, max(profile.white_nbhd, 1) + 1)
    push("nonresonant", nonres, max(profile.m1_box_radius, 1) + 1)
    return RegionMap(components=tuple(comps), r2_radius=r2)


def region_stats(
    rmap: RegionMap,
    m2_points,
    spec: PotentialSpec,
    profile: ParameterProfile,
    sample_centers=None,
    rng: np.random.Generator | None = None,
) -> dict:
    """Per-color component statistics plus sampled neighborhood counting
    ratios count / k^(2*gamma'*r1/3 + 1)."""
    per_color: dict = {}
    for c in rmap.components:
        d = per_color.setdefault(
            c.color, {"components": 0, "max_size": 0, "max_points": 0}
        )
        d["components"] += 1
        d["max_size"] = max(d["max_size"], len(c.indices))
        d["max_points"] = max(d["max_points"], c.n_resonant_points)

    m2_list = sorted(set(m2_points))
    ratios = []
    if sample_centers is None and rng is not None and m2_list:
        rows = enumerate_box_array(rmap.r2_radius)
        sel = rng.choice(len(rows), size=min(20, len(rows)), replace=False)
        sample_centers = array_to_indices(rows[sel])
    if sample_centers:
        gamma_prime = 1.0
        k = profile.k
        r1_exp = profile.r1_exp
        nbhd = max(2, profile.box_r1)
        bound = k ** (2.0 * gamma_prime * r1_exp / 3.0 + 1.0)
        m2_rows = indices_to_array(m2_list)
        for c0 in sample_centers:
            dist = triple_norm_array(m2_rows - np.array(c0.as_row()))
            ratios.append(int(np.count_nonzero(dist <= nbhd)) / bound)
    return {
        "per_color": per_color,
        "counting_ratios": ratios,
        "max_counting_ratio": max(ratios) if ratios else 0.0,
    }


def boundary_check(
    rmap: RegionMap, spec: PotentialSpec
) -> float:
    """Exact block-structure identities of the region projectors.

    Verifies that distinct components are not connected by the potential and
    that every outward connection leaves from a boundary index; returns the
    largest violating |V| entry (0.0 when all identities hold).
    """
    owner: dict[LatticeIndex, int] = {}
    for i, c in enumerate(rmap.components):
        for m in c.indices:
            owner[m] = i
    support = [(q, abs(v)) for q, v in spec.coeffs.items() if v != 0]
    worst = 0.0
    for i, c in enumerate(rmap.components):
        bset = set(c.boundary)
        cset = set(c.indices)
        for m in c.indices:
            for q, mag in support:
                nb = m + q
                o = owner.get(nb)
                if o is not None and o != i:
                    worst = max(worst, mag)  # cross-component connection
                if o is None and nb not in cset and m not in bset:
                    worst = max(worst, mag)  # outward edge from non-boundary
    return worst
