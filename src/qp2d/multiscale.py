"""Second resonant set on the angle circle, the deep-resonance set M^(2) in
the larger momentum box, and the simple/black/grey/white/non-resonant region
map with its merging rules and exact boundary identities.

Boxes for the coloring are cells of the 2D dual-plane tiling (counts of deep
resonances per cell and its 8 neighbors); regions themselves are point sets
in Z^4, grown by triple-norm neighborhoods and merged lighter-into-darker.
M^(2), region components and their boundaries are (N, 4) int64 rows in box
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    box_table,
    concat_rows,
    dual_array,
    enumerate_box_array,
    row_positions,
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


def local_pole_discs(
    phi0: float,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry=None,
) -> list[tuple[float, float]]:
    """Pole discs of every resonance-block resolvent near one base angle.

    Returns (pole, disc radius) pairs inside the local window.  Raises
    ResonantBase when phi0 itself fails the step-I test.
    """
    if geometry is None:
        decomp = classify(phi0, k, spec, profile)
        decomp = strength(decomp, k, phi0, spec, profile)
        projector = assemble_projector(decomp, k, profile, spec)
    else:
        projector = geometry.projector
    half = profile.interval_width / 2.0
    box = enumerate_box_array(profile.box_r1)
    return [
        (pole, profile.o2_disc_radius)
        for blk in projector.blocks
        if blk.kind != "core"
        for pole, _ in block_poles(
            box[blk.positions], k, (phi0 - half, phi0 + half), spec, profile, scan_points=64
        )
    ]


def second_resonant_set(
    k: float,
    phi0_grid,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> tuple[AngleSet, AngleSet]:
    """(O2, omega2): pole discs collected over the base-angle grid, and the
    expanded step-I good set minus those discs."""
    omega1 = build_omega1(k, profile, spec.params)
    raw = []
    for phi0 in np.asarray(phi0_grid, dtype=float):
        if not omega1.contains(float(phi0)):
            continue
        try:
            discs = local_pole_discs(float(phi0), k, spec, profile)
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
) -> tuple[np.ndarray, ClusterDecomposition]:
    """Rows, in box order, of the members of the r2-box resonant set (minus
    weak windows) whose local block resolvent has a pole within the
    membership disc of phi0.

    Membership is decided per block, so all rows of one block share it.
    """
    r2 = profile.box_r2 if r2_radius is None else r2_radius
    decomp = classify(phi0, k, spec, profile, box_radius=r2)
    decomp = strength(decomp, k, phi0, spec, profile)

    half = max(profile.m2_disc_radius * 4.0, 2.0 * profile.pole_window)

    def block_has_near_pole(block) -> bool:
        poles = block_poles(block, k, (phi0 - half, phi0 + half), spec, profile, scan_points=32)
        return any(abs(p - phi0) <= profile.m2_disc_radius for p, _ in poles)

    blocks = list(decomp.m1[:, None, :]) + [
        sub.members for cls in decomp.classes for sub in cls.subsets if sub.strength != "weak"
    ]
    near = [block for block in blocks if block_has_near_pole(block)]
    # sorted and distinct, without the inner r1-box
    rows = np.unique(concat_rows(near), axis=0)
    return rows[triple_norm_array(rows) > profile.box_r1], decomp


# ---------------------------------------------------------------------------
# Region map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RegionComponent:
    """One connected region of a color: its rows and the rows among them
    that the potential connects to a point outside (`boundary`), both in box
    order.  Equal components agree in every field, rows exactly."""

    color: str  # simple | black | grey | white | nonresonant
    rows: np.ndarray
    boundary: np.ndarray
    n_resonant_points: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RegionComponent)
            and (self.color, self.n_resonant_points) == (other.color, other.n_resonant_points)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.boundary, other.boundary)
        )


@dataclass(frozen=True)
class RegionMap:
    components: tuple[RegionComponent, ...]
    r2_radius: int

    def by_color(self, color: str) -> list[RegionComponent]:
        return [c for c in self.components if c.color == color]


def region_map(
    m2_rows,
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

    m2_rows are the deep resonances as (N, 4) rows.  Regions are sorted
    positions into enumerate_box_array(r2); deep resonances outside the box
    act as centers only.
    """
    r2 = profile.box_r2
    box = enumerate_box_array(r2)
    m2_rows = np.unique(np.asarray(m2_rows, dtype=np.int64).reshape(-1, 4), axis=0)
    m2_pos = row_positions(box, m2_rows)
    duals = dual_array(m2_rows, spec.params)
    nonzero, _, nonzero_duals = box_table(r2, spec.params)
    p_len = np.linalg.norm(nonzero_duals, axis=1)

    # simple region: small dual length, fat neighborhoods
    simple_centers = nonzero[(p_len > 0.0) & (p_len <= profile.simple_threshold)]
    simple = norm_ball(simple_centers, profile.simple_nbhd, r2)

    # the inner region is the r1-box inside the r2-box
    inner = triple_norm_array(m2_rows) <= min(profile.box_r1, r2)
    live = ~np.isin(m2_pos, simple) & ~inner

    def crowded(mask, side: float, n_max: int):
        """The points of mask whose dual-plane cell, with its 8 neighbors,
        holds more than n_max points of mask."""
        cells = [(int(math.floor(d[0] / side)), int(math.floor(d[1] / side))) for d in duals]
        counts: dict = {}
        for c in (c for c, keep in zip(cells, mask) if keep):
            counts[c] = counts.get(c, 0) + 1
        dense = {
            c
            for c in counts
            if sum(
                counts.get((c[0] + dx, c[1] + dy), 0)
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            )
            > n_max
        }
        return mask & np.array([c in dense for c in cells], dtype=bool)

    in_black = crowded(live, profile.cell_black, profile.n_black)
    black = norm_ball(m2_rows[in_black], profile.black_nbhd, r2)

    white_candidates = live & ~in_black
    in_grey = crowded(white_candidates, profile.cell_grey, profile.n_grey)
    grey = np.setdiff1d(norm_ball(m2_rows[in_grey], profile.grey_nbhd, r2), black)

    white = norm_ball(m2_rows[white_candidates & ~in_grey], profile.white_nbhd, r2)
    white = np.setdiff1d(white, np.union1d(black, grey))

    # non-resonant leftovers: resonance components of the r2 classification
    # that carry no deep resonance
    nonres = np.zeros(0, dtype=np.int64)
    if decomp is not None:
        m_rows = decomp.m_set
        m_norms = triple_norm_array(m_rows)
        keep = (
            (row_positions(m2_rows, m_rows) < 0)
            & (row_positions(decomp.trivial_weak_points(), m_rows) < 0)
            & (m_norms > profile.box_r1)
            & (m_norms <= r2)
            & ~np.isin(row_positions(box, m_rows), simple)
        )
        nonres = np.setdiff1d(
            norm_ball(m_rows[keep], profile.m1_box_radius, r2),
            np.concatenate([black, grey, white, simple]),
        )

    # merge lighter clusters into close darker regions
    def absorb(lighter, darker, sep: int):
        pts = np.union1d(lighter, darker)
        labels = triple_norm_components(box[pts], sep - 1)
        dark = labels[np.isin(pts, darker)]
        moved = pts[np.isin(labels, dark) & np.isin(pts, lighter)]
        return np.setdiff1d(lighter, moved), np.union1d(darker, moved)

    white, grey = absorb(white, grey, max(profile.white_nbhd, 1) + 1)
    white, black = absorb(white, black, max(profile.white_nbhd, 1) + 1)
    grey, black = absorb(grey, black, max(profile.grey_nbhd, 1) + 1)

    support = spec.nonzero_table[0]
    comps: list[RegionComponent] = []

    def push(color: str, region, sep: int) -> None:
        labels = triple_norm_components(box[region], sep - 1)
        # labels are numbered by first row, and regions are sorted
        for lab in np.unique(labels):
            comp = region[labels == lab]
            rows = box[comp]
            outward = row_positions(rows, rows[None, :, :] + support[:, None, :]) < 0
            comps.append(
                RegionComponent(
                    color=color,
                    rows=rows,
                    boundary=rows[outward.any(axis=0)],
                    n_resonant_points=int(np.count_nonzero(np.isin(comp, m2_pos))),
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
    m2_rows,
    spec: PotentialSpec,
    profile: ParameterProfile,
    rng: np.random.Generator | None = None,
) -> dict:
    """Per-color component statistics plus neighborhood counting ratios
    count / k^(2*gamma'*r1/3 + 1) of the deep resonances (rows) around 20 box
    rows drawn by rng, when rng is given and there are deep resonances."""
    per_color: dict = {}
    for c in rmap.components:
        d = per_color.setdefault(
            c.color, {"components": 0, "max_size": 0, "max_points": 0}
        )
        d["components"] += 1
        d["max_size"] = max(d["max_size"], len(c.rows))
        d["max_points"] = max(d["max_points"], c.n_resonant_points)

    m2_rows = np.unique(np.asarray(m2_rows, dtype=np.int64).reshape(-1, 4), axis=0)
    ratios = []
    if rng is not None and len(m2_rows):
        rows = enumerate_box_array(rmap.r2_radius)
        centers = rows[rng.choice(len(rows), size=min(20, len(rows)), replace=False)]
        gamma_prime = 1.0
        k = profile.k
        r1_exp = profile.r1_exp
        nbhd = max(2, profile.box_r1)
        bound = k ** (2.0 * gamma_prime * r1_exp / 3.0 + 1.0)
        for c0 in centers:
            dist = triple_norm_array(m2_rows - c0)
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
    comps = rmap.components
    rows = concat_rows(c.rows for c in comps)
    owner = np.repeat(np.arange(len(comps)), [len(c.rows) for c in comps])
    on_boundary = row_positions(rows, concat_rows(c.boundary for c in comps))
    interior = np.ones(len(rows), dtype=bool)
    interior[on_boundary[on_boundary >= 0]] = False
    support, vals = spec.nonzero_table
    nb = row_positions(rows, rows[None, :, :] + support[:, None, :])
    # a neighbor in another component, or outside every component from an
    # interior row
    bad = np.where(nb >= 0, owner[nb] != owner, interior).any(axis=1)
    return max((abs(v) for v in vals[bad].tolist()), default=0.0)
