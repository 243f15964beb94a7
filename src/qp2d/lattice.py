"""Quasi-periodic dual lattice: indices m = (s1, s2) in Z^4, their dual images
p_m = 2*pi*(s1 + alpha*s2) in R^2, box enumeration in the triple norm
|||m||| = |s1|_inf + |s2|_inf, best rational approximation of alpha, and the
cluster geometry of the lattice image at a given approximation scale.

Every point set of the package is an (N, 4) int64 array of rows
(s1x, s1y, s2x, s2y), in box order where it is sorted: lexicographic, which is
`LatticeIndex` order.  `row_positions` finds rows among rows by packed int64
keys, a subset of a box is sorted positions into `enumerate_box_array(R)`,
`box_table` caches a box's nonzero rows with their norms and duals, and
`dual_buckets` those duals in a bucket grid that finds the rows near a circle.
`triple_norm_components` finds its pairs by one such lookup over a half ball
of offsets, exactly in integers.  `cluster_decompose` labels residue clusters
with `np.unique` over their keys, takes diameters from per-cluster bounding
boxes and the exact separation from a sweep in x order.  `components` is the
package's one connected-components routine.  `LatticeIndex` is the scalar
API surface: single points (a potential's frequencies, a class direction),
and `indices_to_array` / `array_to_indices` convert at the edge of the API
only.

alpha is represented exactly, either as a quadratic irrational (a + b*sqrt(d))/c
or as a continued-fraction prefix, so that colinearity questions reduce to
integer arithmetic and best approximants are exact convergents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Bits of precision carried by the rational surrogate of alpha.  Every place
# that consumes it needs far less: |q*alpha - p| down to ~1e-16 with q <= 1e6.
_ALPHA_BITS = 320


class NoApproximant(Exception):
    """No continued-fraction convergent satisfies the approximation window."""


class RationalAlpha(ValueError):
    """The descriptor denotes a rational number."""


class PackOverflow(ValueError):
    """A lattice coordinate is too large for the packed row key."""


@dataclass(frozen=True, order=True)
class LatticeIndex:
    """A point m in Z^4, stored as the integer pair (s1, s2).

    Ordering is lexicographic on (s1, s2), which fixes the deterministic
    enumeration order used throughout.
    """

    s1: tuple[int, int]
    s2: tuple[int, int]

    def __add__(self, other: "LatticeIndex") -> "LatticeIndex":
        return LatticeIndex(
            (self.s1[0] + other.s1[0], self.s1[1] + other.s1[1]),
            (self.s2[0] + other.s2[0], self.s2[1] + other.s2[1]),
        )

    def __sub__(self, other: "LatticeIndex") -> "LatticeIndex":
        return LatticeIndex(
            (self.s1[0] - other.s1[0], self.s1[1] - other.s1[1]),
            (self.s2[0] - other.s2[0], self.s2[1] - other.s2[1]),
        )

    def __neg__(self) -> "LatticeIndex":
        return LatticeIndex((-self.s1[0], -self.s1[1]), (-self.s2[0], -self.s2[1]))

    def scale(self, n: int) -> "LatticeIndex":
        return LatticeIndex(
            (n * self.s1[0], n * self.s1[1]), (n * self.s2[0], n * self.s2[1])
        )

    def is_zero(self) -> bool:
        return self.s1 == (0, 0) and self.s2 == (0, 0)

    def as_row(self) -> tuple[int, int, int, int]:
        return (self.s1[0], self.s1[1], self.s2[0], self.s2[1])

    @staticmethod
    def from_row(row) -> "LatticeIndex":
        a, b, c, d = (int(v) for v in row)
        return LatticeIndex((a, b), (c, d))


ZERO_INDEX = LatticeIndex((0, 0), (0, 0))


def _isqrt_fraction(d: int, bits: int) -> Fraction:
    """sqrt(d) as a Fraction accurate to ~2**-bits absolute."""
    num = math.isqrt(d << (2 * bits))
    return Fraction(num, 1 << bits)


@dataclass(frozen=True)
class QPParams:
    """The frequency alpha in (0,1) plus its Diophantine bookkeeping.

    Exactly one of `quadratic` / `cf_prefix` is set.  `quadratic` is the tuple
    (a, b, d, c) for alpha = (a + b*sqrt(d))/c with d > 0 not a perfect square
    and b != 0.  `cf_prefix` is a list of continued-fraction terms
    [a0, a1, ...] whose value stands in for alpha; the Diophantine-type
    condition on cubic combinations is then not certified (flagged).
    """

    quadratic: tuple[int, int, int, int] | None = None
    cf_prefix: tuple[int, ...] | None = None
    mu: float = 2.0
    n0: float | None = None
    n1: float | None = None
    _alpha_frac: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.quadratic is None) == (self.cf_prefix is None):
            raise ValueError("exactly one of quadratic / cf_prefix must be given")
        if self.mu < 2:
            raise ValueError("irrationality measure must be >= 2")
        if self.quadratic is not None:
            a, b, d, c = self.quadratic
            if c == 0:
                raise ValueError("zero denominator in quadratic descriptor")
            if b == 0 or d <= 0 or math.isqrt(d) ** 2 == d:
                raise RationalAlpha(
                    "quadratic descriptor (a=%d, b=%d, d=%d, c=%d) is rational"
                    % (a, b, d, c)
                )
            frac = Fraction(a, c) + Fraction(b, c) * _isqrt_fraction(d, _ALPHA_BITS)
        else:
            terms = tuple(int(t) for t in self.cf_prefix)
            if len(terms) < 2 or any(t <= 0 for t in terms[1:]):
                raise ValueError("cf prefix needs a0 and positive partial quotients")
            val = Fraction(terms[-1])
            for t in reversed(terms[:-1]):
                val = Fraction(t) + 1 / val
            frac = val
            object.__setattr__(self, "cf_prefix", terms)
        if not (0 < frac < 1):
            raise ValueError("alpha must lie in (0, 1)")
        object.__setattr__(self, "_alpha_frac", frac)

    @property
    def alpha(self) -> float:
        return float(self._alpha_frac)

    @property
    def alpha_fraction(self) -> Fraction:
        return self._alpha_frac

    @property
    def condition4_certified(self) -> bool:
        return self.quadratic is not None

    def minimal_triple(self) -> tuple[int, int, int] | None:
        """(n1, n2, n3) with n1 + n2*alpha + n3*alpha^2 = 0, if quadratic."""
        if self.quadratic is None:
            return None
        a, b, d, c = self.quadratic
        return (a * a - b * b * d, -2 * a * c, c * c)

    def combination_is_zero(self, n1: int, n2: int, n3: int) -> bool:
        """Exact test of n1 + n2*alpha + n3*alpha^2 == 0."""
        if self.quadratic is not None:
            a, b, d, c = self.quadratic
            rational = c * c * n1 + a * c * n2 + (a * a + b * b * d) * n3
            surd = b * (c * n2 + 2 * a * n3)
            return rational == 0 and surd == 0
        f = self._alpha_frac
        return n1 + n2 * f + n3 * f * f == 0

    def continued_fraction(self, max_terms: int = 64) -> list[int]:
        """Leading continued-fraction terms of alpha."""
        if self.cf_prefix is not None:
            return list(self.cf_prefix[:max_terms])
        terms = []
        x = self._alpha_frac
        # Stop while enough precision remains for the next partial quotient.
        guard = Fraction(1, 1 << (_ALPHA_BITS - 16))
        for _ in range(max_terms):
            a = math.floor(x)
            terms.append(a)
            frac = x - a
            if frac <= guard:
                break
            x = 1 / frac
        return terms

    def convergents(self, max_terms: int = 64) -> list[tuple[int, int]]:
        """(numerator, denominator) convergents of alpha, in order."""
        out = []
        h0, h1 = 1, 0
        k0, k1 = 0, 1
        for a in self.continued_fraction(max_terms):
            h0, h1 = a * h0 + h1, h0
            k0, k1 = a * k0 + k1, k0
            out.append((h0, k0))
        return out


def triple_norm(m: LatticeIndex) -> int:
    """|||m||| = |s1|_inf + |s2|_inf."""
    return max(abs(m.s1[0]), abs(m.s1[1])) + max(abs(m.s2[0]), abs(m.s2[1]))


@dataclass(frozen=True)
class DualVector:
    p: np.ndarray  # 2-vector 2*pi*(s1 + alpha*s2)
    norm3: int

    @property
    def length(self) -> float:
        return float(np.hypot(self.p[0], self.p[1]))

    @property
    def angle(self) -> float:
        return float(math.atan2(self.p[1], self.p[0]) % TWO_PI)


def dual_vector(m: LatticeIndex, params: QPParams) -> DualVector:
    a = params.alpha
    p = np.array(
        [
            TWO_PI * (m.s1[0] + a * m.s2[0]),
            TWO_PI * (m.s1[1] + a * m.s2[1]),
        ]
    )
    return DualVector(p=p, norm3=triple_norm(m))


# ---------------------------------------------------------------------------
# Array views.  The heavy geometry below works on (N, 4) integer arrays with
# columns (s1x, s1y, s2x, s2y); LatticeIndex is the scalar API surface.
# ---------------------------------------------------------------------------


def indices_to_array(indices) -> np.ndarray:
    return np.array([m.as_row() for m in indices], dtype=np.int64).reshape(-1, 4)


def array_to_indices(rows: np.ndarray) -> list[LatticeIndex]:
    return [LatticeIndex((a, b), (c, d)) for a, b, c, d in np.asarray(rows).tolist()]


def concat_rows(parts) -> np.ndarray:
    """Row arrays stacked into one (N, 4) array; (0, 4) when there are none."""
    return np.concatenate([np.zeros((0, 4), dtype=np.int64), *parts])


def triple_norm_array(rows: np.ndarray) -> np.ndarray:
    """|||m||| of each row of an (..., 4) array."""
    return np.max(np.abs(rows[..., :2]), axis=-1) + np.max(np.abs(rows[..., 2:]), axis=-1)


_PACK_BASE = 4096  # coordinates must stay below half of this


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Injective int64 key per row of an (..., 4) array; keys increase in
    LatticeIndex order.

    Raises PackOverflow when a coordinate reaches +-_PACK_BASE/2, where
    distinct rows would share a key."""
    b = _PACK_BASE
    h = b // 2
    top = int(np.max(np.abs(rows), initial=0))
    if top >= h:
        raise PackOverflow(f"coordinate {top} outside +-{h - 1}")
    out = rows[..., 0] + h
    for c in range(1, 4):
        out = out * b + (rows[..., c] + h)
    return out


def row_positions(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Position in `rows` (N, 4) of each row of `query` (..., 4), or -1 where
    it is absent; the result has shape (...).  A row that occurs more than
    once in `rows` gets one of its positions."""
    keys = pack_rows(rows)
    target = pack_rows(query)
    if len(keys) == 0:
        return np.full(target.shape, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    at = np.minimum(np.searchsorted(sorted_keys, target), len(keys) - 1)
    return np.where(sorted_keys[at] == target, order[at], -1)


def dual_array(rows: np.ndarray, params: QPParams) -> np.ndarray:
    """(N, 2) array of dual vectors 2*pi*(s1 + alpha*s2)."""
    a = params.alpha
    return TWO_PI * (rows[:, :2] + a * rows[:, 2:])


@lru_cache(maxsize=32)
def _box_rows_cached(radius: int) -> np.ndarray:
    rng = np.arange(-radius, radius + 1, dtype=np.int64)
    g = np.stack(np.meshgrid(rng, rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 4)
    keep = triple_norm_array(g) <= radius
    g = g[keep]
    order = np.lexsort((g[:, 3], g[:, 2], g[:, 1], g[:, 0]))
    out = g[order]
    out.setflags(write=False)
    return out


def enumerate_box_array(radius: int) -> np.ndarray:
    """All m with |||m||| <= radius as a lexicographically sorted (N,4) array."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _box_rows_cached(int(radius))


def enumerate_box(radius: int) -> list[LatticeIndex]:
    return array_to_indices(enumerate_box_array(radius))


def box_size(radius: int) -> int:
    return enumerate_box_array(radius).shape[0]


@lru_cache(maxsize=32)
def box_table(radius: int, params: QPParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, triple norms, duals) of the nonzero rows of the box |||m||| <=
    radius, in box order and read-only; built on first use per argument pair."""
    rows = enumerate_box_array(radius)
    rows = rows[triple_norm_array(rows) > 0]
    table = (rows, triple_norm_array(rows), dual_array(rows, params))
    for arr in table:
        arr.setflags(write=False)
    return table


# Side of a bucket of the dual grid, in dual units: at k = 15-60 a side of 2
# scanned fewer rows than 1 at both the 8- and the 16-box.
_BUCKET_SIDE = 2.0
# Widening of an annulus query on both radii.  A row's computed |det|, its
# bucket and the bucket's bounds carry rounding of about 1e-16 times their
# coordinates: under 1e-12 in distance while duals and radii stay below 1e3.
_ANNULUS_MARGIN = 1e-6


class DualBuckets:
    """A uniform grid of square buckets over an (N, 2) dual array: the row
    positions sorted by bucket (`order`) with CSR-style bucket starts, so
    that a query gathers the rows of its buckets without a loop."""

    def __init__(self, duals: np.ndarray):
        self.duals = duals
        self.origin = duals.min(axis=0, initial=0.0).tolist()
        cell = np.floor((duals - self.origin) / _BUCKET_SIDE).astype(np.int64)
        nx, ny = (cell.max(axis=0, initial=0) + 1).tolist()
        self.shape = (nx, ny)
        flat = cell[:, 0] * ny + cell[:, 1]
        self.order = np.argsort(flat, kind="stable").astype(np.int32)
        self.starts = np.zeros(nx * ny + 1, dtype=np.int32)
        np.cumsum(np.bincount(flat, minlength=nx * ny), out=self.starts[1:])
        self._cells = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
        self._edges = np.arange(max(nx, ny) + 1) * _BUCKET_SIDE
        for arr in (self.order, self.starts, self._cells, self._edges):
            arr.setflags(write=False)

    def annulus(self, center, r_lo: float, r_hi: float) -> np.ndarray:
        """Sorted positions of a superset of the rows whose duals lie at a
        distance in [r_lo, r_hi] from center: the rows of every bucket whose
        distance range from center meets the interval widened by
        _ANNULUS_MARGIN."""
        r_lo = max(r_lo - _ANNULUS_MARGIN, 0.0)
        r_hi = r_hi + _ANNULUS_MARGIN
        span = []  # the buckets of the annulus' bounding square, per axis
        for c, n in zip((center[0] - self.origin[0], center[1] - self.origin[1]), self.shape):
            lo = max(math.floor((c - r_hi) / _BUCKET_SIDE), 0)
            hi = min(math.floor((c + r_hi) / _BUCKET_SIDE), n - 1)
            if hi < lo:
                return np.zeros(0, dtype=np.int32)
            # squared least and largest distances to c over each bucket's width
            e = self._edges[lo : hi + 2] - c
            sq = e * e
            near = np.maximum(np.maximum(e[:-1], -e[1:]), 0.0)
            span.append((slice(lo, hi + 1), near * near, np.maximum(sq[:-1], sq[1:])))
        (sx, nx2, fx2), (sy, ny2, fy2) = span
        meets = (np.add.outer(nx2, ny2) <= r_hi * r_hi) & (np.add.outer(fx2, fy2) >= r_lo * r_lo)
        cells = self._cells[sx, sy][meets]
        first = self.starts[cells]
        size = self.starts[cells + 1] - first
        # the positions first[c] .. first[c] + size[c] - 1 of every bucket c
        at = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
        return np.sort(self.order[at])


@lru_cache(maxsize=32)
def dual_buckets(radius: int, params: QPParams) -> DualBuckets:
    """The DualBuckets of box_table(radius, params)'s duals, built on first use
    per argument pair; positions are box_table positions."""
    return DualBuckets(box_table(radius, params)[2])


def components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected-component label per node 0..n-1 of the undirected graph with
    edges (i[e], j[e]); components are numbered 0, 1, ... in order of their
    first node.

    Hooking and pointer jumping on a parent array with parent[x] <= x: each
    round every root joined by an edge to a smaller root hooks onto the
    smallest such root, then every node jumps to its root.  A tree that joins
    no other in one round hooks in the next, so the trees of a component at
    least halve every two rounds; the root of a component is its first node."""
    parent = np.arange(n)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    while True:
        pi, pj = parent[i], parent[j]
        cross = pi != pj
        if not cross.any():
            break
        i, j, pi, pj = i[cross], j[cross], pi[cross], pj[cross]
        np.minimum.at(parent, np.maximum(pi, pj), np.minimum(pi, pj))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(n)
    return (np.cumsum(root) - 1)[parent]


def _equal_runs(keys: np.ndarray) -> np.ndarray:
    """(M, 2) position pairs that chain each run of equal keys: every
    position to the next one with its key, in a stable sort by key."""
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    return np.stack([order[:-1][same], order[1:][same]], axis=1)


def triple_norm_components(
    rows: np.ndarray, radius: int, group: np.ndarray | None = None
) -> np.ndarray:
    """Connected-component label per row of an (N,4) array, joining rows at
    triple-norm distance <= radius and, when `group` (one int per row) is
    given, rows that share a group.  Components are numbered 0, 1, ... in
    order of their first row.

    The pairs come exactly from one `row_positions` lookup of every row plus
    every offset of the half ball, the nonzero rows of the radius box that
    follow the origin in box order: a pair at a nonzero offset h is found
    once, from the row whose offset to the other is h.  Equal rows (offset
    zero) and rows of one group are chained by runs of equal keys."""
    n = rows.shape[0]
    if n < 2:
        return np.arange(n)
    ball = enumerate_box_array(radius)
    # the box is symmetric, so the origin is its middle row
    half = ball[len(ball) // 2 + 1 :]
    at = row_positions(rows, rows[:, None, :] + half[None])
    i, h = np.nonzero(at >= 0)
    pairs = [np.stack([i, at[i, h]], axis=1), _equal_runs(pack_rows(rows))]
    if group is not None:
        pairs.append(_equal_runs(group))
    pairs = np.concatenate(pairs)
    return components(n, pairs[:, 0], pairs[:, 1])


# ---------------------------------------------------------------------------
# Best rational approximation and the induced cluster structure.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxPair:
    """Best approximation |alpha*q + p| <= k^{-r}/4 with q <= 4k^r.

    p carries the sign convention eps_q = alpha + p/q, i.e. p is minus the
    convergent numerator.
    """

    q: int
    p: int
    eps_q: float

    @property
    def step(self) -> float:
        return abs(self.eps_q) * self.q


def best_rational(params: QPParams, k: float, r: float) -> ApproxPair:
    if k <= 1 or r <= 0:
        raise ValueError("need k > 1 and r > 0")
    q_max = 4.0 * k**r
    bound = Fraction(1, 4) / Fraction(k**r).limit_denominator(10**12)
    alpha = params.alpha_fraction
    best = None
    for num, den in params.convergents():
        if den > q_max:
            break
        err = abs(den * alpha - num)
        if err <= bound:
            if best is None or err < best[0]:
                best = (err, den, num)
    if best is None:
        raise NoApproximant(
            "no convergent with q <= %.6g reaches |alpha*q+p| <= %.3g"
            % (q_max, float(bound))
        )
    err, q, num = best
    return ApproxPair(q=q, p=-num, eps_q=float((q * alpha - num) / q))


@dataclass(frozen=True)
class ClusterGrid:
    """Partition of dual images by the residue construction at scale (q, p).

    Geometry is carried in units of s1 + alpha*s2 (the dual vector divided by
    2*pi): cluster diameters < 1/(8q) and separations > 1/(2q) refer to this
    scale.  `clusters` maps (s, s2'') -> sorted list of members, where
    s = s1 - p*s2' and s2 = q*s2' + s2'' with 0 <= s2''_j < q.
    """

    clusters: dict[tuple[tuple[int, int], tuple[int, int]], list[LatticeIndex]]
    step: float
    cluster_diameter: float
    min_separation: float


def cluster_decompose(box, approx: ApproxPair, params: QPParams) -> ClusterGrid:
    """Residue clusters of a point set (an (N,4) array or LatticeIndex
    iterable) at the approximation scale (q, p), with their largest diameter
    and smallest separation in units of s1 + alpha*s2.

    Clusters are keyed in order of their first member in LatticeIndex order.
    The separation is exact: a sweep over the points sorted by x meets every
    pair of points of two clusters whose x gap is within the best distance
    so far, each distance taken by the all-pairs norm expression.  One
    cluster has separation inf.
    """
    rows = box if isinstance(box, np.ndarray) else indices_to_array(box)
    step = abs(approx.eps_q) * approx.q
    n = rows.shape[0]
    if n == 0:
        return ClusterGrid({}, step, 0.0, math.inf)
    q, p = approx.q, approx.p
    s2 = rows[:, 2:]
    s2p = np.floor_divide(s2, q)
    keys = np.concatenate([rows[:, :2] - p * s2p, s2 - q * s2p], axis=1)
    points = (rows[:, :2] + params.alpha * s2).astype(float)
    uniq, labels = np.unique(keys, axis=0, return_inverse=True)
    labels = labels.reshape(-1)

    # clusters by their first member, each a run of sorted members
    order = np.lexsort(rows.T[::-1])
    _, first = np.unique(labels[order], return_index=True)
    grouped = array_to_indices(rows[order[np.argsort(first[labels[order]], kind="stable")]])
    by_first = np.argsort(first)
    ends = np.cumsum(np.bincount(labels)[by_first]).tolist()
    clusters = {
        ((a, b), (c, d)): grouped[start:end]
        for (a, b, c, d), start, end in zip(uniq[by_first].tolist(), [0] + ends, ends)
    }

    # the diagonal of a cluster's bounding box bounds its diameter from above
    # (tests find it attained, against all pairs)
    lo = np.full((len(uniq), 2), np.inf)
    hi = np.full((len(uniq), 2), -np.inf)
    np.minimum.at(lo, labels, points)
    np.maximum.at(hi, labels, points)
    diam = max(0.0, float(np.hypot(*(hi - lo).T).max()))

    min_sep = math.inf
    if len(uniq) > 1:
        # sweep in x order: at shift s point i meets point i + s, and a point
        # whose x gap, rounded as the distance rounds it, exceeds the best
        # distance so far leaves, as later shifts only widen that gap
        by_x = np.argsort(points[:, 0], kind="stable")
        pts, lab = points[by_x], labels[by_x]
        live = np.arange(n - 1)
        s = 1
        while len(live):
            gap = pts[live + s, 0] - pts[live, 0]
            live = live[np.sqrt(gap * gap) <= min_sep]
            cross = live[lab[live + s] != lab[live]]
            if len(cross):
                sep = np.linalg.norm(pts[cross] - pts[cross + s], axis=-1).min()
                min_sep = min(min_sep, float(sep))
            s += 1
            live = live[live + s < n]
    return ClusterGrid(
        clusters=clusters,
        step=step,
        cluster_diameter=diam,
        min_separation=min_sep,
    )


def count_short_vectors(box_radius: int, threshold: float, params: QPParams) -> int:
    """Exact count of m != 0 with |||m||| <= box_radius and |p_m| < threshold.

    Exhaustive over s2; for thresholds below pi the matching s1 component is
    the unique nearest integer, so the scan is O(box_radius^2) instead of a
    four-fold loop.
    """
    if box_radius < 0:
        raise ValueError("box_radius must be >= 0")
    if threshold <= 0:
        return 0
    a = params.alpha
    t = threshold / TWO_PI  # component bound on s1 + alpha*s2
    rng = np.arange(-box_radius, box_radius + 1, dtype=np.int64)
    g2 = np.stack(np.meshgrid(rng, rng, indexing="ij"), axis=-1).reshape(-1, 2)
    count = 0
    shifts = range(-int(math.ceil(t - 0.5)) - 1, int(math.ceil(t - 0.5)) + 2) if t >= 0.5 else (0,)
    base = -a * g2
    nearest = np.rint(base).astype(np.int64)
    for dx in shifts:
        for dy in shifts:
            s1 = nearest + np.array([dx, dy], dtype=np.int64)
            vec = s1 + a * g2
            ok = np.max(np.abs(vec), axis=1) <= t  # quick reject
            if not ok.any():
                continue
            s1o, g2o, veco = s1[ok], g2[ok], vec[ok]
            norm = np.max(np.abs(s1o), axis=1) + np.max(np.abs(g2o), axis=1)
            r2 = np.einsum("ij,ij->i", veco, veco)
            good = (norm <= box_radius) & (r2 < t * t) & (norm > 0)
            count += int(good.sum())
    return count


def min_dual_norm_constant(params: QPParams, radius: int) -> float:
    """Empirical C with |p_m| >= 2*pi*C*|||m|||^{-mu} over the given box.

    Measures the constant in the two-sided norm comparison once per alpha; the
    lower bound itself is a Diophantine fact, the constant is not universal.
    """
    rows = enumerate_box_array(radius)
    norms = triple_norm_array(rows)
    keep = norms > 0
    p = np.linalg.norm(dual_array(rows[keep], params), axis=1)
    return float(np.min(p / TWO_PI * norms[keep] ** params.mu))


def cross_combination(m: LatticeIndex, mp: LatticeIndex) -> tuple[int, int, int]:
    """Integer triple (n1, n2, n3) with cross(p_m, p_mp)/(2*pi)^2 =
    n1 + n2*alpha + n3*alpha^2."""
    c = lambda u, v: u[0] * v[1] - u[1] * v[0]
    return (
        c(m.s1, mp.s1),
        c(m.s1, mp.s2) + c(m.s2, mp.s1),
        c(m.s2, mp.s2),
    )


def duals_colinear(m: LatticeIndex, mp: LatticeIndex, params: QPParams) -> bool:
    """Exact test: p_m and p_mp lie on one line through the origin."""
    return params.combination_is_zero(*cross_combination(m, mp))


def duals_colinear_rows(a: np.ndarray, b: np.ndarray, params: QPParams) -> np.ndarray:
    """duals_colinear per row pair of two broadcastable (..., 4) int arrays:
    the integer triples of cross_combination, each tested exactly."""
    c = lambda u, v: u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    s1, s2, t1, t2 = a[..., :2], a[..., 2:], b[..., :2], b[..., 2:]
    n = np.stack([c(s1, t1), c(s1, t2) + c(s2, t1), c(s2, t2)], axis=-1)
    zero = [params.combination_is_zero(*t) for t in n.reshape(-1, 3).tolist()]
    return np.array(zero, dtype=bool).reshape(n.shape[:-1])


def rational_ratio(m: LatticeIndex, mp: LatticeIndex) -> Fraction | None:
    """If mp = c*m in Z^4 with c rational, return c; otherwise None."""
    a = np.array(m.as_row(), dtype=object)
    b = np.array(mp.as_row(), dtype=object)
    if all(v == 0 for v in a):
        return None
    # all 2x2 minors of [[a],[b]] must vanish for Z^4 parallelism
    for i in range(4):
        for j in range(i + 1, 4):
            if a[i] * b[j] - a[j] * b[i] != 0:
                return None
    for i in range(4):
        if a[i] != 0:
            return Fraction(int(b[i]), int(a[i]))
    return None


def primitive_direction(m: LatticeIndex) -> LatticeIndex:
    """m divided by the gcd of its four components."""
    g = math.gcd(math.gcd(abs(m.s1[0]), abs(m.s1[1])),
                 math.gcd(abs(m.s2[0]), abs(m.s2[1])))
    if g == 0:
        raise ValueError("zero index has no direction")
    return LatticeIndex(
        (m.s1[0] // g, m.s1[1] // g), (m.s2[0] // g, m.s2[1] // g)
    )
