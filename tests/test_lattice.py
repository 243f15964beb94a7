import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qp2d.lattice import (
    ApproxPair,
    LatticeIndex,
    PackOverflow,
    QPParams,
    RationalAlpha,
    ZERO_INDEX,
    array_to_indices,
    best_rational,
    box_table,
    cluster_decompose,
    components,
    count_short_vectors,
    cross_combination,
    dual_array,
    dual_vector,
    duals_colinear,
    duals_colinear_rows,
    enumerate_box,
    enumerate_box_array,
    indices_to_array,
    min_dual_norm_constant,
    pack_rows,
    primitive_direction,
    rational_ratio,
    row_positions,
    triple_norm,
    triple_norm_array,
    triple_norm_components,
)

TWO_PI = 2.0 * math.pi

coord = st.integers(min_value=-6, max_value=6)
indices = st.builds(
    LatticeIndex,
    st.tuples(coord, coord),
    st.tuples(coord, coord),
)


class TestDualVector:
    def test_zero_index(self, params):
        dv = dual_vector(ZERO_INDEX, params)
        assert dv.p[0] == 0.0 and dv.p[1] == 0.0 and dv.norm3 == 0

    def test_alpha_free_component(self, params):
        dv = dual_vector(LatticeIndex((1, 0), (0, 0)), params)
        assert dv.p[0] == pytest.approx(TWO_PI, abs=0) and dv.p[1] == 0.0
        assert dv.norm3 == 1

    def test_high_precision_value(self, params):
        # alpha = sqrt(2)-1, m = ((-1,0),(1,0)): 2*pi*(sqrt(2)-2)
        dv = dual_vector(LatticeIndex((-1, 0), (1, 0)), params)
        expected = TWO_PI * (float(Fraction(math.isqrt(2 << 200), 1 << 100)) - 2.0)
        assert dv.p[0] == pytest.approx(expected, abs=1e-12)
        assert abs(dv.p[0] - (-3.680605)) < 1e-5
        assert dv.p[1] == 0.0

    def test_two_sided_norm_bounds(self, params):
        # |p_m| <= 2*pi*sqrt(2)*|||m||| (the sqrt(2) is the cost of the
        # inf-norm convention on components) and
        # |p_m| >= 2*pi*C*|||m|||^-mu with C measured once for this alpha
        c1 = min_dual_norm_constant(params, radius=6)
        assert c1 > 0
        rows = enumerate_box_array(6)
        norms = triple_norm_array(rows)
        for row, n in zip(rows[norms > 0], norms[norms > 0]):
            dv = dual_vector(LatticeIndex.from_row(row), params)
            assert dv.length <= TWO_PI * math.sqrt(2.0) * n + 1e-9
            assert dv.length >= TWO_PI * c1 * float(n) ** (-params.mu) - 1e-9


class TestBoxRows:
    @pytest.mark.parametrize("radius", [0, 2, 4])
    def test_cached_box_rows(self, radius):
        # box order is LatticeIndex order, and the rows are shared read-only
        box = enumerate_box_array(radius)
        points = array_to_indices(box)
        assert points == sorted(points) and len(set(points)) == len(points)
        assert enumerate_box_array(radius) is box and not box.flags.writeable


class TestBoxTable:
    @pytest.mark.parametrize("radius", [0, 2, 3, 4])
    def test_matches_direct_recomputation(self, radius, params):
        rows, norms, duals = box_table(radius, params)
        box = enumerate_box_array(radius)
        keep = triple_norm_array(box) > 0
        assert np.array_equal(rows, box[keep])
        assert np.array_equal(norms, triple_norm_array(box)[keep])
        # bit for bit: the duals are dual_array's own values
        assert duals.tobytes() == dual_array(box, params)[keep].tobytes()
        # the zero row, left out, sits at the middle of the sorted box
        assert not box[len(box) // 2].any() and len(rows) == len(box) - 1
        assert box_table(radius, params) is box_table(radius, params)
        assert not any(a.flags.writeable for a in (rows, norms, duals))

    def test_one_table_per_params(self, params, golden):
        assert not np.array_equal(box_table(2, params)[2], box_table(2, golden)[2])


class TestTripleNorm:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (ZERO_INDEX, 0),
            (LatticeIndex((1, 0), (0, 0)), 1),
            (LatticeIndex((2, -1), (0, 3)), 5),
        ],
    )
    def test_examples(self, m, expected):
        assert triple_norm(m) == expected

    @given(indices, indices)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b):
        assert triple_norm(a + b) <= triple_norm(a) + triple_norm(b)

    @given(indices)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, m):
        assert triple_norm(m) == triple_norm(-m)


def _flood_labels(rows, radius, group=None):
    """Brute-force reference: O(n^2) flood fill over the triple-norm (and
    shared-group) links, numbering components in order of their first row."""
    n = len(rows)

    def linked(i, j):
        d = [int(a) - int(b) for a, b in zip(rows[i], rows[j])]
        near = max(abs(d[0]), abs(d[1])) + max(abs(d[2]), abs(d[3])) <= radius
        return near or (group is not None and group[i] == group[j])

    labels = [-1] * n
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if labels[j] < 0 and linked(i, j):
                    labels[j] = count
                    stack.append(j)
        count += 1
    return labels


class TestTripleNormComponents:
    small = st.integers(min_value=-4, max_value=4)

    @given(
        st.lists(
            st.tuples(st.tuples(small, small, small, small), st.integers(0, 3)),
            max_size=25,
        ),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, points, radius, grouped):
        rows = np.array([p for p, _ in points], dtype=np.int64).reshape(-1, 4)
        group = np.array([g for _, g in points], dtype=np.int64) if grouped else None
        labels = triple_norm_components(rows, radius, group=group)
        assert labels.tolist() == _flood_labels(rows, radius, group)

    def test_distance_exactly_radius(self):
        # triple norm 3 joins at radius 3 only; sup norm 2 but triple norm 4
        # never joins at radius 2
        rows = np.array([[0, 0, 0, 0], [2, 0, 0, 1], [2, 0, 2, 0]])
        assert triple_norm_components(rows[:2], 3).tolist() == [0, 0]
        assert triple_norm_components(rows[:2], 2).tolist() == [0, 1]
        assert triple_norm_components(rows[[0, 2]], 2).tolist() == [0, 1]

    def test_group_joins_far_rows(self):
        rows = np.array([[0, 0, 0, 0], [9, 9, 0, 0], [0, 0, 9, 9], [9, 0, 9, 0]])
        assert triple_norm_components(rows, 1).tolist() == [0, 1, 2, 3]
        group = np.array([5, 7, 5, 7])
        assert triple_norm_components(rows, 1, group=group).tolist() == [0, 1, 0, 1]

    def test_labels_follow_first_rows(self):
        rows = np.array(
            [[9, 0, 0, 0], [0, 0, 0, 0], [9, 1, 0, 0], [5, 5, 5, 5], [0, 1, 0, 0]]
        )
        assert triple_norm_components(rows, 1).tolist() == [0, 1, 0, 2, 1]


class TestComponents:
    """`components` against scipy's connected_components, the independent
    reference here (the library itself does not import csgraph)."""

    @staticmethod
    def reference(n, i, j):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        graph = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
        return connected_components(graph, directed=False)[1]

    def test_random_graphs(self):
        rng = np.random.default_rng(20261020)
        for _ in range(320):
            n = int(rng.integers(1, 401))
            m = int(rng.integers(0, 2 * n))
            i, j = rng.integers(0, n, m), rng.integers(0, n, m)
            assert np.array_equal(components(n, i, j), self.reference(n, i, j))

    def test_no_edges(self):
        none = np.zeros(0, dtype=np.int64)
        assert components(0, none, none).tolist() == []
        assert components(5, none, none).tolist() == [0, 1, 2, 3, 4]
        # a self-loop joins nothing
        assert components(3, [1], [1]).tolist() == [0, 1, 2]

    def test_shuffled_chain(self):
        # a 50,000-node path whose node numbers and edge order are both
        # random: the case where label propagation alone needs n rounds
        rng = np.random.default_rng(7)
        n = 50_000
        path = rng.permutation(n)
        order = rng.permutation(n - 1)
        i, j = path[:-1][order], path[1:][order]
        start = time.perf_counter()
        labels = components(n, i, j)
        elapsed = time.perf_counter() - start
        assert not labels.any()
        assert np.array_equal(labels, self.reference(n, i, j))
        assert elapsed < 5.0


class TestEnumerateBox:
    def test_radius_zero(self):
        assert enumerate_box(0) == [ZERO_INDEX]

    def test_radius_one_count(self):
        assert len(enumerate_box(1)) == 17

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_coordinate_bound(self, radius):
        assert len(enumerate_box(radius)) <= (2 * radius + 1) ** 4

    def test_nesting_and_determinism(self):
        small = enumerate_box(2)
        large = enumerate_box(3)
        assert set(small) <= set(large)
        assert small == sorted(small)
        assert enumerate_box(2) == small

    def test_brute_force_oracle(self):
        # independent four-fold loop
        radius = 2
        expected = []
        r = range(-radius, radius + 1)
        for a in r:
            for b in r:
                for c in r:
                    for d in r:
                        if max(abs(a), abs(b)) + max(abs(c), abs(d)) <= radius:
                            expected.append(LatticeIndex((a, b), (c, d)))
        assert sorted(expected) == enumerate_box(radius)


class TestBestRational:
    def test_golden_gives_fibonacci(self, golden):
        ap = best_rational(golden, k=20.0, r=1.0)
        fibs = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert ap.q in fibs
        assert -ap.p in fibs
        assert math.gcd(ap.q, abs(ap.p)) == 1

    def test_two_sided_bound(self, params):
        for k, r in [(15.0, 0.6), (25.0, 0.8), (40.0, 1.0), (60.0, 1.0)]:
            ap = best_rational(params, k, r)
            assert abs(ap.eps_q) <= 0.25 / (ap.q * k**r) + 1e-15
            assert abs(ap.eps_q) >= k ** (-2 * r * params.mu)

    def test_dirichlet_existence(self):
        # whenever the window exceeds a convergent denominator, the next
        # denominator bounds the error below the threshold, so the search
        # always succeeds on genuine inputs
        for prefix in ([0, 1, 1, 1, 1, 1, 1, 1, 1], [0, 7, 2, 9, 1, 1, 3, 1]):
            p = QPParams(cf_prefix=prefix, mu=2.0)
            for k, r in [(2.0, 0.5), (10.0, 1.0), (60.0, 1.0)]:
                ap = best_rational(p, k, r)
                assert 0 < ap.q <= 4 * k**r
                assert abs(ap.q * p.alpha_fraction + ap.p) <= 0.25 * k**-r

    def test_dirichlet_window(self, params):
        # any window wide enough to contain a convergent returns one
        ap = best_rational(params, 40.0, 1.0)
        nums = dict((den, num) for num, den in params.convergents())
        assert ap.q in nums and ap.p == -nums[ap.q]


def all_pairs_geometry(grid, params):
    """(largest diameter, smallest separation) of a ClusterGrid's clusters
    over all pairs of members, by the norm of each difference."""
    labels = np.repeat(np.arange(len(grid.clusters)), [len(v) for v in grid.clusters.values()])
    rows = indices_to_array(m for v in grid.clusters.values() for m in v)
    points = rows[:, :2] + params.alpha * rows[:, 2:]
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    same = labels[:, None] == labels[None, :]
    return float(dist[same].max()), float(dist[~same].min(initial=math.inf))


class TestClusterDecompose:
    @pytest.mark.parametrize(
        "alpha, k, r",
        [
            (QPParams(quadratic=(-1, 1, 2, 1), mu=2.0), 2.0, 1.0),
            (QPParams(cf_prefix=[0, 3, 300, 2, 1, 1, 1, 1], mu=2.0), 15.0, 0.6),
        ],
    )
    def test_geometry_matches_all_pairs(self, alpha, k, r):
        ap = best_rational(alpha, k, r)
        # the second input ties the separation sweep's x order: its 49 rows
        # share 9 x values, as every row with s1x = s2x = 0 lies at x = 0
        # and the rows with s1y = 4 at x = s1x = -4..4
        box = enumerate_box_array(4)
        tied = box[((box[:, 0] == 0) & (box[:, 2] == 0)) | (box[:, 1] == 4)]
        for rows in (enumerate_box(4), tied):
            grid = cluster_decompose(rows, ap, alpha)
            diameter, separation = all_pairs_geometry(grid, alpha)
            assert grid.cluster_diameter > 0.0 and len(grid.clusters) > 1
            assert grid.cluster_diameter == diameter
            assert grid.min_separation == separation

    def test_single_cluster_has_no_separation(self, params):
        rows = enumerate_box_array(2)
        rows = rows[(rows[:, :2] == 0).all(axis=1)]
        grid = cluster_decompose(rows, ApproxPair(q=1, p=0, eps_q=params.alpha), params)
        assert len(grid.clusters) == 1
        assert grid.min_separation == math.inf
        assert grid.cluster_diameter == all_pairs_geometry(grid, params)[0] > 0.0

    def test_q_one_single_residue(self, params):
        box = enumerate_box(2)
        ap = ApproxPair(q=1, p=0, eps_q=params.alpha)
        grid = cluster_decompose(box, ap, params)
        assert all(key[1] == (0, 0) for key in grid.clusters)

    def test_partition(self, params):
        box = enumerate_box(3)
        ap = best_rational(params, 15.0, 0.8)
        grid = cluster_decompose(box, ap, params)
        members = [m for v in grid.clusters.values() for m in v]
        assert sorted(members) == sorted(box)

    def test_separation_under_hypothesis(self):
        # alpha with a huge partial quotient makes eps_q small enough for
        # the separation statement's hypothesis
        p = QPParams(cf_prefix=[0, 3, 300, 2, 1, 1, 1, 1], mu=2.0)
        k, r = 15.0, 0.6
        ap = best_rational(p, k, r)
        assert abs(ap.eps_q) <= (1.0 / 64.0) / (ap.q * k**r), "hypothesis"
        grid = cluster_decompose(enumerate_box(6), ap, p)
        assert grid.cluster_diameter < 1.0 / (8 * ap.q)
        assert grid.min_separation > 1.0 / (2 * ap.q)


class TestCountShortVectors:
    def test_zero_below_minimum(self, params):
        rows = enumerate_box_array(4)
        norms = triple_norm_array(rows)
        from qp2d.lattice import dual_array

        lengths = np.linalg.norm(dual_array(rows[norms > 0], params), axis=1)
        assert count_short_vectors(4, 0.5 * float(lengths.min()), params) == 0

    def test_matches_brute_force(self, params):
        radius, thr = 5, 1.3
        rows = enumerate_box_array(radius)
        norms = triple_norm_array(rows)
        from qp2d.lattice import dual_array

        lengths = np.linalg.norm(dual_array(rows, params), axis=1)
        expected = int(np.sum((lengths < thr) & (norms > 0)))
        assert count_short_vectors(radius, thr, params) == expected

    @pytest.mark.parametrize("k,r", [(15.0, 0.6), (25.0, 0.8), (40.0, 1.0)])
    def test_counting_bounds(self, params, k, r):
        ap = best_rational(params, k, r)
        box_radius = int(2 * k**r)
        n2 = count_short_vectors(
            box_radius, abs(ap.eps_q) * ap.q * k ** (r / 3.0), params
        )
        assert n2 <= k ** (2 * r / 3.0)
        if ap.q > k ** (2 * r / 3.0):
            n3 = count_short_vectors(box_radius, k ** (-2 * r / 3.0), params)
            assert n3 <= 2**12 * k ** (2 * r / 3.0)


class TestExactArithmetic:
    def test_rational_alpha_rejected(self):
        with pytest.raises(RationalAlpha):
            QPParams(quadratic=(1, 0, 2, 3))
        with pytest.raises(RationalAlpha):
            QPParams(quadratic=(0, 1, 4, 3))  # d = 4 is a perfect square

    def test_minimal_triple(self, params):
        n1, n2, n3 = params.minimal_triple()
        a = params.alpha
        assert abs(n1 + n2 * a + n3 * a * a) < 1e-12
        assert params.combination_is_zero(n1, n2, n3)
        assert not params.combination_is_zero(n1 + 1, n2, n3)

    def test_colinearity(self, params):
        m = LatticeIndex((1, 0), (0, 0))
        assert duals_colinear(m, LatticeIndex((3, 0), (0, 0)), params)
        assert duals_colinear(m, LatticeIndex((0, 0), (2, 0)), params)
        assert not duals_colinear(m, LatticeIndex((1, 1), (0, 0)), params)
        # the cross combination is integer-exact
        assert cross_combination(m, LatticeIndex((0, 0), (2, 0))) == (0, 0, 0)
        assert cross_combination(m, LatticeIndex((0, 1), (0, 0))) == (1, 0, 0)
        assert cross_combination(m, LatticeIndex((0, 0), (0, 3))) == (0, 3, 0)

    def test_colinearity_of_rows(self, params, rng):
        # the row test is the scalar test, pair by pair, for a quadratic alpha
        # and a continued-fraction prefix alike
        cf = QPParams(cf_prefix=(0, 3, 30, 1, 1, 1, 1, 1), mu=2.0)
        for p in (params, cf):
            a = rng.integers(-3, 4, size=(300, 4))
            b = rng.integers(-3, 4, size=(300, 4))
            b[::3] = -2 * a[::3]
            b[1::5, 2:] = 0
            a[1::5, 2:] = 0
            want = [duals_colinear(*array_to_indices(np.stack([x, y])), p) for x, y in zip(a, b)]
            assert duals_colinear_rows(a, b, p).tolist() == want
            assert any(want) and not all(want)
        assert duals_colinear_rows(a[0], a[:0], cf).shape == (0,)

    def test_rational_ratio(self):
        m = LatticeIndex((1, -2), (3, 0))
        assert rational_ratio(m, m.scale(3)) == 3
        assert rational_ratio(m.scale(2), m.scale(3)) == Fraction(3, 2)
        assert rational_ratio(m, LatticeIndex((1, -2), (3, 1))) is None

    def test_primitive_direction(self):
        assert primitive_direction(LatticeIndex((2, 4), (-2, 0))) == LatticeIndex(
            (1, 2), (-1, 0)
        )
        with pytest.raises(ValueError):
            primitive_direction(ZERO_INDEX)


@given(indices, indices)
@settings(max_examples=150, deadline=None)
def test_dual_map_is_additive(a, b):
    params = QPParams(quadratic=(-1, 1, 2, 1), mu=2.0)
    da = dual_vector(a, params).p
    db = dual_vector(b, params).p
    dab = dual_vector(a + b, params).p
    assert np.allclose(da + db, dab, atol=1e-9)


class TestPackRows:
    def test_largest_coordinates_accepted(self):
        rows = np.array([[2047, -2047, 0, 0], [-2047, 2047, 2047, -2047]])
        keys = pack_rows(rows)
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("c", [2048, -2048])
    def test_boundary_rejected(self, c):
        with pytest.raises(PackOverflow):
            pack_rows(np.array([[0, 0, c, 0]]))

    def test_collision_rejected(self):
        # these two rows would share a key with a carry between digits
        with pytest.raises(PackOverflow):
            pack_rows(np.array([[0, 2048, 0, 0], [1, -2048, 0, 0]]))

    def test_keys_follow_index_order(self):
        rows = enumerate_box_array(2)
        assert np.all(np.diff(pack_rows(rows)) > 0)


row_sets = st.lists(st.tuples(coord, coord, coord, coord), max_size=30, unique=True)


class TestRowPositions:
    @given(rows=row_sets, query=st.lists(st.tuples(coord, coord, coord, coord), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, rows, query):
        ref = {r: i for i, r in enumerate(rows)}
        got = row_positions(
            np.array(rows, dtype=np.int64).reshape(-1, 4),
            np.array(query, dtype=np.int64).reshape(-1, 4),
        )
        assert got.tolist() == [ref.get(r, -1) for r in query]

    def test_query_shape_kept(self):
        rows = enumerate_box_array(1)
        shifts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [5, 0, 0, 0]])
        got = row_positions(rows, rows[None, :, :] + shifts[:, None, :])
        assert got.shape == (3, len(rows))
        assert got[0].tolist() == list(range(len(rows)))
        assert np.all(got[2] == -1)

    def test_empty_rows(self):
        got = row_positions(np.zeros((0, 4), np.int64), np.zeros((2, 3, 4), np.int64))
        assert got.shape == (2, 3) and np.all(got == -1)

    @pytest.mark.parametrize("c", [2048, -2048])
    def test_overflow_rejected(self, c):
        rows = enumerate_box_array(1)
        with pytest.raises(PackOverflow):
            row_positions(rows, np.array([[0, c, 0, 0]]))
        with pytest.raises(PackOverflow):
            row_positions(np.array([[0, 0, 0, c]]), rows)
