import math

import numpy as np
import pytest

from qp2d.lattice import LatticeIndex, ZERO_INDEX, dual_vector, triple_norm
from qp2d.potential import (
    ColinearityViolation,
    NormViolation,
    NotInSQ,
    build,
    coefficient,
    directional_sublattice,
    evaluate,
)


class TestBuild:
    def test_empty_generators(self, params):
        spec = build([], Q=4, params=params)
        assert evaluate(spec, np.array([0.3, 0.7])) == 0.0
        assert spec.coeff_l1 == 0.0

    def test_symmetry_closure(self, params):
        g = LatticeIndex((1, 0), (0, 0))
        v = 0.25 + 0.1j
        spec = build([(g, v)], Q=4, params=params)
        assert coefficient(spec, -g) == v.conjugate()
        # zero-filled multiples within the cutoff are present
        for n in (2, 3, 4):
            assert g.scale(n) in spec.coeffs
            assert coefficient(spec, g.scale(n)) == 0
        assert g.scale(5) not in spec.coeffs

    def test_integer_multiple_generators_accepted(self, params):
        g = LatticeIndex((1, 0), (0, 0))
        spec = build([(g, 0.2), (g.scale(2), 0.1)], Q=4, params=params)
        assert coefficient(spec, g.scale(2)) == 0.1

    def test_colinear_irrational_ratio_rejected(self, params):
        # (1,0) and alpha*(1,0) share a direction with irrational ratio
        with pytest.raises(ColinearityViolation):
            build(
                [
                    (LatticeIndex((1, 0), (0, 0)), 0.1),
                    (LatticeIndex((0, 0), (1, 0)), 0.1),
                ],
                Q=4,
                params=params,
            )

    def test_norm_violation(self, params):
        with pytest.raises(NormViolation):
            build([(LatticeIndex((3, 0), (0, 2)), 0.1)], Q=4, params=params)

    def test_zero_generator_rejected(self, params):
        with pytest.raises(ValueError):
            build([(ZERO_INDEX, 0.1)], Q=4, params=params)

    def test_idempotent_closure(self, spec, params):
        again = build(list(spec.generators), Q=spec.Q, params=params)
        assert set(again.coeffs) == set(spec.coeffs)
        assert all(again.coeffs[q] == spec.coeffs[q] for q in spec.coeffs)


class TestNonzeroTable:
    def test_rows_and_values_of_the_nonzero_support(self, spec):
        rows, vals = spec.nonzero_table
        assert [LatticeIndex.from_row(r) for r in rows] == spec.nonzero_support
        assert vals.tolist() == [spec.coeffs[q] for q in spec.nonzero_support]
        assert spec.nonzero_table[0] is rows and not rows.flags.writeable
        assert spec.max_support_norm == max(triple_norm(q) for q in spec.nonzero_support)


class TestCoefficient:
    def test_outside_support(self, spec):
        assert coefficient(spec, LatticeIndex((4, 4), (0, 0))) == 0

    def test_zero_frequency(self, spec):
        assert coefficient(spec, ZERO_INDEX) == 0

    def test_hermitian_symmetry(self, spec):
        for q in spec.coeffs:
            assert coefficient(spec, -q) == coefficient(spec, q).conjugate()


class TestEvaluate:
    def test_at_origin(self, spec):
        total = sum(spec.coeffs.values())
        assert abs(total.imag) < 1e-14
        assert evaluate(spec, np.zeros(2)) == pytest.approx(total.real, abs=1e-12)

    def test_single_pair_closed_form(self, params):
        g = LatticeIndex((1, -1), (0, 1))
        v = 0.3
        spec = build([(g, v)], Q=4, params=params)
        rng = np.random.default_rng(5)
        a = params.alpha
        freq = np.array([g.s1[0] + a * g.s2[0], g.s1[1] + a * g.s2[1]])
        for x in rng.uniform(-2, 2, size=(50, 2)):
            expected = 2.0 * v * math.cos(2.0 * math.pi * float(x @ freq))
            assert evaluate(spec, x) == pytest.approx(expected, abs=1e-12)

    def test_real_everywhere(self, spec, rng):
        xs = rng.uniform(-5, 5, size=(1000, 2))
        vals = evaluate(spec, xs)
        assert np.all(np.isfinite(vals))  # reality asserted inside evaluate

    def test_linf_below_coefficient_sum(self, spec, rng):
        xs = rng.uniform(-3, 3, size=(500, 2))
        assert np.max(np.abs(evaluate(spec, xs))) <= spec.coeff_l1 + 1e-12


class TestDirectionalSublattice:
    def test_generator_itself(self, spec, params):
        g = LatticeIndex((1, 0), (0, 0))
        gen, p_q, mults = directional_sublattice(spec, g)
        assert gen == g
        assert p_q == pytest.approx(dual_vector(g, params).length)
        assert mults == [-4, -3, -2, -1, 1, 2, 3, 4]

    def test_multiple_returns_generator(self, spec):
        g = LatticeIndex((1, 0), (0, 0))
        gen, _, _ = directional_sublattice(spec, g.scale(3))
        assert gen == g

    def test_not_in_support(self, spec):
        with pytest.raises(NotInSQ):
            directional_sublattice(spec, LatticeIndex((2, 2), (0, 0)))

    def test_period_lower_bound(self, spec, params):
        # dual period of every present direction exceeds the lattice minimum
        # computed exhaustively over the cutoff box
        from qp2d.lattice import min_dual_norm_constant

        c1 = min_dual_norm_constant(params, radius=spec.Q)
        for q in spec.nonzero_support:
            gen, p_q, _ = directional_sublattice(spec, q)
            bound = 2.0 * math.pi * c1 * float(spec.Q) ** (-params.mu)
            assert p_q >= bound - 1e-12
