"""Quasi-periodic trigonometric-polynomial potential on a finite symmetric
frequency set of triple norm at most Q.

V(x) = sum_q V_q exp(2*pi*i <s1 + alpha*s2, x>).  The index set is closed
under negation (with conjugate coefficients, so V is real) and under integer
multiples within norm Q; multiples that were not supplied get coefficient 0.
Any two members with the same dual direction must be rational multiples of
each other, which here is an exact integer-arithmetic check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import (
    LatticeIndex,
    QPParams,
    ZERO_INDEX,
    dual_vector,
    duals_colinear,
    indices_to_array,
    primitive_direction,
    rational_ratio,
    triple_norm,
    triple_norm_array,
)


class ColinearityViolation(ValueError):
    """Two frequencies share a direction with an irrational length ratio."""


class NormViolation(ValueError):
    """A generator exceeds the declared cutoff Q."""


class NotInSQ(KeyError):
    """The queried index is outside the support set."""


class InvariantViolation(RuntimeError):
    """An identity that holds by construction failed: a bug, never a
    numerical rejection, so no rejection handler may catch it."""


@dataclass(frozen=True)
class PotentialSpec:
    coeffs: dict[LatticeIndex, complex]
    Q: int
    generators: tuple[tuple[LatticeIndex, complex], ...]
    params: QPParams = field(compare=False)

    @property
    def support(self) -> list[LatticeIndex]:
        return sorted(self.coeffs)

    @property
    def nonzero_support(self) -> list[LatticeIndex]:
        return sorted(q for q, v in self.coeffs.items() if v != 0)

    @cached_property
    def nonzero_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero support as (rows (S, 4), coefficients (S,)), rows in
        box order; built on first use, read-only."""
        support = self.nonzero_support
        rows = indices_to_array(support)
        vals = np.array([self.coeffs[q] for q in support], dtype=complex)
        for arr in (rows, vals):
            arr.setflags(write=False)
        return rows, vals

    @property
    def coeff_l1(self) -> float:
        """sum |V_q|, an operator-norm bound for multiplication by V."""
        return float(sum(abs(v) for v in self.coeffs.values()))

    @property
    def max_support_norm(self) -> int:
        return int(triple_norm_array(self.nonzero_table[0]).max(initial=0))


def build(
    generators,
    Q: int,
    params: QPParams,
) -> PotentialSpec:
    """Close the generator list into a valid coefficient table.

    generators: iterable of (LatticeIndex, complex).  Closure adds conjugate
    partners at -q and zero-coefficient integer multiples n*q while
    |||n*q||| <= Q.
    """
    gens = [(g, complex(v)) for g, v in generators]
    for g, _ in gens:
        if g.is_zero():
            raise ValueError("the zero frequency cannot be a generator")
        if triple_norm(g) > Q:
            raise NormViolation(f"generator {g} has norm {triple_norm(g)} > Q={Q}")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            gi, gj = gens[i][0], gens[j][0]
            if duals_colinear(gi, gj, params) and rational_ratio(gi, gj) is None:
                raise ColinearityViolation(
                    f"{gi} and {gj} share a direction with irrational ratio"
                )

    coeffs: dict[LatticeIndex, complex] = {ZERO_INDEX: 0j}
    for g, v in gens:
        prev = coeffs.get(g, 0j)
        coeffs[g] = prev + v
        coeffs[-g] = (prev + v).conjugate()
    for g, _ in gens:
        base = primitive_direction(g)
        step = triple_norm(base)
        n = 1
        while n * step <= Q:
            for cand in (base.scale(n), base.scale(-n)):
                coeffs.setdefault(cand, 0j)
            n += 1
    # conjugate symmetry as an exact float identity
    for q in list(coeffs):
        coeffs[-q] = coeffs[q].conjugate() if q < (-q) else coeffs[-q]
    return PotentialSpec(
        coeffs=coeffs, Q=Q, generators=tuple(gens), params=params
    )


def coefficient(spec: PotentialSpec, q: LatticeIndex) -> complex:
    """V_q; exactly zero outside the support set."""
    return spec.coeffs.get(q, 0j)


def evaluate(spec: PotentialSpec, x) -> float:
    """V at a point (or an (N,2) batch) of R^2; raises InvariantViolation
    unless the imaginary part vanishes to rounding."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    total = np.zeros(xs.shape[0], dtype=complex)
    a = spec.params.alpha
    for q, v in spec.coeffs.items():
        if v == 0:
            continue
        freq = np.array(
            [q.s1[0] + a * q.s2[0], q.s1[1] + a * q.s2[1]]
        )
        total += v * np.exp(2j * math.pi * (xs @ freq))
    scale = spec.coeff_l1
    if scale > 0 and not float(np.max(np.abs(total.imag))) < 1e-12 * scale:
        raise InvariantViolation("V(x) has a non-negligible imaginary part")
    vals = total.real
    return float(vals[0]) if np.ndim(x) == 1 else vals


def directional_sublattice(
    spec: PotentialSpec, q: LatticeIndex
) -> tuple[LatticeIndex, float, list[int]]:
    """Generator of q's direction inside the support, its dual period, and
    the integer multiples present.

    Returns (generator, p_q, multiples) with q = n*generator for an integer n
    and p_q = |p_generator|.
    """
    if q not in spec.coeffs:
        raise NotInSQ(f"{q} is not in the support set")
    if q.is_zero():
        raise NotInSQ("the zero frequency has no direction")
    gen = primitive_direction(q)
    if gen not in spec.coeffs:
        raise NotInSQ(f"direction generator {gen} missing from the support set")
    p_q = dual_vector(gen, spec.params).length
    mults = []
    step = triple_norm(gen)
    n = 1
    while n * step <= spec.Q:
        if gen.scale(n) in spec.coeffs:
            mults.append(n)
        if gen.scale(-n) in spec.coeffs:
            mults.append(-n)
        n += 1
    return gen, p_q, sorted(mults)
