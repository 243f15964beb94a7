"""Approximate eigenfunctions as finite exponential sums: synthesis from the
level projector, exact residual of the full operator on the enlarged box, and
pointwise sampling of the quasi-periodic correction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fiber import coupling_matrix, diagonal_energies
from .lattice import (
    LatticeIndex,
    QPParams,
    ZERO_INDEX,
    array_to_indices,
    dual_array,
    enumerate_box_array,
    indices_to_array,
    row_positions,
    triple_norm_array,
)
from .perturb import Level2Geometry, eigenvalue_level
from .potential import PotentialSpec
from .profile import ParameterProfile


@dataclass(frozen=True)
class WaveFunction:
    level: int
    kappa: np.ndarray
    coeffs: dict[LatticeIndex, complex]  # unit l2 norm, phase-fixed
    lam: float
    box_radius: int
    params: QPParams = field(compare=False)

    @property
    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.coeffs.values()))

    def coeff(self, m: LatticeIndex) -> complex:
        return self.coeffs.get(m, 0j)


def synthesize(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None = None,
) -> WaveFunction:
    """Unit eigenvector of the level projector, with the central coefficient
    rotated to the positive real axis.

    The projector is rank one, so its range is the series eigenvector: the
    eigen-only series gives it without building the projector orders."""
    res = eigenvalue_level(n, point, spec, profile, check_oracle=False, geometry=geometry)
    v = res.vector.copy()
    i0 = res.indices.index(ZERO_INDEX)
    if v[i0] != 0:
        v = v * (abs(v[i0]) / v[i0])
    coeffs = {m: complex(c) for m, c in zip(res.indices, v) if c != 0}
    radius = profile.core_radius if n == 1 else profile.box_r1
    return WaveFunction(
        level=n,
        kappa=np.asarray(point, dtype=float),
        coeffs=coeffs,
        lam=res.lam,
        box_radius=radius,
        params=spec.params,
    )


def residual(
    wf: WaveFunction, spec: PotentialSpec
) -> tuple[dict[LatticeIndex, complex], float, float]:
    """(H - lambda) applied to the coefficient vector on the enlarged box.

    Returns (coefficients of the defect, its l1 norm, largest interior
    magnitude).  Support outside the shell
    box_radius < |||s||| <= box_radius + Q is structurally zero.
    """
    margin = spec.max_support_norm
    rows = enumerate_box_array(wf.box_radius + margin)
    pos = row_positions(rows, indices_to_array(wf.coeffs))
    if np.any(pos < 0):
        raise ValueError("wave function has coefficients outside its box")
    c = np.zeros(len(rows), dtype=complex)
    c[pos] = list(wf.coeffs.values())
    diag = diagonal_energies(wf.kappa, rows, spec.params)
    g_vec = coupling_matrix(rows, spec) @ c + (diag - wf.lam) * c
    nz = np.flatnonzero(g_vec)
    g = dict(zip(array_to_indices(rows[nz]), g_vec[nz].tolist()))
    l1 = float(np.sum(np.abs(g_vec)))
    interior = np.max(
        np.abs(g_vec[triple_norm_array(rows) <= wf.box_radius]), initial=0.0
    )
    return g, l1, float(interior)


def residual_l2(wf: WaveFunction, spec: PotentialSpec) -> float:
    g, _, _ = residual(wf, spec)
    return math.sqrt(sum(abs(v) ** 2 for v in g.values()))


def unit_cell_grid(n: int = 64) -> np.ndarray:
    """n*n sampling grid over [0,1)^2."""
    t = np.arange(n) / n
    gx, gy = np.meshgrid(t, t, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def sample(
    wf: WaveFunction,
    x_grid: np.ndarray,
    prev: "WaveFunction | None" = None,
) -> dict:
    """Pointwise values over an (N,2) grid of configuration points.

    Returns the exponential sum psi, the correction
    u = exp(-i<kappa,x>) * (psi - psi_prev) with the plane wave as the
    default previous level, and grid sup norms.
    """
    xs = np.atleast_2d(np.asarray(x_grid, dtype=float))
    support = sorted(wf.coeffs)
    rows = indices_to_array(support)
    amps = np.array([wf.coeffs[m] for m in support])
    freqs = dual_array(rows, wf.params) + wf.kappa[None, :]
    # (grid, support) is the largest array of a level-2 run: build it in place
    terms = np.multiply(1j, xs @ freqs.T)
    np.exp(terms, out=terms)
    terms *= amps[None, :]
    psi = terms.sum(axis=1)
    carrier = np.exp(-1j * (xs @ wf.kappa))
    if prev is None:
        u = carrier * psi - 1.0
    else:
        psi_prev = sample(prev, xs)["psi"]
        u = carrier * (psi - psi_prev)
    return {
        "psi": psi,
        "u": u,
        "sup_psi": float(np.max(np.abs(psi))),
        "sup_u": float(np.max(np.abs(u))),
    }
