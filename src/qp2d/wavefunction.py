"""Approximate eigenfunctions as finite exponential sums: synthesis from the
level projector, exact residual of the full operator on the enlarged box, and
sampling of the correction factor from per-axis phase tables and one GEMM.
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
    default previous level, and grid sup norms.  Each term factors by axis,
    exp(i<f_s,x>) = exp(i x_1 f_s1) exp(i x_2 f_s2) with f_s = p_s + kappa,
    so psi = (E_1 diag(a)) E_2^T read on the distinct coordinates u_j, with
    E_j = exp(i u_j f_.j): (U_1 + U_2) S exponentials for S support rows, a
    cost scaling with U_1 U_2 S (= N S on a tensor grid), and at most
    1e-13 sum_s |a_s| from the direct per-point sum at every point.
    """
    xs = np.atleast_2d(np.asarray(x_grid, dtype=float))
    (u1, i1), (u2, i2) = (np.unique(xs[:, j], return_inverse=True) for j in (0, 1))

    def psi_of(w: WaveFunction) -> np.ndarray:
        f = dual_array(indices_to_array(list(w.coeffs)), w.params) + w.kappa
        e1 = np.exp(1j * np.multiply.outer(u1, f[:, 0])) * np.fromiter(w.coeffs.values(), complex)
        return (e1 @ np.exp(1j * np.multiply.outer(u2, f[:, 1])).T)[i1, i2]

    psi = psi_of(wf)
    carrier = np.exp(-1j * (xs @ wf.kappa))
    u = carrier * psi - 1.0 if prev is None else carrier * (psi - psi_of(prev))
    return {
        "psi": psi,
        "u": u,
        "sup_psi": float(np.max(np.abs(psi))),
        "sup_u": float(np.max(np.abs(u))),
    }
