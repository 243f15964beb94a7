"""Approximate eigenfunctions as finite exponential sums, held as support
rows (S, 4) in box order and their amplitudes (S,): synthesis from the level
projector, the exact residual of the full operator from the support columns,
and sampling of the correction factor from per-axis phase tables and one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fiber import diagonal_energies
from .lattice import (
    LatticeIndex,
    QPParams,
    array_to_indices,
    dual_array,
    enumerate_box_array,
    row_positions,
    triple_norm_array,
)
from .perturb import eigenvalue_level
from .potential import PotentialSpec
from .profile import ParameterProfile


@dataclass(frozen=True)
class WaveFunction:
    level: int
    kappa: np.ndarray
    rows: np.ndarray  # (S, 4) support rows, in box order
    amps: np.ndarray  # (S,) nonzero coefficients: unit l2 norm, phase-fixed
    lam: float
    box_radius: int
    params: QPParams = field(compare=False)

    @cached_property
    def coeffs(self) -> dict[LatticeIndex, complex]:
        """The coefficients by lattice index, in box order."""
        return dict(zip(array_to_indices(self.rows), self.amps.tolist()))

    def coeff(self, m: LatticeIndex) -> complex:
        return self.coeffs.get(m, 0j)


def synthesize(n: int, point, spec: PotentialSpec, profile: ParameterProfile) -> WaveFunction:
    """Unit eigenvector of the level projector, with the central coefficient
    rotated to the positive real axis.

    The projector is rank one, so its range is the series eigenvector: the
    eigen-only series gives it without building the projector orders.  Its
    basis is the series' own rows, the level's box in box order, and
    box_radius their largest triple norm."""
    res = eigenvalue_level(n, point, spec, profile, check_oracle=False)
    rows = res.rows
    v = res.vector
    i0 = len(rows) // 2  # the sorted box is symmetric under m -> -m
    if v[i0] != 0:
        v = v * (abs(v[i0]) / v[i0])
    nz = np.flatnonzero(v)
    return WaveFunction(
        level=n,
        kappa=np.asarray(point, dtype=float),
        rows=rows[nz],
        amps=v[nz],
        lam=res.lam,
        box_radius=int(triple_norm_array(rows).max()),
        params=spec.params,
    )


def residual(wf: WaveFunction, spec: PotentialSpec) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(H - lambda) applied to the coefficient vector on the enlarged box
    |||s||| <= box_radius + Q: the defect's nonzero rows (box order) and
    values, its l1 norm and its largest interior magnitude.  Support outside
    the shell box_radius < |||s||| <= box_radius + Q is structurally zero.

    Only the support columns of H enter, as a (box x S) CSR with V_q at the
    row of m + q for each support row m; its columns are in box order, so
    each entry sums the terms of the enlarged-box product in its order.
    """
    if np.any(triple_norm_array(wf.rows) > wf.box_radius):
        raise ValueError("wave function has coefficients outside its box")
    big = enumerate_box_array(wf.box_radius + spec.max_support_norm)
    (support, coeffs), n = spec.nonzero_table, len(wf.rows)
    pos = row_positions(big, wf.rows + support[:, None, :])
    vals = np.repeat(coeffs, n)
    cols = np.tile(np.arange(n), len(support))
    g = sp.csr_matrix((vals, (pos.ravel(), cols)), shape=(len(big), n)) @ wf.amps
    diag = diagonal_energies(wf.kappa, wf.rows, spec.params)
    g[row_positions(big, wf.rows)] += (diag - wf.lam) * wf.amps
    nz = np.flatnonzero(g)
    interior = np.max(np.abs(g[triple_norm_array(big) <= wf.box_radius]), initial=0.0)
    return big[nz], g[nz], float(np.sum(np.abs(g))), float(interior)


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
        f = dual_array(w.rows, w.params) + w.kappa
        e1 = np.exp(1j * np.multiply.outer(u1, f[:, 0])) * w.amps
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
