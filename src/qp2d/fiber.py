"""Finite sections of the fiber operator H(kappa) on l^2(Z^4) and the dense
exact-diagonalization oracle used to validate every perturbative result.

H(kappa)_{m,m'} = |kappa + p_m|^2 delta_{m,m'} + V_{m-m'}.  The off-diagonal
coupling is kappa-independent and has a handful of entries per row: its
pairs come from one `lattice.row_positions` lookup of every support shift
(`coupling_pairs`), filled once as a CSR matrix (`coupling_matrix`); the
dense section is that matrix plus the diagonal, for the oracle.  Hermiticity is exact at the bit
level: each conjugate pair of entries is written from a single coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import (
    LatticeIndex,
    QPParams,
    dual_array,
    indices_to_array,
    row_positions,
)
from .potential import PotentialSpec


class DuplicateIndex(ValueError):
    pass


class DimensionCap(ValueError):
    pass


EIG_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class FiberMatrix:
    indices: tuple[LatticeIndex, ...]
    kappa: np.ndarray
    entries: np.ndarray  # dense Hermitian, energy units

    @property
    def dim(self) -> int:
        return len(self.indices)

    def submatrix(self, subset) -> "FiberMatrix":
        """Principal submatrix on a subset of the index list."""
        pos = [self.indices.index(m) for m in subset]
        sel = np.ix_(pos, pos)
        return FiberMatrix(
            indices=tuple(subset), kappa=self.kappa, entries=self.entries[sel]
        )


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns
    residual_norm: float


def diagonal_energies(kappa, rows: np.ndarray, params: QPParams) -> np.ndarray:
    """|kappa + p_m|^2 for each row."""
    kap = np.asarray(kappa, dtype=float)
    shifted = dual_array(rows, params) + kap
    return np.einsum("ij,ij->i", shifted, shifted)


def coupling_pairs(rows: np.ndarray, spec: PotentialSpec):
    """All (i, j, V_q) with rows[i] - rows[j] = q over the nonzero support,
    one entry per ordered pair."""
    support = spec.nonzero_support
    shifted = rows[None, :, :] - indices_to_array(support)[:, None, :]
    out = []
    for q, pos in zip(support, row_positions(rows, shifted)):
        i_idx = np.flatnonzero(pos >= 0)
        if len(i_idx):
            out.append((i_idx, pos[i_idx], spec.coeffs[q]))
    return out


def coupling_matrix(rows: np.ndarray, spec: PotentialSpec) -> sp.csr_matrix:
    """The off-diagonal coupling V_{m-m'} over the rows as a CSR matrix with
    sorted column indices.  The entry above the diagonal is written from V_q
    and its mirror from V_q.conjugate(), so the matrix is Hermitian bit for
    bit."""
    n = len(rows)
    i_all, j_all, v_all = [], [], []
    for i_idx, j_idx, v in coupling_pairs(rows, spec):
        upper = i_idx < j_idx
        iu, ju = i_idx[upper], j_idx[upper]
        i_all += [iu, ju]
        j_all += [ju, iu]
        v_all += [np.full(len(iu), v, dtype=complex), np.full(len(iu), np.conj(v))]
    if not v_all:
        return sp.csr_matrix((n, n), dtype=complex)
    return sp.csr_matrix(
        (np.concatenate(v_all), (np.concatenate(i_all), np.concatenate(j_all))),
        shape=(n, n),
    )


def assemble(kappa, indices, spec: PotentialSpec, params: QPParams) -> FiberMatrix:
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise DuplicateIndex("index list contains duplicates")
    rows = indices_to_array(idx)
    h = coupling_matrix(rows, spec).toarray()
    np.fill_diagonal(h, diagonal_energies(kappa, rows, params))
    return FiberMatrix(
        indices=tuple(idx), kappa=np.asarray(kappa, dtype=float), entries=h
    )


def eig_oracle(mat: FiberMatrix, cap: int = EIG_CAP_DEFAULT) -> SpectralData:
    """Full Hermitian eigendecomposition, eigenvalues ascending."""
    if mat.dim > cap:
        raise DimensionCap(f"dimension {mat.dim} exceeds the oracle cap {cap}")
    vals, vecs = np.linalg.eigh(mat.entries)
    res = np.linalg.norm(mat.entries @ vecs - vecs * vals[None, :], ord=2)
    return SpectralData(eigenvalues=vals, eigenvectors=vecs, residual_norm=float(res))


def eigvals_oracle(mat: FiberMatrix, cap: int = EIG_CAP_DEFAULT) -> np.ndarray:
    """Eigenvalues only (ascending); the cheap half of the oracle."""
    if mat.dim > cap:
        raise DimensionCap(f"dimension {mat.dim} exceeds the oracle cap {cap}")
    return np.linalg.eigvalsh(mat.entries)


def resolvent_gap(mat: FiberMatrix, z: complex) -> float:
    """dist(z, spec(M)) = 1/||(M - z)^{-1}|| for self-adjoint M."""
    vals = eigvals_oracle(mat)
    return float(np.min(np.abs(vals - z)))


def spectral_window(
    mat: FiberMatrix, center: float, radius: float
) -> tuple[int, np.ndarray]:
    """Eigenvalues with |lambda - center| <= radius and their count."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    vals = eigvals_oracle(mat)
    inside = vals[np.abs(vals - center) <= radius]
    return len(inside), inside
