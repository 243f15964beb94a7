"""Finite sections of the fiber operator H(kappa) on l^2(Z^4) and the
exact-diagonalization oracle used to validate every perturbative result.

H(kappa)_{m,m'} = |kappa + p_m|^2 delta_{m,m'} + V_{m-m'}.  The off-diagonal
coupling is kappa-independent and has a handful of entries per row: its
pairs come from one `lattice.row_positions` lookup of every support shift
(`coupling_pairs`), filled once as a CSR matrix (`coupling_matrix`); the
section is that matrix plus the diagonal (`assemble` builds it dense).
Hermiticity is exact at the bit level: each conjugate pair of entries is
written from a single coefficient.

The oracle (`eigvals_oracle`) answers one question: which eigenvalues lie in
a disc.  It counts them by the inertia of two sparse LU factorizations and
finds them by shift-invert Arnoldi; dense eigvalsh, the only O(d^3) step,
serves an infinite or wide window and the cases the sparse route cannot
decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import QPParams, dual_array, pack_rows, row_positions
from .potential import PotentialSpec


class DuplicateIndex(ValueError):
    pass


class DimensionCap(ValueError):
    pass


class NotUnique(ValueError):
    """The oracle found another number of eigenvalues in the disc than the
    caller requires."""


EIG_CAP_DEFAULT = 4096


@dataclass(frozen=True)
class FiberMatrix:
    rows: np.ndarray  # (d, 4) lattice points of the basis
    kappa: np.ndarray
    entries: np.ndarray | sp.spmatrix  # Hermitian, energy units; CSR for the oracle

    @property
    def dim(self) -> int:
        return len(self.rows)


def diagonal_energies(kappa, rows: np.ndarray, params: QPParams) -> np.ndarray:
    """|kappa + p_m|^2 for each row."""
    return shifted_energies(kappa, dual_array(rows, params))


def shifted_energies(kappa, duals: np.ndarray) -> np.ndarray:
    """|kappa + p|^2 for each dual row p; (B, N) for a (B, 2) block of kappas."""
    kap = np.asarray(kappa, dtype=float)
    shifted = (duals + kap[..., None, :]).reshape(-1, 2)
    return np.einsum("ij,ij->i", shifted, shifted).reshape(kap.shape[:-1] + (len(duals),))


def coupling_pairs(rows: np.ndarray, spec: PotentialSpec):
    """All (i, j, V_q) with rows[i] - rows[j] = q over the nonzero support,
    one entry per ordered pair."""
    support, vals = spec.nonzero_table
    out = []
    for v, pos in zip(vals.tolist(), row_positions(rows, rows[None, :, :] - support[:, None, :])):
        i_idx = np.flatnonzero(pos >= 0)
        if len(i_idx):
            out.append((i_idx, pos[i_idx], v))
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


def assemble(kappa, rows, spec: PotentialSpec, params: QPParams) -> FiberMatrix:
    """The dense section over the rows (N, 4) of distinct lattice points."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    if len(np.unique(pack_rows(rows))) != len(rows):
        raise DuplicateIndex("row list contains duplicates")
    h = coupling_matrix(rows, spec).toarray()
    np.fill_diagonal(h, diagonal_energies(kappa, rows, params))
    return FiberMatrix(rows=rows, kappa=np.asarray(kappa, dtype=float), entries=h)


def eigvals_oracle(
    mat: FiberMatrix,
    center: float = 0.0,
    radius: float = math.inf,
    cap: int = EIG_CAP_DEFAULT,
    count: int | None = None,
) -> np.ndarray:
    """The eigenvalues in the closed disc |lambda - center| <= radius,
    ascending.

    A finite disc goes by `_sparse_window` when that can decide; otherwise
    (an infinite radius included) the dense eigvalsh of the same matrix
    finishes, and only that finish is capped at cap rows.  With count set,
    NotUnique is raised unless the disc holds exactly count eigenvalues; a
    certified inertia count decides that before Arnoldi or the dense finish.
    """
    if math.isfinite(radius):
        inside = _sparse_window(sp.csc_matrix(mat.entries), center, radius, count)
        if inside is not None:
            return inside
    if mat.dim > cap:
        raise DimensionCap(f"dimension {mat.dim} exceeds the oracle cap {cap}")
    dense = mat.entries.toarray() if sp.issparse(mat.entries) else mat.entries
    vals = np.linalg.eigvalsh(dense)
    inside = vals[np.abs(vals - center) <= radius]
    _check_count(len(inside), count, center, radius)
    return inside


def _check_count(m: int, count: int | None, center: float, radius: float) -> None:
    if count is not None and m != count:
        raise NotUnique(
            f"{m} oracle eigenvalues inside the disc [{center:.6g} +- {radius:.3g}]"
        )


def _sparse_window(a: sp.csc_matrix, center: float, radius: float, count: int | None):
    """The eigenvalues in the disc from sparse LU factorizations, or None
    when this route cannot decide.

    The count m is certified by Sylvester's law of inertia: an LU of
    a - s with diagonal pivots only is an LDL^H factorization, and its
    negative pivots number the eigenvalues below s; m is that number at
    center + radius minus the one at center - radius, and a count other than
    the caller's raises NotUnique here.  The m eigenvalues nearest center
    are then found by shift-invert Arnoldi (ARPACK through scipy's eigsh,
    partial-pivoting LU of a - center, start vector of ones).
    None when an inertia LU needed an off-diagonal pivot, a shift is an
    exact eigenvalue, 2m >= dim, or ARPACK returned a value outside the
    disc: a Krylov space from one start vector holds one vector per
    eigenspace, so a copy of a multiple eigenvalue is found only through
    rounding.
    """
    # imported here: at module level it adds ~15 ms to every import of qp2d
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    d = a.shape[0]
    eye = sp.identity(d, dtype=a.dtype, format="csc")
    below = []
    try:
        for s in (center - radius, center + radius):
            lu = splu(
                a - s * eye,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            if not np.array_equal(lu.perm_r, lu.perm_c):
                return None
            below.append(int(np.count_nonzero(lu.U.diagonal().real < 0)))
        m = below[1] - below[0]
        _check_count(m, count, center, radius)
        if m == 0:
            return np.empty(0)
        if 2 * m >= d:
            return None
        lu = splu(a - center * eye)
    except RuntimeError:  # exactly singular: a shift is an eigenvalue
        return None
    op = LinearOperator((d, d), matvec=lu.solve, dtype=a.dtype)
    vals = eigsh(
        a, m, sigma=center, v0=np.ones(d, dtype=a.dtype), OPinv=op,
        return_eigenvectors=False,
    )
    if np.max(np.abs(vals - center)) > radius:
        return None
    return np.sort(vals)
