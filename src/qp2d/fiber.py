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
a disc.  The section's spectrum is the union of those of the connected
components of its coupling (`component_stacks`): a component that no
Gershgorin disc joins to the disc is skipped, and the others are
diagonalized by one center-shifted eigvalsh stack per size.  With the
default two-generator potentials the d = 1121 section splits into 81
components of at most 33 rows.  A component of more than `_DENSE_ROWS` rows
(a potential whose support spans all four lattice directions joins nearly
the whole box) goes by sparse LU inertia counts and shift-invert Arnoldi.
The stacks put an eigenvalue within 8 ulp of a 40-digit reference on the
24 eigen-oracle benchmark points of seeds 1-3 (Arnoldi: 0.5 ulp); the
checks that use the oracle allow 1e-13 |lambda| or more, over 400 ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import QPParams, components, dual_array, pack_rows, row_positions
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


def component_stacks(
    d: int, i: np.ndarray, j: np.ndarray, v: np.ndarray, keep: np.ndarray | None = None
):
    """The connected components of the entries (i, j, v) over positions
    0..d-1, with the entries as dense blocks stacked by component size.

    Returns (labels, stacks): labels[p] is the first position of p's
    component; stacks holds per size s > 1, ascending, the (m, s) positions
    of its m components (ascending within each, components by first
    position) and their (m, s, s) blocks, each entry v at its two positions'
    places and zero elsewhere.  With keep (a bool per position), only the
    components that hold a kept position are stacked."""
    comp = components(d, i, j)
    # positions by component, ascending within each; comp is numbered in
    # order of first position, so starts[c] is component c's first slot
    order = np.argsort(comp, kind="stable")
    sizes = np.bincount(comp)
    starts = np.cumsum(sizes) - sizes
    labels = order[starts][comp]
    loc = np.empty(d, dtype=np.int64)
    loc[order] = np.arange(d) - starts[comp[order]]
    stacked = sizes > 1
    if keep is not None:
        hit = np.zeros(len(sizes), dtype=bool)
        hit[comp[keep]] = True
        stacked &= hit
    entry_size = np.where(stacked, sizes, 0)[comp[i]]
    stacks = []
    for s in np.unique(sizes[stacked]).tolist():
        first = starts[stacked & (sizes == s)]
        pos = order[first[:, None] + np.arange(s)]
        which = np.empty(d, dtype=np.int64)
        which[pos] = np.arange(len(pos))[:, None]
        sel = entry_size == s
        blk = np.zeros((len(pos), s, s), dtype=complex)
        blk[which[i[sel]], loc[i[sel]], loc[j[sel]]] = v[sel]
        stacks.append((pos, blk))
    return labels, stacks


# Rows up to which a kept coupling component is diagonalized by a dense
# eigvalsh stack; a larger one goes by `_sparse_window`.  At the crossover:
# the largest component of a four-generator potential's section at |kappa| =
# 40, a disc around its eigenvalue nearest 1600, best of 40 with one BLAS
# thread on a 2-core host, dense against sparse: 1.0 / 1.9 ms at 111 rows,
# 1.8 / 2.3 at 141, 2.3 / 2.4 at 155, 2.9 / 2.5 at 171, 3.8 / 2.8 at 185.
_DENSE_ROWS = 160

# Slack of the Gershgorin skip, relative to |H_ii| + sum_j |H_ij| + |center|
# per row: a component is dropped only when its Gershgorin discs miss the disc
# by more than this, far above the few ulp by which a computed eigenvalue
# leaves its exact one.
_GERSHGORIN_SLACK = 64 * np.finfo(float).eps


def eigvals_oracle(
    mat: FiberMatrix,
    center: float = 0.0,
    radius: float = math.inf,
    cap: int = EIG_CAP_DEFAULT,
    count: int | None = None,
) -> np.ndarray:
    """The eigenvalues in the closed disc |lambda - center| <= radius,
    ascending.

    The section's spectrum is the union of those of the connected components
    of its off-diagonal pattern.  With a finite radius a component is
    dropped unless one of its rows has |H_ii - center| <= radius +
    sum_j |H_ij| (+ `_GERSHGORIN_SLACK`): by Gershgorin's theorem it has no
    eigenvalue in the disc.  A kept singleton is its diagonal entry; the kept
    components of each size s are one eigvalsh stack of A - center*I (center
    added back).  A kept component of more than min(cap, `_DENSE_ROWS`) rows
    goes by `_sparse_window`, all such components together; when that cannot
    decide, each is diagonalized densely.  cap bounds the rows of every dense
    diagonalization (DimensionCap), and an infinite radius, which keeps every
    component, also requires dim <= cap.  With count set, NotUnique is raised
    unless the disc holds exactly count eigenvalues; a certified inertia
    count decides that before Arnoldi or a dense finish runs.

    Named tolerance: the shifted stacks differ from a 40-digit reference by
    up to 8 ulp of |lambda| on the eigen-oracle benchmark points (Arnoldi by
    0.5 ulp); the series-against-oracle gates allow 1e-9 k^2 or more.
    """
    d = mat.dim
    finite = math.isfinite(radius)
    if not finite and d > cap:
        raise DimensionCap(f"dimension {d} exceeds the oracle cap {cap}")
    a = sp.csr_matrix(mat.entries)
    diag = a.diagonal().real
    coo = a.tocoo()
    i, j, v = coo.row, coo.col, coo.data
    # a stored zero couples nothing, so it joins no components
    off = (i != j) & (v != 0)
    i, j, v = i[off], j[off], v[off]
    near = None
    if finite:
        rowsum = np.bincount(i, weights=np.abs(v), minlength=d)
        reach = radius + rowsum + _GERSHGORIN_SLACK * (np.abs(diag) + rowsum + abs(center))
        near = np.abs(diag - center) <= reach
    labels, stacks = component_stacks(d, i, j, v, near)
    single = np.bincount(labels, minlength=d)[labels] == 1
    found = [diag[single]]
    large = []
    for pos, blk in stacks:
        if finite and pos.shape[1] > min(cap, _DENSE_ROWS):
            large.append((pos, blk))
        else:
            found.append(_stack_eigvals(diag, pos, blk, center))
    vals = np.concatenate(found)
    vals = vals[np.abs(vals - center) <= radius]
    if large:
        every = np.concatenate([pos.ravel() for pos, _ in large])
        sub = a[every][:, every].tocsc()
        inside = _sparse_window(sub, center, radius, count, len(vals))
        if inside is None:
            for pos, blk in large:
                if pos.shape[1] > cap:
                    raise DimensionCap(
                        f"a component of {pos.shape[1]} rows exceeds the oracle cap {cap}"
                    )
            finish = np.concatenate([_stack_eigvals(diag, pos, blk, center) for pos, blk in large])
            inside = finish[np.abs(finish - center) <= radius]
        vals = np.concatenate([vals, inside])
    _check_count(len(vals), count, center, radius)
    return np.sort(vals)


def _stack_eigvals(diag: np.ndarray, pos: np.ndarray, blk: np.ndarray, center: float):
    """The eigenvalues of the (m, s, s) blocks with diagonals diag[pos],
    from one eigvalsh stack of the blocks shifted by -center."""
    s = pos.shape[1]
    a = blk.copy()
    a[:, np.arange(s), np.arange(s)] = diag[pos] - center
    return (np.linalg.eigvalsh(a) + center).ravel()


def _check_count(m: int, count: int | None, center: float, radius: float) -> None:
    if count is not None and m != count:
        raise NotUnique(
            f"{m} oracle eigenvalues inside the disc [{center:.6g} +- {radius:.3g}]"
        )


def _sparse_window(a: sp.csc_matrix, center: float, radius: float, count: int | None,
                   known: int = 0):
    """The eigenvalues in the disc from sparse LU factorizations, or None
    when this route cannot decide.

    The count m is certified by Sylvester's law of inertia: an LU of
    a - s with diagonal pivots only is an LDL^H factorization, and its
    negative pivots number the eigenvalues below s; m is that number at
    center + radius minus the one at center - radius, and when known + m
    (known: the eigenvalues the caller found elsewhere) is not the caller's
    count, NotUnique is raised here.  The m eigenvalues nearest center
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
        _check_count(known + m, count, center, radius)
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
