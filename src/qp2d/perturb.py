"""Contour-integral perturbation engine for the dressed eigenvalue and its
rank-one spectral projector, at truncation level 1 (diagonal model on the
small box) and level 2 (block model: resonance blocks plus free diagonal),
with a structurally generic step for higher levels.

Two equivalent evaluators are provided.  `generic_step` computes the Taylor
coefficients of the isolated eigenvalue of H_model + eps*W by the
Rayleigh-Schrodinger recursion in the model eigenbasis; these coefficients
are exactly the contour-integral trace coefficients, the recursion just
extracts every residue analytically, so structural zeros of the coupling
survive in the output bit-exactly.  `contour_coeff_series` and
`contour_projector_series` evaluate the defining circle integrals by
adaptive trapezoidal quadrature and serve as an independent route for
cross-validation.

For eigenvalues only (`LevelEvaluator`, no r_max) a series stops after order
n >= 4 once |g_{n-1}|, |g_n| <= ulp(lambda0)/16; at `_decay`'s stall bound
divergence_ratio = 0.75 the orders left out sum to <= 3/16 ulp (lam to 1 ulp).

The coupling is sparse, so no d x d array is built per kappa:
`LevelEvaluator` splits it once into the cross-block W as CSR and the dense
coupling of each connected component of a block's own nonzero coupling
(the model is unchanged, as no in-block entry joins two components), stacked
by size so that one `eigh` call serves every component of a size.  The
recursion applies W~ v = U^H (W (U v)) with the block eigenbasis U as CSR,
and at level 1 `eigenvalues` runs it on a block of kappas, one W V product
per order.  The oracle check hands the section as CSR (`LevelState.section`)
to the windowed shift-invert `eigvals_oracle`, so only the quadrature routes
densify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import hankel

from .fiber import (  # noqa: F401 - assemble, NotUnique are re-exported from perturb
    FiberMatrix,
    NotUnique,
    assemble,
    coupling_matrix,
    eigvals_oracle,
    shifted_energies,
)
from .lattice import (
    LatticeIndex,
    ZERO_INDEX,
    box_indices,
    box_table,
    components,
    enumerate_box_array,
)
from .potential import InvariantViolation, PotentialSpec
from .profile import ParameterProfile
from .resonance import (
    ClusterDecomposition,
    assemble_projector,
    classify,
    strength,
)


class ContourHit(ValueError):
    """A model eigenvalue lies (numerically) on the integration circle."""


class NonConvergent(ArithmeticError):
    """The coefficient sequence stopped decaying."""


class NoRoot(ArithmeticError):
    """A bracketed root search found no root."""


# Level-1 columns per block in `LevelEvaluator.eigenvalues`: 6,921 columns at d = 113
# took 1.0 s in one block, 0.5-0.6 s in blocks of 64 or 256, 0.7-0.8 s of 1,024 (1 thread).
_BLOCK_COLUMNS = 256


@dataclass(frozen=True)
class Contour:
    center: float
    radius: float
    nodes: int

    def points(self, n: int):
        th = 2.0 * math.pi * np.arange(n) / n
        z = self.center + self.radius * np.exp(1j * th)
        dz = 1j * self.radius * np.exp(1j * th) * (2.0 * math.pi / n)
        return z, dz


@dataclass
class LevelState:
    """Model/perturbation split of one truncation level at one kappa.

    labels: per position the first position of its model block, each block
    one coupling component of a multi-index block (`blocks` lists them as
    position arrays).  The model is diag plus the in-block coupling
    (`couplings`: per block size s > 1, the (m, s) positions of its m blocks
    and their (m, s, s) dense coupling with zero diagonal); w holds every
    other coupling entry as CSR.  The three are disjoint, so they add up to
    the section entrywise (`section`; `h_full` is it dense).  block_vals are
    the model eigenvalues by position and u the block-diagonal model
    eigenbasis (CSR, identity on the singletons).
    """

    level: int
    indices: tuple[LatticeIndex, ...]
    diag: np.ndarray
    labels: np.ndarray
    couplings: list[tuple[np.ndarray, np.ndarray]]
    w: sp.csr_matrix
    block_vals: np.ndarray
    u: sp.csr_matrix
    target: int  # position of the target basis index (block-eigen target)
    lambda0: float
    contour: Contour | None

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def blocks(self) -> list[np.ndarray]:
        """The model blocks as ascending position arrays, by first position."""
        order = np.argsort(self.labels, kind="stable")
        starts = np.flatnonzero(np.diff(self.labels[order])) + 1
        return np.split(order, starts)

    @property
    def section(self) -> sp.csr_matrix:
        """H(kappa) as CSR, built on each access, for the oracle check."""
        d = self.dim
        coo = self.w.tocoo()
        parts = [(coo.row, coo.col, coo.data), (np.arange(d), np.arange(d), self.diag)]
        for pos, blk in self.couplings:
            c, i, j = np.nonzero(blk)
            parts.append((pos[c, i], pos[c, j], blk[c, i, j]))
        r, c, v = (np.concatenate(x) for x in zip(*parts))
        return sp.csr_matrix((v, (r, c)), shape=(d, d))

    @property
    def h_full(self) -> np.ndarray:
        """The dense section, for tests."""
        return self.section.toarray()


@dataclass
class SeriesResult:
    lam: float
    lambda_base: float
    g: np.ndarray  # g[r-1] is the order-r coefficient
    tail_estimate: float
    converged: bool
    contour: Contour
    indices: tuple[LatticeIndex, ...]
    vector: np.ndarray  # unit eigenvector in the index basis
    decay_ratio: float  # last per-order rate of |g_r| (0.0: fewer than two nonzero)
    orders: int  # r_max, the number of orders computed
    projector: np.ndarray | None = None
    g_matrices: list[np.ndarray] | None = None
    g_norms: np.ndarray | None = None
    oracle_lambda: float | None = None
    oracle_count: int | None = None

    @property
    def delta_vs_oracle(self) -> float | None:
        if self.oracle_lambda is None:
            return None
        return abs(self.lam - self.oracle_lambda)


# ---------------------------------------------------------------------------
# state construction
# ---------------------------------------------------------------------------


class _BlockSplit:
    """The kappa-independent part of a block model.

    Given the off-diagonal coupling and a block label per position, each
    block is split into the connected components of its own nonzero coupling;
    no in-block entry lies between two components, so the model is unchanged.
    Held: the labels of the components (first position of each), their dense
    coupling stacked by size (`couplings`), the rest W (CSR) and the CSR
    pattern of the eigenbasis U."""

    def __init__(self, off: sp.csr_matrix, labels: np.ndarray):
        d = off.shape[0]
        coo = off.tocoo()
        same = labels[coo.row] == labels[coo.col]
        self.w = sp.csr_matrix(
            (coo.data[~same], (coo.row[~same], coo.col[~same])), shape=(d, d)
        )
        # an in-block zero couples nothing, so it joins no components
        inner = same & (coo.data != 0)
        rr, cc, vv = coo.row[inner], coo.col[inner], coo.data[inner]
        comp = components(d, rr, cc)
        # positions by component, ascending within each; comp is numbered in
        # order of first position, so starts[c] is component c's first slot
        order = np.argsort(comp, kind="stable")
        sizes = np.bincount(comp)
        starts = np.cumsum(sizes) - sizes
        self.labels = order[starts][comp]
        loc = np.empty(d, dtype=np.int64)
        loc[order] = np.arange(d) - starts[comp[order]]
        single = order[starts[sizes == 1]]
        self.couplings = []
        u_rows, u_cols = [single], [single]
        for s in np.unique(sizes[sizes > 1]).tolist():
            first = starts[sizes == s]
            pos = order[first[:, None] + np.arange(s)]
            which = np.empty(d, dtype=np.int64)
            which[pos] = np.arange(len(pos))[:, None]
            sel = sizes[comp[rr]] == s
            blk = np.zeros((len(pos), s, s), dtype=complex)
            blk[which[rr[sel]], loc[rr[sel]], loc[cc[sel]]] = vv[sel]
            self.couplings.append((pos, blk))
            # U entries of each stacked block, row-major
            u_rows.append(np.repeat(pos, s, axis=1).ravel())
            u_cols.append(np.tile(pos, s).ravel())
        u_rows, u_cols = np.concatenate(u_rows), np.concatenate(u_cols)
        self._order = np.lexsort((u_cols, u_rows))
        self._cols = u_cols[self._order]
        self._indptr = np.searchsorted(u_rows[self._order], np.arange(d + 1))
        self._ones = np.ones(len(single), dtype=complex)

    def state(self, level: int, indices, diag: np.ndarray) -> LevelState:
        """The model eigenpairs at one diagonal: the blocks of each size are
        eigendecomposed as one stack, each from its coupling plus
        diag(diag[pos]), entry for entry the in-block part of H(kappa).
        Target and contour are unset."""
        vals = diag.real.copy()
        parts = [self._ones]
        for pos, blk in self.couplings:
            a = blk.copy()
            s = pos.shape[1]
            a[:, np.arange(s), np.arange(s)] += diag[pos]
            bv, bu = np.linalg.eigh(a)
            vals[pos] = bv
            parts.append(bu.ravel())
        d = len(diag)
        u = sp.csr_matrix(
            (np.concatenate(parts)[self._order], self._cols, self._indptr), shape=(d, d)
        )
        return LevelState(
            level=level,
            indices=indices,
            diag=diag,
            labels=self.labels,
            couplings=self.couplings,
            w=self.w,
            block_vals=vals,
            u=u,
            target=-1,
            lambda0=math.nan,
            contour=None,
        )


def _aim(state: LevelState, target: int, lambda0: float, gap: float,
         profile: ParameterProfile) -> LevelState:
    """Fix the target and a contour of contour_margin * gap around lambda0."""
    state.target = target
    state.lambda0 = lambda0
    state.contour = Contour(lambda0, profile.contour_margin * gap, profile.quad_nodes)
    return state


def _aim_nearest(state: LevelState, cand: np.ndarray, value: float,
                 profile: ParameterProfile) -> LevelState:
    """Target the model eigenvalue nearest value among the candidate
    positions; the contour radius is a fraction of its model gap."""
    target = int(cand[np.argmin(np.abs(state.block_vals[cand] - value))])
    state.target = target
    state.lambda0 = float(state.block_vals[target])
    return _aim(state, target, state.lambda0, model_gap(state), profile)


def model_gap(state: LevelState) -> float:
    """Distance from the target model eigenvalue to the rest of the model
    spectrum."""
    others = np.delete(state.block_vals, state.target)
    if len(others) == 0:
        return math.inf
    return float(np.min(np.abs(others - state.lambda0)))


@dataclass
class Level2Geometry:
    """Resonance classification, labels and blocks at a base angle, reusable
    for every kappa in its small angular window."""

    phi0: float
    decomp: ClusterDecomposition
    projector: object  # BlockProjector
    block_labels: np.ndarray  # per box row, the first position of its block
    indices: tuple[LatticeIndex, ...]
    rows: np.ndarray  # indices as an (N, 4) array
    core_positions: np.ndarray


def level2_geometry(
    phi0: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> Level2Geometry:
    k = profile.k
    decomp = classify(phi0, k, spec, profile)
    decomp = strength(decomp, k, phi0, spec, profile)
    projector = assemble_projector(decomp, k, profile, spec)
    indices = box_indices(profile.box_r1)
    rows = enumerate_box_array(profile.box_r1)
    # block positions ascend, so each block's label is its first position
    blocks = [blk.positions for blk in projector.blocks]
    every = np.concatenate(blocks)
    if np.any(every < 0) or len(np.unique(every)) < len(every):
        raise InvariantViolation(
            "a projector block row lies outside the box_r1 box or in another block"
        )
    labels = np.arange(len(indices))
    labels[every] = np.repeat([pos[0] for pos in blocks], [len(pos) for pos in blocks])
    core_positions = next(blk.positions for blk in projector.blocks if blk.kind == "core")
    return Level2Geometry(
        phi0=phi0,
        decomp=decomp,
        projector=projector,
        block_labels=labels,
        indices=indices,
        rows=rows,
        core_positions=core_positions,
    )


def toy_state(
    h_full: np.ndarray,
    blocks,
    indices,
    target_value: float,
    profile: ParameterProfile,
    level: int = 3,
) -> LevelState:
    """Caller-assembled state for structural tests of higher levels; the
    caller's off-diagonal entries become the CSR coupling as they are.
    ValueError unless blocks partition range(len(h_full))."""
    h = np.asarray(h_full, dtype=complex)
    diag = np.diag(h).copy()
    d = len(diag)
    blocks = [np.asarray(b, dtype=np.int64).ravel() for b in blocks]
    every = np.concatenate(blocks + [np.zeros(0, dtype=np.int64)])
    if not np.array_equal(np.sort(every), np.arange(d)):
        raise ValueError(f"blocks must hold every position of range({d}) exactly once")
    labels = np.empty(d, dtype=np.int64)
    for pos in filter(len, blocks):
        labels[pos] = pos.min()
    split = _BlockSplit(sp.csr_matrix(h - np.diag(diag)), labels)
    state = split.state(level, tuple(indices), diag)
    return _aim_nearest(state, np.arange(d), target_value, profile)


# ---------------------------------------------------------------------------
# residue-exact series (Rayleigh-Schrodinger recursion in the eigenbasis)
# ---------------------------------------------------------------------------


def _rs_orders(apply_w, inv: np.ndarray, t: int, r_max: int, lam0=None):
    """The Rayleigh-Schrodinger recursion in the model eigenbasis: the
    coefficients g_1..g_r and the order vectors v_0..v_r, given v -> W~ v, the
    reduced resolvent inv (zero at the target t) and r_max; a (d, B) inv runs B
    columns that share t, each bit-identical to its own run, with g (r_max, B).
    Given lam0, a column stops after order n >= 4 once |g_{n-1}|, |g_n| <=
    ulp(lam0)/16, its later g zero; the loop ends once all columns stopped."""
    v0 = np.zeros(inv.shape, dtype=complex)
    v0[t] = 1.0
    vs = [v0]
    lams = np.zeros((r_max,) + inv.shape[1:], dtype=complex)
    g = np.zeros(lams.shape, dtype=float)
    orders = np.full(inv.shape[1:], r_max)
    tol = None if lam0 is None else np.reshape(np.spacing(np.abs(lam0)) / 16, orders.shape)
    for n in range(1, r_max + 1):
        rhs = -apply_w(vs[n - 1])
        for j in range(1, n):
            rhs += g[j - 1] * vs[n - j]
        lams[n - 1] = lam_n = -(rhs[t])
        g[n - 1] = lam_n.real
        rhs[t] += lam_n  # add the lam_n * v_0 term, zeroing the t-component
        vs.append(rhs * inv)
        if tol is not None and n >= 4:
            orders[(orders == r_max) & (np.abs(g[n - 2]) <= tol) & (np.abs(g[n - 1]) <= tol)] = n
            if np.all(orders < r_max):
                break
    if not np.all(np.abs(lams.imag) <= 1e-10 * np.fmax(1.0, np.abs(lams))):
        raise InvariantViolation(f"the coefficients {lams!r} must be real")
    g[np.arange(1, r_max + 1).reshape((-1,) + (1,) * orders.ndim) > orders] = 0.0
    return g, vs


def _decay(g: np.ndarray, lam0: float, profile: ParameterProfile):
    """(last decay rate, tail estimate) of the coefficients.

    Rates are taken over the significant entries only (odd orders may vanish
    identically), as per-order geometric means between consecutive nonzero
    magnitudes.  Three rates in a row at or above divergence_ratio raise
    NonConvergent."""
    r_max = len(g)
    mags = np.abs(g)
    floor = 1e-14 * max(1.0, abs(lam0))
    ratio = 0.0
    bad_run = 0
    last_mag = None
    last_ord = None
    for r in range(2, r_max + 1):
        m_r = mags[r - 1]
        if m_r <= floor:
            continue
        if last_mag is not None:
            rr = (m_r / last_mag) ** (1.0 / (r - last_ord))
            ratio = rr
            bad_run = bad_run + 1 if rr >= profile.divergence_ratio else 0
            if bad_run >= 3:
                raise NonConvergent(
                    f"|g_r| rate {rr:.3f} >= {profile.divergence_ratio} "
                    "over 3 significant orders"
                )
        last_mag, last_ord = m_r, r
    if last_mag is None:
        return ratio, 0.0
    q = min(ratio, 0.95)
    return ratio, last_mag * q ** max(r_max - last_ord, 0) / (1.0 - q)


def _reduced_inverse(block_vals: np.ndarray, lam0, t: int) -> np.ndarray:
    """1/(block_vals - lam0) off the target row t and zero denominators."""
    denom = block_vals - lam0
    inv = np.zeros(denom.shape)
    nz = np.abs(denom) > 0
    inv[nz] = 1.0 / denom[nz]
    inv[t] = 0.0
    return inv


def _series(state: LevelState, r_max: int, stop: bool):
    """`_rs_orders` on W~ v = U^H (W (U v)) once the contour is clear of the gap."""
    gap = model_gap(state)
    if state.contour.radius <= 0 or not math.isfinite(state.contour.radius):
        raise ContourHit("degenerate contour radius")
    if gap <= state.contour.radius * (1.0 + 1e-8):
        raise ContourHit(
            f"model eigenvalue within {gap:.3g} of the contour radius "
            f"{state.contour.radius:.3g}"
        )
    u, w, lam0, t = state.u, state.w, state.lambda0, state.target
    uh = u.conj().T
    inv = _reduced_inverse(state.block_vals, lam0, t)
    return _rs_orders(lambda v: uh @ (w @ (u @ v)), inv, t, r_max, lam0 if stop else None)


def _inside(state: LevelState, lam: float) -> float:
    """lam, or NonConvergent if it left the contour that holds the eigenvalue."""
    if abs(lam - state.contour.center) >= state.contour.radius:
        raise NonConvergent(f"lambda {lam:.12g} outside the contour ({state.contour.radius:.3g})")
    return lam


def generic_step(
    state: LevelState,
    profile: ParameterProfile,
    r_max: int | None = None,
    with_projector: bool = True,
    store_orders: int | None = None,
    check_oracle: bool = False,
) -> SeriesResult:
    """Taylor coefficients of the isolated model eigenvalue under the
    in-level perturbation, their sum, and the rank-one projector.

    Each order applies W~ v = U^H (W (U v)) with sparse U and W, so the cost
    per order is a few sparse matvecs.  With with_projector it also returns
    the projector orders G_1..G_n (n = store_orders, else r_max, capped at 8
    when d > 512), each one product G_r = V~ C_r V~^H: V~ = U [v_0 .. v_r]
    rotates the order vectors by the block eigenbasis U, and the Hankel
    C_r[a,b] = d[r-a-b] (zero for a+b > r) holds the inverse norm series d,
    read off the anti-diagonals of the Gram matrix of the v_n.  Terms that
    cannot reach an entry multiply exact zeros, so the support rule holds
    bit-exactly.

    With check_oracle, `eigvals_oracle` finds the eigenvalues of the sparse
    section inside the contour, and NotUnique is raised unless there is
    exactly one: a certified inertia count other than one raises it before
    Arnoldi or the dense finish run.

    Raises ContourHit when the contour is not clear of the model spectrum and
    NonConvergent when the coefficient magnitudes stop decaying.
    """
    r_max = profile.r_max if r_max is None else r_max
    g, vs = _series(state, r_max, stop=False)
    lam0 = state.lambda0
    ratio, tail = _decay(g, lam0, profile)
    lam = _inside(state, lam0 + float(np.sum(g[1:])))  # the first-order term vanishes

    v_full = state.u @ np.sum(vs, axis=0)
    v_full = v_full / np.linalg.norm(v_full)

    projector = g_mats = g_norms = None
    if with_projector:
        d = state.dim
        projector = np.outer(v_full, v_full.conj())
        n_store = min(r_max, 8 if d > 512 else r_max) if store_orders is None else store_orders
        v_ser = np.stack(vs[: n_store + 1], axis=1)
        # norm series ||v(eps)||^2 = sum c_n eps^n and its inverse d_ser = 1/c
        gram = np.fliplr(v_ser.conj().T @ v_ser)
        c = np.array([np.trace(gram, offset=n_store - nn) for nn in range(n_store + 1)])
        d_ser = np.zeros(n_store + 1, dtype=complex)
        d_ser[0] = 1.0
        for nn in range(1, n_store + 1):
            d_ser[nn] = -np.sum(c[1 : nn + 1] * d_ser[nn - 1 :: -1][: nn])
        # G_r = sum_{a+b<=r} d_ser[r-a-b] v_a v_b^H in the index basis
        v_rot = state.u @ v_ser
        g_mats = []
        for r in range(1, n_store + 1):
            v_r = v_rot[:, : r + 1]
            g_mats.append((v_r @ hankel(d_ser[r::-1])) @ v_r.conj().T)
        g_norms = np.array([np.linalg.norm(g_r) for g_r in g_mats])

    oracle_lambda = None
    oracle_count = None
    if check_oracle:
        mat = FiberMatrix(indices=state.indices, kappa=np.zeros(2), entries=state.section)
        inside = eigvals_oracle(
            mat, state.contour.center, state.contour.radius, cap=profile.eig_cap, count=1
        )
        oracle_count = int(len(inside))
        oracle_lambda = float(inside[0])

    return SeriesResult(
        lam=lam,
        lambda_base=lam0,
        g=g,
        tail_estimate=float(tail),
        converged=True,  # _decay raised NonConvergent otherwise
        contour=state.contour,
        indices=state.indices,
        vector=v_full,
        decay_ratio=float(ratio),
        orders=r_max,
        projector=projector,
        g_matrices=g_mats,
        g_norms=g_norms,
        oracle_lambda=oracle_lambda,
        oracle_count=oracle_count,
    )


# ---------------------------------------------------------------------------
# quadrature route (independent evaluation of the defining integrals)
# ---------------------------------------------------------------------------


def _w_tilde_dense(state: LevelState) -> np.ndarray:
    """W~ = U^H W U as a dense array, for the quadrature routes."""
    return (state.u.conj().T @ state.w @ state.u).toarray()


def _check_contour_clear(state: LevelState) -> None:
    dist = np.abs(np.abs(state.block_vals - state.contour.center) - state.contour.radius)
    if float(np.min(dist)) <= 1e-8 * state.contour.radius:
        raise ContourHit("model eigenvalue within 1e-8*radius of the contour")


def contour_coeff_series(
    state: LevelState,
    profile: ParameterProfile,
    r_max: int | None = None,
    max_nodes: int = 1024,
) -> np.ndarray:
    """g_r by trapezoidal quadrature of the circle integrals, nodes doubled
    until two successive evaluations agree to 1e-12 relative."""
    r_max = profile.r_max if r_max is None else r_max
    _check_contour_clear(state)
    w_tilde = _w_tilde_dense(state)

    def quad(n_nodes: int) -> np.ndarray:
        z, dz = state.contour.points(n_nodes)
        acc = np.zeros(r_max, dtype=complex)
        for zz, dd in zip(z, dz):
            b = w_tilde * (1.0 / (state.block_vals - zz))[None, :]
            p = b
            for r in range(1, r_max + 1):
                acc[r - 1] += np.trace(p) * dd * ((-1) ** r) / (2j * math.pi * r)
                if r < r_max:
                    p = p @ b
        return acc

    nodes = state.contour.nodes
    g = quad(nodes)
    while nodes < max_nodes:
        nodes *= 2
        prev, g = g, quad(nodes)
        if np.max(np.abs(g - prev)) <= 1e-12 * max(np.max(np.abs(g)), 1.0):
            break
    if not np.max(np.abs(g.imag)) <= 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise InvariantViolation("trace coefficients must be real")
    return g.real


def contour_projector_series(
    state: LevelState,
    profile: ParameterProfile,
    r_max: int = 8,
    max_nodes: int = 1024,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """(E, [G_1..G_r]) by quadrature of the projector integrals."""
    _check_contour_clear(state)
    w_tilde = _w_tilde_dense(state)
    d = state.dim

    def quad(n_nodes: int):
        z, dz = state.contour.points(n_nodes)
        gs = [np.zeros((d, d), dtype=complex) for _ in range(r_max)]
        e0 = np.zeros((d, d), dtype=complex)
        for zz, dd in zip(z, dz):
            res = 1.0 / (state.block_vals - zz)  # the diagonal resolvent
            b = w_tilde * res[None, :]  # W~ R(z) without a dense diagonal
            x = np.diag(res)
            e0 += -x * dd / (2j * math.pi)
            for r in range(1, r_max + 1):
                x = x @ b
                gs[r - 1] += x * dd * ((-1) ** (r + 1)) / (2j * math.pi)
        return e0, gs

    nodes = state.contour.nodes
    e0_prev, gs_prev = quad(nodes)
    while nodes < max_nodes:
        nodes *= 2
        e0, gs = quad(nodes)
        delta = max(
            float(np.max(np.abs(a - b))) for a, b in zip(gs + [e0], gs_prev + [e0_prev])
        )
        e0_prev, gs_prev = e0, gs
        if delta <= 1e-12:
            break
    def rot(m):  # U m U^H = (U (U m)^H)^H
        return (state.u @ (state.u @ m).conj().T).conj().T

    e_total = e0_prev + sum(gs_prev)
    return rot(e_total), [rot(gm) for gm in gs_prev]


# ---------------------------------------------------------------------------
# public level interface
# ---------------------------------------------------------------------------


def _evaluator_at(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None,
) -> LevelEvaluator:
    """The level-n evaluator for a point: level 2 uses geometry, or else the
    geometry at the point's own angle; level 1 ignores geometry."""
    if n not in (1, 2):
        raise ValueError("levels 1 and 2 are constructed here; use toy_state beyond")
    if n == 2 and geometry is None:
        kap = np.asarray(point, dtype=float)
        geometry = level2_geometry(math.atan2(kap[1], kap[0]) % (2 * math.pi), spec, profile)
    return LevelEvaluator(spec, profile, geometry if n == 2 else None)


def build_state(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None = None,
) -> LevelState:
    return _evaluator_at(n, point, spec, profile, geometry).state(point)


def eigenvalue_level(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    check_oracle: bool = True,
    geometry: Level2Geometry | None = None,
) -> SeriesResult:
    """Dressed eigenvalue and unit eigenvector, without projector orders."""
    state = build_state(n, point, spec, profile, geometry)
    return generic_step(
        state,
        profile,
        with_projector=False,
        check_oracle=check_oracle,
    )


def projector_level(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    check_oracle: bool = False,
    geometry: Level2Geometry | None = None,
) -> SeriesResult:
    state = build_state(n, point, spec, profile, geometry)
    return generic_step(
        state,
        profile,
        with_projector=True,
        check_oracle=check_oracle,
    )


class LevelEvaluator:
    """The state builder of levels 1 and 2, for repeated evaluation.

    With no geometry it is level 1, the diagonal model on the small box,
    which depends on no angle: one evaluator serves every kappa.  With a
    Level2Geometry it is level 2, for kappa in the small angular window of
    the geometry's base angle.

    Everything but the diagonal is kappa-independent: the indices, the
    coupling components of the blocks, the cross-block W (CSR) and the dense
    coupling of each multi-row component, stacked by size, are built once;
    `state(kappa)` adds the diagonal and eigendecomposes each stack.
    """

    def __init__(
        self,
        spec: PotentialSpec,
        profile: ParameterProfile,
        geometry: Level2Geometry | None = None,
    ):
        self.spec = spec
        self.profile = profile
        self.geometry = geometry
        radius = profile.core_radius if geometry is None else profile.box_r1
        if geometry is None:
            self.indices = box_indices(radius)
            self.rows = enumerate_box_array(radius)
            labels = np.arange(len(self.indices))
            self.target = self.indices.index(ZERO_INDEX)
            # the free levels of the exclusion-zone box set the contour radius
            self._far_duals = box_table(profile.tilde_radius, spec.params)[2]
        else:
            self.indices = geometry.indices
            self.rows = geometry.rows
            labels = geometry.block_labels
        # the table's duals, with the zero row's (0, 0) at the middle of the box
        self._duals = np.insert(box_table(radius, spec.params)[2], len(self.rows) // 2, 0, axis=0)
        self.split = _BlockSplit(coupling_matrix(self.rows, spec), labels)

    def state(self, kappa) -> LevelState:
        kap = np.asarray(kappa, dtype=float)
        diag = shifted_energies(kap, self._duals)
        state = self.split.state(1 if self.geometry is None else 2, self.indices, diag)
        lambda0 = float(kap @ kap)
        if self.geometry is not None:
            # the dressed eigenvalue of the core block nearest |kappa|^2
            return _aim_nearest(state, self.geometry.core_positions, lambda0, self.profile)
        levels = shifted_energies(kap, self._far_duals)
        gap = float(np.min(np.abs(levels - lambda0)))
        return _aim(state, self.target, lambda0, gap, self.profile)

    def eigenvalue(self, kappa, r_max: int | None = None) -> float:
        """generic_step's lam to 1 ulp: stopped as in `_rs_orders` unless r_max."""
        if self.geometry is None:
            (lam,) = self.eigenvalues(np.asarray(kappa, dtype=float)[None], r_max)
            if isinstance(lam, Exception):
                raise lam
            return lam
        state = self.state(kappa)
        g, _ = _series(state, self.profile.r_max if r_max is None else r_max, r_max is None)
        _decay(g, state.lambda0, self.profile)
        return _inside(state, state.lambda0 + float(np.sum(g[1:])))

    def eigenvalues(self, kappas, r_max: int | None = None) -> list:
        """`eigenvalue` at each row of a (B, 2) block of kappas: per row the
        value, or the ContourHit / NonConvergent it raises there.  Level 2
        goes row by row; level 1 runs the recursion on the block, one W V
        product per order on generic_step's CSR W (U is the identity here),
        each column bit-identical to generic_step."""
        if self.geometry is not None:
            out = []
            for kap in kappas:
                try:
                    out.append(self.eigenvalue(kap, r_max))
                except (ContourHit, NonConvergent) as exc:
                    out.append(exc)
            return out
        stop = r_max is None
        r_max = self.profile.r_max if r_max is None else r_max
        diag = shifted_energies(kappas, self._duals)
        t = self.target
        # lambda0 as state() takes it; diag[:, t] can differ in the last bit
        lam0 = np.array([kap @ kap for kap in kappas])
        dist = np.abs(diag - lam0[:, None])
        dist[:, t] = np.inf
        hit = dist.min(axis=1) <= 0.0
        out = [ContourHit("degenerate free gap at kappa") if h else None for h in hit]
        live = np.flatnonzero(~hit)
        for at in range(0, len(live), _BLOCK_COLUMNS):
            cols = live[at : at + _BLOCK_COLUMNS]
            # one column runs on vectors, where numpy's scalar operands are cheapest
            block = diag[cols[0]] if len(cols) == 1 else np.ascontiguousarray(diag[cols].T)
            inv = _reduced_inverse(block, lam0[cols], t)
            g, _ = _rs_orders(self.split.w.dot, inv, t, r_max, lam0[cols] if stop else None)
            for b, col in zip(cols, g.reshape(r_max, len(cols)).T.copy()):
                try:
                    _decay(col, lam0[b], self.profile)
                    out[b] = float(lam0[b]) + float(np.sum(col[1:]))
                except NonConvergent as exc:
                    out[b] = exc
        return out

    def solve(self, columns, r_max: int | None = None) -> list:
        """Generator columns in lockstep, one `eigenvalues` call per round: a
        column yields kappa points and is sent the value at each, or has its
        rejection thrown in.  Per column its return value, or the ContourHit,
        NonConvergent or NoRoot it ends with; other exceptions propagate."""
        cols = list(columns)
        out: list = [None] * len(cols)
        sent = dict.fromkeys(range(len(cols)))  # None starts a column
        while sent:
            asked = {}
            for i, value in sent.items():
                try:
                    send = cols[i].throw if isinstance(value, BaseException) else cols[i].send
                    asked[i] = send(value)
                except StopIteration as stop:
                    out[i] = stop.value
                except (ContourHit, NonConvergent, NoRoot) as exc:
                    out[i] = exc
            vals = self.eigenvalues(np.array(list(asked.values())), r_max) if asked else []
            sent = dict(zip(asked, vals))
        return out


def derivative_probe(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    h: float = 1e-4,
    geometry: Level2Geometry | None = None,
) -> tuple[float, float]:
    """(d lambda/d kappa, d lambda / d phi) by central differences, the four
    probes in one call on one evaluator (level 2: geometry, else the point's
    own); the first probe's rejection is raised."""
    kap = np.asarray(point, dtype=float)
    r = float(np.hypot(kap[0], kap[1]))
    phi = math.atan2(kap[1], kap[0])
    ev = _evaluator_at(n, kap, spec, profile, geometry)
    probes = [(r + h, phi), (r - h, phi), (r, phi + h), (r, phi - h)]
    pts = np.array([rr * np.array([math.cos(pp), math.sin(pp)]) for rr, pp in probes])
    vals = ev.eigenvalues(pts)
    for v in vals:
        if isinstance(v, Exception):
            raise v
    return (vals[0] - vals[1]) / (2.0 * h), (vals[2] - vals[3]) / (2.0 * h)
