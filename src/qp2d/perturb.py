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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import hankel

from .fiber import FiberMatrix, assemble, diagonal_energies, eigvals_oracle
from .lattice import (
    LatticeIndex,
    ZERO_INDEX,
    array_to_indices,
    enumerate_box_array,
    indices_to_array,
    triple_norm_array,
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


class NotUnique(ValueError):
    """The oracle found zero or several eigenvalues inside the contour."""


@dataclass(frozen=True)
class Contour:
    center: float
    radius: float
    nodes: int

    def points(self, n: int | None = None):
        n = self.nodes if n is None else n
        th = 2.0 * math.pi * np.arange(n) / n
        z = self.center + self.radius * np.exp(1j * th)
        dz = 1j * self.radius * np.exp(1j * th) * (2.0 * math.pi / n)
        return z, dz


@dataclass
class LevelState:
    """Model/perturbation split of one truncation level.

    blocks: integer position arrays partitioning range(dim); h_model keeps
    the diagonal plus all in-block entries of h_full, so h_model + w equals
    h_full entrywise by construction.
    """

    level: int
    indices: tuple[LatticeIndex, ...]
    h_full: np.ndarray
    blocks: list[np.ndarray]
    h_model: np.ndarray
    w: np.ndarray
    target: int  # position of the target basis index (block-eigen target)
    lambda0: float
    contour: Contour
    block_vals: np.ndarray = field(default=None, repr=False)
    block_vecs: list = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return len(self.indices)


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


def _model_from_blocks(h_full: np.ndarray, blocks) -> np.ndarray:
    h_model = np.zeros_like(h_full)
    for pos in blocks:
        sel = np.ix_(pos, pos)
        h_model[sel] = h_full[sel]
    return h_model


def _eigendecompose_blocks(state: LevelState) -> None:
    vals = np.empty(state.dim)
    vecs = []
    for pos in state.blocks:
        if len(pos) == 1:
            vals[pos[0]] = state.h_model[pos[0], pos[0]].real
            vecs.append(None)
        else:
            bv, bu = np.linalg.eigh(state.h_model[np.ix_(pos, pos)])
            vals[pos] = bv
            vecs.append(bu)
    state.block_vals = vals
    state.block_vecs = vecs


def _rotate_to_eigenbasis(state: LevelState, mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    for pos, bu in zip(state.blocks, state.block_vecs):
        if bu is not None:
            out[pos, :] = bu.conj().T @ out[pos, :]
    for pos, bu in zip(state.blocks, state.block_vecs):
        if bu is not None:
            out[:, pos] = out[:, pos] @ bu
    return out


def _rotate_vec_from_eigenbasis(state: LevelState, v: np.ndarray) -> np.ndarray:
    """U v for a vector, or for each column of a (d, m) array."""
    out = v.copy()
    for pos, bu in zip(state.blocks, state.block_vecs):
        if bu is not None:
            out[pos] = bu @ out[pos]
    return out


def model_gap(state: LevelState) -> float:
    """Distance from the target model eigenvalue to the rest of the model
    spectrum."""
    if state.block_vals is None:
        _eigendecompose_blocks(state)
    others = np.delete(state.block_vals, state.target)
    if len(others) == 0:
        return math.inf
    return float(np.min(np.abs(others - state.lambda0)))


def level1_state(
    kappa,
    spec: PotentialSpec,
    profile: ParameterProfile,
) -> LevelState:
    """Diagonal model on the small box; perturbation is the whole potential."""
    params = spec.params
    rows = enumerate_box_array(profile.core_radius)
    indices = tuple(array_to_indices(rows))
    h = assemble(kappa, indices, spec, params)
    blocks = [np.array([i]) for i in range(len(indices))]
    h_model = np.diag(np.diag(h.entries))
    w = h.entries - h_model
    target = indices.index(ZERO_INDEX)
    kap = np.asarray(kappa, dtype=float)
    lambda0 = float(kap @ kap)

    # contour radius: fraction of the gap to the nearest unperturbed level
    # over the larger exclusion-zone box
    big = enumerate_box_array(profile.tilde_radius)
    nz = triple_norm_array(big) > 0
    levels = diagonal_energies(kap, big[nz], params)
    gap = float(np.min(np.abs(levels - lambda0)))
    radius = profile.contour_margin * gap
    state = LevelState(
        level=1,
        indices=indices,
        h_full=h.entries,
        blocks=blocks,
        h_model=h_model,
        w=w,
        target=target,
        lambda0=lambda0,
        contour=Contour(lambda0, radius, profile.quad_nodes),
    )
    _eigendecompose_blocks(state)
    return state


@dataclass
class Level2Geometry:
    """Resonance classification, labels and blocks at a base angle, reusable
    for every kappa in its small angular window."""

    phi0: float
    decomp: ClusterDecomposition
    projector: object  # BlockProjector
    block_positions: list[np.ndarray]
    indices: tuple[LatticeIndex, ...]
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
    rows = enumerate_box_array(profile.box_r1)
    indices = tuple(array_to_indices(rows))
    pos = {m: i for i, m in enumerate(indices)}
    block_positions = []
    core_positions = None
    covered = set()
    for blk in projector.blocks:
        arr = np.array(sorted(pos[m] for m in blk.indices), dtype=np.int64)
        block_positions.append(arr)
        covered.update(arr.tolist())
        if blk.kind == "core":
            core_positions = arr
    for i in range(len(indices)):
        if i not in covered:
            block_positions.append(np.array([i], dtype=np.int64))
    return Level2Geometry(
        phi0=phi0,
        decomp=decomp,
        projector=projector,
        block_positions=block_positions,
        indices=indices,
        core_positions=core_positions,
    )


def level2_state(
    kappa,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None = None,
) -> LevelState:
    """Block model of the r1-box: resonance blocks plus free diagonal."""
    kap = np.asarray(kappa, dtype=float)
    phi = math.atan2(kap[1], kap[0]) % (2 * math.pi)
    if geometry is None:
        geometry = level2_geometry(phi, spec, profile)
    h = assemble(kap, geometry.indices, spec, spec.params)
    h_model = _model_from_blocks(h.entries, geometry.block_positions)
    w = h.entries - h_model

    # target: the dressed eigenvalue of the core block nearest |kappa|^2
    core = geometry.core_positions
    sel = np.ix_(core, core)
    cv, _ = np.linalg.eigh(h.entries[sel])
    lam_free = float(kap @ kap)
    lambda0 = float(cv[np.argmin(np.abs(cv - lam_free))])

    state = LevelState(
        level=2,
        indices=geometry.indices,
        h_full=h.entries,
        blocks=geometry.block_positions,
        h_model=h_model,
        w=w,
        target=-1,  # fixed after eigendecomposition
        lambda0=lambda0,
        contour=Contour(lambda0, 0.0, profile.quad_nodes),
    )
    _eigendecompose_blocks(state)
    cand = geometry.core_positions
    state.target = int(cand[np.argmin(np.abs(state.block_vals[cand] - lambda0))])
    state.lambda0 = float(state.block_vals[state.target])
    gap = model_gap(state)
    state.contour = Contour(
        state.lambda0, profile.contour_margin * gap, profile.quad_nodes
    )
    return state


def toy_state(
    h_full: np.ndarray,
    blocks,
    indices,
    target_value: float,
    profile: ParameterProfile,
    level: int = 3,
) -> LevelState:
    """Caller-assembled state for structural tests of higher levels."""
    h_model = _model_from_blocks(h_full, [np.asarray(b) for b in blocks])
    state = LevelState(
        level=level,
        indices=tuple(indices),
        h_full=h_full,
        blocks=[np.asarray(b) for b in blocks],
        h_model=h_model,
        w=h_full - h_model,
        target=-1,
        lambda0=target_value,
        contour=Contour(target_value, 0.0, profile.quad_nodes),
    )
    _eigendecompose_blocks(state)
    state.target = int(np.argmin(np.abs(state.block_vals - target_value)))
    state.lambda0 = float(state.block_vals[state.target])
    state.contour = Contour(
        state.lambda0, profile.contour_margin * model_gap(state), profile.quad_nodes
    )
    return state


# ---------------------------------------------------------------------------
# residue-exact series (Rayleigh-Schrodinger recursion in the eigenbasis)
# ---------------------------------------------------------------------------


def generic_step(
    state: LevelState,
    profile: ParameterProfile,
    r_max: int | None = None,
    with_projector: bool = True,
    store_orders: int | None = None,
    check_oracle: bool = False,
    strict_convergence: bool = True,
) -> SeriesResult:
    """Taylor coefficients of the isolated model eigenvalue under the
    in-level perturbation, their sum, and the rank-one projector.

    With with_projector it also returns the projector orders G_1..G_n (n =
    store_orders, else r_max, capped at 8 when d > 512), each one product
    G_r = V~ C_r V~^H: V~ = U [v_0 .. v_r] rotates the order vectors by the
    block eigenbasis U, and the Hankel C_r[a,b] = d[r-a-b] (zero for a+b > r)
    holds the inverse norm series d, read off the anti-diagonals of the Gram
    matrix of the v_n.  Terms that cannot reach an entry multiply exact zeros,
    so the support rule holds bit-exactly.

    Raises ContourHit when the contour is not clear of the model spectrum and
    NonConvergent when the coefficient magnitudes stop decaying.
    """
    r_max = profile.r_max if r_max is None else r_max
    if state.block_vals is None:
        _eigendecompose_blocks(state)
    gap = model_gap(state)
    if state.contour.radius <= 0 or not math.isfinite(state.contour.radius):
        raise ContourHit("degenerate contour radius")
    if gap <= state.contour.radius * (1.0 + 1e-8):
        raise ContourHit(
            f"model eigenvalue within {gap:.3g} of the contour radius "
            f"{state.contour.radius:.3g}"
        )

    lam0 = state.lambda0
    t = state.target
    w_tilde = _rotate_to_eigenbasis(state, state.w)
    d = state.dim
    denom = state.block_vals - lam0
    inv = np.zeros(d)
    nz = np.abs(denom) > 0
    inv[nz] = 1.0 / denom[nz]
    inv[t] = 0.0

    vs = [np.zeros(d, dtype=complex)]
    vs[0][t] = 1.0
    g = np.zeros(r_max, dtype=float)
    for n in range(1, r_max + 1):
        rhs = -(w_tilde @ vs[n - 1])
        for j in range(1, n):
            rhs += g[j - 1] * vs[n - j]
        lam_n = -(rhs[t])
        if not abs(lam_n.imag) <= 1e-10 * max(1.0, abs(lam_n)):
            raise InvariantViolation(f"g_{n} = {lam_n!r} must be real")
        g[n - 1] = lam_n.real
        rhs[t] += lam_n  # add the lam_n * v_0 term, zeroing the t-component
        v_n = rhs * inv
        vs.append(v_n)

    # decay diagnostics over the significant entries of the sequence (odd
    # orders may vanish identically, so rates are per-order geometric means
    # between consecutive nonzero magnitudes)
    mags = np.abs(g)
    floor = 1e-14 * max(1.0, abs(lam0))
    ratio = 0.0
    bad_run = 0
    converged = True
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
                converged = False
                if strict_convergence:
                    raise NonConvergent(
                        f"|g_r| rate {rr:.3f} >= {profile.divergence_ratio} "
                        "over 3 significant orders"
                    )
        last_mag, last_ord = m_r, r
    tail = (
        last_mag * min(ratio, 0.95) ** max(r_max - last_ord, 0) / (1.0 - min(ratio, 0.95))
        if last_mag is not None
        else 0.0
    )
    lam = lam0 + float(np.sum(g[1:]))  # the first-order term vanishes

    v_eig = np.sum(vs, axis=0)
    v_full = _rotate_vec_from_eigenbasis(state, v_eig)
    v_full = v_full / np.linalg.norm(v_full)

    projector = g_mats = g_norms = None
    if with_projector:
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
        v_rot = _rotate_vec_from_eigenbasis(state, v_ser)
        g_mats = []
        for r in range(1, n_store + 1):
            v_r = v_rot[:, : r + 1]
            g_mats.append((v_r @ hankel(d_ser[r::-1])) @ v_r.conj().T)
        g_norms = np.array([np.linalg.norm(g_r) for g_r in g_mats])

    oracle_lambda = None
    oracle_count = None
    if check_oracle:
        mat = FiberMatrix(
            indices=state.indices, kappa=np.zeros(2), entries=state.h_full
        )
        vals = eigvals_oracle(mat, cap=profile.eig_cap)
        inside = vals[np.abs(vals - state.contour.center) <= state.contour.radius]
        oracle_count = int(len(inside))
        if oracle_count != 1:
            raise NotUnique(
                f"{oracle_count} oracle eigenvalues inside the contour "
                f"[{state.contour.center:.6g} +- {state.contour.radius:.3g}]"
            )
        oracle_lambda = float(inside[0])

    return SeriesResult(
        lam=lam,
        lambda_base=lam0,
        g=g,
        tail_estimate=float(tail),
        converged=converged,
        contour=state.contour,
        indices=state.indices,
        vector=v_full,
        projector=projector,
        g_matrices=g_mats,
        g_norms=g_norms,
        oracle_lambda=oracle_lambda,
        oracle_count=oracle_count,
    )


# ---------------------------------------------------------------------------
# quadrature route (independent evaluation of the defining integrals)
# ---------------------------------------------------------------------------


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
    if state.block_vals is None:
        _eigendecompose_blocks(state)
    _check_contour_clear(state)
    w_tilde = _rotate_to_eigenbasis(state, state.w)

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
    prev = quad(nodes)
    while nodes < max_nodes:
        nodes *= 2
        cur = quad(nodes)
        scale = np.max(np.abs(cur)) + 1e-300
        if np.max(np.abs(cur - prev)) <= 1e-12 * max(scale, 1.0):
            prev = cur
            break
        prev = cur
    g = prev
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
    if state.block_vals is None:
        _eigendecompose_blocks(state)
    _check_contour_clear(state)
    w_tilde = _rotate_to_eigenbasis(state, state.w)
    d = state.dim

    def quad(n_nodes: int):
        z, dz = state.contour.points(n_nodes)
        gs = [np.zeros((d, d), dtype=complex) for _ in range(r_max)]
        e0 = np.zeros((d, d), dtype=complex)
        for zz, dd in zip(z, dz):
            res = np.zeros((d, d), dtype=complex)
            np.fill_diagonal(res, 1.0 / (state.block_vals - zz))
            x = res.copy()
            e0 += -x * dd / (2j * math.pi)
            for r in range(1, r_max + 1):
                x = x @ (w_tilde @ res)
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
        um = _rotate_vec_from_eigenbasis(state, m)
        return _rotate_vec_from_eigenbasis(state, um.conj().T).conj().T

    e_total = e0_prev + sum(gs_prev)
    return rot(e_total), [rot(gm) for gm in gs_prev]


# ---------------------------------------------------------------------------
# public level interface
# ---------------------------------------------------------------------------


def build_state(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None = None,
) -> LevelState:
    if n == 1:
        return level1_state(point, spec, profile)
    if n == 2:
        return level2_state(point, spec, profile, geometry)
    raise ValueError("levels 1 and 2 are constructed here; use toy_state beyond")


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


def eigenvalue_at(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    geometry: Level2Geometry | None = None,
) -> float:
    """Dressed eigenvalue without projector assembly or oracle checks (the
    inner loop of curve tracing)."""
    state = build_state(n, point, spec, profile, geometry)
    res = generic_step(
        state, profile, with_projector=False, check_oracle=False
    )
    return res.lam


class LevelEvaluator:
    """Repeated eigenvalue evaluation at a fixed angle window.

    The off-diagonal coupling is kappa-independent, so only the diagonal and
    the small block eigendecompositions are rebuilt per kappa.
    """

    def __init__(
        self,
        n: int,
        phi: float,
        spec: PotentialSpec,
        profile: ParameterProfile,
        geometry: Level2Geometry | None = None,
    ):
        self.n = n
        self.phi = phi
        self.spec = spec
        self.profile = profile
        if n == 1:
            rows = enumerate_box_array(profile.core_radius)
            self.indices = tuple(array_to_indices(rows))
            self.blocks = [np.array([i]) for i in range(len(self.indices))]
            self.geometry = None
        elif n == 2:
            self.geometry = (
                level2_geometry(phi, spec, profile) if geometry is None else geometry
            )
            self.indices = self.geometry.indices
            self.blocks = self.geometry.block_positions
        else:
            raise ValueError("evaluator supports levels 1 and 2")
        self.rows = indices_to_array(self.indices)
        d = len(self.indices)
        ref = assemble(
            profile.k * np.array([math.cos(phi), math.sin(phi)]),
            self.indices,
            spec,
            spec.params,
        ).entries
        self.v_off = ref - np.diag(np.diag(ref))
        in_block = np.zeros((d, d), dtype=bool)
        for pos in self.blocks:
            in_block[np.ix_(pos, pos)] = True
        self.v_in = np.where(in_block, self.v_off, 0.0)
        self.w = self.v_off - self.v_in

    def state(self, kappa) -> LevelState:
        kap = np.asarray(kappa, dtype=float)
        diag = diagonal_energies(kap, self.rows, self.spec.params)
        h_model = self.v_in + np.diag(diag)
        h_full = self.v_off + np.diag(diag)
        if self.n == 1:
            target = self.indices.index(ZERO_INDEX)
            lambda0 = float(kap @ kap)
        else:
            target = -1
            lambda0 = float(kap @ kap)
        state = LevelState(
            level=self.n,
            indices=self.indices,
            h_full=h_full,
            blocks=self.blocks,
            h_model=h_model,
            w=self.w,
            target=target,
            lambda0=lambda0,
            contour=Contour(lambda0, 0.0, self.profile.quad_nodes),
        )
        _eigendecompose_blocks(state)
        if self.n == 1:
            big = enumerate_box_array(self.profile.tilde_radius)
            nz = triple_norm_array(big) > 0
            levels = diagonal_energies(kap, big[nz], self.spec.params)
            gap = float(np.min(np.abs(levels - lambda0)))
        else:
            cand = self.geometry.core_positions
            state.target = int(
                cand[np.argmin(np.abs(state.block_vals[cand] - lambda0))]
            )
            state.lambda0 = float(state.block_vals[state.target])
            gap = model_gap(state)
        state.contour = Contour(
            state.lambda0,
            self.profile.contour_margin * gap,
            self.profile.quad_nodes,
        )
        return state

    def eigenvalue(self, kappa, r_max: int | None = None) -> float:
        if self.n == 1:
            return self._eigenvalue_diagonal(kappa, r_max)
        res = generic_step(
            self.state(kappa),
            self.profile,
            r_max=r_max,
            with_projector=False,
            check_oracle=False,
        )
        return res.lam

    def _eigenvalue_diagonal(self, kappa, r_max: int | None) -> float:
        """Allocation-light recursion for the all-singleton level-1 model;
        coefficients agree with generic_step bit for bit."""
        prof = self.profile
        r_max = prof.r_max if r_max is None else r_max
        kap = np.asarray(kappa, dtype=float)
        diag = diagonal_energies(kap, self.rows, self.spec.params)
        t = self.indices.index(ZERO_INDEX)
        lam0 = float(diag[t])
        denom = diag - lam0
        gap = np.min(np.abs(np.delete(denom, t)))
        if gap <= 0.0:
            raise ContourHit("degenerate free gap at the evaluation point")
        inv = np.zeros_like(denom)
        nz = np.abs(denom) > 0
        inv[nz] = 1.0 / denom[nz]
        inv[t] = 0.0
        w = self.w
        vs = np.zeros(len(diag), dtype=complex)
        vs[t] = 1.0
        hist = [vs]
        g = np.zeros(r_max)
        for n in range(1, r_max + 1):
            rhs = -(w @ hist[n - 1])
            for j in range(1, n):
                rhs += g[j - 1] * hist[n - j]
            g[n - 1] = -(rhs[t]).real
            rhs[t] += g[n - 1]
            hist.append(rhs * inv)
        # same stall detector as the generic engine
        mags = np.abs(g)
        floor = 1e-14 * max(1.0, abs(lam0))
        last = None
        bad = 0
        for r in range(2, r_max + 1):
            m_r = mags[r - 1]
            if m_r <= floor:
                continue
            if last is not None:
                rate = (m_r / last[0]) ** (1.0 / (r - last[1]))
                bad = bad + 1 if rate >= prof.divergence_ratio else 0
                if bad >= 3:
                    raise NonConvergent(
                        f"|g_r| rate {rate:.3f} >= {prof.divergence_ratio} "
                        "over 3 significant orders"
                    )
            last = (m_r, r)
        return lam0 + float(np.sum(g[1:]))


def derivative_probe(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    h: float = 1e-4,
    geometry: Level2Geometry | None = None,
) -> tuple[float, float]:
    """(d lambda/d kappa, d lambda / d phi) by central differences."""
    kap = np.asarray(point, dtype=float)
    r = float(np.hypot(kap[0], kap[1]))
    phi = math.atan2(kap[1], kap[0])
    nu = np.array([math.cos(phi), math.sin(phi)])

    def at(rr: float, pp: float) -> float:
        pt = rr * np.array([math.cos(pp), math.sin(pp)])
        return eigenvalue_at(n, pt, spec, profile, geometry)

    dk = (at(r + h, phi) - at(r - h, phi)) / (2.0 * h)
    dphi = (at(r, phi + h) - at(r, phi - h)) / (2.0 * h)
    return dk, dphi
