"""Contour-integral perturbation engine for the dressed eigenvalue and its
rank-one spectral projector, at truncation level 1 (diagonal model on the
small box) and level 2 (block model: resonance blocks plus free diagonal),
with a structurally generic step for higher levels.

`generic_step` computes the Taylor coefficients of the isolated eigenvalue
of H_model + eps*W by the Rayleigh-Schrodinger recursion in the model
eigenbasis; these coefficients are exactly the contour-integral trace
coefficients, the recursion just extracts every residue analytically, so
structural zeros of the coupling survive in the output bit-exactly.

Every series, `generic_step`'s and `LevelEvaluator`'s alike, stops after
order n >= 4 once |g_{n-1}|, |g_n| <= ulp(lambda0)/16, or at profile.r_max
orders; at `_decay`'s stall bound divergence_ratio = 0.75 the orders left out
sum to <= 3/16 ulp (lam to 1 ulp).  The eigenvector sums the order vectors of
the orders the series ran; only the projector may ask for more
(`store_orders`), which the recursion then runs without adding them to lam
or the vector.

The coupling is sparse, so no d x d array is built per kappa:
`LevelEvaluator` splits it once into the cross-block W as CSR and the dense
coupling of each connected component of a block's own nonzero coupling
(the model is unchanged, as no in-block entry joins two components), stacked
by size.  One recursion serves both levels: `eigenvalues` runs a block of
kappas, eigendecomposes each size as one (B*m, s, s) `eigh` stack, and
applies W~ V = U^H (W (U V)) with the stacks padded to the largest size, one
`einsum` on the gathered positions and one W V product per order (level 1
has no stacks).  The oracle check hands the section as CSR
(`LevelState.section`) to `eigvals_oracle`, which diagonalizes only the
coupling components that Gershgorin's theorem leaves near the contour, as
dense stacks of at most 33 rows at d = 1121.  A level's basis is the (d, 4)
rows of its box in box order (`LevelState.rows`); its blocks are positions
into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fiber import (  # noqa: F401 - assemble, NotUnique are re-exported from perturb
    FiberMatrix,
    NotUnique,
    assemble,
    component_stacks,
    coupling_matrix,
    eigvals_oracle,
    shifted_energies,
)
from .lattice import (
    box_table,
    enumerate_box_array,
    row_positions,
    triple_norm_array,
)
from .potential import InvariantViolation, PotentialSpec
from .profile import ParameterProfile
from .resonance import assemble_projector, classify, strength


class ContourHit(ValueError):
    """A model eigenvalue lies (numerically) on the integration circle."""


class NonConvergent(ArithmeticError):
    """The coefficient sequence stopped decaying."""


class NoRoot(ArithmeticError):
    """A bracketed root search found no root."""


# Entries (columns x d) per `LevelEvaluator.eigenvalues` block: 64 columns at d = 113 (6,921
# took 1.0 s in one block, 0.5-0.6 s in blocks of 64 or 256, 0.7-0.8 s of 1,024; 1 thread),
# 6 at the level-2 d = 1121, whose order history then stays near 1 MB.
_BLOCK_ENTRIES = 64 * 113


@dataclass(frozen=True)
class Contour:
    center: float
    radius: float


@dataclass
class LevelState:
    """Model/perturbation split of one truncation level at one kappa, over
    the basis rows (d, 4).

    labels: per position the first position of its model block, each block
    one coupling component of a multi-index block (`blocks` lists them as
    position arrays).  The model is diag plus the in-block coupling
    (`couplings`: per block size s > 1, the (m, s) positions of its m blocks
    and their (m, s, s) dense coupling with zero diagonal); w holds every
    other coupling entry as CSR.  coupling is the whole off-diagonal coupling
    as CSR, the two parts together, so the section is it plus the diagonal
    (`section`).  block_vals are the model eigenvalues by position and vecs,
    per entry of couplings, the (m, s, s) eigenvectors of its blocks: the
    model eigenbasis U is them on the blocks and the identity on the
    singletons.
    """

    rows: np.ndarray
    diag: np.ndarray
    labels: np.ndarray
    couplings: list[tuple[np.ndarray, np.ndarray]]
    w: sp.csr_matrix
    coupling: sp.csr_matrix
    block_vals: np.ndarray
    vecs: list[np.ndarray]
    target: int  # position of the target basis index (block-eigen target)
    lambda0: float
    contour: Contour | None

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def blocks(self) -> list[np.ndarray]:
        """The model blocks as ascending position arrays, by first position."""
        order = np.argsort(self.labels, kind="stable")
        starts = np.flatnonzero(np.diff(self.labels[order])) + 1
        return np.split(order, starts)

    @property
    def section(self) -> sp.csr_matrix:
        """H(kappa) as CSR, the coupling plus the diagonal, for the oracle
        check."""
        return (self.coupling + sp.diags(self.diag)).tocsr()


@dataclass
class SeriesResult:
    lam: float
    lambda_base: float
    g: np.ndarray  # g[r-1] is the order-r coefficient
    tail_estimate: float
    converged: bool
    contour: Contour
    rows: np.ndarray  # (d, 4) basis rows
    vector: np.ndarray  # unit eigenvector in the basis of rows
    decay_ratio: float  # last per-order rate of |g_r| (0.0: fewer than two nonzero)
    orders: int  # the orders the series ran: its stop, or profile.r_max
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
    coupling stacked by size (`couplings`), the rest W (CSR) and the whole
    coupling it was given (`off`)."""

    def __init__(self, off: sp.csr_matrix, labels: np.ndarray):
        self.off = off
        d = off.shape[0]
        coo = off.tocoo()
        same = labels[coo.row] == labels[coo.col]
        self.w = sp.csr_matrix(
            (coo.data[~same], (coo.row[~same], coo.col[~same])), shape=(d, d)
        )
        # an in-block zero couples nothing, so it joins no components
        inner = same & (coo.data != 0)
        self.labels, self.couplings = component_stacks(
            d, coo.row[inner], coo.col[inner], coo.data[inner]
        )

    def eigh(self, diag: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """The model eigenpairs at each row of a (B, d) diag: the eigenvalues
        by position (B, d) and per size the (B, m, s, s) eigenvectors.  Each
        size is eigendecomposed as one stack, each matrix its coupling plus
        diag(diag[b, pos]), entry for entry the in-block part of H(kappa)."""
        vals = diag.real.copy()
        vecs = []
        for pos, blk in self.couplings:
            s = pos.shape[1]
            a = np.repeat(blk[None], len(diag), axis=0)
            a[..., np.arange(s), np.arange(s)] += diag[:, pos]
            vals[:, pos], u = np.linalg.eigh(a)
            vecs.append(u)
        return vals, vecs


def _gaps(vals: np.ndarray, t, lam0: np.ndarray) -> np.ndarray:
    """Per row of the (B, d) model eigenvalues, the distance from lam0 to
    every model eigenvalue but the target's (inf when there is none)."""
    dist = np.abs(vals - lam0[:, None])
    dist[np.arange(len(vals)), t] = math.inf
    return dist.min(axis=1)


def _aim_nearest(vals: np.ndarray, cand: np.ndarray, value: np.ndarray, margin: float):
    """(targets, lambda0, contour radii) per row of the (B, d) model
    eigenvalues: the target is the candidate position whose model eigenvalue
    lies nearest value, the radius margin times its model gap."""
    t = cand[np.argmin(np.abs(vals[:, cand] - value[:, None]), axis=1)]
    lam0 = vals[np.arange(len(vals)), t]
    return t, lam0, margin * _gaps(vals, t, lam0)


def _state(rows, split: _BlockSplit, diag, vals, vecs, t, lam0, radius) -> LevelState:
    """Column 0 of an aimed block as a LevelState."""
    lam0, contour = float(lam0[0]), Contour(float(lam0[0]), float(radius[0]))
    return LevelState(rows, diag[0], split.labels, split.couplings, split.w, split.off,
                      vals[0], [u[0] for u in vecs], int(t[0]), lam0, contour)


@dataclass
class Level2Geometry:
    """The block projector, block labels and core block at a base angle,
    reusable for every kappa in its small angular window."""

    projector: object  # BlockProjector
    block_labels: np.ndarray  # per box row, the first position of its block
    rows: np.ndarray  # the box_r1 box
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
    # block positions ascend, so each block's label is its first position
    blocks = [blk.positions for blk in projector.blocks]
    every = np.concatenate(blocks)
    if np.any(every < 0) or len(np.unique(every)) < len(every):
        raise InvariantViolation(
            "a projector block row lies outside the box_r1 box or in another block"
        )
    labels = np.arange(len(rows))
    labels[every] = np.repeat([pos[0] for pos in blocks], [len(pos) for pos in blocks])
    core_positions = next(blk.positions for blk in projector.blocks if blk.kind == "core")
    return Level2Geometry(
        projector=projector,
        block_labels=labels,
        rows=rows,
        core_positions=core_positions,
    )


# ---------------------------------------------------------------------------
# residue-exact series (Rayleigh-Schrodinger recursion in the eigenbasis)
# ---------------------------------------------------------------------------


def _rs_orders(apply_w, inv: np.ndarray, t, r_max: int, lam0, min_orders: int):
    """The Rayleigh-Schrodinger recursion in the model eigenbasis: the
    coefficients g_1..g_r, the order vectors v_0..v_r, per column whether its
    own g are real and the orders it used, given v -> W~ v, the reduced
    resolvent inv (zero at the target t), lam0 and r_max.  The (d, B) inv runs
    B columns with targets t (one per column, or one for all), each
    bit-identical to its own run, with g (r_max, B).  A column stops after
    order n >= 4 once |g_{n-1}|, |g_n| <= ulp(lam0)/16, or at r_max; its later
    g are zero.  The loop ends once every column stopped and at least
    min_orders orders ran, so vs may hold order vectors past a column's stop."""
    at = (t, np.arange(inv.shape[1]))
    v0 = np.zeros(inv.shape, dtype=complex)
    v0[at] = 1.0
    vs = [v0]
    lams = np.zeros((r_max,) + inv.shape[1:], dtype=complex)
    g = np.zeros(lams.shape, dtype=float)
    orders = np.full(inv.shape[1], r_max)
    tol = np.spacing(np.abs(lam0)) / 16
    for n in range(1, r_max + 1):
        rhs = -apply_w(vs[n - 1])
        for j in range(1, n):
            rhs += g[j - 1] * vs[n - j]
        lams[n - 1] = lam_n = -(rhs[at])
        g[n - 1] = lam_n.real
        rhs[at] += lam_n  # add the lam_n * v_0 term, zeroing the t-component
        vs.append(rhs * inv)
        if n >= 4:
            orders[(orders == r_max) & (np.abs(g[n - 2]) <= tol) & (np.abs(g[n - 1]) <= tol)] = n
            if n >= min_orders and np.all(orders < r_max):
                break
    done = np.arange(1, r_max + 1)[:, None] > orders
    g[done] = lams[done] = 0.0
    real = np.all(np.abs(lams.imag) <= 1e-10 * np.fmax(1.0, np.abs(lams)), axis=0)
    return g, vs, real, orders


def _decay(g: np.ndarray, lam0: float, profile: ParameterProfile):
    """(last decay rate, tail estimate) of the coefficients.

    Rates are taken over the significant entries only (odd orders may vanish
    identically), as per-order geometric means between consecutive nonzero
    magnitudes.  Three rates in a row at or above divergence_ratio raise
    NonConvergent."""
    r_max = len(g)
    mags = np.abs(g)
    floor = 1e-14 * max(1.0, abs(lam0))
    ratio, bad_run = 0.0, 0
    last_mag = last_ord = None
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


def _reduced_inverse(vals: np.ndarray, lam0: np.ndarray, t) -> np.ndarray:
    """(d, B): per row b of the (B, d) model eigenvalues, 1/(vals - lam0) off
    the target t[b] and zero denominators."""
    denom = vals - lam0[:, None]
    inv = np.zeros(denom.shape)
    nz = np.abs(denom) > 0
    inv[nz] = 1.0 / denom[nz]
    inv[np.arange(len(vals)), t] = 0.0
    return np.ascontiguousarray(inv.T)


def _rotations(couplings, stacks):
    """(x -> U x, x -> U^H x) for (d, B) columns x, column b by stacks[.][b]
    ((B or 1, m, s, s) eigenvectors per entry of couplings).  The blocks are
    padded with zeros to the largest size, so one gather, einsum and scatter
    serve them all; the singletons pass through.  Each entry sums its terms in
    ascending order, then exact zeros, as a CSR U would: the same bits."""
    if not couplings:
        return (lambda x: x,) * 2
    size, n = max(p.shape[1] for p, _ in couplings), sum(len(p) for p, _ in couplings)
    pos, real = np.zeros((n, size), dtype=np.int64), np.zeros((n, size), dtype=bool)
    stack = np.zeros((len(stacks[0]), n, size, size), dtype=complex)
    at = 0
    for (p, _), u in zip(couplings, stacks):
        (m, s), at = p.shape, at + len(p)
        pos[at - m : at, :s], real[at - m : at, :s], stack[:, at - m : at, :s, :s] = p, True, u
    flat, pad, conj = pos[real], ~real, stack.conj()

    def rotate(x, stack, subscripts):
        xg = x[pos]
        xg[pad] = 0.0
        y = x.copy()
        y[flat] = np.einsum(subscripts, stack, xg)[real]
        return y

    return (lambda x: rotate(x, stack, "...mij,mj...->mi..."),
            lambda x: rotate(x, conj, "...mji,mj...->mi..."))


def _columns(w, couplings, vecs, vals, t, lam0, radius, profile: ParameterProfile,
             min_orders: int = 0):
    """B series in one recursion, generic_step's and `eigenvalues`' route, from
    per column model eigenvalues vals (B, d), eigenvectors vecs ((B, m, s, s)
    per entry of couplings), target t, lam0 and contour radius.  Each series
    stops by `_rs_orders`' rule, capped at profile.r_max; min_orders only
    keeps the recursion running for more order vectors.  Per column (lam,
    rate, tail, orders used), ContourHit (contour degenerate or not clear of
    the model spectrum) or NonConvergent (`_decay`, or lam outside the
    contour), then g and the order vectors of the clear columns.  Decaying
    coefficients that are not real raise InvariantViolation."""
    gap, radius = _gaps(vals, t, lam0), np.asarray(radius, dtype=float)
    degenerate = ~(np.isfinite(radius) & (radius > 0))
    hit = degenerate | (gap <= radius * (1.0 + 1e-8))
    out: list = [None] * len(vals)
    for b in np.flatnonzero(hit):
        out[b] = ContourHit("degenerate contour radius" if degenerate[b] else
                            f"model eigenvalue within {gap[b]:.3g} of the contour radius {radius[b]:.3g}")
    live = np.flatnonzero(~hit)
    if not len(live):
        return out, None, None
    vals, t, lam0, vecs = vals[live], t[live], lam0[live], [u[live] for u in vecs]
    u, uh = _rotations(couplings, vecs)
    inv = _reduced_inverse(vals, lam0, t)
    g, vs, real, orders = _rs_orders(  # W~ v = U^H (W (U v))
        lambda v: uh(w @ u(v)), inv, t, profile.r_max, lam0, min_orders
    )
    for j, (b, col) in enumerate(zip(live.tolist(), g.T.copy())):
        try:
            ratio, tail = _decay(col, lam0[j], profile)
            if not real[j]:
                raise InvariantViolation(f"the coefficients {col!r} must be real")
            lam = float(lam0[j]) + float(np.sum(col[1:]))
            if abs(lam - lam0[j]) >= radius[b]:
                raise NonConvergent(f"lambda {lam:.12g} outside the contour ({radius[b]:.3g})")
            out[b] = (lam, ratio, tail, int(orders[j]))
        except NonConvergent as exc:
            out[b] = exc
    return out, g, vs


def generic_step(
    state: LevelState,
    profile: ParameterProfile,
    with_projector: bool = True,
    store_orders: int | None = None,
    check_oracle: bool = False,
) -> SeriesResult:
    """Taylor coefficients of the isolated model eigenvalue under the
    in-level perturbation, their sum, and the rank-one projector.

    Each order applies W~ v = U^H (W (U v)) by `_columns`, the route of
    `LevelEvaluator.eigenvalues`, and the series stops by the same rule, so
    lam is `LevelEvaluator.eigenvalue`'s bit for bit; `orders` records where.
    The unit vector sums the order vectors v_0..v_orders.  With
    with_projector it also returns the projector orders G_1..G_n (n =
    store_orders, else orders; ValueError unless 0 <= store_orders <=
    profile.r_max).  Orders past the stop are run for G alone and enter
    neither lam nor the vector.  Each is one product G_r = V~ C_r V~^H:
    V~ = U [v_0 .. v_r] rotates the order vectors by the block eigenbasis
    U, and the Hankel C_r[a,b] = d[r-a-b] (zero for a+b > r) holds the
    inverse norm series d, read off the anti-diagonals of the Gram matrix of
    the v_n.  Terms that cannot reach an entry multiply exact zeros, so the
    support rule holds bit-exactly.  Each stored G_r is a dense d x d
    complex array, d^2 * 16 bytes (20 MB at the level-2 d = 1121), up to
    profile.r_max of them; nothing caps the count.

    With check_oracle, `eigvals_oracle` finds the eigenvalues of the sparse
    section inside the contour, and NotUnique is raised unless there is
    exactly one.  It diagonalizes the coupling components whose Gershgorin
    discs reach the contour, each size as one dense eigvalsh stack, and only
    a component of more than `fiber._DENSE_ROWS` rows by the sparse window,
    whose certified inertia count raises NotUnique before Arnoldi runs.  The
    oracle value is within 8 ulp of a 40-digit reference on the benchmark
    points, far inside the series gates.

    Raises ContourHit when the contour is not clear of the model spectrum and
    NonConvergent when the coefficient magnitudes stop decaying or lam leaves
    the contour.
    """
    if store_orders is not None and not 0 <= store_orders <= profile.r_max:
        raise ValueError(f"store_orders {store_orders} outside [0, r_max = {profile.r_max}]")
    (res,), g, vs = _columns(
        state.w, state.couplings, [u[None] for u in state.vecs], state.block_vals[None],
        np.array([state.target]), np.array([state.lambda0]), [state.contour.radius],
        profile, store_orders or 0,
    )
    if isinstance(res, Exception):
        raise res
    (lam, ratio, tail, orders), g = res, g[:, 0]

    rotate = _rotations(state.couplings, [u[None] for u in state.vecs])[0]  # one U for every column
    v_full = rotate(np.sum(vs[: orders + 1], axis=0))[:, 0]
    v_full = v_full / np.linalg.norm(v_full)

    projector = g_mats = g_norms = None
    if with_projector:
        projector = np.outer(v_full, v_full.conj())
        n_store = orders if store_orders is None else store_orders
        v_ser = np.concatenate(vs[: n_store + 1], axis=1)
        # norm series ||v(eps)||^2 = sum c_n eps^n and its inverse d_ser = 1/c
        gram = np.fliplr(v_ser.conj().T @ v_ser)
        c = np.array([np.trace(gram, offset=n_store - nn) for nn in range(n_store + 1)])
        d_ser = np.zeros(n_store + 1, dtype=complex)
        d_ser[0] = 1.0
        for nn in range(1, n_store + 1):
            d_ser[nn] = -np.sum(c[1 : nn + 1] * d_ser[nn - 1 :: -1][: nn])
        # G_r = sum_{a+b<=r} d_ser[r-a-b] v_a v_b^H in the index basis
        v_rot = rotate(v_ser)
        ab = np.add.outer(np.arange(n_store + 1), np.arange(n_store + 1))
        g_mats = []
        for r in range(1, n_store + 1):
            v_r = v_rot[:, : r + 1]
            hank = np.append(d_ser[r::-1], np.zeros(r))[ab[: r + 1, : r + 1]]
            g_mats.append((v_r @ hank) @ v_r.conj().T)
        g_norms = np.array([np.linalg.norm(g_r) for g_r in g_mats])

    oracle_lambda = oracle_count = None
    if check_oracle:
        mat = FiberMatrix(rows=state.rows, kappa=np.zeros(2), entries=state.section)
        inside = eigvals_oracle(
            mat, state.contour.center, state.contour.radius, cap=profile.eig_cap, count=1
        )
        oracle_count = int(len(inside))
        oracle_lambda = float(inside[0])

    return SeriesResult(
        lam=lam, lambda_base=state.lambda0, g=g, tail_estimate=float(tail),
        converged=True,  # _decay raised NonConvergent otherwise
        contour=state.contour, rows=state.rows, vector=v_full,
        decay_ratio=float(ratio), orders=orders, projector=projector, g_matrices=g_mats,
        g_norms=g_norms, oracle_lambda=oracle_lambda, oracle_count=oracle_count,
    )


# ---------------------------------------------------------------------------
# public level interface
# ---------------------------------------------------------------------------


def _evaluator_at(n: int, point, spec: PotentialSpec, profile: ParameterProfile) -> LevelEvaluator:
    """The level-n evaluator for a point; level 2 uses the geometry at the
    point's own angle."""
    if n not in (1, 2):
        raise ValueError("levels 1 and 2 are constructed here")
    if n == 1:
        return LevelEvaluator(spec, profile)
    kap = np.asarray(point, dtype=float)
    geometry = level2_geometry(math.atan2(kap[1], kap[0]) % (2 * math.pi), spec, profile)
    return LevelEvaluator(spec, profile, geometry)


def build_state(n: int, point, spec: PotentialSpec, profile: ParameterProfile) -> LevelState:
    return _evaluator_at(n, point, spec, profile).state(point)


def eigenvalue_level(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    check_oracle: bool = True,
) -> SeriesResult:
    """Dressed eigenvalue and unit eigenvector, without projector orders."""
    state = build_state(n, point, spec, profile)
    return generic_step(state, profile, with_projector=False, check_oracle=check_oracle)


def projector_level(n: int, point, spec: PotentialSpec, profile: ParameterProfile) -> SeriesResult:
    """Dressed eigenvalue, unit eigenvector and the projector orders of the
    orders the series ran: one dense d x d G_r each, d^2 * 16 bytes, up to
    profile.r_max of them (about 600 MB at level 2)."""
    return generic_step(build_state(n, point, spec, profile), profile)


class LevelEvaluator:
    """The state builder of levels 1 and 2, for repeated evaluation.

    With no geometry it is level 1, the diagonal model on the small box,
    which depends on no angle: one evaluator serves every kappa.  With a
    Level2Geometry it is level 2, for kappa in the small angular window of
    the geometry's base angle.

    Everything but the diagonal is kappa-independent: the rows, the
    coupling components of the blocks, the cross-block W (CSR) and the dense
    coupling of each multi-row component, stacked by size, are built once.
    A block of kappas gets its diagonals, one `eigh` per size stack and its
    aim (target, lambda0, contour radius), where alone the levels differ;
    `state(kappa)` is column 0 of such a block.
    """

    def __init__(
        self,
        spec: PotentialSpec,
        profile: ParameterProfile,
        geometry: Level2Geometry | None = None,
    ):
        self.spec, self.profile, self.geometry = spec, profile, geometry
        if geometry is None:
            self.rows = enumerate_box_array(profile.core_radius)
            labels = np.arange(len(self.rows))
            self.target = len(self.rows) // 2  # the box is symmetric under m -> -m
            # one box holds the core rows and the exclusion-zone box, whose
            # free levels set the contour radius
            radius = max(profile.core_radius, profile.tilde_radius)
            box = enumerate_box_array(radius)
            self._core = row_positions(box, self.rows)
            norms = triple_norm_array(box)
            self._not_free = np.flatnonzero((norms == 0) | (norms > profile.tilde_radius))
        else:
            radius = profile.box_r1
            self.rows = box = geometry.rows
            labels = geometry.block_labels
        # the table's duals, with the zero row's (0, 0) at the middle of the box
        self._duals = np.insert(box_table(radius, spec.params)[2], len(box) // 2, 0, axis=0)
        self.split = _BlockSplit(coupling_matrix(self.rows, spec), labels)

    def _aim(self, kappas: np.ndarray):
        """(diag, model eigenvalues, eigenvector stacks, targets, lambda0,
        contour radii) of each row of a (B, 2) block of kappas."""
        energies = shifted_energies(kappas, self._duals)
        value = np.array([kap @ kap for kap in kappas])
        margin = self.profile.contour_margin
        if self.geometry is not None:
            vals, vecs = self.split.eigh(energies)
            # the dressed eigenvalue of the core block nearest |kappa|^2
            return (energies, vals, vecs) + _aim_nearest(vals, self.geometry.core_positions, value, margin)
        diag = energies[:, self._core]
        energies[:, self._not_free] = math.inf
        gap = np.min(np.abs(energies - value[:, None]), axis=1)
        vals, vecs = self.split.eigh(diag)
        return diag, vals, vecs, np.full(len(kappas), self.target), value, margin * gap

    def state(self, kappa) -> LevelState:
        aimed = self._aim(np.asarray(kappa, dtype=float)[None])
        return _state(self.rows, self.split, *aimed)

    def eigenvalue(self, kappa) -> float:
        """generic_step's lam at kappa, bit for bit: the same series, stopped
        by `_rs_orders`' rule."""
        (lam,) = self.eigenvalues(np.asarray(kappa, dtype=float)[None])
        if isinstance(lam, Exception):
            raise lam
        return lam

    def eigenvalues(self, kappas) -> list:
        """`eigenvalue` at each row of a (B, 2) block of kappas: per row the
        value, or the ContourHit / NonConvergent it raises there.  Both levels
        run generic_step's `_columns` on blocks of _BLOCK_ENTRIES entries
        (columns x d), each column bit-identical to its one-kappa run."""
        kappas = np.asarray(kappas, dtype=float).reshape(-1, 2)
        step = max(1, _BLOCK_ENTRIES // len(self.rows))
        out = []
        for at in range(0, len(kappas), step):
            _, vals, vecs, t, lam0, radius = self._aim(kappas[at : at + step])
            res, _, _ = _columns(self.split.w, self.split.couplings, vecs, vals, t, lam0, radius,
                                 self.profile)
            out += [r if isinstance(r, Exception) else r[0] for r in res]
        return out

    def solve(self, columns) -> list:
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
            vals = self.eigenvalues(np.array(list(asked.values()))) if asked else []
            sent = dict(zip(asked, vals))
        return out


def derivative_probe(
    n: int,
    point,
    spec: PotentialSpec,
    profile: ParameterProfile,
    h: float = 1e-4,
) -> tuple[float, float]:
    """(d lambda/d kappa, d lambda / d phi) by central differences, the four
    probes in one `eigenvalues` call on the point's evaluator (level 2: the
    geometry at the point's own angle); the first probe's rejection is
    raised."""
    kap = np.asarray(point, dtype=float)
    r = float(np.hypot(kap[0], kap[1]))
    phi = math.atan2(kap[1], kap[0])
    ev = _evaluator_at(n, kap, spec, profile)
    probes = [(r + h, phi), (r - h, phi), (r, phi + h), (r, phi - h)]
    pts = np.array([rr * np.array([math.cos(pp), math.sin(pp)]) for rr, pp in probes])
    vals = ev.eigenvalues(pts)
    for v in vals:
        if isinstance(v, Exception):
            raise v
    return (vals[0] - vals[1]) / (2.0 * h), (vals[2] - vals[3]) / (2.0 * h)
