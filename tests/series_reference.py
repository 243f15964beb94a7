"""Test-only series references: caller-assembled states, the dense model
eigenbasis, and the contour-integral quadrature routes.

`contour_coeff_series` and `contour_projector_series` evaluate the defining
circle integrals by adaptive trapezoidal quadrature, an independent route to
the Rayleigh-Schrodinger recursion of `qp2d.perturb`.  They densify W~ once,
from the dense U of `u_full`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from qp2d.perturb import ContourHit, LevelState, _aim_nearest, _BlockSplit, _state
from qp2d.potential import InvariantViolation
from qp2d.profile import ParameterProfile

# Trapezoidal nodes the quadrature routes start from before doubling.
_QUAD_NODES = 64


def contour_points(contour, n: int):
    """(z, dz): n trapezoidal nodes on the circle and their weights."""
    th = 2.0 * math.pi * np.arange(n) / n
    z = contour.center + contour.radius * np.exp(1j * th)
    dz = 1j * contour.radius * np.exp(1j * th) * (2.0 * math.pi / n)
    return z, dz


def u_full(state: LevelState) -> np.ndarray:
    """The model eigenbasis U of a state as a dense array."""
    u = np.eye(state.dim, dtype=complex)
    for (pos, _), vec in zip(state.couplings, state.vecs):
        u[pos[:, :, None], pos[:, None, :]] = vec
    return u


def toy_state(
    h_full: np.ndarray,
    blocks,
    rows,
    target_value: float,
    profile: ParameterProfile,
) -> LevelState:
    """Caller-assembled state over the basis rows (d, 4), for structural
    tests of higher levels; the caller's off-diagonal entries become the CSR
    coupling as they are.  ValueError unless blocks partition
    range(len(h_full))."""
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
    vals, vecs = split.eigh(diag[None])
    aim = _aim_nearest(vals, np.arange(d), np.array([float(target_value)]), profile.contour_margin)
    return _state(np.asarray(rows), split, diag[None], vals, vecs, *aim)


def _w_tilde_dense(state: LevelState) -> np.ndarray:
    """W~ = U^H W U as a dense array, for the quadrature routes."""
    u = u_full(state)
    return u.conj().T @ (state.w @ u)


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
    """g_r by trapezoidal quadrature of the circle integrals, _QUAD_NODES
    nodes doubled until two successive evaluations agree to 1e-12 relative."""
    r_max = profile.r_max if r_max is None else r_max
    _check_contour_clear(state)
    w_tilde = _w_tilde_dense(state)

    def quad(n_nodes: int) -> np.ndarray:
        z, dz = contour_points(state.contour, n_nodes)
        acc = np.zeros(r_max, dtype=complex)
        for zz, dd in zip(z, dz):
            b = w_tilde * (1.0 / (state.block_vals - zz))[None, :]
            p = b
            for r in range(1, r_max + 1):
                acc[r - 1] += np.trace(p) * dd * ((-1) ** r) / (2j * math.pi * r)
                if r < r_max:
                    p = p @ b
        return acc

    nodes = _QUAD_NODES
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
        z, dz = contour_points(state.contour, n_nodes)
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

    nodes = _QUAD_NODES
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
    u = u_full(state)  # rotated back as U m U^H
    return u @ (e0_prev + sum(gs_prev)) @ u.conj().T, [u @ gm @ u.conj().T for gm in gs_prev]
