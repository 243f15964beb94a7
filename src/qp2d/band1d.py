"""One-dimensional periodic Schrodinger sub-operator attached to a chain
direction of the potential's support: finite sections
(t + n*p_q)^2 delta + V_{(n-n')q}, Bloch band functions over the
quasimomentum period, and the finite-vs-periodic comparison that underlies
the weak/strong analysis of non-trivial chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiber import assemble
from .lattice import LatticeIndex, dual_vector, primitive_direction, triple_norm
from .potential import PotentialSpec
from .profile import ParameterProfile
from .resonance import ClusterClass, ClusterSubset


class NotGenerator(ValueError):
    """The direction is not a generating vector of the support set."""


@dataclass(frozen=True)
class PeriodicBand:
    direction: LatticeIndex
    p_q: float
    truncation: int
    t_grid: np.ndarray
    bands: np.ndarray  # shape (len(t_grid), n_bands), ascending per row

    def zone_lengths(self, n_bands: int | None = None) -> np.ndarray:
        """Per-band sampled spectral extent max_t - min_t."""
        nb = self.bands.shape[1] if n_bands is None else n_bands
        sel = self.bands[:, :nb]
        return sel.max(axis=0) - sel.min(axis=0)


def export_bands(pb: PeriodicBand, path: str) -> None:
    """Band samples as CSV rows (t, n, lambda)."""
    with open(path, "w") as fh:
        fh.write("t,n,lambda\n")
        for t, row in zip(pb.t_grid, pb.bands):
            for n, lam in enumerate(row):
                fh.write("%.17g,%d,%.17g\n" % (t, n, lam))


def _check_generator(q: LatticeIndex, spec: PotentialSpec) -> None:
    if q not in spec.coeffs or q.is_zero():
        raise NotGenerator(f"{q} is outside the support set")
    if primitive_direction(q) != q:
        raise NotGenerator(f"{q} is not primitive in its direction")


def _section(
    q: LatticeIndex, p_q: float, t: float, ns: np.ndarray, spec: PotentialSpec
) -> np.ndarray:
    """Entries (t + n*p_q)^2 delta + V_{(n-n')q} over the consecutive n in ns.
    The entry above the diagonal is written as conj(V_{dq}), which is
    V_{-dq} exactly for a potential closed under negation."""
    m = len(ns)
    h = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(h, (t + ns * p_q) ** 2)
    for d in range(1, min(m - 1, spec.Q // triple_norm(q)) + 1):
        v = spec.coeffs.get(q.scale(d), 0j)
        if v == 0:
            continue
        i = np.arange(0, m - d)
        h[i + d, i] = v  # row index n1 = n2 + d, entry V_{(n1-n2)q}
        h[i, i + d] = v.conjugate()
    return h


def assemble_periodic(
    q: LatticeIndex, t: float, N: int, spec: PotentialSpec
) -> np.ndarray:
    """(2N+1) x (2N+1) section with entries (t + n*p_q)^2 delta + V_{(n-n')q},
    n from -N to N."""
    _check_generator(q, spec)
    if N < 1:
        raise ValueError("N >= 1 required")
    p_q = dual_vector(q, spec.params).length
    return _section(q, p_q, t, np.arange(-N, N + 1), spec)


def band_function(
    q: LatticeIndex,
    n_bands: int,
    t_grid,
    N: int,
    spec: PotentialSpec,
) -> PeriodicBand:
    """Low band functions sampled over one quasimomentum period [0, p_q)."""
    _check_generator(q, spec)
    p_q = dual_vector(q, spec.params).length
    tg = np.asarray(t_grid, dtype=float)
    rows = []
    for t in tg:
        vals = np.linalg.eigvalsh(assemble_periodic(q, float(t), N, spec))
        rows.append(vals[:n_bands])
    return PeriodicBand(
        direction=q, p_q=p_q, truncation=N, t_grid=tg, bands=np.array(rows)
    )


def _window_matrix(
    cls: ClusterClass, sub: ClusterSubset, t: float, spec: PotentialSpec
) -> np.ndarray:
    ns = np.arange(sub.n_minus, sub.n_plus + 1)
    return _section(cls.direction, cls.p_q, t, ns, spec)


def finite_vs_periodic(
    cls: ClusterClass,
    sub: ClusterSubset,
    t: float,
    k: float,
    spec: PotentialSpec,
    profile: ParameterProfile,
    n_ref: int | None = None,
) -> float:
    """Largest deviation between window-section eigenvalues within
    profile.t_star of the working energy and the spectrum of a much larger
    reference section."""
    if cls.trivial or cls.direction is None:
        raise ValueError("finite_vs_periodic applies to non-trivial chains")
    width = sub.n_plus - sub.n_minus
    n_ref = max(64, 4 * max(width, 1)) if n_ref is None else n_ref
    h_fin = _window_matrix(cls, sub, t, spec)
    fin = np.linalg.eigvalsh(h_fin)
    ref = np.linalg.eigvalsh(assemble_periodic(cls.direction, t, n_ref, spec))
    target = k * k - cls.t_perp**2
    sel = fin[np.abs(fin - target) <= profile.t_star]
    if len(sel) == 0:
        sel = fin[[int(np.argmin(np.abs(fin - target)))]]
    return float(max(np.min(np.abs(ref - lam)) for lam in sel))


def separation_check(
    cls: ClusterClass,
    sub: ClusterSubset,
    kappa,
    spec: PotentialSpec,
) -> float:
    """Entrywise deviation of the window block of H(kappa) from
    (1D section at t_q) + (t_perp)^2 * I; an algebraic identity, so the
    return is rounding noise."""
    if cls.trivial or cls.direction is None:
        raise ValueError("separation_check applies to non-trivial chains")

    kap = np.asarray(kappa, dtype=float)
    q = cls.direction
    dq = dual_vector(q, spec.params)
    nu = dq.p / dq.length
    nu_perp = np.array([-nu[1], nu[0]])
    base = dual_vector(sub.central, spec.params).p + kap
    t_q = float(base @ nu)
    t_perp = float(base @ nu_perp)

    ns = np.arange(sub.n_minus, sub.n_plus + 1)
    members = np.array(sub.central.as_row()) + ns[:, None] * np.array(q.as_row())
    block = assemble(kap, members, spec, spec.params).entries
    model = _window_matrix(cls, sub, t_q, spec) + (t_perp**2) * np.eye(len(members))
    return float(np.max(np.abs(block - model)))
