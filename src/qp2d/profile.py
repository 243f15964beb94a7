"""Explicit numeric thresholds for the resonance geometry and the
perturbation engine.

The underlying theory states every cutoff as a power of k with microscopic
exponents; at workstation scale those powers degenerate (a box of radius
k^delta is astronomically large or collapses to a point).  The profile keeps
every threshold as an explicit number.  Its fields are what a caller sets:
k, the shape (tau, mu, delta, delta_star), the box radii and the
construction constants, each with its default in the dataclass.  The
thresholds that are functions of k or of another field (t1, t_star,
pole_window, the disc radii, the kappa windows, ...) are read-only
properties computed from the fields, so they cannot be set and never go
stale: `with_k` changes k alone and every threshold follows.  Trend
assertions over a k-grid hold the shape fixed and move k.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property


@dataclass(frozen=True)
class ParameterProfile:
    """Profile with power-law defaults.

    delta defaults (None) to 1/(40*mu) so that 40*mu*delta = 1 and the
    step-I threshold tau * k^(1 - 40*mu*delta) is k-independent; the excised
    arcs then shrink like 1/k, which preserves the measure trend.  The
    sharper step-II threshold is a fixed fraction of it (a k-power below one
    is not expressible), and all box radii are explicit small integers.

    Every field must be a real number, and an int field an integral one
    (4 and 4.0 are both 4); anything else raises TypeError or ValueError.
    """

    k: float
    tau: float = 0.15
    mu: float = 2.0
    delta: float | None = None
    delta_star: float = 0.5   # step-II threshold as a fraction of t1
    # step-I geometry
    core_radius: int = 2      # small-box radius (the level-1 basis)
    tilde_radius: int = 3     # step-I exclusion-zone radius
    # step-II geometry
    box_r1: int = 4           # level-2 truncation radius
    box_r2: int = 8           # multiscale truncation radius
    m1_isolation: int = 2     # triple-norm isolation defining M1 membership
    chain_radius: int = 2     # chain connectivity for colinear classes
    m1_box_radius: int = 0    # neighborhood radius of isolated-resonance blocks
    body_radius: int = 0      # strong-cluster neighborhood body radius
    pole_bisect_tol: float = 1e-12
    # region map
    cell_black: float = 3.0   # 2D dual-plane cell side for black coloring
    cell_grey: float = 1.5
    n_black: int = 6
    n_grey: int = 2
    black_nbhd: int = 2
    grey_nbhd: int = 1
    white_nbhd: int = 1
    # perturbation engine
    r_max: int = 30           # series orders: the cap of every series, which
                              # stops earlier once later orders cannot move lam
    divergence_ratio: float = 0.75
    contour_margin: float = 0.5
    eig_cap: int = 4096

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "delta" and value is None:
                value = 1.0 / (40.0 * self.mu)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"profile field {f.name} must be a number, not {value!r}")
            if f.type == "int" and value % 1 != 0:
                raise ValueError(f"profile field {f.name} must be integral, not {value!r}")
            object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
        if self.k <= 1:
            raise ValueError("profile needs k > 1")

    def with_k(self, k: float) -> "ParameterProfile":
        """The same profile at a new k; every threshold follows."""
        return replace(self, k=k)

    @cached_property
    def r1_exp(self) -> float:
        """log(box_r1) / log(k): the box_r1 radius as a power of k."""
        return math.log(max(self.box_r1, 2)) / math.log(self.k)

    @cached_property
    def t1(self) -> float:
        """Step-I resonance threshold tau * k^(1 - 40*mu*delta)."""
        return self.tau * self.k ** (1.0 - 40.0 * self.mu * self.delta)

    @cached_property
    def t_star(self) -> float:
        """Sharper resonance threshold beyond the step-I zone."""
        return self.delta_star * self.t1

    @cached_property
    def pole_window(self) -> float:
        """Half-width k^(-2 - 40*mu*delta) of the phi window."""
        return self.k ** (-2.0 - 40.0 * self.mu * self.delta)

    @cached_property
    def o2_disc_radius(self) -> float:
        """Radius of each level-2 pole disc excised from the good set."""
        return 2.0 / self.k**2

    @cached_property
    def interval_width(self) -> float:
        """Width of the phi window searched for level-2 poles; the level-2
        good set is Omega_1 expanded by half of it."""
        return 16.0 / self.k**2

    @cached_property
    def m2_disc_radius(self) -> float:
        """A block with a pole this close to phi0 is a deep resonance (M2)."""
        return 2.0 / self.k**2

    @cached_property
    def simple_threshold(self) -> float:
        """Dual length up to which a support point centres the simple region."""
        return 0.75 / self.k

    @cached_property
    def simple_nbhd(self) -> int:
        """Neighborhood radius of the simple region."""
        return max(2, int(round(math.sqrt(self.box_r1))))

    @cached_property
    def kappa_window_1(self) -> float:
        """Half-width of the level-1 radius window about k."""
        return self.tau * self.k ** -(40.0 * self.mu * self.delta) / 16.0

    @cached_property
    def kappa_window_2(self) -> float:
        """Half-width of the level-2 radius window about the level-1 root."""
        return 0.02 / self.k


# the constructor under the name callers use: make_profile(k, **fields)
make_profile = ParameterProfile
