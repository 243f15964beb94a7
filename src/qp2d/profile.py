"""Explicit numeric thresholds for the resonance geometry and the
perturbation engine.

The underlying theory states every cutoff as a power of k with microscopic
exponents; at workstation scale those powers degenerate (a box of radius
k^delta is astronomically large or collapses to a point).  The profile keeps
every threshold as an explicit number.  `make_profile` generates them from
(k, delta, tau, mu, ...) with the power-law shapes where those stay sane and
with recorded clamps where they do not; callers may override any field.
Trend assertions over a k-grid hold the exponents fixed and regenerate the
numbers per k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ParameterProfile:
    k: float
    tau: float
    mu: float
    # recorded exponents / shape parameters
    delta: float
    delta_star: float      # step-II threshold as a fraction of t1
    r1_exp: float
    # step-I geometry
    t1: float              # resonance threshold tau * k^(1 - 40*mu*delta)
    core_radius: int       # small-box radius (the level-1 basis)
    tilde_radius: int      # step-I exclusion-zone radius
    # step-II geometry
    t_star: float          # sharper resonance threshold beyond the zone
    box_r1: int            # level-2 truncation radius
    box_r2: int            # multiscale truncation radius
    m1_isolation: int      # triple-norm isolation defining M1 membership
    chain_radius: int      # chain connectivity for colinear classes
    m1_box_radius: int     # neighborhood radius of isolated-resonance blocks
    body_radius: int       # strong-cluster neighborhood body radius
    pole_window: float     # half-width k^(-2-40*mu*delta) of the phi window
    pole_bisect_tol: float
    # level-2 admissibility
    o2_disc_radius: float
    interval_width: float
    m2_disc_radius: float
    # region map
    simple_threshold: float
    simple_nbhd: int
    cell_black: float      # 2D dual-plane cell side for black coloring
    cell_grey: float
    n_black: int
    n_grey: int
    black_nbhd: int
    grey_nbhd: int
    white_nbhd: int
    # perturbation engine
    r_max: int             # series orders: LevelEvaluator's cap (its series stop
                           # earlier), the exact count run by generic_step
    divergence_ratio: float
    kappa_window_1: float
    kappa_window_2: float
    contour_margin: float
    eig_cap: int

    def with_k(self, k: float) -> "ParameterProfile":
        """Regenerate the k-power thresholds at a new k, same exponents; every
        other field, overrides included, is kept."""
        return replace(
            self,
            **_k_dependent(k, self.tau, self.mu, self.delta, self.delta_star, self.box_r1),
        )


def _k_dependent(
    k: float, tau: float, mu: float, delta: float, delta_star: float, box_r1: int
) -> dict:
    """The profile fields that are functions of k."""
    if k <= 1:
        raise ValueError("profile needs k > 1")
    fourty = 40.0 * mu * delta
    t1 = tau * k ** (1.0 - fourty)
    return dict(
        k=float(k),
        r1_exp=math.log(max(box_r1, 2)) / math.log(k),
        t1=t1,
        t_star=delta_star * t1,
        pole_window=k ** (-2.0 - fourty),
        o2_disc_radius=2.0 / k**2,
        interval_width=16.0 / k**2,
        m2_disc_radius=2.0 / k**2,
        simple_threshold=0.75 / k,
        kappa_window_1=tau * k**(-fourty) / 16.0,
        kappa_window_2=0.02 / k,
    )


def make_profile(
    k: float,
    *,
    tau: float = 0.15,
    mu: float = 2.0,
    delta: float | None = None,
    delta_star: float = 0.5,
    core_radius: int = 2,
    tilde_radius: int = 3,
    box_r1: int = 4,
    box_r2: int = 8,
    m1_isolation: int = 2,
    chain_radius: int = 2,
    m1_box_radius: int = 0,
    body_radius: int = 0,
    r_max: int = 30,
    eig_cap: int = 4096,
    **overrides,
) -> ParameterProfile:
    """Profile with power-law defaults.

    delta defaults to 1/(40*mu) so that 40*mu*delta = 1 and the step-I
    threshold tau * k^(1 - 40*mu*delta) is k-independent; the excised arcs
    then shrink like 1/k, which preserves the measure trend.  The sharper
    step-II threshold is a fixed fraction of it (a k-power below one is not
    expressible), and all box radii are explicit small integers.
    """
    if delta is None:
        delta = 1.0 / (40.0 * mu)
    defaults = dict(
        tau=float(tau),
        mu=float(mu),
        delta=float(delta),
        delta_star=float(delta_star),
        core_radius=int(core_radius),
        tilde_radius=int(tilde_radius),
        box_r1=int(box_r1),
        box_r2=int(box_r2),
        m1_isolation=int(m1_isolation),
        chain_radius=int(chain_radius),
        m1_box_radius=int(m1_box_radius),
        body_radius=int(body_radius),
        pole_bisect_tol=1e-12,
        simple_nbhd=max(2, int(round(math.sqrt(box_r1)))),
        cell_black=3.0,
        cell_grey=1.5,
        n_black=6,
        n_grey=2,
        black_nbhd=2,
        grey_nbhd=1,
        white_nbhd=1,
        r_max=int(r_max),
        divergence_ratio=0.75,
        contour_margin=0.5,
        eig_cap=int(eig_cap),
        **_k_dependent(k, tau, mu, delta, delta_star, box_r1),
    )
    defaults.update(overrides)
    return ParameterProfile(**defaults)
