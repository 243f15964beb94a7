"""Spectral toolkit for the two-dimensional quasi-periodic Schrodinger
operator: fiber-matrix sections with an oracle that diagonalizes them one
coupling component at a time, resonance-set geometry, contour-integral
eigenvalue and projector series, isoenergetic curve tracing, momentum-space
multiscale regions, and approximate eigenfunctions.
"""

from .lattice import (
    ApproxPair,
    LatticeIndex,
    QPParams,
    ZERO_INDEX,
    best_rational,
    cluster_decompose,
    count_short_vectors,
    dual_vector,
    enumerate_box,
    triple_norm,
)
from .potential import PotentialSpec, build, coefficient, evaluate
from .profile import ParameterProfile, make_profile
from .fiber import FiberMatrix, assemble

__all__ = [
    "ApproxPair",
    "LatticeIndex",
    "QPParams",
    "ZERO_INDEX",
    "best_rational",
    "cluster_decompose",
    "count_short_vectors",
    "dual_vector",
    "enumerate_box",
    "triple_norm",
    "PotentialSpec",
    "build",
    "coefficient",
    "evaluate",
    "ParameterProfile",
    "make_profile",
    "FiberMatrix",
    "assemble",
]

__version__ = "0.1.0"
