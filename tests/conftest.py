import numpy as np
import pytest

from qp2d.lattice import LatticeIndex, QPParams
from qp2d.perturb import LevelEvaluator
from qp2d.potential import build
from qp2d.profile import make_profile

SQRT2M1 = (-1, 1, 2, 1)  # (a, b, d, c): alpha = sqrt(2) - 1


@pytest.fixture(scope="session")
def params():
    return QPParams(quadratic=SQRT2M1, mu=2.0)


@pytest.fixture(scope="session")
def golden():
    # (sqrt(5) - 1) / 2
    return QPParams(quadratic=(-1, 1, 5, 2), mu=2.0)


@pytest.fixture(scope="session")
def spec(params):
    """Default test potential: two generator pairs, Q = 4."""
    g1 = LatticeIndex((1, 0), (0, 0))
    g2 = LatticeIndex((0, -1), (0, 1))
    return build([(g1, 0.1), (g2, 0.075 + 0.025j)], Q=4, params=params)


@pytest.fixture(scope="session")
def zero_spec(params):
    return build([], Q=4, params=params)


class _Along(LevelEvaluator):
    """A stand-in evaluator: f(cols, radii) gives per entry the value (or a
    rejection) of column cols[i] at radius radii[i], asked at the point
    radii[i] * (1, cols[i])."""

    def __init__(self, f):
        self.f = f

    def eigenvalues(self, kappas):
        return self.f(np.rint(kappas[:, 1] / kappas[:, 0]).astype(int), kappas[:, 0])


@pytest.fixture(scope="session")
def along():
    """The stand-in evaluator class for root-solver tests; its column c runs
    along nu = (1, c)."""
    return _Along


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def profile_at(k: float, **kw):
    return make_profile(k, **kw)


K_GRID = [15.0, 25.0, 40.0, 60.0]
LAMBDA_GRID = [225.0, 625.0, 1600.0, 3600.0]
