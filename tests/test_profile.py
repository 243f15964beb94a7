import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qp2d.profile import make_profile
from qp2d.verify import ConfigError, RunConfig

ks = st.floats(min_value=1.5, max_value=500.0, allow_nan=False)
shape = st.fixed_dictionaries(
    {},
    optional={
        "tau": st.floats(0.01, 1.0),
        "mu": st.floats(0.5, 4.0),
        "delta_star": st.floats(0.1, 1.0),
        "box_r1": st.integers(1, 8),
        "core_radius": st.integers(1, 3),
        "r_max": st.integers(4, 40),
    },
)
# fields that do not depend on k, overridable by keyword
overrides = st.fixed_dictionaries(
    {},
    optional={
        "pole_bisect_tol": st.floats(1e-14, 1e-8),
        "contour_margin": st.floats(0.05, 0.9),
        "divergence_ratio": st.floats(0.3, 0.95),
        "cell_black": st.floats(1.0, 8.0),
        "n_grey": st.integers(1, 6),
        "white_nbhd": st.integers(0, 3),
    },
)


class TestWithK:
    @given(ks, shape, overrides)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, k, kw, extra):
        p = make_profile(k, **kw, **extra)
        assert p.with_k(p.k) == p

    @given(ks, ks, shape, overrides)
    @settings(max_examples=200, deadline=None)
    def test_matches_fresh_profile(self, k, k2, kw, extra):
        p = make_profile(k, **kw, **extra)
        assert p.with_k(k2) == make_profile(k2, **kw, **extra)

    def test_overrides_survive(self):
        p = make_profile(
            40.0,
            pole_bisect_tol=1e-10,
            n_black=9,
            contour_margin=0.3,
            divergence_ratio=0.6,
            cell_black=5.0,
        )
        q = p.with_k(25.0)
        assert q.k == 25.0 and q.t1 == make_profile(25.0).t1
        assert (q.pole_bisect_tol, q.n_black, q.contour_margin, q.divergence_ratio, q.cell_black) == (
            1e-10,
            9,
            0.3,
            0.6,
            5.0,
        )


@pytest.mark.parametrize("name", ["gamma", "delta0", "pole_scan_points", "quad_nodes"])
def test_removed_fields_are_config_errors(name, tmp_path):
    # no computation read these fields (quad_nodes fed only the quadrature
    # cross-check, which starts from a fixed node count), so an override of
    # one is an unknown field
    with pytest.raises(TypeError):
        make_profile(40.0, **{name: 1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": {"quadratic": [-1, 1, 2, 1]}, "profile": {name: 1}}))
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_json(str(path))
