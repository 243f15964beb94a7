import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qp2d.lattice import QPParams
from qp2d.profile import ParameterProfile, make_profile
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


# the thresholds computed from the fields, in the column order of PINNED
DERIVED = (
    "r1_exp", "t1", "t_star", "pole_window", "o2_disc_radius", "interval_width",
    "m2_disc_radius", "simple_threshold", "kappa_window_1", "kappa_window_2", "simple_nbhd",
)
SHAPES = {
    "default": {},
    "chain": dict(tau=0.05, core_radius=1, tilde_radius=3, box_r1=8),  # verify._chain_setup
}
# float.hex of each threshold (simple_nbhd as an int) when every threshold
# was a stored field filled from the same power-law expressions
PINNED = {
    ("default", 15.0): (
        "0x1.0619dc46d3e15p-1", "0x1.3333333333333p-3", "0x1.3333333333333p-4",
        "0x1.36b06e70b7421p-12", "0x1.23456789abcdfp-7", "0x1.23456789abcdfp-4",
        "0x1.23456789abcdfp-7", "0x1.999999999999ap-5", "0x1.47ae147ae147bp-11",
        "0x1.5d867c3ece2a5p-10", 2,
    ),
    ("default", 25.0): (
        "0x1.b903469050f73p-2", "0x1.3333333333333p-3", "0x1.3333333333333p-4",
        "0x1.0c6f7a0b5ed8dp-14", "0x1.a36e2eb1c432dp-9", "0x1.a36e2eb1c432dp-6",
        "0x1.a36e2eb1c432dp-9", "0x1.eb851eb851eb8p-6", "0x1.89374bc6a7efap-12",
        "0x1.a36e2eb1c432dp-11", 2,
    ),
    ("default", 40.0): (
        "0x1.80d2abffdfee9p-2", "0x1.3333333333333p-3", "0x1.3333333333333p-4",
        "0x1.0624dd2f1a9fcp-16", "0x1.47ae147ae147bp-10", "0x1.47ae147ae147bp-7",
        "0x1.47ae147ae147bp-10", "0x1.3333333333333p-6", "0x1.eb851eb851eb8p-13",
        "0x1.0624dd2f1a9fcp-11", 2,
    ),
    ("default", 60.0): (
        "0x1.5ab6b6386aaa4p-2", "0x1.3333333333333p-3", "0x1.3333333333333p-4",
        "0x1.36b06e70b7421p-18", "0x1.23456789abcdfp-11", "0x1.23456789abcdfp-8",
        "0x1.23456789abcdfp-11", "0x1.999999999999ap-7", "0x1.47ae147ae147bp-13",
        "0x1.5d867c3ece2a5p-12", 2,
    ),
    ("chain", 15.0): (
        "0x1.8926ca6a3dd1fp-1", "0x1.999999999999ap-5", "0x1.999999999999ap-6",
        "0x1.36b06e70b7421p-12", "0x1.23456789abcdfp-7", "0x1.23456789abcdfp-4",
        "0x1.23456789abcdfp-7", "0x1.999999999999ap-5", "0x1.b4e81b4e81b4fp-13",
        "0x1.5d867c3ece2a5p-10", 3,
    ),
    ("chain", 25.0): (
        "0x1.4ac274ec3cb96p-1", "0x1.999999999999ap-5", "0x1.999999999999ap-6",
        "0x1.0c6f7a0b5ed8dp-14", "0x1.a36e2eb1c432dp-9", "0x1.a36e2eb1c432dp-6",
        "0x1.a36e2eb1c432dp-9", "0x1.eb851eb851eb8p-6", "0x1.0624dd2f1a9fcp-13",
        "0x1.a36e2eb1c432dp-11", 3,
    ),
    ("chain", 40.0): (
        "0x1.209e00ffe7f2fp-1", "0x1.999999999999ap-5", "0x1.999999999999ap-6",
        "0x1.0624dd2f1a9fcp-16", "0x1.47ae147ae147bp-10", "0x1.47ae147ae147bp-7",
        "0x1.47ae147ae147bp-10", "0x1.3333333333333p-6", "0x1.47ae147ae147cp-14",
        "0x1.0624dd2f1a9fcp-11", 3,
    ),
    ("chain", 60.0): (
        "0x1.040908aa4fffbp-1", "0x1.999999999999ap-5", "0x1.999999999999ap-6",
        "0x1.36b06e70b7421p-18", "0x1.23456789abcdfp-11", "0x1.23456789abcdfp-8",
        "0x1.23456789abcdfp-11", "0x1.999999999999ap-7", "0x1.b4e81b4e81b4fp-15",
        "0x1.5d867c3ece2a5p-12", 3,
    ),
}


@pytest.mark.parametrize("shape,k", PINNED)
def test_derived_thresholds_are_pinned(shape, k):
    elsewhere = make_profile(60.0 if k == 15.0 else 15.0, **SHAPES[shape])
    elsewhere.t1  # a threshold read before with_k does not follow it
    for p in (make_profile(k, **SHAPES[shape]), elsewhere.with_k(k)):
        got = tuple(v if isinstance(v, int) else v.hex() for v in (getattr(p, n) for n in DERIVED))
        assert got == PINNED[shape, k]


INT_FIELDS = [f for f, t in ParameterProfile.__annotations__.items() if t == "int"]


@pytest.mark.parametrize("name", INT_FIELDS)
def test_int_fields_take_integral_values(name):
    assert type(getattr(make_profile(40.0, **{name: 4.0}), name)) is int
    with pytest.raises(ValueError, match=name):
        make_profile(40.0, **{name: 4.5})
    with pytest.raises(TypeError, match=name):
        make_profile(40.0, **{name: "4"})


@pytest.mark.parametrize(
    "name", ["gamma", "delta0", "pole_scan_points", "quad_nodes", *DERIVED]
)
def test_removed_fields_are_config_errors(name, tmp_path):
    # no computation read the first four (quad_nodes fed only the quadrature
    # cross-check, which starts from a fixed node count), and the derived
    # thresholds are computed from the fields, so an override of one is an
    # unknown field
    with pytest.raises(TypeError):
        make_profile(40.0, **{name: 1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": {"quadratic": [-1, 1, 2, 1]}, "profile": {name: 1}}))
    with pytest.raises(ConfigError, match=name):
        RunConfig.from_json(str(path))


@pytest.mark.parametrize("name", ["n0", "n1"])
def test_removed_qpparams_fields(name):
    # nothing set or read them
    with pytest.raises(TypeError):
        QPParams(quadratic=(-1, 1, 2, 1), mu=2.0, **{name: 1.0})
