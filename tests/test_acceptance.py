"""Acceptance battery: one test per criterion, each printing a pass/fail
line per check at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream, or
`qp verify` for the same battery with a JSONL report. The tests after them
check the battery's clock, its skipping of rejected points, its reference
sums, the seed-2 support-rule state and criterion 1's rate test.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from qp2d import perturb, resonance, verify
from qp2d.lattice import (
    LatticeIndex,
    dual_vector,
    enumerate_box,
    enumerate_box_array,
    triple_norm_array,
)
from qp2d.verify import CRITERIA, RunConfig


@pytest.fixture(scope="module")
def cfg():
    return RunConfig.default()


def _run(label, fn, cfg):
    records = fn(cfg)
    for rec in records:
        rec.name = f"{label}/{rec.name}"
        print(rec.line())
    failed = [r.name for r in records if not r.passed]
    assert not failed, f"failed checks: {failed}"
    # every record times its own work, and its report shows it
    untimed = [r.name for r in records if not json.loads(r.as_json())["runtime"] > 0]
    assert not untimed, f"records without a measured runtime: {untimed}"


@pytest.mark.parametrize(
    "label,fn", CRITERIA, ids=[label for label, _ in CRITERIA]
)
def test_criterion(label, fn, cfg):
    _run(label, fn, cfg)


def test_record_runtime_is_its_own_work():
    """A record's runtime sums the calls timed under its name: work done
    between them, or timed under another name, is not in it."""
    clock = verify._Clock()
    clock.timed("a", time.sleep, 0.01)
    time.sleep(0.2)
    clock.timed("b", time.sleep, 0.05)
    clock.timed("a", time.sleep, 0.01)
    clock.add("a", True, 0.0, 0.0)
    clock.add("b", True, 0.0, 0.0)
    a, b = clock.records
    assert 0.02 <= a.runtime < 0.2
    assert 0.05 <= b.runtime < 0.2


def test_sample_skips_and_counts_only_rejections():
    clock = verify._Clock()

    def contour_hit():
        raise perturb.ContourHit("model eigenvalue on the contour")

    assert clock.sample(contour_hit) is None
    assert clock.rejected == 1
    assert clock.skipped("50 points") == "50 points, 1 rejected"
    with pytest.raises(ZeroDivisionError):
        clock.sample(lambda: 1 / 0)
    assert clock.rejected == 1


def test_second_order_sum_is_the_direct_sum(cfg):
    spec, params = cfg.spec(), cfg.params()
    rng = np.random.default_rng(7)
    for k in cfg.k_grid:
        phi = rng.uniform(0, 2 * math.pi)
        kap = k * np.array([math.cos(phi), math.sin(phi)])
        a2 = float(kap @ kap)
        direct = a2
        for q in enumerate_box(2):
            vq = spec.coeffs.get(q, 0j)
            if not q.is_zero() and vq != 0:
                p_q = dual_vector(q, params).p
                direct += abs(vq) ** 2 / (a2 - float((kap + p_q) @ (kap + p_q)))
        assert verify._second_order(kap, spec, 2, plus_free=True) == direct
        assert verify._second_order(kap, spec, 2) == pytest.approx(direct - a2, rel=1e-12)


def test_outer_shell_is_the_dual_vectors(cfg):
    """Lengths equal `dual_vector`'s; the vectorised arctan2 may round an
    angle differently from math.atan2, by a few ulp of 2 pi at most."""
    params = cfg.params()
    prof = cfg.profile_at(40.0)
    lengths, angles = verify._outer_shell(prof, params)
    rows = enumerate_box_array(prof.box_r1)
    shell = [
        dual_vector(LatticeIndex.from_row(m), params)
        for m in rows[triple_norm_array(rows) > prof.tilde_radius]
    ]
    assert np.array_equal(lengths, [dv.length for dv in shell])
    turn = np.array([dv.angle for dv in shell]) - angles
    assert np.max(np.abs((turn + math.pi) % (2 * math.pi) - math.pi)) <= 1e-14


def test_support_rule_state_at_seed_2():
    """The support-rule point is drawn admissible for the widened profile
    its state uses, so a core row's level stays off the contour."""
    cfg = RunConfig.default()
    cfg.seed = 2
    records = verify.check_series_structure(cfg)
    assert len(records) == 4
    assert all(r.passed for r in records), [r.line() for r in records]


def test_oracle_level1_fails_a_rate_past_divergence(cfg, monkeypatch):
    real = perturb.eigenvalue_level

    def slow_decay(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), decay_ratio=0.8)

    monkeypatch.setattr(perturb, "eigenvalue_level", slow_decay)
    (rec,) = verify.check_oracle_level1(cfg)
    assert not rec.passed
    assert rec.measured == math.inf


def test_radial_derivative_needs_its_points(cfg, monkeypatch):
    """Skipped points do not let the radial-derivative record pass on fewer
    than its 50 points."""
    real = perturb.derivative_probe

    def stalled(*args, h, **kwargs):
        if h == 1e-5:
            raise perturb.NonConvergent("stalled series")
        return real(*args, h=h, **kwargs)

    monkeypatch.setattr(perturb, "derivative_probe", stalled)
    rec = verify.check_derivatives(cfg)[0]
    assert not rec.passed
    assert rec.detail.startswith("0 points, ") and rec.detail.endswith(" rejected")


@pytest.fixture()
def empty_cfg():
    """The default config at tau = 2: its 8 tau good set is empty at every k
    of the grid."""
    cfg = RunConfig.default()
    cfg.profile = {"tau": 2.0}
    return cfg


def test_criterion_without_points_fails_its_records(empty_cfg):
    """Criterion 2 samples no point: both records fail, and the hierarchy
    record, which timed no work, reads runtime 0.0."""
    oracle, hier = verify.check_oracle_level2(empty_cfg)
    assert not oracle.passed and oracle.detail.startswith("0 points")
    assert not hier.passed and hier.runtime == 0.0


def test_single_draw_on_an_empty_good_set_is_a_rejection(empty_cfg):
    with pytest.raises(resonance.ResonantBase, match="k=60 with tau factor 8"):
        verify.check_eigenfunction(empty_cfg)
