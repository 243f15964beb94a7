"""Acceptance battery: one test per criterion, each printing a pass/fail
line per check at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream, or
`qp verify` for the same battery with a JSONL report.
"""

import json

import pytest

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
