"""Smoke tests of the benchmark itself: every workload at its smoke size
passes its output gate and prints the metrics BENCHMARK.json names.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import spans  # noqa: E402
from workloads import REJECTIONS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace=0, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_passes_gate(workload):
    proc = run_bench(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_layers():
    proc = run_bench("curve-l2", trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        spans.per_layer_names()
    )
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in spans.per_layer_names().items()
    }
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["isoenergetic.trace_curve.calls"]["value"] >= 1
    assert metrics["fiber.eigvals_oracle.calls"]["value"] == 0


def test_wraps_every_resolving_name():
    import qp2d
    from qp2d import fiber, multiscale, perturb, resonance

    before = (
        resonance.block_poles,
        fiber.eigvals_oracle,
        perturb.LevelEvaluator.__dict__["eigenvalue"],
    )
    rec = spans.Recorder(REJECTIONS)
    rec.install()
    try:
        assert multiscale.block_poles is resonance.block_poles is not before[0]
        assert perturb.eigvals_oracle is fiber.eigvals_oracle is not before[1]
        assert qp2d.assemble is fiber.assemble is perturb.assemble
        assert perturb.LevelEvaluator.__dict__["eigenvalue"] is not before[2]
    finally:
        rec.uninstall()
    assert multiscale.block_poles is resonance.block_poles is before[0]
    assert perturb.eigvals_oracle is fiber.eigvals_oracle is before[1]
    assert perturb.LevelEvaluator.__dict__["eigenvalue"] is before[2]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("curve-l2", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
