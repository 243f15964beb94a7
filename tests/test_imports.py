"""Intra-package imports live at module level, where a cycle would show at
import time, not inside functions where it shows only on first call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qp2d"

# The benchmark traces appendix4_count by its module path resonance.* and
# its perturb import stays deferred: perturb imports resonance.
ALLOWED = {("resonance.py", "appendix4_count")}


def _nested_relative_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                yield fn.name, node.lineno


def test_no_relative_import_inside_functions():
    # keyed by line: a nested function is walked with its parent too
    found = {
        f"{path.name}:{line}": name
        for path in SRC.glob("*.py")
        for name, line in _nested_relative_imports(path)
        if (path.name, name) not in ALLOWED
    }
    assert SRC.is_dir() and not found, found


def test_all_exports_resolve():
    # a removed function must leave no stale name in the package's __all__
    import qp2d

    missing = [name for name in qp2d.__all__ if not hasattr(qp2d, name)]
    assert not missing, missing


def _imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


# Modules no qp2d module may load, directly or through another import:
# lattice.components is the one connected-components helper, integer lookups
# and a sort sweep do the neighbour searches, and scipy.sparse.linalg (loaded
# only by fiber._sparse_window) is the one scipy solver package.  Loading
# scipy.spatial brings scipy.linalg and scipy.special with it.
FORBIDDEN = ("scipy.sparse.csgraph", "scipy.spatial", "scipy.linalg", "scipy.special")


def _forbidden(name: str) -> bool:
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


def test_no_heavy_scipy_import():
    found = {
        f"{path.name}: {name}"
        for path in SRC.glob("*.py")
        for name in _imported_modules(path)
        if _forbidden(name)
    }
    assert SRC.is_dir() and not found, found


def test_pipeline_leaves_heavy_scipy_unloaded():
    # no indirect import either: every module, a level-2 curve (every layer
    # but the oracle and the projector), the region map and the cluster
    # separation
    script = """
import math, pkgutil, sys
import numpy as np
import qp2d
for mod in pkgutil.iter_modules(qp2d.__path__):
    __import__("qp2d." + mod.name)
from qp2d.isoenergetic import trace_curve
from qp2d.lattice import (LatticeIndex, QPParams, best_rational, cluster_decompose,
                          enumerate_box_array)
from qp2d.multiscale import build_m2set, region_map
from qp2d.potential import build
from qp2d.profile import make_profile
from qp2d.resonance import build_omega1

params = QPParams(quadratic=(-1, 1, 2, 1), mu=2.0)
spec = build([(LatticeIndex((1, 0), (0, 0)), 0.1),
              (LatticeIndex((0, -1), (0, 1)), 0.075 + 0.025j)], Q=4, params=params)
grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
prof = make_profile(40.0)
curve = trace_curve(2, 1600.0, grid, spec, prof)
assert curve.admissible_samples
omega = build_omega1(40.0, prof, params, 8.0)
phi = next(p for p in np.linspace(0, 2 * math.pi, 64, endpoint=False) if omega.contains(p))
m2, decomp = build_m2set(phi, 40.0, None, spec, prof)
region_map(m2, 40.0, spec, prof, decomp=decomp)
cells = cluster_decompose(enumerate_box_array(4), best_rational(params, 2.0, 1.0), params)
assert len(cells.clusters) > 1
print(*sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = sorted(filter(_forbidden, out.stdout.split()))
    assert not loaded, loaded
