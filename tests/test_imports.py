"""Intra-package imports live at module level, where a cycle would show at
import time, not inside functions where it shows only on first call."""

import ast
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
