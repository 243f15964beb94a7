"""Guards in the library are raises, and catches are typed: `python -O`
drops an `assert`, and a catch-all would turn a bug into a curve hole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qp2d"

CATCH_ALL = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None) for k in kinds}


def _violations(name: str, source: str):
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Assert):
            yield f"{name}:{node.lineno}: assert"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield f"{name}:{node.lineno}: bare except"
            elif _caught_names(node) & CATCH_ALL:
                yield f"{name}:{node.lineno}: catch-all except"


def test_no_assert_or_catch_all_in_the_library():
    found = [v for p in sorted(SRC.glob("*.py")) for v in _violations(p.name, p.read_text())]
    assert SRC.is_dir() and not found, found


def test_the_check_sees_each_kind():
    source = "\n".join([
        "assert x",
        "try:\n    f()\nexcept:\n    pass",
        "try:\n    f()\nexcept ValueError:\n    pass",
        "try:\n    f()\nexcept (ValueError, builtins.BaseException):\n    pass",
        "try:\n    f()\nexcept Exception as exc:\n    raise exc",
    ])
    kinds = [v.split(": ")[1] for v in _violations("probe.py", source)]
    assert kinds == ["assert", "bare except", "catch-all except", "catch-all except"]


# modules whose point sets are (N, 4) rows: no LatticeIndex round trips
ROW_MODULES = ("resonance.py", "multiscale.py", "perturb.py", "isoenergetic.py")
ROUND_TRIPS = {"indices_to_array", "array_to_indices", "box_indices"}


def _round_trips(name: str, source: str):
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in ROUND_TRIPS:
                yield f"{name}:{node.lineno}: {called}"


def test_no_index_round_trips_in_the_row_modules():
    found = [v for n in ROW_MODULES for v in _round_trips(n, (SRC / n).read_text())]
    assert all((SRC / n).is_file() for n in ROW_MODULES) and not found, found


def test_the_round_trip_check_sees_each_call():
    source = "\n".join([
        "rows = indices_to_array(points)",
        "points = lattice.array_to_indices(rows)",
        "box = box_indices(4)",
        "rows = enumerate_box_array(4)",
    ])
    calls = [v.split(": ")[1] for v in _round_trips("probe.py", source)]
    assert calls == ["indices_to_array", "array_to_indices", "box_indices"]
