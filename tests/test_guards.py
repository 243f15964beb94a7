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
