"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blockineq"


def test_no_assert_statements_in_the_package():
    # invariants in src/ are typed errors: `python -O` strips an assert, and
    # an AssertionError would exit 4 (a defect) where a failed self-check
    # must exit 3
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
