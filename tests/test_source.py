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


def _cache_decorator(node: ast.expr) -> bool:
    """Whether ``node`` is ``functools.lru_cache``/``cache``, bare, called, or by its module."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


def test_caches_in_the_package_are_keyed_on_integers_and_flags():
    # a cache keyed on matrix data (its bytes, say) would make a report
    # depend on what the process solved before; a cache may only hold what
    # a few integers or flags determine
    paths = sorted(SRC.glob("*.py"))
    cached, found = [], []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not any(_cache_decorator(dec) for dec in node.decorator_list):
                continue
            cached.append(node.name)
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if args.vararg or args.kwarg or not all(
                isinstance(p.annotation, ast.Name) and p.annotation.id in ("int", "bool")
                for p in params
            ):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert cached  # the rule sees the caches there are
    assert found == []


def test_every_private_helper_in_the_package_is_used():
    # a module-level private function or class that no code in src/ names
    # (by a call, an attribute or an import) is dead, as a helper is that a
    # refactor made unnecessary and left behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = [
        (name, node.name)
        for name, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert private  # the rule sees the helpers there are
    assert [f"{name} {helper}" for name, helper in private if helper not in used] == []
