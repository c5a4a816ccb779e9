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


def test_all_lists_exactly_the_names_the_package_imports():
    # __all__ is the public surface: every name __init__ imports is listed
    # once, nothing else is, and each resolves on the package
    import blockineq

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported  # the rule sees the imports there are
    assert sorted(blockineq.__all__) == sorted(imported)
    assert len(set(blockineq.__all__)) == len(blockineq.__all__)
    assert [name for name in blockineq.__all__ if not hasattr(blockineq, name)] == []


_LAPACK_SPECTRA = ("eigvalsh", "eigh", "eigvals", "eig")


def _lapack_spectrum_names(source: str) -> list[int]:
    """Lines of ``source`` that name a LAPACK eigensolver, as an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _LAPACK_SPECTRA:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in _LAPACK_SPECTRA for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_lapack_eigensolvers_are_called_only_in_randgen():
    # every reported eigenvalue comes from the package's Jacobi solvers;
    # random_ppt alone decides its rejection candidates with LAPACK, and its
    # minima reach no report
    found = {
        path.name: _lapack_spectrum_names(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert found.pop("randgen.py")  # the rule sees the call there is
    assert {name: lines for name, lines in found.items() if lines} == {}
    # and it sees such a call wherever one is written
    for line in (
        "np.linalg.eigvalsh(x)",
        "numpy.linalg.eigh(x)",
        "scipy.linalg.eigvals(x)",
        "w = np.linalg.eig(x)[0]",
        "from numpy.linalg import eigh",
        "from scipy.linalg import eigvalsh as solve",
    ):
        assert _lapack_spectrum_names(line) == [1], line


def _names_in(source: str) -> set[str]:
    """Every name ``source`` reads or binds, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_the_solver_crossover_is_named_in_densemat_only():
    # which solver sweeps a d x d matrix is one rule, kept in densemat; other
    # modules ask solves_in_round_robin(d) and never read the number
    found = sorted(
        path.name
        for path in SRC.glob("*.py")
        if "ROUND_ROBIN_MIN_DIM" in _names_in(path.read_text(encoding="utf-8"))
    )
    assert found == ["densemat.py"]
    # and it sees the name wherever it is read
    for line in (
        "from .densemat import ROUND_ROBIN_MIN_DIM",
        "d >= densemat.ROUND_ROBIN_MIN_DIM",
        "import blockineq.densemat as dm; dm.ROUND_ROBIN_MIN_DIM",
    ):
        assert "ROUND_ROBIN_MIN_DIM" in _names_in(line), line


def _isinstance_readers(source: str, cls: str) -> list[str]:
    """The functions of ``source`` that test a value with ``isinstance`` against ``cls``."""
    readers = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and cls in _names_in(ast.unparse(node.args[1]))
            ):
                readers.append(func.name)
    return readers


def test_a_checked_document_is_read_in_check_block_only():
    # a document's block checks are evaluated once, by _check_blocks; the
    # document the checkers are handed carries their reports alone, and one
    # function reads them. No presolved solver state travels with it
    found = {
        path.name: _isinstance_readers(path.read_text(encoding="utf-8"), "_Checked")
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: readers for name, readers in found.items() if readers} == {
        "inequalities.py": ["_check_block"]
    }
    suites = _names_in((SRC / "suites.py").read_text(encoding="utf-8"))
    assert "_check_blocks" in suites and "_presolve" not in suites
    # and it sees such a read wherever one is written
    for line in ("isinstance(a, _Checked)", "isinstance(a, (BlockStack, inequalities._Checked))"):
        assert _isinstance_readers(f"def f(a):\n    return {line}\n", "_Checked") == ["f"], line
