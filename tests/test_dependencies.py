"""Every import in the package is standard library or a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        specs = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | _declared()
    assert "numpy" in allowed
    sources = sorted((ROOT / "src" / "specgap").glob("*.py"))
    assert sources
    found = {(path.name, name) for path in sources for name in _absolute_imports(path)}
    assert found, "no absolute imports found"
    stray = sorted((f, name) for f, name in found if name.split(".")[0].lower() not in allowed)
    assert not stray, f"imports outside the standard library and pyproject dependencies: {stray}"


def test_the_oracle_imports_nothing_from_the_package():
    # the oracle's routes share no code with the ladder they cross-check
    path = ROOT / "src" / "specgap" / "oracle.py"
    relative = [node.module for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    absolute = [name for name in _absolute_imports(path) if name.split(".")[0] == "specgap"]
    assert not relative and not absolute, relative + absolute


def test_the_ladder_forms_indices_in_one_loop_and_counts_in_one_place():
    # one function forms every ladder index, exact or on residues, and
    # _drive alone bumps the product counter
    tree = ast.parse((ROOT / "src" / "specgap" / "ladder.py").read_text(encoding="utf-8"))

    def callers(matches):
        return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.Call) and matches(node.func)}

    step = callers(lambda f: isinstance(f, ast.Name) and f.id == "_step")
    bump = callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "bump")
    assert len(step) == 1, step
    assert bump == {"_drive"}, bump


def test_the_level_loop_writes_every_product_into_a_buffer():
    # a fresh (P, n, n) product costs page faults at every level; the level
    # loop and every function of ladder.py it reaches write theirs with out=
    tree = ast.parse((ROOT / "src" / "specgap" / "ladder.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}

    def called(fn):
        return {node.func.id for node in ast.walk(fn)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions}

    loops = {name for name, fn in functions.items() if "_step" in called(fn)}
    assert len(loops) == 1, loops
    reached, todo = set(), list(loops)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(called(functions[name]))
    products = []
    for name in sorted(reached):
        for node in ast.walk(functions[name]):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)), name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("matmul", "dot"):
                products.append((name, node.func.attr, {k.arg for k in node.keywords}))
    assert products and all(attr == "matmul" and "out" in keys for _, attr, keys in products), products
