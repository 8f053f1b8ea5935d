"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heawood_kit"


def package_statements():
    """(file:line, node) for every statement of the package source."""
    modules = sorted(PACKAGE.glob("**/*.py"))
    assert modules
    return [
        (f"{path.relative_to(PACKAGE)}:{node.lineno}", node)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.stmt)
    ]


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so no check may rely on one
    found = [
        where for where, node in package_statements() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_does_not_import_dataclasses():
    # dataclasses pulls in inspect, ast and dis, which every command would
    # compile at start; records are NamedTuples or small explicit classes
    found = [
        where
        for where, node in package_statements()
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and "dataclasses" in {a.name for a in node.names})
    ]
    assert found == []


def test_every_definition_is_named_elsewhere():
    # a function, class or method nothing refers to is dead code
    root = PACKAGE.parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "scripts")
        for path in sorted((root / folder).glob("**/*.py"))
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    dead = [
        f"{path.relative_to(PACKAGE)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    ]
    assert dead == []
