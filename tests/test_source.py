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


# operator methods that only their operator calls
OPERATOR_METHODS = {"__mul__", "__matmul__"}


def used_names(node):
    """Every name and attribute that a node's code refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_package_defines_no_operator_method():
    # the package multiplies integers everywhere, so the reachability test
    # below could not tell a dead operator method from a live one
    found = [
        where
        for where, node in package_statements()
        if isinstance(node, ast.FunctionDef) and node.name in OPERATOR_METHODS
    ]
    assert found == []


def test_every_definition_is_reachable():
    # a function, class or method that neither `heawood` (cli.main), the
    # scripts, the benchmark, `__all__` nor the package's module-level code
    # reaches is dead code or a test oracle, and oracles live in tests/
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    reached = {"main"}
    for folder in ("scripts", "perfbench"):
        for path in sorted((PACKAGE.parents[1] / folder).glob("**/*.py")):
            reached |= used_names(ast.parse(path.read_text(), str(path)))
    definitions = []  # (where, node, owning class or None)
    for path in sorted(PACKAGE.glob("**/*.py")):
        module = path.relative_to(PACKAGE)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                definitions.append((f"{module}:{node.lineno} {node.name}", node, None))
                definitions += [
                    (f"{module}:{item.lineno} {node.name}.{item.name}", item, node)
                    for item in node.body
                    if isinstance(item, functions)
                ]
            elif isinstance(node, functions):
                definitions.append((f"{module}:{node.lineno} {node.name}", node, None))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= used_names(node)
                if module.name == "__init__.py" and "__all__" in used_names(node):
                    reached |= {e.value for e in node.value.elts}

    def is_reached(node, owner):
        # a method is reached when its class is and something uses its
        # name, or always if it is a dunder method
        if owner is None:
            return node.name in reached
        dunder = node.name.startswith("__") and node.name.endswith("__")
        return owner.name in reached and (dunder or node.name in reached)

    live = set()
    grew = True
    while grew:
        grew = False
        for where, node, owner in definitions:
            if where in live or not is_reached(node, owner):
                continue
            live.add(where)
            grew = True
            if isinstance(node, ast.ClassDef):
                # the class's bases, decorators and attributes; its methods
                # count one by one
                for part in node.bases + node.decorator_list + node.body:
                    if not isinstance(part, functions):
                        reached |= used_names(part)
            else:
                reached |= used_names(node)
    dead = [
        where
        for where, _, owner in definitions
        if where not in live and (owner is None or owner.name in reached)
    ]
    assert dead == []


def test_the_public_surface_is_twelve_names_that_resolve():
    # a name leaves heawood_kit.__all__ only with a declared edit here
    import heawood_kit

    assert heawood_kit.__all__ == [
        "IntMatrix",
        "KSignature",
        "QuotientGraph",
        "SimplicialComplex",
        "build_general_quotient",
        "build_heawood_graph",
        "build_mk",
        "build_torus_complex",
        "closed_form_dk",
        "dual_graph",
        "fvector_formula",
        "quotient_order_general",
    ]
    assert [name for name in heawood_kit.__all__ if not hasattr(heawood_kit, name)] == []


CACHE_DECORATORS = {"cache", "lru_cache"}


def test_the_package_uses_no_cache_decorator():
    # a value-keyed cache lets a process that repeats a call skip work that
    # a one-command process always does, so what a quotient derives is kept
    # on the object that owns it, with cached_property
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        found += [
            f"{path.relative_to(PACKAGE)} {name}"
            for name in sorted(CACHE_DECORATORS & (used_names(tree) | imported))
        ]
    assert found == []


def test_no_call_passes_the_ignored_delta_flag():
    # KSignature accepts delta only for callers written when zero entries
    # needed it; no call here passes it, by keyword or as KSignature's
    # second argument, so the keyword can go with its last outside caller
    root = PACKAGE.parents[1]
    sources = [
        path
        for folder in ("src", "tests", "scripts")
        for path in sorted((root / folder).glob("**/*.py"))
    ]
    assert len(sources) > 10
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and (
            any(keyword.arg == "delta" for keyword in node.keywords)
            or ("KSignature" in used_names(node.func) and len(node.args) > 1)
        )
    ]
    assert found == []


def test_only_limits_sets_limits_or_reads_the_environment():
    # every limit default and the one reader of HEAWOOD_CAP live in
    # limits.py, so a cap cannot be decided in two places
    found = []
    for path in sorted(PACKAGE.glob("**/*.py")):
        if path.name == "limits.py":
            continue
        module = path.relative_to(PACKAGE)
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found += [
                f"{module}:{node.lineno} {name}"
                for name in sorted(used_names(ast.Module(targets, [])))
                if name.endswith(("_CAP", "_BUDGET"))
            ]
        found += [f"{module} {name}" for name in {"environ", "getenv"} & used_names(tree)]
    assert found == []


def test_only_the_command_line_checks_a_vertex_cap():
    # limits.py defines the one cap check and cli.py alone runs it, on
    # closed-form counts before it builds, so no library function or
    # script decides a vertex cap of its own
    root = PACKAGE.parents[1]
    sources = sorted(PACKAGE.glob("**/*.py")) + sorted((root / "scripts").glob("**/*.py"))
    found = []
    for path in sources:
        if path.name == "limits.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = used_names(tree) | {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        found += [
            f"{path.relative_to(root)} {name}"
            for name in sorted(names & {"check_caps", "CapExceeded", "VERTEX_CAPS"})
        ]
    assert found == ["src/heawood_kit/cli.py CapExceeded", "src/heawood_kit/cli.py check_caps"]
    limits = ast.parse((PACKAGE / "limits.py").read_text())
    assert "check_caps" in {
        node.name for node in limits.body if isinstance(node, ast.FunctionDef)
    }


def test_only_limits_spells_the_schema_tag():
    # the package and the scripts take the tag from limits.SCHEMA, so a
    # new schema version is set in one place
    from heawood_kit.limits import SCHEMA

    root = PACKAGE.parents[1]
    sources = sorted(PACKAGE.glob("**/*.py")) + sorted((root / "scripts").glob("**/*.py"))
    found = [
        str(path.relative_to(root))
        for path in sources
        if path.name != "limits.py" and SCHEMA in path.read_text()
    ]
    assert found == []
    assert SCHEMA in (PACKAGE / "limits.py").read_text()
