"""The package declares and defines only what exists: entry points, package data,
dependencies, and functions, classes and methods that some code names."""

import ast
import importlib
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def project_config():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def normalise(name):
    return re.sub(r"[-_.]+", "_", name).lower()


def test_script_targets_import():
    scripts = project_config()["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} -> {target} is not callable"


def test_package_data_globs_match_files():
    package_data = project_config().get("tool", {}).get("setuptools", {}).get("package-data", {})
    for package, globs in package_data.items():
        base = SRC / package.replace(".", "/")
        for pattern in globs:
            assert any(base.glob(pattern)), f"package-data {package}: {pattern!r} matches no file"


def declared_dependencies():
    return {
        normalise(re.match(r"[A-Za-z0-9_.-]+", req).group())
        for req in project_config()["project"].get("dependencies", [])
    }


def third_party_imports():
    """(file, top-level module, distributions providing it) for each import under src/
    that is neither stdlib nor epispace."""
    dists = packages_distributions()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "epispace":
                    yield path, top, {normalise(d) for d in dists.get(top, [top])}


def test_source_imports_are_stdlib_or_declared():
    declared = declared_dependencies()
    undeclared = {
        f"{path.relative_to(ROOT)}: {top}"
        for path, top, provided_by in third_party_imports()
        if not provided_by & declared
    }
    assert not undeclared, sorted(undeclared)


def test_declared_dependencies_are_imported():
    imported = set().union(*(provided_by for _, _, provided_by in third_party_imports()))
    unused = declared_dependencies() - imported
    assert not unused, sorted(unused)


def referenced_names(tree):
    """(name, enclosing definitions) for every identifier the module reads or imports."""

    def visit(node, enclosing):
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    yield from visit(tree, frozenset())


def source_definitions(trees):
    """(label, node) for each module-level function or class and non-dunder method in src/."""
    for path in sorted((SRC / "epispace").glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def test_every_definition_is_named_outside_itself():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in ("src", "bench", "tests") for path in (ROOT / folder).rglob("*.py")}
    uses: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        for name, enclosing in referenced_names(tree):
            uses.setdefault(name, []).append(enclosing)
    unused = [label for label, node in source_definitions(trees)
              if all(node in enclosing for enclosing in uses.get(node.name, []))]
    assert not unused, unused
