"""pyproject.toml declares only what exists: entry points, package data, dependencies."""

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
