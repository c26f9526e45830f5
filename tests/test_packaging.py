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


def test_source_imports_are_stdlib_or_declared():
    declared = {
        normalise(re.match(r"[A-Za-z0-9_.-]+", req).group())
        for req in project_config()["project"].get("dependencies", [])
    }
    dists = packages_distributions()
    undeclared = set()
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
                if top in sys.stdlib_module_names or top == "epispace":
                    continue
                if not {normalise(d) for d in dists.get(top, [top])} & declared:
                    undeclared.add(f"{path.relative_to(ROOT)}: {top}")
    assert not undeclared, sorted(undeclared)
