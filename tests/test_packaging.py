"""The package declares and defines only what exists: entry points, package data,
dependencies, functions, classes and methods that some code names, private ones
that some code other than the tests names, and class fields that some code
reads."""

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


@pytest.fixture(scope="module")
def imports():
    return list(third_party_imports())


def test_source_imports_are_stdlib_or_declared(imports):
    declared = declared_dependencies()
    undeclared = {
        f"{path.relative_to(ROOT)}: {top}"
        for path, top, provided_by in imports
        if not provided_by & declared
    }
    assert not undeclared, sorted(undeclared)


def test_declared_dependencies_are_imported(imports):
    imported = set().union(*(provided_by for _, _, provided_by in imports))
    unused = declared_dependencies() - imported
    assert not unused, sorted(unused)


def enclosed_nodes(tree):
    """(node, enclosing definitions) for every node of the module."""

    def visit(node, enclosing):
        yield node, enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node}
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)

    yield from visit(tree, frozenset())


def identifier(node):
    """The identifier a name, attribute or import alias node reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def referenced_names(tree):
    """(name, enclosing definitions) for every identifier the module reads or imports."""
    for node, enclosing in enclosed_nodes(tree):
        name = identifier(node)
        if name is not None:
            yield name, enclosing


def parse_file(path):
    return ast.parse(path.read_text(), str(path))


@pytest.fixture(scope="module")
def trees():
    """Each module's tree, parsed once for the tests of this file. A test that changes
    a tree parses that file anew: `{**trees, path: parse_file(path)}`."""
    return {path: parse_file(path)
            for folder in ("src", "bench", "tests") for path in (ROOT / folder).rglob("*.py")}


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


def unnamed_definitions(trees, folders=("src", "bench", "tests")):
    """Labels of the definitions in src/ that no code under `folders` names outside
    the definition itself."""
    uses: dict[str, list[frozenset]] = {}
    for path, tree in trees.items():
        if path.relative_to(ROOT).parts[0] in folders:
            for name, enclosing in referenced_names(tree):
                uses.setdefault(name, []).append(enclosing)
    return [label for label, node in source_definitions(trees)
            if all(node in enclosing for enclosing in uses.get(node.name, []))]


def helpers_only_tests_name(trees):
    """Labels of the private (_-prefixed) definitions in src/ that only tests name."""
    return [label for label in unnamed_definitions(trees, ("src", "bench"))
            if label.rpartition(".")[2].startswith("_")]


def test_every_definition_is_named_outside_itself(trees):
    unused = unnamed_definitions(trees)
    assert not unused, unused
    # a private helper that only tests call is test code: it belongs under tests/
    assert helpers_only_tests_name(trees) == []


def test_a_private_helper_only_tests_name_fails_the_check(trees):
    source, test = SRC / "epispace" / "logic.py", ROOT / "tests" / "test_logic.py"
    trees = {**trees, source: parse_file(source), test: parse_file(test)}
    trees[source].body.append(ast.parse("def _decode(): pass").body[0])
    trees[test].body.append(ast.parse("logic._decode()").body[0])
    assert helpers_only_tests_name(trees) == ["logic._decode"]


# Fields that nothing reads yet, each with the ROADMAP item that removes it.
UNREAD_FIELDS = {
    "machine.Capabilities.min_distance": "item 7 (non-rigid δ) reads it in one place",
}


def unread_fields(trees):
    """Labels of the annotated class fields in src/ that no code outside their own class
    reads as an attribute.

    A read is matched by attribute name only, not by the class of the object read: a
    field that shares its name with another class's attribute read elsewhere passes."""
    reads: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        for node, enclosing in enclosed_nodes(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(enclosing)
    unread = set()
    for path in sorted((SRC / "epispace").glob("*.py")):
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and all(cls in enclosing for enclosing in reads.get(item.target.id, []))):
                    unread.add(f"{path.stem}.{cls.name}.{item.target.id}")
    return unread


def test_every_field_is_read_outside_its_class(trees):
    assert unread_fields(trees) == set(UNREAD_FIELDS)


def test_a_new_unread_field_fails_the_check(trees):
    source = SRC / "epispace" / "runs.py"
    trees = {**trees, source: parse_file(source)}
    frame = next(node for node in ast.walk(trees[source])
                 if isinstance(node, ast.ClassDef) and node.name == "InterpretedSystem")
    frame.body.append(ast.parse("spare_partition: list").body[0])
    assert unread_fields(trees) == {*UNREAD_FIELDS, "runs.InterpretedSystem.spare_partition"}


def int_isinstance_calls(trees):
    """`file:line` of each `isinstance(<x>, int)` call in src/: it takes a bool as an int,
    where `space.check_count`, or `type(x) is int` on a hot path, does not."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in sorted((SRC / "epispace").glob("*.py"))
            for node in ast.walk(trees[path])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "int"]


def test_no_int_isinstance_in_source(trees):
    assert int_isinstance_calls(trees) == []


def test_an_int_isinstance_fails_the_check(trees):
    source = SRC / "epispace" / "space.py"
    trees = {**trees, source: parse_file(source)}
    trees[source].body.append(ast.parse("isinstance(n, int)").body[0])
    assert int_isinstance_calls(trees) == ["src/epispace/space.py:1"]


LOGIC = SRC / "epispace" / "logic.py"


def per_position_loops(trees):
    """`file:line` of each `for` statement or comprehension in logic.py whose iterable
    names `config_of`, `lassos` or `points`: a Python loop over a system's positions or
    runs. The labeller works on whole label strings in C (`translate`, `compress`, `map`)
    and labels each distinct block or configuration once."""
    return sorted(f"{LOGIC.relative_to(ROOT)}:{node.iter.lineno}"
                  for node in ast.walk(trees[LOGIC])
                  if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                  and {"config_of", "lassos", "points"} & set(map(identifier, ast.walk(node.iter))))


def test_no_loop_over_positions_in_logic(trees):
    assert per_position_loops(trees) == []


def test_a_loop_over_positions_fails_the_check(trees):
    trees = {**trees, LOGIC: parse_file(LOGIC)}
    trees[LOGIC].body.extend(ast.parse(
        "for lasso in sys.runs.lassos:\n    pass\n"
        "codes = bytes(labels[c] for c in sys.config_of)\n"
        "marks = {p: 1 for p in zip(range(9), points)}").body)
    assert per_position_loops(trees) == [
        "src/epispace/logic.py:1", "src/epispace/logic.py:3", "src/epispace/logic.py:4"]


# What logic.py reads off a system: the interface any system must supply to be labelled.
SYSTEM_VIEW = {"atoms", "atom_labels", "configs", "config_of", "lassos", "length", "points"}


def reads_outside_system_view(trees):
    """`file:line sys.<name>` of each attribute that logic.py reads off a system, named
    `sys` there, and that is not in `SYSTEM_VIEW`."""
    return sorted(f"{LOGIC.relative_to(ROOT)}:{node.lineno} sys.{node.attr}"
                  for node in ast.walk(trees[LOGIC])
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "sys"
                  and node.attr not in SYSTEM_VIEW)


def test_logic_reads_only_the_system_view(trees):
    assert reads_outside_system_view(trees) == []


def test_a_read_outside_the_system_view_fails_the_check(trees):
    trees = {**trees, LOGIC: parse_file(LOGIC)}
    trees[LOGIC].body.extend(ast.parse("sys.runs.lassos\nsys.points.length").body)
    assert reads_outside_system_view(trees) == ["src/epispace/logic.py:1 sys.runs"]


SCHEDULER = SRC / "epispace" / "scheduler.py"


def unchecked_path_builds(trees):
    """`file:line` of each name of `scheduler._checked_path` outside `gen_schedules`, and of
    each `__new__(TimePath)` call outside `_checked_path`. Only these build a `TimePath`
    without its check, so no input from outside the module reaches such a path."""
    found = []
    for path, tree in trees.items():
        for node, enclosing in enclosed_nodes(tree):
            if (isinstance(node, ast.Call) and identifier(node.func) == "__new__"
                    and node.args and identifier(node.args[0]) == "TimePath"):
                allowed_in = "_checked_path"
            elif identifier(node) == "_checked_path":
                allowed_in = "gen_schedules"
            else:
                continue
            if path != SCHEDULER or allowed_in not in {d.name for d in enclosing}:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sorted(found)


def test_paths_skip_their_check_only_inside_gen_schedules(trees):
    assert unchecked_path_builds(trees) == []


def test_an_unchecked_path_elsewhere_fails_the_check(trees):
    source, test = SRC / "epispace" / "runs.py", ROOT / "tests" / "test_scheduler.py"
    trees = {**trees, SCHEDULER: parse_file(SCHEDULER), source: parse_file(source),
             test: parse_file(test)}
    gen = next(node for node in trees[SCHEDULER].body
               if isinstance(node, ast.FunctionDef) and node.name == "gen_schedules")
    gen.body.insert(0, ast.parse("object.__new__(TimePath)").body[0])
    trees[source].body.append(ast.parse("object.__new__(TimePath)").body[0])
    trees[test].body.append(ast.parse("scheduler._checked_path(2, ((0,),))").body[0])
    assert unchecked_path_builds(trees) == [
        "src/epispace/runs.py:1", "src/epispace/scheduler.py:1", "tests/test_scheduler.py:1"]
