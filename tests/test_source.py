"""Checks on the package source itself."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import opencob

SOURCE = Path(opencob.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "snf.py" for path in paths)
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def outside_imports(tree: ast.AST) -> list:
    """The top-level modules that ``tree`` imports from neither the standard
    library nor the package itself, with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue          # relative imports stay inside the package
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "opencob":
                found.append((top, node.lineno))
    return found


def test_outside_imports_are_found():
    tree = ast.parse("import os.path\nfrom . import snf\nfrom opencob import gluing\n"
                     "def f():\n    import numpy.linalg\n    from sympy import Matrix\n")
    assert outside_imports(tree) == [("numpy", 5), ("sympy", 6)]


def test_package_is_stdlib_only():
    # pyproject.toml declares no runtime dependencies
    paths = sorted(SOURCE.glob("*.py"))
    assert any(path.name == "snf.py" for path in paths)
    found = [f"{path.name}:{line} imports {top}"
             for path in paths
             for top, line in outside_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"imports outside the standard library: {found}"


# Names that no package module uses, each with a file outside the package
# that does: the README, a demo or the benchmark.  ``det_bareiss`` and
# ``solve_int`` are the tests' independent oracle and spans that the
# benchmark wraps; the package itself decides everything through ``smith``.
ENTRY_POINTS = {
    "annulus": "README.md",
    "compose": "perfbench/test_checks.py",
    "det_bareiss": "perfbench/spans.py",
    "disjoint_union": "demos/04_composition_theorem.py",
    "dump": "demos/07_homology_oracle.py",
    "identity_cobordism": "README.md",
    "solve_int": "perfbench/spans.py",
}
REPO = Path(__file__).resolve().parent.parent


def references(tree: ast.AST, names) -> list:
    """The uses of ``names`` in ``tree`` (as a name, an attribute or an
    import), with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in names:
            found.append((name, node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_references_are_found():
    tree = ast.parse("from .snf import det_bareiss as d\nimport opencob.snf as s\n"
                     "x = s.solve_int(m, v)\n\"det_bareiss\"\n")
    assert references(tree, {"det_bareiss", "solve_int"}) == [
        ("det_bareiss", 1), ("solve_int", 3)]


def definitions(tree: ast.AST) -> list:
    """The module-level functions and classes of ``tree`` and the methods of
    its classes, apart from the dunders that Python calls itself, with their
    line numbers and whether each is a method."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(sub.name, sub.lineno, True) for sub in node.body
                      if isinstance(sub, ast.FunctionDef)
                      and not (sub.name.startswith("__") and sub.name.endswith("__"))]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, False))
    return found


def unreferenced(modules: dict) -> list:
    """The definitions in ``modules`` (file name -> tree) that no module
    other than ``__init__.py`` references, as (file, line, name).  A method
    counts as used only when it is reached as an attribute: a parameter or
    a local variable of the same name does not call it."""
    defined = [(path, line, name, method) for path, tree in modules.items()
               for name, line, method in definitions(tree)]
    names = {name for _, _, name, _ in defined}
    users = [tree for path, tree in modules.items() if path != "__init__.py"]
    used = {name for tree in users for name, _ in references(tree, names)}
    attributes = {node.attr for tree in users for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    return sorted((path, line, name) for path, line, name, method in defined
                  if name not in (attributes if method else used))


def test_unreferenced_definitions_are_found():
    modules = {
        "__init__.py": ast.parse("from .a import only_exported, Kept\n"),
        "a.py": ast.parse("class Kept:\n    def __eq__(self, o): pass\n"
                          "    def used(self): pass\n    def unused(self): pass\n"
                          "    def shadowed(self): pass\n"
                          "def only_exported(): pass\ndef helper(): pass\n"
                          "def caller(shadowed=True):\n    def nested(): pass\n"
                          "    return helper() + Kept().used() + shadowed\n"),
        "b.py": ast.parse("from .a import caller\n"),
    }
    assert unreferenced(modules) == [("a.py", 4, "unused"),
                                     ("a.py", 5, "shadowed"),
                                     ("a.py", 6, "only_exported")]


def test_no_dead_api():
    # every function, class and method is used by the package, or is an
    # entry point that a file outside it uses; an entry point the package
    # uses is no longer one
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    assert "superalg.py" in modules
    dead = unreferenced(modules)
    unlisted = [f"{path}:{line} {name}" for path, line, name in dead
                if name not in ENTRY_POINTS]
    assert not unlisted, f"definitions that nothing in the package uses: {unlisted}"
    live = sorted(set(ENTRY_POINTS) - {name for _, _, name in dead})
    assert not live, f"entry points that the package itself uses: {live}"


def test_entry_points_are_used_where_listed():
    for name, where in ENTRY_POINTS.items():
        text = (REPO / where).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b", text), f"{where} does not use {name}"


def load_survey():
    """The mutation-survey script, ``tools/mutation_survey.py``."""
    spec = importlib.util.spec_from_file_location(
        "mutation_survey", REPO / "tools" / "mutation_survey.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_sites_are_found_and_mutated():
    survey = load_survey()
    text = ("class C:\n    def f(self, x):\n        if x:\n"
            "            raise ConventionMismatch(\n"
            "                f\"case {x}: bad\")\n        return 1\n"
            "def g():\n    raise ValueError('no')\n"
            "def h():\n    return IsoFailure('rank mismatch', 'detail')\n")
    sites = survey.verdict_sites(ast.parse(text))
    assert [(scope, template, stmt.lineno) for scope, template, stmt in sites] == [
        ("C.f", "case {}: bad", 4), ("h", "rank mismatch", 10)]
    mutant = survey.mutate(text, sites[0][2])
    assert mutant.count("\n") == text.count("\n")
    assert mutant.splitlines()[3:5] == ["            pass", ""]
    assert survey.verdict_sites(ast.parse(mutant))[0][0] == "h"


VERDICT = re.compile(r"raise (\w+\.)?(ConventionMismatch|ActionRelationViolation|"
                     r"TorsionDetected|AlgebraMismatch)\b|return IsoFailure\b")


def test_survey_lists_every_verdict_site():
    # a new check cannot land without its mutant in the survey
    survey = load_survey()
    assert survey.LIST_TEST == (f"tests/test_source.py::"
                                f"{test_survey_lists_every_verdict_site.__name__}")
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        sites = survey.verdict_sites(ast.parse(text))
        assert len(sites) == len(VERDICT.findall(text)), path.name
        found += [(path.name, scope, template) for scope, template, _ in sites]
    assert len(set(found)) == len(found), "two sites share a key"
    assert sorted(survey.SITES) == sorted(found)


def test_survey_runs_every_test_file():
    # the survey runs the whole suite, the slow acceptance file last
    survey = load_survey()
    files = sorted(str(path.relative_to(REPO)) for top in ("tests", "perfbench")
                   for path in (REPO / top).rglob("test_*.py"))
    assert sorted(survey.PATHS) == files
    assert survey.PATHS[-1] == "tests/test_acceptance.py"
