"""Mutation survey of opencob's verdict sites.

A verdict site is a statement in ``src/opencob`` that refuses a result: a
``raise`` of ConventionMismatch, ActionRelationViolation, TorsionDetected or
AlgebraMismatch, or a ``return IsoFailure(...)``.  For each site in
``SITES`` the survey copies the repository to a temporary directory,
replaces that one statement by ``pass``, runs ``pytest -q -x`` on the
copy's test files in the order of ``PATHS``, and reports the mutant as
killed (the suite fails, with the first failing test) or survived (it
passes).  ``PATHS`` names every test file under ``tests/`` and
``perfbench/``, the unit tests first and ``tests/test_acceptance.py``,
which composes 200 seeded pairs, last, so that ``-x`` stops a killed
mutant before it.  A surviving reachable site is a check that no test
makes fire.  The run deselects ``LIST_TEST``, which checks ``SITES``
against the source and so fails on every mutant.

    python3 tools/mutation_survey.py

Standard library only.  It runs the test suite once per site, two mutants
at a time, so it is run by hand and is not part of the test suite;
``tests/test_source.py`` checks that ``SITES`` lists every verdict site
and ``PATHS`` every test file.  The suite runs once unmutated first, and
must pass.  The exit status is 1 if any site survives, 2 if the
unmutated suite fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "opencob"
RAISED = {"ConventionMismatch", "ActionRelationViolation", "TorsionDetected",
          "AlgebraMismatch"}
RETURNED = {"IsoFailure"}
LIST_TEST = "tests/test_source.py::test_survey_lists_every_verdict_site"
# every test file, from the lowest layer up, the slowest file last
PATHS = (
    "tests/test_snf.py", "tests/test_grading.py", "tests/test_surface.py",
    "tests/test_homology.py", "tests/test_statespace.py",
    "tests/test_superalg.py", "tests/test_gluing.py",
    "tests/test_small_scope.py", "tests/test_harness.py",
    "tests/test_cli.py", "tests/test_golden.py", "tests/test_demos.py",
    "tests/test_readme.py", "tests/test_source.py", "perfbench/test_checks.py",
    "tests/test_acceptance.py",
)

# (file, enclosing function, message template): the template is the first
# argument of the exception or IsoFailure, with "{}" for each replacement
# field, which tells apart the sites of one function.
SITES = (
    ("gluing.py", "_verified", "{} failed: {}"),
    ("gluing.py", "_certify_glue", "case {}: map does not kill im(E1+E2)"),
    ("gluing.py", "_certify_glue", "case {}: degree shift {}, expected {}"),
    ("gluing.py", "_certify_glue", "case {}: parity shift {}"),
    ("gluing.py", "_certify_glue",
     "case {}: psi is not even of degree zero (column {})"),
    ("gluing.py", "_certify_glue", "case {}: E_{} does not intertwine"),
    ("gluing.py", "_certify_glue", "case {}: quotient has torsion {}"),
    ("gluing.py", "_certify_glue",
     "case {}: quotient ranks {} != target {} by (word length, parity)"),
    ("gluing.py", "_certify_glue",
     "case {}: psi is not unimodular on the quotient basis"),
    ("gluing.py", "compose_iso",
     "composition map does not kill the balancing relations"),
    ("harness.py", "verify_theorem.run", "superdimension mismatch"),
    ("harness.py", "verify_lemma_cases", "expected case {}, got {}"),
    ("harness.py", "verify_lemma_cases", "expected {} new S- circles, got {}"),
    ("harness.py", "verify_pants", "top monomial does not map to +-1"),
    ("harness.py", "verify_dimensions", "{} != {}"),
    ("harness.py", "verify_dimensions", "non-integral exponent"),
    ("superalg.py", "Bimodule.__init__", "generator count does not match the algebras"),
    ("superalg.py", "Bimodule.validate", "{}: {} action {} has wrong shape"),
    ("superalg.py", "Bimodule.validate",
     "{}: {} generator {} is not odd of degree -1 at entry {}"),
    ("superalg.py", "Bimodule.validate", "{}: {} generator {} does not square to zero"),
    ("superalg.py", "Bimodule.validate", "{}: {} generators {},{} do not anticommute"),
    ("superalg.py", "Bimodule.validate", "{}: left {} and right {} do not commute"),
    ("superalg.py", "middle_relations", "middle algebras differ"),
    ("superalg.py", "tensor_middle",
     "block (degree {}, parity {}) has invariant factors {}"),
    ("superalg.py", "is_graded_iso", "algebra mismatch"),
    ("superalg.py", "is_graded_iso", "rank mismatch"),
    ("superalg.py", "is_graded_iso", "shape mismatch"),
    ("superalg.py", "is_graded_iso", "not block-diagonal"),
    ("superalg.py", "is_graded_iso", "graded rank mismatch"),
    ("superalg.py", "is_graded_iso", "intertwining failure"),
    ("superalg.py", "is_graded_iso", "not unimodular"),
)


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _template(node) -> str:
    """The first argument of the call ``node``, "{}" for each replacement
    field; "" for no argument or no call."""
    if not isinstance(node, ast.Call) or not node.args:
        return ""
    first = node.args[0]
    if isinstance(first, ast.Constant):
        return str(first.value)
    if isinstance(first, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in first.values)
    return ast.unparse(first)


def verdict_sites(tree: ast.AST) -> list:
    """(enclosing function, message template, statement) for every verdict
    site in ``tree``, in source order; the function is dotted through
    enclosing classes and functions, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and _called_name(child.exc) in RAISED:
                found.append((".".join(scope), _template(child.exc), child))
            elif (isinstance(child, ast.Return)
                  and _called_name(child.value) in RETURNED):
                found.append((".".join(scope), _template(child.value), child))
            visit(child, scope)

    visit(tree, ())
    return found


def mutate(text: str, stmt: ast.stmt) -> str:
    """``text`` with ``stmt`` replaced by ``pass``; every other line keeps
    its number."""
    lines = text.splitlines(keepends=True)
    first, last = stmt.lineno - 1, stmt.end_lineno - 1
    head = lines[first].encode()[:stmt.col_offset].decode()
    tail = lines[last].encode()[stmt.end_col_offset:].decode()
    lines[first:last + 1] = [head + "pass" + "\n" * (last - first) + tail]
    return "".join(lines)


def _skip(directory, names):
    """What the copy leaves out: version control, caches and run output."""
    skipped = {n for n in names if n in (".git", "__pycache__", ".pytest_cache")}
    if Path(directory).name == "perfbench" and "out" in names:
        skipped.add("out")
    return skipped


def run_mutant(site) -> tuple:
    """(verdict, seconds, first failure) for ``site``'s mutant: "killed"
    when the suite fails, "survived" when it passes, "error (exit N)"
    otherwise.  With ``site`` None the copy is not mutated."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="opencob-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=_skip)
        if site is not None:
            name, scope, template = site
            text = (SOURCE / name).read_text(encoding="utf-8")
            stmt = next(stmt for s, t, stmt in verdict_sites(ast.parse(text))
                        if (s, t) == (scope, template))
            (copy / "src" / "opencob" / name).write_text(mutate(text, stmt),
                                                         encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--deselect", LIST_TEST, *PATHS],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True, text=True)
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode,
                                               f"error (exit {proc.returncode})")
    failure = next((line.split(" - ")[0] for line in proc.stdout.splitlines()
                    if line.startswith(("FAILED ", "ERROR "))), "")
    return verdict, time.perf_counter() - start, failure


def main() -> int:
    verdict, seconds, failure = run_mutant(None)
    if verdict != "survived":
        print(f"the unmutated suite does not pass ({verdict}, {seconds:.1f} s) "
              f"{failure}")
        return 2
    killed = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for site, (verdict, seconds, failure) in zip(SITES,
                                                     pool.map(run_mutant, SITES)):
            name, scope, template = site
            print(f"{verdict:<9} {seconds:6.1f} s  {name} {scope}: {template}",
                  flush=True)
            if failure:
                print(f"          by {failure}", flush=True)
            killed += verdict == "killed"
    print(f"{killed} of {len(SITES)} mutants killed")
    return 1 if killed < len(SITES) else 0

if __name__ == "__main__":
    sys.exit(main())
