"""Tooling: the library owns each verdict, and the CLI only prints it.

Every check the CLI prints returns an ``algmod.Verdict`` (verdict, grade,
details), so ``cli.py``

- passes no ``grade=`` keyword and names none of the grades "on-samples",
  "certified" or "inconclusive": it grades nothing itself;
- defines no ``fmt_na`` or ``_jsonable`` and keeps no collection of detail
  keys: it filters and converts no details.
"""

import ast
import os

CLI = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab", "cli.py")
GRADES = ("on-samples", "certified", "inconclusive")
# the detail keys the theorem suite prints
DETAIL_KEYS = {"samples", "unit_samples", "counit_samples", "s", "z", "galois", "part1",
               "part2", "cleft_grade", "normal_basis", "triangle_surjective",
               "sigma_fgp", "triangle1_surjective", "coring_fgp", "unit_path", "strict",
               "equivalence"}


def _tree():
    with open(CLI, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=CLI)


def test_the_cli_grades_nothing():
    found = []
    for node in ast.walk(_tree()):
        if isinstance(node, ast.keyword) and node.arg == "grade":
            found.append("grade= at line %d" % node.value.lineno)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += ["%r at line %d" % (node.value, node.lineno)
                      for grade in GRADES if grade in node.value]
    assert found == []


def test_the_cli_keeps_no_detail_whitelist():
    found = []
    for node in ast.walk(_tree()):
        if isinstance(node, (ast.FunctionDef, ast.Name)):
            name = node.name if isinstance(node, ast.FunctionDef) else node.id
            if name in ("fmt_na", "_jsonable"):
                found.append("%s at line %d" % (name, node.lineno))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            elts = node.keys if isinstance(node, ast.Dict) else node.elts
            keys = {e.value for e in elts if isinstance(e, ast.Constant)} & DETAIL_KEYS
            if keys:
                found.append("detail keys %s at line %d" % (sorted(keys), node.lineno))
    assert found == []
