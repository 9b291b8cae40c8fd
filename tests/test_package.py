"""Tests of the package's structure: its export list and its module imports."""

import ast
import inspect
from pathlib import Path

import sfofr


def test_no_module_imports_private_pipeline_names():
    private = []
    for path in sorted(Path(sfofr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("pipeline", "sfofr.pipeline"):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_all_lists_every_public_name_and_no_module():
    bound = {
        name for name, value in vars(sfofr).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(sfofr.__all__) == sorted(bound)
    assert "compare_fits" in sfofr.__all__


def test_star_import_binds_no_submodule():
    import sfofr.cli

    assert inspect.ismodule(sfofr.io) and inspect.ismodule(sfofr.cli)
    namespace = {}
    exec("from sfofr import *", namespace)
    assert "io" not in namespace and "cli" not in namespace
    assert set(namespace) - {"__builtins__"} == set(sfofr.__all__)


def _count_checks(tree):
    """Lines that test a count by hand: ``int(x)`` compared with ``x``, or
    ``isinstance(..., numbers.Integral)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for a in sides:
                if isinstance(a, ast.Call) and ast.unparse(a.func) == "int" and len(a.args) == 1:
                    arg = ast.dump(a.args[0])
                    if any(ast.dump(b) == arg for b in sides if b is not a):
                        found.append(node.lineno)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            if "Integral" in ast.unparse(node.args[-1]):
                found.append(node.lineno)
    return sorted(found)


def test_counts_are_checked_only_by_the_shared_check():
    by_module = {
        path.name: _count_checks(ast.parse(path.read_text()))
        for path in sorted(Path(sfofr.__file__).parent.glob("*.py"))
    }
    assert by_module.pop("exceptions.py")  # the scan finds the shared check itself
    assert {name: lines for name, lines in by_module.items() if lines} == {}
    planted = "if int(n) != n or n < 2:\n    pass\nok = isinstance(h, numbers.Integral)\n"
    assert _count_checks(ast.parse(planted)) == [1, 3]
