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
