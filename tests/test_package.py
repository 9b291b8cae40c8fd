"""Tests of the package's structure: its export list and who calls it, its
module imports, where it checks counts and raises warnings, where it reads a
whole file, and its size."""

import ast
import inspect
import shutil
import subprocess
from pathlib import Path

import sfofr

SRC = Path(sfofr.__file__).parent
ROOT = SRC.parent.parent


def test_no_module_imports_private_pipeline_names():
    private = []
    for path in sorted(SRC.glob("*.py")):
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
        for path in sorted(SRC.glob("*.py"))
    }
    assert by_module.pop("exceptions.py")  # the scan finds the shared check itself
    assert {name: lines for name, lines in by_module.items() if lines} == {}
    planted = "if int(n) != n or n < 2:\n    pass\nok = isinstance(h, numbers.Integral)\n"
    assert _count_checks(ast.parse(planted)) == [1, 3]


def _referenced(tree):
    """Bare names a module reads; a definition, an assignment target or an
    import alone is no reference."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_exported_name_has_a_caller():
    # a caller is the library itself, a demo, or an acceptance criterion
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*(_referenced(ast.parse(p.read_text())) for p in paths))
    assert sorted(set(sfofr.__all__) - used) == []
    planted = "from sfofr import a, b\nc: int = 1\ndef d():\n    return a(c.e)\n"
    assert _referenced(ast.parse(planted)) == {"a", "int", "c"}


def _warn_calls(tree):
    """Lines that call ``warnings.warn``."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "warnings.warn"
    )


def test_every_warning_goes_through_warn_at_caller():
    lines, first = inspect.getsourcelines(sfofr.pipeline.warn_at_caller)
    own = range(first, first + len(lines))
    by_module = {
        path.name: [n for n in _warn_calls(ast.parse(path.read_text()))
                    if not (path.name == "pipeline.py" and n in own)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in by_module.items() if lines} == {}
    planted = "import warnings\nwarn_at_caller('x')\nwarnings.warn('y', stacklevel=2)\n"
    assert _warn_calls(ast.parse(planted)) == [3]


def _whole_file_reads(tree):
    """Lines that take a whole file's text at once: a ``read_text``,
    ``read_bytes`` or ``splitlines`` call, or ``read`` or ``readlines`` with
    no size."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, sized = node.func.attr, node.args or node.keywords
            if name in ("read_text", "read_bytes", "splitlines") or (
                name in ("read", "readlines") and not sized
            ):
                found.append(node.lineno)
    return sorted(found)


def test_only_read_json_reads_a_whole_file():
    lines, first = inspect.getsourcelines(sfofr.io.read_json)
    own = range(first, first + len(lines))
    by_module = {
        path.name: [n for n in _whole_file_reads(ast.parse(path.read_text()))
                    if not (path.name == "io.py" and n in own)]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in by_module.items() if lines} == {}
    planted = (
        "a = p.read_text()\nb = f.read(1 << 18)\nc = a.splitlines()\nd = f.readlines()\n"
        "e = f.readlines(4096)\ng = f.read()\nh = p.read_bytes()\n"
    )
    assert _whole_file_reads(ast.parse(planted)) == [1, 3, 4, 6, 7]


# Non-blank lines of src/sfofr/*.py, as ``cat src/sfofr/*.py | grep -cv '^\s*$'``
# counts them. A change that must grow the package raises this number and says why.
SRC_LINE_BUDGET = 2800


def _non_blank(data: bytes) -> int:
    """Lines holding more than whitespace, as ``grep -cv '^\\s*$'`` counts them in
    the C locale: a line ends at a line feed only, and space, tab, carriage
    return, form feed and vertical tab are whitespace."""
    return sum(1 for line in data.split(b"\n") if line.strip(b" \t\r\f\v"))


def _grep_non_blank(data: bytes) -> int | None:
    """``grep -cv '^\\s*$'`` on ``data`` in the C locale, or None without grep."""
    grep = shutil.which("grep")
    if grep is None:
        return None
    env = {"LC_ALL": "C"}
    return int(subprocess.run([grep, "-cv", r"^\s*$"], input=data, capture_output=True, env=env).stdout)


def test_src_line_budget():
    paths = sorted(SRC.glob("*.py"))
    text = b"".join(p.read_bytes() for p in paths)  # as cat joins them
    total = _non_blank(text)
    counts = ", ".join(f"{p.name} {_non_blank(p.read_bytes())}" for p in paths)
    assert total <= SRC_LINE_BUDGET, (
        f"src/sfofr has {total} non-blank lines, over SRC_LINE_BUDGET = "
        f"{SRC_LINE_BUDGET} ({counts})"
    )
    planted = b"a\n\n  \n\t \r\n\x0c\x0b\nb\x0cc\r\nd"
    assert _non_blank(planted) == 3  # a, b<FF>c<CR> and d; the other lines are blank
    assert _grep_non_blank(planted) in (None, 3)
    assert _grep_non_blank(text) in (None, total)
