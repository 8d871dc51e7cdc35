"""Static check: every module of the package, and every test and demo
script, reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "venuecca"
SCRIPTS = sorted(p.relative_to(ROOT).as_posix() for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def unused_imports(source):
    """Names bound by an import in source and never read, sorted.

    A name listed in a literal ``__all__`` counts as read, so a package
    ``__init__`` may import names only to re-export them.
    """
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            imported.update(a.asname or a.name.split(".")[0] for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_finds_what_it_should():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from dataclasses import dataclass, field\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    import json\n"
        "    return numpy.linalg.norm(field)\n"
    )
    assert unused_imports(source) == ["dataclass", "json", "os", "osp"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    unused = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert not unused, f"venuecca/{module} imports but never reads: {', '.join(unused)}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_unused_imports_in_scripts(script):
    unused = unused_imports((ROOT / script).read_text(encoding="utf-8"))
    assert not unused, f"{script} imports but never reads: {', '.join(unused)}"
