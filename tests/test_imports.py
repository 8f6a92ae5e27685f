"""Every name the test modules and the program modules import is used."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements anywhere in source that no
    expression reads (an `import a.b` binds and is read as `a`).  An import
    whose line says `noqa: F401` is there for its effect, and is skipped, as
    is a `from __future__` import, which switches a language feature on."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and name != "*"]


def test_unused_imports_are_found():
    source = ("import os, sys\nimport numpy.linalg\nfrom a import b as c, d\n"
              "def f():\n    from e import g\n    return sys, numpy, d\n"
              "import h  # noqa: F401\nfrom __future__ import annotations\n")
    assert unused_imports(source) == ["line 1: os", "line 3: c",
                                      "line 5: g"]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_test_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []


# the package __init__ files are left out: their imports are the API
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.relative_to(SRC).as_posix())
def test_src_modules_use_every_import(path):
    assert unused_imports(path.read_text()) == []
