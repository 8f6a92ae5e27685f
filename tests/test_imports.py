"""Imports: every name the test modules and the program modules import is
used, every name a module lists in __all__ resolves, and each layer of the
package is imported on first use."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import equimorse

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


def unread_private_definitions(sources: dict) -> list[str]:
    """The underscore-private functions, methods and classes defined in
    the sources (name -> text) whose name no ast.Name or ast.Attribute
    load in any of them reads.  Dunder methods are called by the language
    and are skipped."""
    defined = []
    read = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{name}:{line}: {fn}" for name, line, fn in defined
            if fn not in read]


def test_unread_private_definitions_are_found():
    sources = {
        "a.py": ("def _unused():\n    pass\ndef _used():\n    return _C\n"
                 "class _C:\n    def __init__(self):\n        self._slot = 1\n"
                 "    def _method(self):\n        return _used()\n"
                 "    def _stored(self):\n        pass\n"),
        "b.py": "from a import _C\n_C()._method\n_C()._stored = None\n",
    }
    assert unread_private_definitions(sources) == ["a.py:1: _unused",
                                                   "a.py:10: _stored"]


def test_src_reads_every_private_definition():
    # code that nothing calls is deleted, private code included
    sources = {p.relative_to(SRC).as_posix(): p.read_text()
               for p in sorted(SRC.rglob("*.py"))}
    assert unread_private_definitions(sources) == []


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_name_in_a_modules_all_resolves(path):
    # a name left in __all__ after its definition is gone breaks a star
    # import of that module
    module = importlib.import_module(_module_name(path))
    assert [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)] == []


def _fresh_lines(script: str) -> list:
    """Run script in a fresh interpreter with this equimorse on its path;
    each line it prints, read as a Python literal."""
    src = str(Path(equimorse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return [ast.literal_eval(line) for line in proc.stdout.splitlines()]


LOADED = ("print(sorted(m for m in sys.modules"
          " if m.startswith('equimorse') or m == 'dataclasses'))")


def test_importing_the_package_loads_no_layer():
    assert _fresh_lines(f"import sys\nimport equimorse\n{LOADED}") == [["equimorse"]]


def test_the_exact_jet_layer_loads_neither_groups_nor_the_homological_stack():
    # interpolation and Taylor jets need only the polynomial layer and the
    # primality test, and no dataclasses; a lift then loads the group layer
    script = "\n".join([
        "import sys",
        "from equimorse import Jet, LinearAction, equivariant_jet_lift,"
        " jet_interpolate, taylor_jet",
        "pts = [(0, 0), (1, 2)]",
        "f = jet_interpolate(pts, [Jet(p, 2, {(0, 1): 1}) for p in pts], 2)",
        "assert taylor_jet(f, pts[1], 2).terms == {(0, 1): 1}",
        LOADED,
        "equivariant_jet_lift(pts[1], Jet(pts[1], 1, {(0, 0): 1}),"
        " LinearAction.sign_c2(2), 1)",
        "print(sorted(m for m in sys.modules if m.startswith('equimorse')))",
    ])
    exact, lifted = _fresh_lines(script)
    assert exact == ["equimorse", "equimorse._intlinalg", "equimorse.polynomials"]
    assert lifted == ["equimorse", "equimorse._intlinalg", "equimorse.groups",
                      "equimorse.polynomials"]


def test_the_readme_runs_on_numpy_alone():
    # the README's commands through cli.main, from the root of the
    # checkout, and its library example, in one fresh interpreter: they
    # exit 0 and import none of the test extras, which a numpy-only install
    # lacks
    readme = (SRC.parent / "README.md").read_text()
    commands = [shlex.split(line, comments=True)[1:]
                for line in readme.splitlines() if line.startswith("equimorse ")]
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    script = "\n".join([
        "import contextlib, io, os, sys",
        f"os.chdir({str(SRC.parent)!r})",
        "from equimorse.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    codes = [main(argv) for argv in {commands!r}]",
        f"    exec({example!r}, {{}})",
        "print(codes)",
        "print(sorted({m.partition('.')[0] for m in sys.modules}",
        "             & {'hypothesis', 'networkx', 'scipy', 'sympy'}))",
    ])
    codes, extras = _fresh_lines(script)
    assert len(commands) == 7 and codes == [0] * 7
    assert extras == []


@pytest.mark.parametrize("name", equimorse.__all__)
def test_each_export_is_its_defining_submodules_object(name):
    # the object an eager `from .<source> import name` would bind, which is
    # the one its defining module holds
    value = getattr(equimorse, name)
    source = importlib.import_module(f"equimorse.{equimorse._SOURCES[name]}")
    assert getattr(source, name) is value
    assert value.__module__.startswith("equimorse.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_dir_and_unknown_names():
    bound: dict = {}
    exec("from equimorse import *", bound)
    assert set(equimorse.__all__) <= set(bound)
    assert all(bound[name] is getattr(equimorse, name) for name in equimorse.__all__)
    assert set(equimorse.__all__) <= set(dir(equimorse))
    with pytest.raises(AttributeError, match="no_such_name"):
        equimorse.no_such_name
    from equimorse import polynomials

    assert polynomials is sys.modules["equimorse.polynomials"]
