"""List the lines of the package that no test runs.

    python tests/untraced.py [pytest args]

runs pytest in this process under sys.settrace (and threading.settrace)
and prints `path:line: text` for every line of src/equimorse that the
compiler emits code for and that no traced frame reached, then exits with
pytest's status.  It needs only the standard library.  Lines run only in
a subprocess (a test that starts `python -m equimorse...`) are listed too,
and a run is several times slower than plain pytest.  pytest does not
collect this file: its name does not start with test_.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equimorse"


def compiled_lines(code) -> set[int]:
    """The line numbers of every instruction of code and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= compiled_lines(const)
    return lines


def main(args) -> int:
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text().splitlines()
        code = compile("\n".join(text) + "\n", str(path), "exec")
        missed = compiled_lines(code) - ran.get(str(path), set())
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
