"""The command-line front end, and its console output against the goldens
in cli_outputs.json: the README and CI commands, each with its argv, exit
code and stdout.

Rewriting the goldens hides a change of output, so regenerate them
(`python tests/test_cli.py --write`, with equimorse importable) only when
an output is meant to change, and check that the diff is that change.  The
write reruns every recorded argv from the root of the checkout and refuses
to write if any command prints on stderr.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from equimorse import fixtures
from equimorse.cli import main
from equimorse.fixtures import FixtureError, ManifoldFixture, load_fixture
from equimorse.gcw import GCWComplex

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args):
    from io import StringIO
    import contextlib

    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_load_gcw_fixture_roundtrip():
    X = load_fixture(str(FIXDIR / "circle_reflection.json"))
    assert X.group.order == 2
    assert X.orbit_count(0) == 2
    assert X.orbit_count(1) == 1


def test_gcw_fixture_files_are_the_seven_builders():
    names = {p.stem for p in FIXDIR.glob("*.json")
             if "gcw" in json.loads(p.read_text())}
    assert names == set(fixtures.GCW_FIXTURES)
    assert len(names) == 7


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_fixture_file_loads_into_one_name_set(path):
    name = path.stem
    fx = load_fixture(path)
    assert fx.name == name
    in_gcw = name in fixtures.GCW_FIXTURES
    assert in_gcw != (name in fixtures.MANIFOLD_FIXTURES)
    assert isinstance(fx, GCWComplex if in_gcw else ManifoldFixture)
    # the loader by name reads the same file
    by_name = getattr(fixtures, name)()
    assert type(by_name) is type(fx) and by_name.name == name


def test_unknown_fixture_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        fixtures.no_such_fixture
    with pytest.raises(ImportError):
        from equimorse.fixtures import no_such_fixture  # noqa: F401


def test_fixture_name_outside_a_checkout_names_the_missing_directory(tmp_path):
    # a copy of the package with no fixtures/ directory beside it, as after
    # a plain (non-editable) install
    import shutil

    import equimorse

    shutil.copytree(Path(equimorse.__file__).resolve().parent,
                    tmp_path / "site" / "equimorse",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import equimorse.fixtures as fx; fx.circle_c2_height"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "site")),
    )
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("AttributeError")
    assert str(tmp_path / "fixtures") in last and "load_fixture(path)" in last


def _rewritten(tmp_path, name, edit):
    """A copy of fixtures/<name>.json changed by edit(raw)."""
    raw = json.loads((FIXDIR / f"{name}.json").read_text())
    edit(raw)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(raw))
    return p


def test_load_rejects_manifold_without_seeds(tmp_path):
    p = _rewritten(tmp_path, "wells_c2", lambda raw: raw["manifold"].pop("seeds"))
    with pytest.raises(FixtureError):
        load_fixture(p)


@pytest.mark.parametrize("name", ["circle_reflection", "circle_c2_height"])
def test_load_rejects_unknown_top_level_key(tmp_path, name):
    p = _rewritten(tmp_path, name,
                   lambda raw: raw.update(options={"coeff": "singular"}))
    with pytest.raises(FixtureError) as exc:
        load_fixture(p)
    assert "options" in str(exc.value)


def test_load_rejects_unknown_gcw_key(tmp_path):
    # a G-CW fixture is one complex, with no cells marked as a subcomplex
    # to leave out: a 'marked' key is unknown, and is refused, not ignored
    p = _rewritten(tmp_path, "circle_reflection",
                   lambda raw: raw["gcw"].update(marked=[[0, 0]]))
    with pytest.raises(FixtureError) as exc:
        load_fixture(p)
    assert "marked" in str(exc.value) and str(p) in str(exc.value)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(FixtureError) as exc:
        load_fixture(str(p))
    assert ":1:" in str(exc.value)  # line diagnostics


def test_load_rejects_both_specs(tmp_path):
    p = tmp_path / "double.json"
    p.write_text(json.dumps({
        "group": {"order": 1, "table": [[0]]},
        "gcw": {"cells": {}},
        "manifold": {},
    }))
    with pytest.raises(FixtureError):
        load_fixture(str(p))


def test_missing_fixture_file_is_an_error_exit(tmp_path, capsys):
    missing = tmp_path / "no_such_fixture.json"
    with pytest.raises(FixtureError):
        load_fixture(missing)
    assert main(["bredon", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _drop_boundary_field(raw):
    del raw["gcw"]["boundary"][0]["coset"]


@pytest.mark.parametrize("command, name, edit, key", [
    ("morse", "wells_c2", lambda raw: raw["manifold"].pop("ambient"), "ambient"),
    ("morse", "wells_c2", lambda raw: raw["manifold"].pop("action"), "action"),
    ("morse", "wells_c2", lambda raw: raw["manifold"].pop("function"), "function"),
    ("bredon", "circle_reflection", lambda raw: raw["gcw"].pop("cells"), "cells"),
    ("bredon", "circle_reflection", _drop_boundary_field, "coset"),
], ids=["ambient", "action", "function", "cells", "boundary-coset"])
def test_missing_fixture_key_is_an_error_exit(tmp_path, capsys, command, name, edit, key):
    p = _rewritten(tmp_path, name, edit)
    with pytest.raises(FixtureError) as exc:
        load_fixture(p)
    assert repr(key) in str(exc.value)
    assert main([command, str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _bad_table(raw):
    raw["group"]["table"] = [[0, 0], [0, 0]]


def _bad_stabilizer(raw):
    raw["gcw"]["cells"]["0"][0]["stab"] = [1]


def _bad_action(raw):
    raw["manifold"]["action"][1][0][0] = [2, 1]


def _table_of_wrong_type(raw):
    raw["group"]["table"] = 5


def _bad_function_record(raw):
    raw["manifold"]["function"].append([[2], 1.5, 2])


def _function_not_invariant(raw):
    # x / 2 changes sign under x -> -x
    raw["manifold"]["function"].append([[1, 0], 1, 2])


def _constraint_not_preserved(raw):
    # x^2 + y^2 + x / 2 - 1 = 0 is not preserved by x -> -x
    raw["manifold"]["constraints"][0].append([[1, 0], 1, 2])


def _seeds(**spec):
    def edit(raw):
        raw["manifold"]["seeds"].update(spec)
    return edit


def _circle_seeds(raw):
    raw["manifold"]["seeds"] = {"circle": 8}


def _set(*path, value):
    """An edit that sets raw[path[0]]...[path[-1]] to value."""
    def edit(raw):
        for key in path[:-1]:
            raw = raw[key]
        raw[path[-1]] = value
    return edit


@pytest.mark.parametrize("command, name, edit, message", [
    ("bredon", "circle_reflection", _bad_table, "no identity element"),
    ("bredon", "circle_reflection", _bad_stabilizer, "missing identity"),
    ("morse", "wells_c2", _bad_action, "representation law fails"),
    ("bredon", "circle_reflection", _table_of_wrong_type, "wrong type"),
    ("morse", "wells_c2", _bad_function_record, "bad polynomial record"),
    ("morse", "wells_c2", _function_not_invariant, "not invariant"),
    ("morse", "circle_c2_height", _constraint_not_preserved,
     "does not preserve the zero set"),
    ("morse", "wells_c2", _seeds(counts=0),
     r"'seeds' give an array of shape \(0,\), not .* ambient = 2"),
    ("morse", "wells_c2", _seeds(counts=[7, 0]),
     r"'seeds' give an array of shape \(0,\), not .* ambient = 2"),
    ("morse", "wells_c2", _seeds(bounds=[[-1.5, 1.5]] * 3),
     r"'seeds' give an array of shape \(343, 3\), not .* ambient = 2"),
    ("morse", "sphere_height", _circle_seeds,
     r"'seeds' give an array of shape \(8, 2\), not .* ambient = 3"),
    ("bredon", "circle_reflection", lambda raw: raw.pop("group"),
     "missing 'group'"),
    ("bredon", "circle_reflection", _set("group", "order", value=3),
     "group order disagrees with the table"),
    ("morse", "wells_c2", _set("manifold", "action", 1, 0, 0, value="x"),
     "bad numeric entry 'x'"),
    ("morse", "figure2_plane",
     _set("manifold", "charts", "origin", "type", value="polar"),
     "unknown chart type 'polar'"),
    ("morse", "wells_c2", _set("manifold", "seeds", value={}),
     "manifold 'seeds' needs 'circle' or 'bounds'"),
], ids=["table", "stabilizer", "action", "table-type", "function-record",
        "function-not-invariant", "constraint-not-preserved", "seeds-none",
        "seeds-axis-none", "seeds-wide", "seeds-circle-in-3d", "no-group",
        "group-order", "string-entry", "chart-type", "seeds-kind"])
def test_bad_fixture_data_is_an_error_exit(tmp_path, capsys, command, name,
                                           edit, message):
    # a table that is not a group (or no table at all), no group or one of
    # another order, a stabilizer that is not a subgroup, matrices that are
    # not a representation or hold a string, a record that is no polynomial
    # term, a function that is not invariant, an action that moves the
    # constraints, a chart of no known type, or seeds of no known kind,
    # empty or not of the ambient width make a malformed fixture:
    # FixtureError, one error line naming the file, and exit 2
    p = _rewritten(tmp_path, name, edit)
    with pytest.raises(FixtureError, match=message):
        load_fixture(p)
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1


def _boundary_field(key, value):
    def edit(raw):
        raw["gcw"]["boundary"][0][key] = value
    return edit


def _stabilizer_element(raw):
    raw["gcw"]["cells"]["0"][0]["stab"] = [0, 5]


@pytest.mark.parametrize("edit, message", [
    (_stabilizer_element, r"not all in range\(2\)"),
    (_boundary_field("coset", 7), r"coset representative 7 not in range\(2\)"),
    (_boundary_field("coset", -1), r"coset representative -1 not in range\(2\)"),
    (_boundary_field("cell", 3), "boundary cell 3 is not one of the 1 1-cell orbits"),
    (_boundary_field("cell", -1), "boundary cell -1 is not one of the 1 1-cell orbits"),
    (_boundary_field("face", 2), "boundary face 2 is not one of the 2 0-cell orbits"),
], ids=["stabilizer-element", "coset-7", "coset-negative", "cell-3", "cell-negative",
        "face-2"])
def test_index_outside_the_group_or_the_cells_is_an_error_exit(tmp_path, capsys,
                                                               edit, message):
    # an element, coset representative, cell or face index outside its range
    # is malformed data, never read by negative indexing or left to raise
    # IndexError
    p = _rewritten(tmp_path, "circle_reflection", edit)
    with pytest.raises(FixtureError, match=message):
        load_fixture(p)
    assert main(["bredon", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["bredon", "wells_c2"], "bredon needs a G-CW fixture"),
    (["smith", "wells_c2", "--p", "2"], "smith needs a G-CW fixture"),
    (["morse", "circle_reflection"], "morse needs a manifold fixture"),
    (["cells", "--cell", "unstable", "--index", "0"],
     "unstable cells need index >= 1"),
], ids=["bredon-manifold", "smith-manifold", "morse-gcw", "unstable-index-0"])
def test_command_of_the_other_kind_is_an_error_exit(capsys, argv, message):
    # a fixture of the kind the command does not read, or a cell of no
    # index: one error line naming it, and exit 2
    if argv[0] != "cells":
        argv = [argv[0], str(FIXDIR / f"{argv[1]}.json")] + argv[2:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_function_invariant_only_on_the_manifold_loads(tmp_path):
    # f + x (x^2 + y^2 + z^2 - 1) is odd off the sphere but equals the
    # invariant f on it: the grid seeds are projected onto M before the
    # invariance check
    add = [[[3, 0, 0], 1, 1], [[1, 2, 0], 1, 1], [[1, 0, 2], 1, 1],
           [[1, 0, 0], -1, 1]]
    p = _rewritten(tmp_path, "sphere_antipodal",
                   lambda raw: raw["manifold"]["function"].extend(add))
    assert isinstance(load_fixture(p), ManifoldFixture)


GOLDEN_PATH = Path(__file__).resolve().parent / "cli_outputs.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: "_".join(
    a.removeprefix("fixtures/").removesuffix(".json").lstrip("-")
    for a in case["argv"]))
def test_console_output_is_the_golden(case, capsys, monkeypatch):
    # the README and CI commands, run from the root of the checkout, print
    # byte for byte the stdout and exit code recorded in cli_outputs.json,
    # and nothing on stderr
    monkeypatch.chdir(FIXDIR.parent)
    assert main(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == ""


def test_readme_commands_are_the_first_goldens():
    # the CI workflow runs the README's `equimorse ...` lines, comments
    # stripped, through the console script: they are the first seven goldens
    readme = (FIXDIR.parent / "README.md").read_text()
    commands = [shlex.split(line, comments=True)
                for line in readme.splitlines() if line.startswith("equimorse ")]
    assert [argv[1:] for argv in commands] == [c["argv"] for c in GOLDEN[:7]]


def test_bredon_command_text_and_exit():
    code, out = run_cli(["bredon", str(FIXDIR / "sphere_reflection.json")])
    assert code == 0
    assert "oracle (subquotient): match" in out
    assert "[singular]" in out


def test_bredon_csv_deterministic():
    args = ["bredon", str(FIXDIR / "torus_double.json"), "--format", "csv",
            "--p", "2"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("kind,degree,betti")


def test_smith_command():
    code, out = run_cli(["smith", str(FIXDIR / "sphere_rotation_c3.json"),
                         "--p", "3"])
    assert code == 0
    assert "congruent" in out
    # wrong p: NotAPGroup -> error exit
    code, _ = run_cli(["smith", str(FIXDIR / "sphere_rotation_c3.json"),
                       "--p", "2"])
    assert code == 2


@pytest.mark.parametrize("command,fixture,p", [
    ("bredon", "torus_double", "4"),
    ("bredon", "torus_double", "1"),
    ("bredon", "torus_double", "-3"),
    ("specseq", "circle_reflection", "0"),
    ("specseq", "circle_reflection", "4"),
    ("smith", "sphere_rotation_c3", "1"),
])
def test_characteristic_neither_zero_nor_prime_is_an_error_exit(
        command, fixture, p, capsys):
    # F_4 is not Z/4: a characteristic that is not 0 or a prime (a prime
    # only for spectral pages and Smith) must stop the command before it
    # prints groups, not report "F4^2" or all-zero pages
    assert main([command, str(FIXDIR / f"{fixture}.json"), "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"--p {p}" in captured.err


def test_characteristic_past_the_exact_primality_bound_is_an_error_exit():
    # the next prime after is_prime's exact Miller-Rabin bound, which no
    # cheap test decides: refused within the timeout with an error line
    import equimorse

    src = str(Path(equimorse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "equimorse.cli", "bredon",
         str(FIXDIR / "point_c2.json"), "--p", "3317044064679887385962123"],
        capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: --p 3317044064679887385962123: primality "
                           "is decided exactly only below "
                           "3317044064679887385961981\n")


def test_bredon_at_a_large_prime():
    # an 18-digit characteristic is checked by Miller-Rabin, not in
    # isqrt(p) trial divisions
    code, out = run_cli(["bredon", str(FIXDIR / "point_c2.json"),
                         "--p", "1000000000000000003"])
    assert code == 0
    assert "F1000000000000000003" in out and "MISMATCH" not in out


def test_cells_command_matches_table():
    code, out = run_cli(["cells", "--cell", "interior", "--index", "2",
                         "--theory", "all"])
    assert code == 0
    assert "singular: deg 2: Z^2" in out
    assert "fixed-point: 0" in out
    code, out = run_cli(["cells", "--cell", "stable", "--index", "1",
                         "--theory", "quotient-rel-fixed"])
    assert code == 0
    assert "quotient-rel-fixed: 0" in out


def test_cells_for_every_theory_builds_the_pair_once(monkeypatch):
    # the four theories of `cells --theory all` read one pair complex
    from equimorse.gcw import CellAction

    calls = []
    real = CellAction.orbits
    monkeypatch.setattr(CellAction, "orbits",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    code, out = run_cli(["cells", "--cell", "unstable", "--index", "2"])
    assert code == 0
    assert [line.split(":")[0].strip() for line in out.splitlines()[1:]] == [
        "singular", "fixed-point", "quotient", "quotient-rel-fixed"]
    assert len(calls) == 1


def test_main_builds_the_parser_once(monkeypatch):
    # a process that calls main several times builds the parser on the
    # first call only
    assert run_cli(["cells", "--cell", "stable", "--index", "1"])[0] == 0
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda *a, **k: built.append(1) or real(*a, **k))
    for index in ("1", "2"):
        assert run_cli(["cells", "--cell", "stable", "--index", index])[0] == 0
    assert built == []


def test_cells_with_an_unsupported_rep_is_an_error_exit(capsys):
    # a sign factor needs a stabilizer of order 2, not the cyclic group of
    # order 3: an error line and exit 2, not a traceback
    assert main(["cells", "--cell", "unstable", "--index", "1", "--order", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sign factors need a stabilizer of order 2\n"


def test_cells_with_a_negative_index_is_an_error_exit(capsys):
    # an interior cell of index -2 would be the pair of -2 trivial
    # summands: an error line and exit 2, not "singular: deg 0: Z^2"
    assert main(["cells", "--cell", "interior", "--index", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: multiplicities must be nonnegative, "
                            "not trivial=-2 sign=0\n")


def _exit_code(argv):
    """main's exit code, also where argparse rejects a flag by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["morse", "figure1_plane", "--stabilize", "--delta", "0.5"],
    ["morse", "sphere_antipodal", "--stabilize", "--delta", "0.5"],
    ["morse", "figure1_plane", "--stabilize", "--delta", "0"],
    ["morse", "figure1_plane", "--stabilize", "--delta", "-1"],
    ["bredon", "circle_reflection", "--coeff", "bogus"],
    ["cells", "--cell", "stable", "--index", "2", "--order", "0"],
    ["bredon", "circle_reflection", "--coeff", "singular,general"],
    ["specseq", "circle_reflection", "--coeff", "bogus"],
    ["specseq", "circle_reflection", "--rmax", "0"],
    ["morse", "wells_c2", "--seeds", "-1"],
    ["cells", "--cell", "stable", "--index", "2", "--theory", "borel"],
    ["morse", "wells_c2", "--seeds", "5", "--seed-value", "-1"],
    ["bredon", "circle_reflection", "--coeff", "constant,constant"],
    ["cells", "--cell", "bogus", "--index", "1"],
], ids=["delta-too-large", "delta-too-large-stable", "delta-zero",
        "delta-negative", "coeff-bogus", "order-zero", "coeff-general",
        "specseq-coeff", "rmax-zero", "seeds-negative", "theory-bogus",
        "seed-value-negative", "coeff-repeated", "cell-bogus"])
def test_bad_flag_value_is_an_error_exit(argv, capsys):
    # a flag value no command can use is an error line and exit 2, whether
    # argparse rejects it or the layer that reads it raises an InputError
    if argv[0] != "cells":
        argv = [argv[0], str(FIXDIR / f"{argv[1]}.json")] + argv[2:]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "Traceback" not in captured.err


def test_user_facing_errors_share_one_base():
    from equimorse.errors import InputError
    from equimorse.morse import (ChartMissing, DegenerateHessian, DeltaTooLarge,
                                 HNotEquivariant, OutsideDeskScale)
    from equimorse.repcells import UnsupportedRep
    from equimorse.smith import NotAPGroup

    for cls in (FixtureError, NotAPGroup, UnsupportedRep, ChartMissing,
                DegenerateHessian, OutsideDeskScale, DeltaTooLarge,
                HNotEquivariant):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError)


def test_homological_commands_import_neither_numpy_nor_the_morse_layer():
    # bredon, specseq on a G-CW fixture, cells and smith are exact
    # combinatorics: in a fresh interpreter, importing the CLI, loading a
    # G-CW fixture and running every golden command that names no manifold
    # fixture must leave numpy, equimorse.morse and the polynomial layer
    # unimported
    import equimorse

    src = str(Path(equimorse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    manifold = {f"fixtures/{name}.json" for name in fixtures.MANIFOLD_FIXTURES}
    commands = [case["argv"] for case in GOLDEN
                if not manifold.intersection(case["argv"])]
    assert {argv[0] for argv in commands} == {"bredon", "specseq", "cells",
                                              "smith"}
    script = "\n".join([
        "import contextlib, io, json, sys",
        "from equimorse.cli import main",
        "from equimorse.fixtures import load_fixture",
        "load_fixture('fixtures/circle_reflection.json')",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv) == 0, argv",
        "print(sorted(m for m in sys.modules",
        "             if m.split('.')[0] == 'numpy' or m.startswith('equimorse.morse')",
        "             or m == 'equimorse.polynomials'))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, timeout=120, cwd=FIXDIR.parent,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _quadric_fixture(signs, constraints, antipodal):
    """A manifold fixture in R^n with f = sum s_i (i + 1) x_i^2, the group C2
    acting by -I (antipodal) or the trivial group, and the seed grid 4^n on
    [-1.2, 1.2]^n."""
    n = len(signs)

    def square(i, c):
        return [[2 * (j == i) for j in range(n)], c, 1]

    identity = [[[int(i == j), 1] for j in range(n)] for i in range(n)]
    minus = [[[-int(i == j), 1] for j in range(n)] for i in range(n)]
    group = ({"order": 2, "name": "C2", "table": [[0, 1], [1, 0]]} if antipodal
             else {"order": 1, "name": "1", "table": [[0]]})
    return {
        "name": "quadric",
        "group": group,
        "manifold": {
            "ambient": n, "constraints": constraints,
            "action": [identity, minus] if antipodal else [identity],
            "function": [square(i, s * (i + 1)) for i, s in enumerate(signs)],
            "seeds": {"bounds": [[-1.2, 1.2]] * n, "counts": 4},
        },
    }


def _unit_sphere(n):
    return [[[[0] * n, -1, 1]] + [[[2 * (j == i) for j in range(n)], 1, 1]
                                  for i in range(n)]]


@pytest.mark.parametrize("signs, constraints, antipodal, message", [
    # RP^3: S^3 in R^4 modulo -I, with stable orbits of indices 0 to 3
    ((1, 1, 1, 1), _unit_sphere(4), True,
     "sources of index > 2 are outside desk scale"),
    # R^3 with an index-2 saddle at the origin: the flow counting out of an
    # index-2 source needs a surface
    ((1, -1, -1), [], False, "index-2 flow counting is implemented for surfaces"),
], ids=["rp3", "r3-index2"])
def test_morse_outside_desk_scale_is_an_error_exit(tmp_path, capsys, signs,
                                                    constraints, antipodal,
                                                    message):
    p = tmp_path / "quadric.json"
    p.write_text(json.dumps(_quadric_fixture(signs, constraints, antipodal)))
    assert main(["morse", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_morse_stabilize_without_a_chart_is_an_error_exit(tmp_path, capsys):
    # R^3 with C2 acting by -I and f = x^2 - 2 y^2 - 3 z^2: the origin is
    # unstable, and surgery needs a Morse chart the fixture does not have
    p = tmp_path / "saddle.json"
    p.write_text(json.dumps(_quadric_fixture((1, -1, -1), [], True)))
    assert main(["morse", str(p), "--stabilize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: surgery needs the fixture's Morse chart\n"


def _drop_sphere_fn(raw):
    del raw["manifold"]["sphere_fn"]


def _sphere_fn_not_equivariant(raw):
    # h(u) = u_1 is not invariant under the C3 rotation of U = R^2
    raw["manifold"]["sphere_fn"]["records"] = [[[1, 0], 1, 1]]


@pytest.mark.parametrize("edit, message", [
    (_drop_sphere_fn,
     "surgery with dim U >= 2 needs an explicit sphere function"),
    (_sphere_fn_not_equivariant, "sphere function moves by 1.73e+00"),
], ids=["missing", "not-equivariant"])
def test_morse_stabilize_with_bad_sphere_data_is_an_error_exit(
        tmp_path, capsys, edit, message):
    # figure 1's origin has U = R^2 under C3: its surgery needs an
    # equivariant sphere function from the fixture
    p = _rewritten(tmp_path, "figure1_plane", edit)
    assert main(["morse", str(p), "--stabilize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("key, value", [
    ("escape_radius", -1), ("escape_radius", 0), ("surgery_radius", -1),
    ("surgery_radius", 0), ("step_length", -0.02), ("step_length", "0.02"),
    ("escape_radius", float("inf")), ("surgery_radius", True),
])
def test_a_fixture_scalar_that_is_not_a_finite_positive_number_is_an_error_exit(
        tmp_path, capsys, key, value):
    # on figure 2 under morse --stabilize, escape radius -1 or 0 let every
    # flow row escape at step 0 and printed F2, F2 with exit 0, surgery
    # radius -1 ended in numpy's traceback, 0 ran a surgery that changed
    # nothing, and step length -0.02 left two rows unresolved
    p = _rewritten(tmp_path, "figure2_plane",
                   lambda raw: raw["manifold"].update({key: value}))
    message = f"{key!r} must be a finite number > 0, not {value!r}"
    with pytest.raises(FixtureError) as exc:
        load_fixture(p)
    assert str(exc.value) == f"{p}: {message}"
    assert main(["morse", str(p), "--stabilize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: {message}\n"


def test_morse_degenerate_function_is_an_error_exit(tmp_path, capsys):
    # f = x^4 + y^2 on R^2: the Hessian at the critical point is degenerate
    p = tmp_path / "quartic.json"
    p.write_text(json.dumps({
        "name": "quartic",
        "group": {"order": 1, "name": "1", "table": [[0]]},
        "manifold": {
            "ambient": 2, "constraints": [],
            "action": [[[[1, 1], [0, 1]], [[0, 1], [1, 1]]]],
            "function": [[[4, 0], 1, 1], [[0, 2], 1, 1]],
            "seeds": {"bounds": [[-1.2, 1.2]] * 2, "counts": 4},
        },
    }))
    for argv in (["morse", str(p)], ["specseq", str(p), "--stabilize"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Hessian eigenvalue within 1e-06 of zero")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("counts", [4, 5])
def test_morse_codim2_circle_whose_seed_grid_holds_a_rank_drop(tmp_path,
                                                               counts):
    # S^1 = {|x|^2 = 1, z = 0} in R^3 under C2 acting by (-x, -y, z), with
    # f = y^2.  The 5-point grid holds the origin, where the Jacobian drops
    # rank: that row is solved alone, and the grid gives the 4-point grid's
    # constant-coefficient homology F2, F2
    p = tmp_path / "circle_codim2.json"
    p.write_text(json.dumps({
        "name": "circle_codim2",
        "group": {"order": 2, "name": "C2", "table": [[0, 1], [1, 0]]},
        "manifold": {
            "ambient": 3,
            "constraints": _unit_sphere(3) + [[[[0, 0, 1], 1, 1]]],
            "action": [[[[int(i == j), 1] for j in range(3)]
                        for i in range(3)],
                       [[[(1 if i == 2 else -1) * int(i == j), 1]
                         for j in range(3)] for i in range(3)]],
            "function": [[[0, 2, 0], 1, 1]],
            "seeds": {"bounds": [[-1.1, 1.1]] * 3, "counts": counts},
        },
    }))
    code, out = run_cli(["morse", str(p), "--coeff", "constant"])
    assert code == 0
    assert out.endswith("degree  group\n     0  F2\n     1  F2\n")


def test_specseq_command_gcw():
    code, out = run_cli(["specseq", str(FIXDIR / "circle_reflection.json"),
                         "--coeff", "singular", "--p", "2"])
    assert code == 0
    assert "convergence: ok" in out
    assert "E^1" in out


@pytest.mark.parametrize("p", ["3", "0"])
def test_specseq_manifold_rejects_other_characteristics(p, capsys):
    # flow lines are counted mod 2, so F_2 is the only characteristic a
    # Morse spectral sequence can be computed in
    path = str(FIXDIR / "circle_c2_height.json")
    assert main(["specseq", path, "--stabilize", "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--p 2" in captured.err


def test_specseq_manifold_needs_a_stable_function(capsys):
    # figure 1 without --stabilize keeps its unstable origin, so there is no
    # Morse complex to filter
    assert main(["specseq", str(FIXDIR / "figure1_plane.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: specseq on a manifold fixture needs "
                            "--stabilize to reach a stable function\n")


def test_morse_command_without_stabilize_reports():
    code, out = run_cli(["morse", str(FIXDIR / "circle_c2_height.json")])
    assert code == 0
    assert "UNSTABLE" in out
    assert "rerun with --stabilize" in out


def test_morse_command_stabilize_pipeline():
    code, out = run_cli(["morse", str(FIXDIR / "circle_c2_height.json"),
                         "--stabilize", "--coeff", "singular"])
    assert code == 0
    assert "critical points (after):" in out
    # the one surgered flow on a constrained manifold, pinned exactly
    assert ("unresolved=0 escaped=0 steps=32 halvings=2 linear_captures=2 "
            "linear_releases=2"
            in out)
    assert "morse homology over F2" in out
    # byte-identical on rerun
    code2, out2 = run_cli(["morse", str(FIXDIR / "circle_c2_height.json"),
                           "--stabilize", "--coeff", "singular"])
    assert out == out2


def test_morse_coordinates_print_no_negative_zero():
    # Newton leaves the circle's critical points at coordinates like -6e-29
    for fmt in ("text", "csv"):
        code, out = run_cli(["morse", str(FIXDIR / "circle_c2_height.json"),
                             "--stabilize", "--format", fmt])
        assert code == 0
        assert "[0.0, 1.0]" in out
        assert not re.search(r"-0\.0(?!\d)", out)


def test_console_entrypoint():
    # the child imports equimorse from wherever this process found it
    import equimorse

    src = str(Path(equimorse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "equimorse.cli", "cells", "--cell", "stable",
         "--index", "2", "--theory", "singular"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "deg 2: Z" in proc.stdout


def test_readme_library_example_runs(tmp_path):
    # the README's Python example, extracted with the CI workflow's pattern
    # and run outside the checkout with src on its path, prints the Morse
    # homology of the stabilized circle and the cellular Bredon homology of
    # the reflection circle, as a fixture and from its individual cells: the
    # same non-empty table three times
    import equimorse

    readme = (FIXDIR.parent / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    src = str(Path(equimorse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    head, morse, bredon, cells = proc.stdout.split("degree  group\n")
    assert head == "" and morse.strip()
    assert morse == bredon
    assert cells == bredon


def _patch_flow(monkeypatch, **fields):
    """Run the real flow counting, then overwrite fields of its MorseData;
    its verdict ok is computed from them, so the CLI's exit follows.  The
    CLI's flow is MorseRun.flow, which calls the morse_differentials of
    equimorse.morse.run, so the patch goes there."""
    from equimorse.morse import run as morse_run

    real = morse_run.morse_differentials

    def patched(*args, **kwargs):
        data = real(*args, **kwargs)
        for name, value in fields.items():
            setattr(data, name, value)
        return data

    monkeypatch.setattr(morse_run, "morse_differentials", patched)


def test_morse_exit_code_on_flow_warning(monkeypatch):
    _patch_flow(monkeypatch,
                warnings=["NonConsecutiveFlow: trajectory skipped an index"])
    code, out = run_cli(["morse", str(FIXDIR / "figure2_plane.json"),
                         "--stabilize"])
    assert code == 1
    assert "warning: NonConsecutiveFlow" in out


def test_morse_exit_code_on_closed_manifold_escape(monkeypatch):
    # the circle is closed: a trajectory that escapes is a bug
    _patch_flow(monkeypatch, escaped=1)
    code, out = run_cli(["morse", str(FIXDIR / "circle_c2_height.json"),
                         "--stabilize"])
    assert code == 1
    assert "unresolved=0 escaped=1" in out


def _library_flow(argv):
    """run_morse(...).flow(), the library's route, for the fixture and flags
    of a morse or specseq argv, on the seeds the CLI draws for --seeds and
    --seed-value."""
    from equimorse.cli import make_parser
    from equimorse.morse import run_morse

    args = make_parser().parse_args(argv)
    fx = load_fixture(args.fixture)
    seeds = None
    if args.seeds:
        seeds = fx.random_seeds(args.seeds, args.seed_value)
    return run_morse(fx, seeds=seeds, stabilize=args.stabilize,
                     delta=args.delta).flow()


def _warning_lines(out):
    return [line for line in out.splitlines() if line.startswith("warning:")]


def test_specseq_on_a_manifold_fails_with_its_flow(capsys, monkeypatch):
    # three seeds on the torus find no index-1 point, and the flow leaves
    # two rows unresolved and a basin boundary unexplained: specseq fails
    # as morse does, and prints the flow's warning line but not its counts
    monkeypatch.chdir(FIXDIR.parent)
    argv = ["fixtures/torus_tilted.json", "--seeds", "3", "--seed-value",
            "1", "--stabilize", "--coeff", "constant"]
    warning = ("warning: orbit 1: 4 basin boundaries but 0 identified flow "
               "lines between basins\n")
    data = _library_flow(["morse"] + argv)
    assert not data.ok
    warned = [f"warning: {w}" for w in data.warnings]
    assert main(["morse"] + argv) == 1
    out = capsys.readouterr().out
    assert "unresolved=2" in out and _warning_lines(out) == warned
    assert main(["specseq"] + argv) == 1
    out = capsys.readouterr().out
    assert out.count("warning:") == 1 and warning in out
    assert _warning_lines(out) == warned
    assert "flow counting:" not in out


@pytest.mark.parametrize("name, seeds, seed_value", [
    ("sphere_height", "1", "0"), ("sphere_antipodal", "2", "1"),
    ("torus_tilted", "1", "1")])
def test_closed_manifold_without_a_maximum_fails(name, seeds, seed_value,
                                                 capsys, monkeypatch):
    # too few seeds find minima but no maximum: every function on the
    # closed sphere and torus has one, so the table is incomplete and the
    # homology wrong, and both commands say so and exit 1
    monkeypatch.chdir(FIXDIR.parent)
    argv = [f"fixtures/{name}.json", "--stabilize", "--seeds", seeds,
            "--seed-value", seed_value]
    warning = ("warning: no critical point of index 2 was found, but every "
               "function on a closed manifold has one\n")
    data = _library_flow(["morse"] + argv)
    assert not data.ok
    warned = [f"warning: {w}" for w in data.warnings]
    assert main(["morse"] + argv) == 1
    out = capsys.readouterr().out
    assert "index=2" not in out and warning in out
    assert _warning_lines(out) == warned
    assert main(["specseq"] + argv) == 1
    out = capsys.readouterr().out
    assert warning in out and _warning_lines(out) == warned


@pytest.mark.parametrize("case", [
    case for case in GOLDEN
    if case["argv"][0] == "morse" and "flow counting:" in case["stdout"]
], ids=lambda case: "_".join(case["argv"][1:]).replace("fixtures/", ""))
def test_stable_morse_goldens_pass_the_library_verdict(case, monkeypatch):
    # every golden morse run that counts its flow exits 0, and the library
    # route to the same flow gives the verdict ok
    monkeypatch.chdir(FIXDIR.parent)
    assert case["exit"] == 0
    assert _library_flow(case["argv"]).ok


def test_morse_flat_figures_exit_zero_with_escapes():
    # on the open planes an escape is a legitimate label
    code, out = run_cli(["morse", str(FIXDIR / "figure2_plane.json"),
                         "--stabilize"])
    assert code == 0
    assert ("unresolved=0 escaped=1 steps=22 halvings=2 linear_captures=1 "
            "linear_releases=2") in out
    code, out = run_cli(["morse", str(FIXDIR / "figure1_plane.json"),
                         "--stabilize", "--coeff", "singular"])
    assert code == 0
    assert ("unresolved=0 escaped=258 steps=7259 halvings=1392 "
            "linear_captures=258 linear_releases=346") in out
    flows = out.split("(source orbit -> target orbit, coset):\n")[1]
    assert flows.splitlines()[:3] == ["  1 -> 0 via coset (0, 1, 2): 1",
                                      "  2 -> 1 via coset (1,): 1",
                                      "  2 -> 1 via coset (0,): 1"]


def test_stabilize_that_leaves_unstable_points_exits_one(capsys, monkeypatch):
    # figure1_dihedral's one surgery leaves its three maxima unstable: under
    # --stabilize morse and specseq say how many and exit 1
    monkeypatch.chdir(FIXDIR.parent)
    warning = "warning: still unstable after the surgery: 3 of 7 critical points\n"
    for command in ("morse", "specseq"):
        assert main([command, "fixtures/figure1_dihedral.json", "--stabilize"]) == 1
        assert capsys.readouterr().out.endswith(warning)


def _write_goldens():
    """Rerun every golden's argv from the root of the checkout and write
    cli_outputs.json, one case a line, unless a command prints on
    stderr."""
    import contextlib
    from io import StringIO

    os.chdir(FIXDIR.parent)
    cases, noisy = [], []
    for case in GOLDEN:
        out, err = StringIO(), StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(case["argv"])
        if err.getvalue():
            noisy.append(f"{shlex.join(case['argv'])}: {err.getvalue()}")
        cases.append({"argv": case["argv"], "exit": code,
                      "stdout": out.getvalue()})
    if noisy:
        sys.exit("not written, output on stderr:\n" + "\n".join(noisy))
    GOLDEN_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli.py --write")
    _write_goldens()
