import json
import os
import re
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
    assert ("unresolved=0 escaped=0 steps=146 halvings=0 linear_captures=2"
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


def _patch_flow(monkeypatch, **fields):
    """Run the real flow counting, then overwrite fields of its MorseData."""
    import equimorse.cli as cli

    real = cli.morse_differentials

    def patched(*args, **kwargs):
        data = real(*args, **kwargs)
        for name, value in fields.items():
            setattr(data, name, value)
        return data

    monkeypatch.setattr(cli, "morse_differentials", patched)


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


def test_morse_flat_figures_exit_zero_with_escapes():
    # on the open planes an escape is a legitimate label
    code, out = run_cli(["morse", str(FIXDIR / "figure2_plane.json"),
                         "--stabilize"])
    assert code == 0
    assert "unresolved=0 escaped=1 steps=141 halvings=0 linear_captures=1" in out
    code, out = run_cli(["morse", str(FIXDIR / "figure1_plane.json"),
                         "--stabilize", "--coeff", "singular"])
    assert code == 0
    assert "unresolved=0 escaped=1 steps=36748 halvings=62 linear_captures=258" in out
    flows = out.split("(source orbit -> target orbit, coset):\n")[1]
    assert flows.splitlines()[:3] == ["  1 -> 0 via coset (0, 1, 2): 1",
                                      "  2 -> 1 via coset (1,): 1",
                                      "  2 -> 1 via coset (0,): 1"]
