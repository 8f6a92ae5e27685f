"""Fixtures: the G-CW complexes and G-manifolds the test suite, the CLI and
the benchmark exercise.

Every fixture is one JSON file under fixtures/ at the root of the checkout.
A file carries the group as an explicit multiplication table plus either a
G-CW description (cell orbits with stabilizers and boundary records) or a
manifold description (constraints, action matrices, function, seeds, and
the exact Morse charts and sphere data where surgery applies).  Matrix
entries are [num, den] pairs when exact and plain floats otherwise (a float
action is Morse-layer geometry).  A polynomial is a list of
Polynomial.from_records triples [exponents, num, den]; den 0 marks a float,
read as the binary rational it denotes.

load_fixture(path) reads any such file and returns a GCWComplex or a
ManifoldFixture.  Only a manifold file imports numpy and the Morse layer,
when it is read, so loading a G-CW fixture stays on the exact, numpy-free
homological layer.  equimorse.fixtures.<name>() loads fixtures/<name>.json
from the checkout by name, so it works from a source tree or an editable
install; GCW_FIXTURES and MANIFOLD_FIXTURES map each name to that loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError
from .gcw import CellOrbit, GCWComplex
from .groups import FiniteGroup, OrbitMorphism, Subgroup
from .polynomials import LinearAction, Polynomial

if TYPE_CHECKING:
    import numpy as np

    from .morse import EqFunction, ImplicitGManifold, SphereFunction

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"


class FixtureError(InputError):
    """A fixture file that cannot be read, or a flag the command cannot use."""


@dataclass(eq=False)
class ManifoldFixture:
    """A G-manifold with an invariant function and search/surgery data."""

    name: str
    manifold: ImplicitGManifold
    function: EqFunction
    seeds: np.ndarray
    charts: dict = field(default_factory=dict)     # point label -> chart
    sphere_fn: SphereFunction | None = None
    surgery_radius: float = 1.0
    step_length: float = 0.01
    escape_radius: float = 50.0


def load_fixture(path) -> GCWComplex | ManifoldFixture:
    """The fixture in the JSON file at path; FixtureError if it is malformed
    (a missing key, a value of the wrong type, or a value a layer rejects
    with a ValueError)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    unknown = set(raw) - {"name", "group", "gcw", "manifold"}
    if unknown:
        raise FixtureError(f"{path}: unknown keys {sorted(unknown)}")
    if "group" not in raw:
        raise FixtureError(f"{path}: missing 'group'")
    if ("gcw" in raw) == ("manifold" in raw):
        raise FixtureError(f"{path}: exactly one of 'gcw'/'manifold' required")
    try:
        g = raw["group"]
        table = tuple(tuple(int(x) for x in row) for row in g["table"])
        if len(table) != int(g.get("order", len(table))):
            raise FixtureError(f"{path}: group order disagrees with the table")
        group = FiniteGroup(table, name=g.get("name", "G"))
        name = raw.get("name", str(path))
        if "gcw" in raw:
            return _gcw_from_json(group, raw["gcw"], name)
        return _manifold_from_json(group, raw["manifold"], name)
    except FixtureError:
        raise
    except KeyError as exc:
        raise FixtureError(f"{path}: missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise FixtureError(f"{path}: a value has the wrong type: {exc}") from exc
    except ValueError as exc:
        # data the layers reject: a table that is no group, a stabilizer
        # that is no subgroup, an action that breaks the group law or is
        # not orthogonal, an entry that is no number, a bad polynomial record
        raise FixtureError(f"{path}: {exc}") from exc


def _num_from_json(v):
    if isinstance(v, list):
        return Fraction(int(v[0]), int(v[1]))
    if isinstance(v, (int, float)):
        return v
    raise FixtureError(f"bad numeric entry {v!r}")


def _matrix_from_json(rows):
    return tuple(tuple(_num_from_json(v) for v in row) for row in rows)


def _gcw_from_json(group, spec, name: str) -> GCWComplex:
    cells = {}
    for dim_str, lst in spec["cells"].items():
        n = int(dim_str)
        cells[n] = tuple(
            CellOrbit(Subgroup(group, tuple(int(x) for x in c["stab"])),
                      c.get("label", f"c{n}.{i}"))
            for i, c in enumerate(lst)
        )
    boundary: dict = {}
    for rec in spec.get("boundary", []):
        n = int(rec["dim"])
        a = int(rec["cell"])
        b = int(rec["face"])
        m = OrbitMorphism(cells[n][a].stabilizer, cells[n - 1][b].stabilizer,
                          (int(rec["coset"]),))
        boundary.setdefault(n, {}).setdefault((a, b), []).append(
            (m, int(rec["degree"]))
        )
    boundary = {n: {k: tuple(v) for k, v in d.items()}
                for n, d in boundary.items()}
    marked = frozenset(
        (int(d), int(i)) for d, i in spec.get("marked", [])
    )
    return GCWComplex(group=group, cells=cells, boundary=boundary,
                      marked=marked, name=name)


def _manifold_from_json(group, spec, name: str) -> ManifoldFixture:
    import numpy as np

    from .morse import (AngleChart, EqFunction, ImplicitGManifold, LinearChart,
                        SphereFunction, seed_grid)

    ambient = int(spec["ambient"])
    act = LinearAction(group, [_matrix_from_json(m) for m in spec["action"]])
    constraints = tuple(
        Polynomial.from_records(ambient, recs)
        for recs in spec.get("constraints", [])
    )
    M = ImplicitGManifold(ambient=ambient, constraints=constraints, action=act,
                          name=name)
    f = EqFunction.from_polynomial(
        Polynomial.from_records(ambient, spec["function"]), name=name
    )
    charts = {}
    for label, ch in spec.get("charts", {}).items():
        if ch["type"] == "linear":
            charts[label] = LinearChart(
                np.array(ch["point"], dtype=float),
                np.array(ch["frame"], dtype=float),
                dv=int(ch["dv"]), dw=int(ch["dw"]),
            )
        elif ch["type"] == "angle":
            charts[label] = AngleChart(float(ch["pole_angle"]))
        else:
            raise FixtureError(f"unknown chart type {ch['type']!r}")
    sphere_fn = None
    if "sphere_fn" in spec:
        sf = spec["sphere_fn"]
        sphere_fn = SphereFunction(
            Polynomial.from_records(int(sf["nvars"]), sf["records"])
        )
    seeds_spec = spec.get("seeds", {})
    if "circle" in seeds_spec:
        th = np.linspace(0, 2 * np.pi, int(seeds_spec["circle"]), endpoint=False)
        seeds = np.stack([np.cos(th), np.sin(th)], axis=1)
    elif "bounds" in seeds_spec:
        seeds = seed_grid([tuple(b) for b in seeds_spec["bounds"]],
                          seeds_spec.get("counts", 7))
    else:
        raise FixtureError(f"{name}: manifold 'seeds' needs 'circle' or 'bounds'")
    scalars = {k: float(spec[k])
               for k in ("surgery_radius", "step_length", "escape_radius")
               if k in spec}
    return ManifoldFixture(name=name, manifold=M, function=f, seeds=seeds,
                           charts=charts, sphere_fn=sphere_fn, **scalars)


def _loaders_by_kind():
    gcw, manifold = {}, {}
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        kind = gcw if "gcw" in json.loads(path.read_text()) else manifold
        kind[path.stem] = partial(load_fixture, path)
    return gcw, manifold


GCW_FIXTURES, MANIFOLD_FIXTURES = _loaders_by_kind()


def __getattr__(name: str):
    """fixtures.<name> is the loader of fixtures/<name>.json."""
    loader = GCW_FIXTURES.get(name) or MANIFOLD_FIXTURES.get(name)
    if loader is None and not FIXTURE_DIR.is_dir():
        raise AttributeError(
            f"fixtures.{name} loads a file from the fixtures/ directory of a "
            f"source checkout, and there is none at {FIXTURE_DIR}; run from a "
            f"checkout or an editable install, or read the file with "
            f"load_fixture(path)")
    if loader is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return loader
