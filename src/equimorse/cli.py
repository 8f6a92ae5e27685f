"""Command-line front end: fixture loading, pipeline orchestration, report
emission.

Fixtures are JSON files carrying the group as an explicit multiplication
table plus either a G-CW description (cell-orbits with stabilizers and
boundary records) or a manifold description (constraints, action matrices,
function, charts).  Matrix and polynomial entries are written as [num, den]
pairs when exact and plain floats otherwise.

Commands: bredon, morse, specseq, cells, smith.  Reports are deterministic
given identical flags and seeds; the exit code is nonzero whenever an
invoked invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .coefficients import build_system
from .complexes import homology
from .gcw import CellOrbit, GCWComplex, bredon_chain_complex, subquotient_complex
from .groups import (
    FiniteGroup,
    OrbitCategory,
    OrbitMorphism,
    Subgroup,
    full_subgroup,
    trivial_subgroup,
)
from .morse import (
    AngleChart,
    EqFunction,
    ImplicitGManifold,
    LinearChart,
    SphereFunction,
    build_cutoffs,
    classify,
    find_critical_points,
    localize_surgery,
    morse_complex,
    morse_differentials,
    morse_filtration,
    representation_cell_groups,
    RepSpec,
    seed_grid,
)
from .polynomials import LinearAction, Polynomial
from .smith import NotAPGroup, smith_report
from .spectral import einfty_check, skeletal_filtration, spectral_pages


class FixtureError(ValueError):
    pass


# -- fixture (de)serialization ----------------------------------------------


def _num_from_json(v):
    if isinstance(v, list):
        return Fraction(int(v[0]), int(v[1]))
    if isinstance(v, (int, float)):
        return v
    raise FixtureError(f"bad numeric entry {v!r}")


def load_fixture(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if "group" not in raw:
        raise FixtureError(f"{path}: missing 'group'")
    has_gcw = "gcw" in raw
    has_manifold = "manifold" in raw
    if has_gcw == has_manifold:
        raise FixtureError(f"{path}: exactly one of 'gcw'/'manifold' required")
    g = raw["group"]
    table = tuple(tuple(int(x) for x in row) for row in g["table"])
    if len(table) != int(g.get("order", len(table))):
        raise FixtureError(f"{path}: group order disagrees with the table")
    group = FiniteGroup(table, name=g.get("name", "G"))
    out = {"name": raw.get("name", path), "group": group}
    if has_gcw:
        out["gcw"] = _gcw_from_json(group, raw["gcw"], raw.get("name", ""))
    else:
        out["manifold"] = _manifold_from_json(group, raw["manifold"])
    out["options"] = raw.get("options", {})
    return out


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


def _matrix_from_json(rows):
    return tuple(tuple(_num_from_json(v) for v in row) for row in rows)


def _manifold_from_json(group, spec) -> dict:
    ambient = int(spec["ambient"])
    mats = [_matrix_from_json(m) for m in spec["action"]]
    act = LinearAction(group, mats)
    constraints = tuple(
        Polynomial.from_records(ambient, recs)
        for recs in spec.get("constraints", [])
    )
    M = ImplicitGManifold(ambient=ambient, constraints=constraints, action=act)
    f = EqFunction.from_polynomial(
        Polynomial.from_records(ambient, spec["function"]), name="fixture-function"
    )
    charts = {}
    for name, ch in spec.get("charts", {}).items():
        if ch["type"] == "linear":
            charts[name] = LinearChart(
                np.array(ch["point"], dtype=float),
                np.array(ch["frame"], dtype=float),
                dv=int(ch["dv"]), dw=int(ch["dw"]),
            )
        elif ch["type"] == "angle":
            charts[name] = AngleChart(float(ch["pole_angle"]))
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
        seeds = seed_grid([(-1.5, 1.5)] * ambient, 7)
    return {
        "manifold": M,
        "function": f,
        "charts": charts,
        "sphere_fn": sphere_fn,
        "seeds": seeds,
        "surgery_radius": float(spec.get("surgery_radius", 1.0)),
        "step_length": float(spec.get("step_length", 0.01)),
        "escape_radius": float(spec.get("escape_radius", 50.0)),
    }


# -- report helpers ----------------------------------------------------------


def _emit(lines, fmt_rows, args):
    if args.format == "csv":
        print("\n".join(fmt_rows))
    else:
        print("\n".join(lines))


def _header(args, extra=""):
    flags = (f"# equimorse {args.command} p={getattr(args, 'p', '-')} "
             f"coeff={getattr(args, 'coeff', '-')} seeds={getattr(args, 'seeds', '-')} "
             f"delta={getattr(args, 'delta', '-')}")
    return flags + (f" {extra}" if extra else "")


# -- commands ----------------------------------------------------------------


def cmd_bredon(args) -> int:
    fx = load_fixture(args.fixture)
    if "gcw" not in fx:
        raise FixtureError("bredon needs a G-CW fixture")
    X = fx["gcw"]
    cat = OrbitCategory(X.group)
    coeff = args.coeff or fx["options"].get("coeff", "singular,constant,fixed-point")
    kinds = coeff.split(",")
    lines = [_header(args, f"fixture={fx['name']}")]
    rows = ["kind,degree,betti,torsion"]
    ok = True
    for kind in kinds:
        M = build_system(cat, kind, char=args.p)
        h = homology(bredon_chain_complex(X, M))
        lines.append(f"[{kind}]")
        lines.append(h.text_table())
        for n in h.degrees():
            b, tors = h.group(n)
            rows.append(f"{kind},{n},{b},{';'.join(map(str, tors))}")
        # oracle comparison for the kinds with a subquotient counterpart
        pair = {"singular": (trivial_subgroup(X.group), trivial_subgroup(X.group)),
                "constant": (full_subgroup(X.group), trivial_subgroup(X.group)),
                "quotient": (full_subgroup(X.group), trivial_subgroup(X.group)),
                "fixed-point": (trivial_subgroup(X.group), full_subgroup(X.group))}
        if kind in pair:
            H, K = pair[kind]
            ho = homology(subquotient_complex(X, H, K, char=args.p))
            match = all(h.group(n) == ho.group(n)
                        for n in set(h.degrees()) | set(ho.degrees()))
            lines.append(f"oracle (subquotient): {'match' if match else 'MISMATCH'}")
            ok = ok and match
    _emit(lines, rows, args)
    return 0 if ok else 1


def _coords(x) -> list:
    """Coordinates rounded to 6 places; adding 0.0 turns -0.0 into 0.0."""
    return (np.round(x, 6) + 0.0).tolist()


def _morse_pipeline(fx, args):
    data = fx["manifold"]
    M = data["manifold"]
    f = data["function"]
    seeds = data["seeds"]
    if args.seeds:
        rng = np.random.default_rng(args.seed_value)
        lo = seeds.min(axis=0)
        hi = seeds.max(axis=0)
        seeds = rng.uniform(lo, hi, size=(args.seeds, M.ambient))
    pts = find_critical_points(f, M, seeds)
    crits = [classify(f, M, p) for p in pts]
    lines = ["critical points (before):"]
    for c in crits:
        lines.append(
            f"  at {_coords(c.coords)} value={c.value:.6g} "
            f"index={c.index} stab={c.stabilizer.order} "
            f"{'stable' if c.stable else 'UNSTABLE'}"
        )
    if args.stabilize:
        cut = build_cutoffs(args.delta)
        for c in list(crits):
            if c.stable:
                continue
            chart = None
            for name, ch in data["charts"].items():
                center = (ch.center if hasattr(ch, "center")
                          else ch.center_point())
                if np.linalg.norm(center - c.coords) < 1e-6:
                    chart = ch
                    break
            f = localize_surgery(f, M, c, data["surgery_radius"], cut,
                                 chart=chart, h=data["sphere_fn"])
            lines.append(
                f"surgery at {_coords(c.coords)}: C0 distance "
                f"<= {f.c0_distance:.3e}"
            )
        pts = find_critical_points(f, M, seeds)
        crits = [classify(f, M, p) for p in pts]
        lines.append("critical points (after):")
        for c in crits:
            lines.append(
                f"  at {_coords(c.coords)} value={c.value:.6g} "
                f"index={c.index} stab={c.stabilizer.order} "
                f"{'stable' if c.stable else 'UNSTABLE'}"
            )
    return f, crits, lines, data


def cmd_morse(args) -> int:
    fx = load_fixture(args.fixture)
    if "manifold" not in fx:
        raise FixtureError("morse needs a manifold fixture")
    f, crits, lines, data = _morse_pipeline(fx, args)
    out = [_header(args, f"fixture={fx['name']}")] + lines
    rows = ["point,value,index,stab,stable"]
    for c in crits:
        rows.append(
            f"\"{_coords(c.coords)}\",{c.value:.9g},{c.index},"
            f"{c.stabilizer.order},{int(c.stable)}"
        )
    ok = True
    if all(c.stable for c in crits):
        M = data["manifold"]
        mdata = morse_differentials(f, M, crits,
                                    step_length=data["step_length"],
                                    escape_radius=data["escape_radius"])
        out.append(f"flow counting: unresolved={mdata.unresolved} "
                   f"escaped={mdata.escaped} steps={mdata.steps} "
                   f"halvings={mdata.halvings}")
        # an escape is a legitimate label on an open manifold (the flat
        # figures) but a bug on a closed one
        ok = (mdata.unresolved == 0 and not mdata.warnings
              and not (M.codim and mdata.escaped))
        for w in mdata.warnings:
            out.append(f"warning: {w}")
        out.append("flow counts mod 2 (source orbit -> target orbit, coset):")
        for (i, j), table in sorted(mdata.counts.items()):
            for m, cnt in table.items():
                out.append(f"  {i} -> {j} via coset {m.coset}: {cnt}")
                rows.append(f"flow,{i},{j},\"{m.coset}\",{cnt}")
        cat = OrbitCategory(M.action.group)
        coeff = args.coeff or fx["options"].get("coeff", "constant")
        sys_ = build_system(cat, coeff, char=2)
        C = morse_complex(mdata, sys_)
        h = homology(C)
        out.append(f"morse homology over F2 ({coeff}):")
        out.append(h.text_table())
        for n in h.degrees():
            rows.append(f"H{n},{h.dim(n)},,,")
    else:
        out.append("function is not stable; rerun with --stabilize for the "
                   "full pipeline")
    _emit(out, rows, args)
    return 0 if ok else 1


def cmd_specseq(args) -> int:
    fx = load_fixture(args.fixture)
    cat = OrbitCategory(fx["group"])
    if "gcw" in fx:
        M = build_system(cat, args.coeff, char=args.p)
        C = bredon_chain_complex(fx["gcw"], M)
        F = skeletal_filtration(C)
    else:
        f, crits, _, data = _morse_pipeline(fx, args)
        if not all(c.stable for c in crits):
            raise FixtureError("specseq on a manifold fixture needs "
                               "--stabilize to reach a stable function")
        mdata = morse_differentials(f, data["manifold"], crits,
                                    step_length=data["step_length"],
                                    escape_radius=data["escape_radius"])
        F = morse_filtration(mdata, build_system(cat, args.coeff, char=2))
    pages = spectral_pages(F, args.rmax)
    ok, report = einfty_check(F)
    lines = [_header(args, f"fixture={fx['name']}")]
    rows = []
    for page in pages:
        lines.append(page.grid_text())
        rows.extend(page.csv_rows() if not rows else page.csv_rows()[1:])
    lines.append(report.text())
    _emit(lines, rows, args)
    return 0 if ok else 1


def cmd_cells(args) -> int:
    G = FiniteGroup.cyclic(args.order)
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    k = args.index
    if args.cell == "interior":
        H, V = e, RepSpec(trivial=k)
    elif args.cell == "stable":
        H, V = full, RepSpec(trivial=k)
    elif args.cell == "unstable":
        if k < 1:
            raise FixtureError("unstable cells need index >= 1")
        H, V = full, RepSpec(trivial=k - 1, sign=1)
    else:
        raise FixtureError(f"unknown cell type {args.cell!r}")
    theories = (["singular", "fixed-point", "quotient", "quotient-rel-fixed"]
                if args.theory == "all" else [args.theory])
    lines = [_header(args, f"cell={args.cell} k={k} |G|={args.order}")]
    rows = ["theory,degree,betti"]
    for th in theories:
        h = representation_cell_groups(H, V, th)
        desc = ", ".join(f"deg {n}: {h.describe(n)}" for n in h.degrees()) or "0"
        lines.append(f"{th:>20}: {desc}")
        for n in h.degrees():
            rows.append(f"{th},{n},{h.betti(n)}")
        if not h.degrees():
            rows.append(f"{th},,0")
    _emit(lines, rows, args)
    return 0


def cmd_smith(args) -> int:
    fx = load_fixture(args.fixture)
    if "gcw" not in fx:
        raise FixtureError("smith needs a G-CW fixture")
    rep = smith_report(fx["gcw"], args.p)
    lines = [_header(args, f"fixture={fx['name']}"), rep.text_table()]
    _emit(lines, rep.csv_rows(), args)
    return 0 if rep.all_pass else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="equimorse",
        description="equivariant Morse theory toolkit at desk scale",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("bredon", help="Bredon homology tables per system")
    p.add_argument("fixture")
    p.add_argument("--coeff", default=None)
    p.add_argument("--p", type=int, default=0,
                   help="coefficient characteristic (0 = integers)")
    common(p)

    p = sub.add_parser("morse", help="critical points, surgery, differentials")
    p.add_argument("fixture")
    p.add_argument("--stabilize", action="store_true")
    p.add_argument("--coeff", default=None)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seeds", type=int, default=0,
                   help="override fixture seeds with N random ones")
    p.add_argument("--seed-value", type=int, default=0)
    common(p)

    p = sub.add_parser("specseq", help="spectral sequence pages")
    p.add_argument("fixture")
    p.add_argument("--coeff", default="singular")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--rmax", type=int, default=3)
    p.add_argument("--stabilize", action="store_true")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seeds", type=int, default=0)
    p.add_argument("--seed-value", type=int, default=0)
    common(p)

    p = sub.add_parser("cells", help="representation cell group tables")
    p.add_argument("--order", type=int, default=2, help="cyclic group order")
    p.add_argument("--cell", choices=("interior", "stable", "unstable"),
                   required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--theory", default="all")
    common(p)

    p = sub.add_parser("smith", help="Smith inequality report")
    p.add_argument("fixture")
    p.add_argument("--p", type=int, required=True)
    common(p)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "bredon": cmd_bredon,
        "morse": cmd_morse,
        "specseq": cmd_specseq,
        "cells": cmd_cells,
        "smith": cmd_smith,
    }
    try:
        return handlers[args.command](args)
    except (FixtureError, NotAPGroup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
