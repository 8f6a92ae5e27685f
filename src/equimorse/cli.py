"""Command-line front end: flags to library calls, and report emission.

Fixture arguments are paths to JSON files in the format read by
equimorse.fixtures.load_fixture (see fixtures/ at the root of the checkout).

Commands: bredon, morse, specseq, cells, smith.  Reports are deterministic
given identical flags and seeds; the exit code is nonzero whenever an
invoked invariant fails.  A flag value no command can use is an argparse
usage error, and an InputError from any layer one `error:` line; both exit
with 2.

bredon, cells, smith and specseq on a G-CW fixture run on the exact
homological layer and never import numpy or equimorse.morse: morse and
specseq on a manifold fixture import them when they run.
"""

from __future__ import annotations

import argparse
import functools
import sys

from ._intlinalg import is_prime
from .coefficients import SUBQUOTIENTS, SYSTEM_KINDS, build_system, subquotient
from .complexes import homology
from .errors import InputError
from .fixtures import FixtureError, ManifoldFixture, load_fixture
from .gcw import GCWComplex, bredon_chain_complex, subquotient_complex
from .groups import FiniteGroup, OrbitCategory, full_subgroup, trivial_subgroup
from .repcells import THEORIES, RepSpec, representation_cell_table
from .smith import smith_report
from .spectral import einfty_check, skeletal_filtration, spectral_pages


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


def _check_char(p: int, zero_ok: bool):
    """Reject a characteristic that is not a prime (or 0, where allowed), or
    one too large for is_prime to decide."""
    try:
        prime = is_prime(p)
    except ValueError as exc:
        raise FixtureError(f"--p {p}: {exc}") from exc
    if not (prime or (zero_ok and p == 0)):
        raise FixtureError(f"--p {p} is not {'0 or ' if zero_ok else ''}a prime")


# -- commands ----------------------------------------------------------------


def cmd_bredon(args) -> int:
    _check_char(args.p, zero_ok=True)
    X = load_fixture(args.fixture)
    if not isinstance(X, GCWComplex):
        raise FixtureError("bredon needs a G-CW fixture")
    lines = [_header(args, f"fixture={X.name}")]
    rows = ["kind,degree,betti,torsion"]
    ok = True
    for kind in args.coeff.split(","):
        M = build_system(OrbitCategory(X.group), kind, char=args.p)
        h = homology(bredon_chain_complex(X, M))
        lines.append(f"[{kind}]")
        lines.append(h.text_table())
        for n in h.degrees():
            b, tors = h.group(n)
            rows.append(f"{kind},{n},{b},{';'.join(map(str, tors))}")
        # oracle comparison for the kinds with a subquotient counterpart
        if kind in SUBQUOTIENTS:
            H, K = subquotient(kind, X.group)
            ho = homology(subquotient_complex(X, H, K, char=args.p))
            match = all(h.group(n) == ho.group(n)
                        for n in set(h.degrees()) | set(ho.degrees()))
            lines.append(f"oracle (subquotient): {'match' if match else 'MISMATCH'}")
            ok = ok and match
    _emit(lines, rows, args)
    return 0 if ok else 1


def _rounded(x):
    """x rounded to 6 places; adding 0.0 turns -0.0 into 0.0."""
    import numpy as np

    return (np.round(x, 6) + 0.0).tolist()


def _crit_table(title, crits) -> list:
    lines = [f"critical points ({title}):"]
    for c in crits:
        lines.append(
            f"  at {_rounded(c.coords)} value={_rounded(c.value):.6g} "
            f"index={c.index} stab={c.stabilizer.order} "
            f"{'stable' if c.stable else 'UNSTABLE'}"
        )
    return lines


def _morse_run(fx: ManifoldFixture, args):
    """run_morse with the seeds of --seeds/--seed-value
    (ManifoldFixture.random_seeds), --stabilize and --delta."""
    from .morse import run_morse

    seeds = None
    if args.seeds:
        seeds = fx.random_seeds(args.seeds, args.seed_value)
    return run_morse(fx, seeds=seeds, stabilize=args.stabilize,
                     delta=args.delta)


def _unstable_warning(run) -> str:
    """The `warning:` line of a --stabilize run whose surgery left unstable
    critical points, which a flow cannot count on."""
    n = sum(not c.stable for c in run.critical)
    return (f"warning: still unstable after the surgery: {n} of "
            f"{len(run.critical)} critical points")


def _morse_chains(fx: ManifoldFixture, run, coeff: str):
    """The flow of a stable morse run on the fixture's manifold, its
    verdict MorseData.ok and its warnings as `warning:` lines, and its
    Morse complex over F2 for the coefficient system coeff over the
    manifold's group."""
    from .morse import morse_complex

    mdata = run.flow()
    warned = [f"warning: {w}" for w in mdata.warnings]
    M = build_system(OrbitCategory(fx.manifold.action.group), coeff, char=2)
    return mdata, mdata.ok, warned, morse_complex(mdata, M)


def cmd_morse(args) -> int:
    fx = load_fixture(args.fixture)
    if not isinstance(fx, ManifoldFixture):
        raise FixtureError("morse needs a manifold fixture")
    run = _morse_run(fx, args)
    out = [_header(args, f"fixture={fx.name}")]
    out += _crit_table("before", run.before)
    for c, distance in run.surgeries:
        out.append(f"surgery at {_rounded(c.coords)}: C0 distance "
                   f"<= {distance:.3e}")
    if args.stabilize:
        out += _crit_table("after", run.critical)
    rows = ["point,value,index,stab,stable"]
    for c in run.critical:
        rows.append(
            f"\"{_rounded(c.coords)}\",{_rounded(c.value):.9g},{c.index},"
            f"{c.stabilizer.order},{int(c.stable)}"
        )
    ok = True
    if run.stable:
        mdata, ok, warned, C = _morse_chains(fx, run, args.coeff)
        out.append(f"flow counting: unresolved={mdata.unresolved} "
                   f"escaped={mdata.escaped} steps={mdata.steps} "
                   f"halvings={mdata.halvings} "
                   f"linear_captures={mdata.linear_captures} "
                   f"linear_releases={mdata.linear_releases}")
        out += warned
        out.append("flow counts mod 2 (source orbit -> target orbit, coset):")
        for (i, j), table in sorted(mdata.counts.items()):
            for m, cnt in table.items():
                out.append(f"  {i} -> {j} via coset {m.coset}: {cnt}")
                rows.append(f"flow,{i},{j},\"{m.coset}\",{cnt}")
        h = homology(C)
        out.append(f"morse homology over F2 ({args.coeff}):")
        out.append(h.text_table())
        for n in h.degrees():
            rows.append(f"H{n},{h.dim(n)},,,")
    elif args.stabilize:
        out.append(_unstable_warning(run))
        ok = False
    else:
        out.append("function is not stable; rerun with --stabilize for the "
                   "full pipeline")
    _emit(out, rows, args)
    return 0 if ok else 1


def cmd_specseq(args) -> int:
    fx = load_fixture(args.fixture)
    flow_ok, warned = True, []
    if isinstance(fx, GCWComplex):
        _check_char(args.p, zero_ok=False)
        M = build_system(OrbitCategory(fx.group), args.coeff, char=args.p)
        F = skeletal_filtration(bredon_chain_complex(fx, M))
    else:
        if args.p != 2:
            raise FixtureError("specseq on a manifold fixture counts flow "
                               "lines mod 2; only --p 2 is supported")
        run = _morse_run(fx, args)
        if not run.stable and not args.stabilize:
            raise FixtureError("specseq on a manifold fixture needs "
                               "--stabilize to reach a stable function")
        if not run.stable:
            _emit([_header(args, f"fixture={fx.name}"), _unstable_warning(run)],
                  [], args)
            return 1
        _, flow_ok, warned, C = _morse_chains(fx, run, args.coeff)
        F = skeletal_filtration(C)
    pages = spectral_pages(F, args.rmax)
    ok, report = einfty_check(F)
    lines = [_header(args, f"fixture={fx.name}")] + warned
    rows = []
    for page in pages:
        lines.append(page.grid_text())
        rows.extend(page.csv_rows() if not rows else page.csv_rows()[1:])
    lines.append(report.text())
    _emit(lines, rows, args)
    return 0 if ok and flow_ok else 1


def cmd_cells(args) -> int:
    G = FiniteGroup.cyclic(args.order)
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    k = args.index
    if args.cell == "interior":
        H, V = e, RepSpec(trivial=k)
    elif args.cell == "stable":
        H, V = full, RepSpec(trivial=k)
    else:  # "unstable", the last of the parser's choices
        if k < 1:
            raise FixtureError("unstable cells need index >= 1")
        H, V = full, RepSpec(trivial=k - 1, sign=1)
    theories = THEORIES if args.theory == "all" else (args.theory,)
    lines = [_header(args, f"cell={args.cell} k={k} |G|={args.order}")]
    rows = ["theory,degree,betti"]
    for th, h in representation_cell_table(H, V, theories).items():
        desc = ", ".join(f"deg {n}: {h.describe(n)}" for n in h.degrees()) or "0"
        lines.append(f"{th:>20}: {desc}")
        for n in h.degrees():
            rows.append(f"{th},{n},{h.betti(n)}")
        if not h.degrees():
            rows.append(f"{th},,0")
    _emit(lines, rows, args)
    return 0


def cmd_smith(args) -> int:
    _check_char(args.p, zero_ok=False)
    X = load_fixture(args.fixture)
    if not isinstance(X, GCWComplex):
        raise FixtureError("smith needs a G-CW fixture")
    rep = smith_report(X, args.p)
    lines = [_header(args, f"fixture={X.name}"), rep.text_table()]
    _emit(lines, rep.csv_rows(), args)
    return 0 if rep.all_pass else 1


# the kinds a flag can name: "general" needs subgroups no flag gives
CLI_KINDS = tuple(k for k in SYSTEM_KINDS if k != "general")


def _checked(convert, test, what: str):
    """An argparse type that converts its text and rejects a value failing
    test, so a bad flag is a usage error (exit 2), not a traceback."""
    def parse(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    # argparse names the type by __name__ when convert itself fails
    parse.__name__ = convert.__name__
    return parse


_kind_list = _checked(
    str, lambda s: len(set(s.split(",")) & set(CLI_KINDS)) == len(s.split(",")),
    f"a comma-separated list of distinct kinds of {', '.join(CLI_KINDS)}")
_positive_float = _checked(float, lambda v: v > 0, "positive")
_positive_int = _checked(int, lambda v: v > 0, "positive")
_nonnegative_int = _checked(int, lambda v: v >= 0, "nonnegative")


# built once per process: parse_args leaves the parser as it was
@functools.cache
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
    p.add_argument("--coeff", type=_kind_list,
                   default="singular,constant,fixed-point",
                   help=f"comma-separated kinds among {', '.join(CLI_KINDS)}")
    p.add_argument("--p", type=int, default=0,
                   help="coefficient characteristic (0 = integers)")
    common(p)

    p = sub.add_parser("morse", help="critical points, surgery, differentials")
    p.add_argument("fixture")
    p.add_argument("--stabilize", action="store_true")
    p.add_argument("--coeff", choices=CLI_KINDS, default="constant")
    p.add_argument("--delta", type=_positive_float, default=0.05)
    p.add_argument("--seeds", type=_nonnegative_int, default=0,
                   help="override fixture seeds with N random ones")
    p.add_argument("--seed-value", type=_nonnegative_int, default=0)
    common(p)

    p = sub.add_parser("specseq", help="spectral sequence pages")
    p.add_argument("fixture")
    p.add_argument("--coeff", choices=CLI_KINDS, default="singular")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--rmax", type=_positive_int, default=3)
    p.add_argument("--stabilize", action="store_true")
    p.add_argument("--delta", type=_positive_float, default=0.05)
    p.add_argument("--seeds", type=_nonnegative_int, default=0)
    p.add_argument("--seed-value", type=_nonnegative_int, default=0)
    common(p)

    p = sub.add_parser("cells", help="representation cell group tables")
    p.add_argument("--order", type=_positive_int, default=2,
                   help="cyclic group order")
    p.add_argument("--cell", choices=("interior", "stable", "unstable"),
                   required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--theory", choices=("all",) + THEORIES, default="all")
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
