"""The five benchmark workloads: one-time set-up, one pass of seeded ops, and
the oracle check of every op.

An op calls the public functions of equimorse inside tracer spans named
after the layer it enters, then checks the results against an oracle that
does not share the code under test: exact Fraction arithmetic, closed-form
homology of the generated spaces, and the cellular subquotient complexes.
A check returns a list of failure reasons; an empty list means the op
passed.
"""

from __future__ import annotations

import contextlib
import io
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import gen

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("interp", "lift", "morse-surgery", "morse-poly", "bredon")

# Samples on the descending circle of an index-2 source.  At the library
# default (512) figure 1 alone takes 22 s, longer than a run; at 16 it takes
# about 2.5 s and still resolves every flow line.
SPHERE_SAMPLES = 16

# Two Newton results name the same critical point when they are this close.
MATCH_TOL = 1e-6


# -- set-up -------------------------------------------------------------------


def setup(workload: str) -> SimpleNamespace:
    """Import the layers a workload calls and build its one-time objects."""
    import equimorse  # noqa: F401
    from equimorse import polynomials

    # `notes` collects reported defects that do not fail an op
    ctx = SimpleNamespace(workload=workload, poly=polynomials, notes=[])
    if workload == "interp":
        ctx.templates = gen.interp_templates()
    elif workload == "lift":
        ctx.actions = {"sign": polynomials.LinearAction.sign_c2(1),
                       "s3": polynomials.LinearAction.permutation_s3()}
    elif workload in ("morse-surgery", "morse-poly"):
        from equimorse import fixtures, morse
        ctx.morse = morse
        names = [n for n, spec in MORSE.items() if spec.workload == workload]
        ctx.fixtures = {n: getattr(fixtures, n)() for n in names}
        if workload == "morse-surgery":
            ctx.cut = morse.build_cutoffs(0.05)
            ctx.circle_gcw = fixtures.circle_reflection()
    elif workload == "bredon":
        from equimorse import cli
        ctx.cli = cli
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


def make_pass(ctx, seed: int, index: int) -> list:
    """The ops of pass `index`: the same kinds and sizes in every pass, with
    inputs drawn from the workload seed."""
    rng = gen.pass_rng(ctx.workload, seed, index)
    if ctx.workload == "interp":
        return gen.interp_pass(rng, ctx.templates)
    if ctx.workload == "lift":
        return gen.lift_pass(rng)
    if ctx.workload in ("morse-surgery", "morse-poly"):
        ops = []
        for name, fx in ctx.fixtures.items():
            seeds = (gen.jitter_circle(fx.seeds, rng) if MORSE[name].circle_seeds
                     else gen.jitter_grid(fx.seeds, rng))
            ops.append(("morse", name, seeds))
        return ops
    return [("bredon",) + spec for spec in gen.bredon_pass(rng)] + [
        ("cli",) + c for c in CLI_COMMANDS]


def run_op(ctx, op: tuple, tr) -> list:
    return {"interp": op_interp, "lift": op_lift, "morse": op_morse,
            "bredon": op_bredon, "cli": op_cli}[op[0]](ctx, op, tr)


# -- shared oracles -------------------------------------------------------------


def eval_exact(terms: dict, point) -> Fraction:
    """Exact value of a polynomial at a rational point, with integers only:
    sum c_e prod a_i^e_i b_i^(D_i - e_i) over prod b_i^D_i for p_i = a_i/b_i."""
    if not terms:
        return Fraction(0)
    pt = [Fraction(x) for x in point]
    n = len(pt)
    top = [max(e[i] for e in terms) for i in range(n)]
    lcm = 1
    for c in terms.values():
        lcm = math.lcm(lcm, c.denominator)
    pows = []
    for i in range(n):
        a, b = pt[i].numerator, pt[i].denominator
        pows.append([a ** j * b ** (top[i] - j) for j in range(top[i] + 1)])
    total = 0
    for e, c in terms.items():
        v = c.numerator * (lcm // c.denominator)
        for i in range(n):
            v *= pows[i][e[i]]
        total += v
    den = lcm
    for i in range(n):
        den *= pt[i].denominator ** top[i]
    return Fraction(total, den)


def _record_output(tr, poly) -> None:
    if not tr.enabled:
        return
    tr.count("polynomials.out_terms", len(poly.terms))
    vals = poly.terms.values()
    big = max((max(abs(c.numerator), c.denominator) for c in vals), default=0)
    tr.peak("polynomials.out_coeff_bits", big.bit_length())


# -- interp ---------------------------------------------------------------------


def op_interp(ctx, op, tr) -> list:
    _, (n, d, k), pts, jets = op
    P = ctx.poly
    jet_objs = [P.Jet(p, k, t) for p, t in zip(pts, jets)]
    with tr.span("polynomials.jet_interpolate"):
        f = P.jet_interpolate(pts, jet_objs, k)
    _record_output(tr, f)
    backs = []
    for p in pts:
        with tr.span("polynomials.taylor_jet"):
            backs.append(P.taylor_jet(f, p, k))
    return check_interp(f.terms, backs, pts, jets, (n, d, k))


def check_interp(terms: dict, backs: list, pts, jets, size) -> list:
    """Exact value at each point equals the jet's constant term, the Taylor
    round trip returns each jet, and the degree bound holds."""
    n, d, k = size
    fails = []
    deg = max((sum(e) for e in terms), default=0)
    if deg > (2 * d - 2) * k * k + (k - 1):
        fails.append(f"degree {deg} over the bound for {size}")
    for p, jet, back in zip(pts, jets, backs):
        if eval_exact(terms, p) != jet.get((0,) * n, 0):
            fails.append(f"value at {p} is not the jet's constant term")
        if tuple(back.basepoint) != tuple(p) or back.order != k or back.terms != jet:
            fails.append(f"Taylor round trip differs at {p}")
    return fails


# -- lift -------------------------------------------------------------------------


def op_lift(ctx, op, tr) -> list:
    _, act_name, p, jet_terms, k, obstructed = op
    P = ctx.poly
    act = ctx.actions[act_name]
    jet = P.Jet(p, k, jet_terms)
    try:
        with tr.span("polynomials.equivariant_jet_lift"):
            f = P.equivariant_jet_lift(p, jet, act, k)
    except P.JetNotFixed:
        return [] if obstructed else [f"lift at {p} raised JetNotFixed on a fixed jet"]
    if obstructed:
        return [f"lift at {p} accepted a jet its stabilizer moves"]
    _record_output(tr, f)
    with tr.span("polynomials.taylor_jet"):
        back = P.taylor_jet(f, p, k)
    images = []
    for s in act.group.elements():
        with tr.span("polynomials.substitute_linear"):
            images.append(f.substitute_linear(act.matrices[s]))
    return check_lift(f, back, images, p, jet_terms, k)


def check_lift(f, back, images, p, jet_terms, k) -> list:
    """Invariance under every group element and the Taylor round trip; the
    jet's constant term is also checked by exact evaluation."""
    fails = []
    if any(img != f for img in images):
        fails.append(f"lift at {p} is not invariant")
    if tuple(back.basepoint) != tuple(p) or back.order != k or back.terms != jet_terms:
        fails.append(f"lift at {p} does not restore the jet")
    if eval_exact(f.terms, p) != jet_terms.get((0,) * len(p), 0):
        fails.append(f"lift at {p} has the wrong value")
    return fails


# -- Morse ------------------------------------------------------------------------

# Expected invariants per manifold fixture.  `indices` lists the index of
# every critical point found (inside `radius` for the planar figures),
# `orbit_sizes` the sizes of the critical orbits, and `homology` the F2 Betti
# numbers of the Morse complex per coefficient system: relative homology of
# the disk rel its boundary circle for figure 1 (the C3 quotient is again a
# disk; the fixed set is the origin), of the plane rel the two ends of the
# saddle for figure 2, the reflection circle for the circle, and the cellular
# sphere and torus.
MORSE = {
    "figure1_plane": SimpleNamespace(
        workload="morse-surgery", center=(0.0, 0.0), chart="origin", radius=1.05,
        circle_seeds=False, indices=[0, 1, 1, 1, 2, 2, 2], orbit_sizes=[1, 3, 3],
        homology={"singular": {2: 1}, "constant": {2: 1}, "fixed-point": {0: 1}}),
    "figure2_plane": SimpleNamespace(
        workload="morse-surgery", center=(0.0, 0.0), chart="origin", radius=1.05,
        circle_seeds=False, indices=[0, 1, 1], orbit_sizes=[1, 2],
        homology={"singular": {1: 1}, "constant": {}, "fixed-point": {0: 1}}),
    "circle_c2_height": SimpleNamespace(
        workload="morse-surgery", center=(0.0, 1.0), chart="north", radius=None,
        circle_seeds=True, indices=[0, 0, 1, 1], orbit_sizes=[1, 1, 2],
        homology={"singular": {0: 1, 1: 1}, "constant": {0: 1},
                  "fixed-point": {0: 2}}),
    "torus_tilted": SimpleNamespace(
        workload="morse-poly", center=None, radius=None, circle_seeds=False,
        indices=[0, 1, 1, 2], orbit_sizes=[1, 1, 1, 1],
        homology={"constant": {0: 1, 1: 2, 2: 1}}),
    "sphere_height": SimpleNamespace(
        workload="morse-poly", center=None, radius=None, circle_seeds=False,
        indices=[0, 2], orbit_sizes=[1, 1],
        homology={"constant": {0: 1, 2: 1}}),
}


def op_morse(ctx, op, tr) -> list:
    _, name, seeds = op
    spec = MORSE[name]
    fx = ctx.fixtures[name]
    m = ctx.morse
    M = fx.manifold
    f = fx.function
    import numpy as np
    if spec.center is not None:
        with tr.span("morse.classify"):
            before = m.classify(f, M, np.array(spec.center))
        with tr.span("morse.localize_surgery"):
            f = m.localize_surgery(f, M, before, fx.surgery_radius, ctx.cut,
                                   chart=fx.charts[spec.chart], h=fx.sphere_fn)
    with tr.span("morse.find_critical_points"):
        pts = m.find_critical_points(f, M, seeds)
    pts = _inside(pts, spec.radius)
    tr.count("morse.find_critical_points.found", len(pts))
    if len(pts) < len(spec.indices):
        # Known defect (README): a jittered grid can miss critical points
        # without a warning.  The miss is reported as a note, not as a failed
        # op; Newton then reruns from the fixture's own grid, which finds
        # them all, and every point of the first run must be among those.
        ctx.notes.append(f"{name}: the jittered seed grid found {len(pts)} of "
                         f"{len(spec.indices)} critical points")
        with tr.span("morse.find_critical_points"):
            full = _inside(m.find_critical_points(f, M, fx.seeds), spec.radius)
        if any(min((float(np.linalg.norm(p - q)) for q in full), default=1.0) > MATCH_TOL
               for p in pts):
            return [f"{name}: the jittered grid found points the fixture grid does not"]
        pts = full
    crits = []
    for p in pts:
        with tr.span("morse.classify"):
            crits.append(m.classify(f, M, p))
    if sorted(c.index for c in crits) != spec.indices:
        return [f"{name}: critical indices {sorted(c.index for c in crits)}, "
                f"expected {spec.indices}"]
    with tr.span("morse.morse_differentials"):
        data = m.morse_differentials(f, M, crits, sphere_samples={1: SPHERE_SAMPLES},
                                     step_length=fx.step_length,
                                     escape_radius=fx.escape_radius)
    from equimorse import OrbitCategory, build_system, homology
    with tr.span("groups.OrbitCategory"):
        cat = OrbitCategory(M.action.group)
    got = {}
    oracle = {}
    for kind in spec.homology:
        with tr.span("coefficients.build_system"):
            sys2 = build_system(cat, kind, char=2)
        with tr.span("morse.morse_complex"):
            C = m.morse_complex(data, sys2)
        with tr.span("complexes.homology.fp"):
            h = homology(C)
        got[kind] = {n: h.dim(n) for n in h.degrees()}
        if name == "circle_c2_height":
            from equimorse.gcw import bredon_chain_complex
            with tr.span("gcw.bredon_chain_complex"):
                B = bredon_chain_complex(ctx.circle_gcw, sys2)
            with tr.span("complexes.homology.fp"):
                hb = homology(B)
            oracle[kind] = {n: hb.dim(n) for n in hb.degrees()}
    return check_morse(name, data, got, oracle)


def _inside(pts: list, radius) -> list:
    """The points within `radius` of the origin (all of them when None)."""
    if radius is None:
        return pts
    return [p for p in pts if float((p @ p) ** 0.5) < radius]


def check_morse(name, data, got: dict, oracle: dict) -> list:
    spec = MORSE[name]
    fails = []
    if data.unresolved:
        fails.append(f"{name}: {data.unresolved} unresolved trajectories")
    if data.warnings:
        fails.append(f"{name}: flow warnings {data.warnings}")
    sizes = sorted(o.size for o in data.orbits)
    if sizes != spec.orbit_sizes:
        fails.append(f"{name}: orbit sizes {sizes}, expected {spec.orbit_sizes}")
    for kind, want in spec.homology.items():
        if got.get(kind) != want:
            fails.append(f"{name}: {kind} Morse homology {got.get(kind)}, expected {want}")
        if kind in oracle and oracle[kind] != got.get(kind):
            fails.append(f"{name}: {kind} Morse homology differs from Bredon homology")
    return fails


# -- bredon -------------------------------------------------------------------------

# Closed-form homology of the generated spaces (rank per degree, over Z and
# F_p alike: none has torsion).  The grid torus is free, so its quotient is a
# torus and its fixed set empty; the band sphere's quotient is a sphere and
# its fixed set the two poles.
BREDON_EXPECT = {
    "torus": {"singular": {0: 1, 1: 2, 2: 1}, "constant": {0: 1, 1: 2, 2: 1},
              "fixed-point": {}},
    "sphere": {"singular": {0: 1, 2: 1}, "constant": {0: 1, 2: 1},
               "fixed-point": {0: 2}},
}


def op_bredon(ctx, op, tr) -> list:
    _, desc, p, spectral = op
    from equimorse.coefficients import build_system
    from equimorse.complexes import homology
    from equimorse.gcw import bredon_chain_complex, gcw_from_cells, subquotient_complex
    from equimorse.groups import FiniteGroup, OrbitCategory, full_subgroup, trivial_subgroup
    from equimorse.smith import smith_report
    from equimorse.spectral import einfty_check, skeletal_filtration, spectral_pages

    with tr.span("gcw.gcw_from_cells"):
        G = FiniteGroup(tuple(tuple(r) for r in desc["table"]), name=desc["name"])
        X = gcw_from_cells(G, desc["cells"], desc["boundaries"],
                           dict(enumerate(desc["perms"])), name=desc["name"])
    with tr.span("groups.OrbitCategory"):
        cat = OrbitCategory(G)
    e, full = trivial_subgroup(G), full_subgroup(G)
    pairs = {"singular": (e, e), "constant": (full, e), "fixed-point": (e, full)}
    want = BREDON_EXPECT[desc["kind"]]
    fails = []
    for char in (0, p):
        layer = "complexes.homology.fp" if char else "complexes.homology.z"
        for kind, (H, K) in pairs.items():
            with tr.span("coefficients.build_system"):
                M = build_system(cat, kind, char=char)
            with tr.span("gcw.bredon_chain_complex"):
                C = bredon_chain_complex(X, M)
            if tr.enabled:
                tr.count("complexes.boundary_entries",
                         sum(1 for d in C.boundary.values() for row in d for x in row if x))
            with tr.span(layer):
                h = homology(C)
            with tr.span("gcw.subquotient_complex"):
                O = subquotient_complex(X, H, K, char=char)
            with tr.span(layer):
                ho = homology(O)
            fails += check_bredon(desc["name"], kind, char, h, ho, want[kind])
            if char and kind == "singular" and spectral:
                with tr.span("spectral.einfty_check"):
                    ok, _ = einfty_check(skeletal_filtration(C))
                if not ok:
                    fails.append(f"{desc['name']}: E-infinity check failed over F{p}")
                with tr.span("spectral.spectral_pages"):
                    pages = spectral_pages(skeletal_filtration(C), 2)
                e2 = {n: pages[1].dim(n, 0) for n in range(3) if pages[1].dim(n, 0)}
                if e2 != want[kind]:
                    fails.append(f"{desc['name']}: E2 row {e2}, expected {want[kind]}")
    with tr.span("smith.smith_report"):
        rep = smith_report(X, p)
    if not rep.all_pass or rep.dims_total != want["singular"] or rep.dims_fixed != want["fixed-point"]:
        fails.append(f"{desc['name']}: Smith report disagrees with the closed form")
    return fails


def check_bredon(name, kind, char, h, ho, want: dict) -> list:
    """Bredon homology equals the subquotient oracle and the closed form."""
    fails = []
    degs = set(h.degrees()) | set(ho.degrees())
    if any(h.group(n) != ho.group(n) for n in degs):
        fails.append(f"{name}: {kind} over char {char} differs from the subquotient oracle")
    got = {n: h.group(n)[0] for n in h.degrees()}
    if got != want or any(h.group(n)[1] for n in h.degrees()):
        fails.append(f"{name}: {kind} over char {char} is {got}, expected {want}")
    return fails


# The README's non-morse commands, each with lines its report must contain.
CLI_COMMANDS = (
    (("bredon", "fixtures/circle_reflection.json"),
     ("oracle (subquotient): match",)),
    (("bredon", "fixtures/torus_double.json", "--p", "2", "--format", "csv"),
     ("kind,degree,betti,torsion", "singular,1,2,")),
    (("specseq", "fixtures/circle_reflection.json", "--coeff", "singular", "--p", "2"),
     ("convergence: ok",)),
    (("cells", "--cell", "unstable", "--index", "2", "--theory", "all"),
     ("singular: deg 2", "fixed-point: deg 1", "quotient: 0",
      "quotient-rel-fixed: deg 2")),
    (("smith", "fixtures/sphere_rotation_c3.json", "--p", "3"),
     ("Smith report (p = 3)",)),
)


def op_cli(ctx, op, tr) -> list:
    _, argv, expect = op
    argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tr.span("cli.main"):
        code = ctx.cli.main(argv)
    text = out.getvalue()
    fails = [] if code == 0 else [f"cli {argv[0]} exited with {code}"]
    fails += [f"cli {argv[0]} output lacks {s!r}" for s in expect if s not in text]
    if "MISMATCH" in text or " NO" in text:
        fails.append(f"cli {argv[0]} reports a failed check")
    return fails
