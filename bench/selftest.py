"""Self-test of the benchmark's generators, oracles and failure counting.

    python3 bench/selftest.py

Checks that one seed always gives the same inputs, that another seed gives
different inputs with the same expected invariants, that every oracle
rejects a deliberately corrupted result, and that a failing or raising op
is counted without stopping the pass.  Exits non-zero on the first
violated check.  Takes a few seconds.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def shape(op):
    """The part of an op that fixes its cost and its expected invariants."""
    kind = op[0]
    if kind == "interp":
        return kind, op[1], len(op[2])
    if kind == "lift":
        _, act, p, _, k, obstructed = op
        stab = len(gen.permutation_stabilizer(p)) if act == "s3" else p[0] == 0
        return kind, act, stab, k, obstructed
    if kind == "morse":
        return kind, op[1], len(op[2])
    if kind == "bredon":
        return kind, op[1]["kind"], op[1]["cells"], op[1]["order"], op[2], op[3]
    return op


def check_generators(ctxs):
    for name, ctx in ctxs.items():
        a = workloads.make_pass(ctx, 5, 0)
        expect(repr(a) == repr(workloads.make_pass(ctx, 5, 0)), f"{name}: seed 5 repeats")
        b = workloads.make_pass(ctx, 6, 0)
        if name != "bredon":
            expect(repr(a) != repr(b), f"{name}: seeds 5 and 6 differ")
        else:
            expect(repr([op[1] for op in a if op[0] == "bredon"])
                   != repr([op[1] for op in b if op[0] == "bredon"]),
                   "bredon: seeds 5 and 6 differ")
        expect([shape(op) for op in a] == [shape(op) for op in b],
               f"{name}: seeds 5 and 6 share kinds, sizes and invariants")
        for op in a:
            if op[0] == "morse":
                grid = ctx.fixtures[op[1]].seeds
                moved = max(abs(x - float(y)) for r, s in zip(op[2], grid)
                            for x, y in zip(r, s))
                expect(0 < moved < 0.5, f"{op[1]}: seeds jittered within the grid")
            if op[0] == "lift" and not op[5] and op[1] == "s3":
                stab = gen.permutation_stabilizer(op[2])
                expect(gen.is_fixed(op[3], stab), "lift: fixed jets are stabilizer-fixed")


def check_oracles(ctxs):
    tr = spans.NullTracer()
    P = ctxs["interp"].poly

    # interp: a real case passes, a shifted constant term fails
    op = next(o for o in workloads.make_pass(ctxs["interp"], 1, 0) if o[1] == (1, 4, 3))
    _, size, pts, jets = op
    f = P.jet_interpolate(pts, [P.Jet(p, size[2], t) for p, t in zip(pts, jets)], size[2])
    backs = [P.taylor_jet(f, p, size[2]) for p in pts]
    expect(not workloads.check_interp(f.terms, backs, pts, jets, size), "interp passes")
    bad = f + 1
    bad_backs = [P.taylor_jet(bad, p, size[2]) for p in pts]
    expect(workloads.check_interp(bad.terms, bad_backs, pts, jets, size),
           "interp: corrupted result fails")

    # lift: an odd term breaks invariance under the sign action
    act = ctxs["lift"].actions["sign"]
    p, jet = (Fraction(0),), {(0,): Fraction(2), (2,): Fraction(-1, 3)}
    f = P.equivariant_jet_lift(p, P.Jet(p, 3, jet), act, 3)
    imgs = [f.substitute_linear(act.matrices[s]) for s in act.group.elements()]
    expect(not workloads.check_lift(f, P.taylor_jet(f, p, 3), imgs, p, jet, 3), "lift passes")
    bad = f + P.Polynomial.variable(1, 0) * P.Polynomial.variable(1, 0) * P.Polynomial.variable(1, 0)
    imgs = [bad.substitute_linear(act.matrices[s]) for s in act.group.elements()]
    expect(workloads.check_lift(bad, P.taylor_jet(bad, p, 3), imgs, p, jet, 3),
           "lift: corrupted result fails")
    expect(workloads.run_op(ctxs["lift"], ("lift", "sign", p, jet, 3, True), tr),
           "lift: a fixed jet marked obstructed fails")

    # Morse: a lost trajectory, a missing orbit or wrong homology fails
    orbits = [SimpleNamespace(size=s) for s in (1, 1, 1, 1)]
    good = SimpleNamespace(unresolved=0, warnings=[], orbits=orbits)
    want = workloads.MORSE["torus_tilted"].homology
    expect(not workloads.check_morse("torus_tilted", good, dict(want), {}), "Morse passes")
    for data, got in ((SimpleNamespace(unresolved=1, warnings=[], orbits=orbits), want),
                      (SimpleNamespace(unresolved=0, warnings=[], orbits=orbits[:3]), want),
                      (good, {"constant": {0: 1, 1: 1, 2: 1}})):
        expect(workloads.check_morse("torus_tilted", data, dict(got), {}),
               "Morse: corrupted result fails")
    # a seed grid that finds only the sphere's maximum is a note, not a failure
    ctx = ctxs["morse-poly"]
    expect(not workloads.run_op(ctx, ("morse", "sphere_height", [[0.05, 0.05, 1.0]]), tr)
           and len(ctx.notes) == 1, "Morse: a seed grid that misses a point is a note")

    # bredon: a complex checked for real passes; corrupted homology fails
    ctx = ctxs["bredon"]
    rng = gen.pass_rng("bredon", 1, 0)
    op = ("bredon", gen.grid_torus(rng, (2, 2), (1, 1)), 2, True)
    expect(not workloads.run_op(ctx, op, tr), "bredon passes on a small torus")
    from equimorse.complexes import HomologySummary
    h = HomologySummary(char=0, entries={0: (1, ()), 1: (2, ()), 2: (1, ())})
    worse = HomologySummary(char=0, entries={0: (1, ()), 1: (2, (2,)), 2: (1, ())})
    want = workloads.BREDON_EXPECT["torus"]["singular"]
    expect(not workloads.check_bredon("t", "singular", 0, h, h, want), "bredon check passes")
    expect(workloads.check_bredon("t", "singular", 0, h, worse, want),
           "bredon: oracle mismatch fails")
    expect(workloads.check_bredon("t", "singular", 0, worse, worse, want),
           "bredon: torsion where none belongs fails")


def check_counting(ctxs):
    """A failed and a raising op are counted and the pass goes on."""
    ctx = ctxs["bredon"]
    real = workloads.run_op
    calls = []

    def fake(ctx, op, tr):
        calls.append(op)
        if op == "bad":
            return ["corrupted"]
        if op == "boom":
            raise ArithmeticError("boom")
        return []

    workloads.run_op = fake
    try:
        failures = []
        _, _, _, fails = run.run_pass(run.HostClock(), ctx, ["ok", "bad", "boom", "ok"],
                                      spans.NullTracer(), 0, failures)
    finally:
        workloads.run_op = real
    expect(fails == [False, True, True, False] and len(failures) == 2 and len(calls) == 4,
           "failures counted, pass completed")
    # op walls and CPUs per pass (rows); the first pass warms up
    walls = [[0.1, 0.1], [2.0, 5.0], [1.5, 4.0], [3.0, 3.0]]
    cpus = [[0.1, 0.1], [2.1, 5.1], [1.6, 4.1], [3.1, 3.1]]
    expect(run.median_ops(walls, cpus, [[0, 0]] * 4) == (2.0 + 4.0, 2.1 + 4.1),
           "each op at its median after the warm-up, CPU from the same pass")
    expect(run.median_ops(walls, cpus, [[0, 0], [0, 0], [1, 0], [0, 0]]) == (2.0 + 4.0, 2.1 + 4.1),
           "an op's failed passes are left out")
    expect(run.median_ops(walls, cpus, [[0, 0], [1, 0], [0, 0], [0, 0]]) == (1.5 + 4.0, 1.6 + 4.1),
           "the lower median of an even count")
    expect(run.median_ops(walls, cpus, [[0, 0], [1, 0], [1, 0], [1, 0]]) == (2.0 + 4.0, 2.1 + 4.1),
           "an op that failed in every counted pass still has a time")

    tr = spans.Tracer()
    with tr.span("op"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    s, _ = tr.take()
    selfs = spans.self_times(s)
    total = s[0][2] - s[0][1]
    expect(abs(selfs["op"] + selfs["a"] + selfs["b"] - total) < 1e-9, "self times add up")


def main():
    ctxs = {w: workloads.setup(w) for w in workloads.WORKLOADS}
    check_generators(ctxs)
    check_oracles(ctxs)
    check_counting(ctxs)
    print("selftest ok")


if __name__ == "__main__":
    main()
