"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria with runtime budgets are timed with time.monotonic and asserted
against their stated limits.  Expected values tagged as derived come from
independent oracles computed here or pinned from the cellular fixtures.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from equimorse.coefficients import build_system
from equimorse.complexes import ChainComplex, homology
from equimorse.fixtures import (
    GCW_FIXTURES,
    antipodal_circle,
    circle_c2_height,
    circle_dihedral,
    circle_reflection,
    figure1_plane,
    figure2_plane,
    point_c2,
    sphere_height,
    sphere_reflection,
    sphere_rotation_c3,
    torus_double,
    torus_tilted,
)
from equimorse.gcw import bredon_chain_complex, subquotient_complex
from equimorse.groups import (
    FiniteGroup,
    OrbitCategory,
    full_subgroup,
    trivial_subgroup,
)
from equimorse.morse import (
    OrthogonalAction,
    PerturbedModel,
    SphereFunction,
    build_cutoffs,
    morse_complex,
    run_morse,
)
from equimorse.polynomials import (
    Jet,
    JetNotFixed,
    LinearAction,
    Polynomial,
    equivariant_jet_lift,
    jet_interpolate,
    taylor_jet,
)
from equimorse.repcells import RepSpec, representation_cell_groups
from equimorse.smith import smith_report
from equimorse.spectral import einfty_check, skeletal_filtration, spectral_pages
from model_points import model_critical_points, unpredicted


def _mark(num, detail=""):
    print(f"\nACCEPTANCE {num:>2} PASS {detail}")


def rand_point(rng, n):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))


def rand_jet(rng, p, k):
    n = len(p)
    terms = {}
    for e in itertools.product(range(k), repeat=n):
        if sum(e) < k and rng.random() < 0.7:
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Jet(p, k, terms)


def test_criterion_1_jet_interpolation_roundtrip():
    rng = random.Random(20260808)
    t0 = time.monotonic()
    combos = [(n, d, k) for n in (1, 2, 3) for d in (1, 2, 3, 4)
              for k in (0, 1, 2, 3)]
    cheap = [(n, d, k) for (n, d, k) in combos if d <= 3 or k <= 2]
    cases = list(combos)
    while len(cases) < 200:
        cases.append(cheap[rng.randrange(len(cheap))])
    assert len(cases) == 200
    for n, d, k in cases:
        pts = []
        while len(pts) < d:
            q = rand_point(rng, n)
            if q not in pts:
                pts.append(q)
        jets = [rand_jet(rng, p, k) for p in pts] if k else [
            Jet(p, 0, {}) for p in pts
        ]
        f = jet_interpolate(pts, jets, k)
        assert f.degree() <= (2 * d - 2) * k * k + (k - 1)
        for p, jet in zip(pts, jets):
            assert taylor_jet(f, p, k) == Jet(p, k, jet.terms)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _mark(1, f"200 cases in {elapsed:.1f}s")


def _averaged_jet(jet, act, stab_elems):
    """Project a jet onto its stabilizer-fixed part (exact)."""
    poly = jet.as_polynomial()
    total = Polynomial.zero(poly.nvars)
    for h in stab_elems:
        total = total + poly.substitute_linear(
            act.matrices[act.group.inverse[h]]
        )
    avg = total * Fraction(1, len(stab_elems))
    return taylor_jet(avg, jet.basepoint, jet.order)


def test_criterion_2_equivariant_lifting():
    rng = random.Random(77)
    t0 = time.monotonic()
    sign = LinearAction.sign_c2(1)
    s3 = LinearAction.permutation_s3()
    done = 0
    # C2 sign on R: fixed point 0 (even jets) and free points
    for i in range(25):
        k = (1, 2, 3)[i % 3]
        if i % 2 == 0:
            p = (Fraction(0),)
            jet = _averaged_jet(rand_jet(rng, p, k), sign, (0, 1))
        else:
            p = (Fraction(rng.randint(1, 3), rng.randint(1, 2)),)
            jet = rand_jet(rng, p, k)
        f = equivariant_jet_lift(p, jet, sign, k)
        assert taylor_jet(f, p, k) == Jet(p, k, jet.terms)
        for s in sign.group.elements():
            assert f.substitute_linear(sign.matrices[s]) == f
        done += 1
    # S3 on R^3: orbit sizes 1, 3, 6 with k capped by orbit size
    s3_points = [
        ((Fraction(1), Fraction(1), Fraction(1)), 3),   # diagonal, orbit 1
        ((Fraction(1), Fraction(1), Fraction(0)), 3),   # orbit 3
        ((Fraction(2), Fraction(1), Fraction(0)), 2),   # generic, orbit 6
        ((Fraction(1), Fraction(-1), Fraction(2)), 2),  # generic
        ((Fraction(1, 2), Fraction(1, 2), Fraction(1)), 3),
    ]
    for i in range(25):
        p, kmax = s3_points[i % len(s3_points)]
        k = 1 + (i % kmax)
        H = s3.stabilizer(p)
        jet = _averaged_jet(rand_jet(rng, p, k), s3, H.elements)
        f = equivariant_jet_lift(p, jet, s3, k)
        assert taylor_jet(f, p, k) == Jet(p, k, jet.terms)
        for s in s3.group.elements():
            assert f.substitute_linear(s3.matrices[s]) == f
        done += 1
    assert done == 50
    # obstructed jets raise
    with pytest.raises(JetNotFixed):
        equivariant_jet_lift((Fraction(0),), Jet((Fraction(0),), 2, {(1,): 1}),
                             sign, 2)
    with pytest.raises(JetNotFixed):
        p = (Fraction(1), Fraction(1), Fraction(0))
        equivariant_jet_lift(p, Jet(p, 2, {(1, 0, 0): 1}), s3, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _mark(2, f"50 lifts in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def cut():
    return build_cutoffs(0.05)


@pytest.fixture(scope="module")
def figure1_after():
    t0 = time.monotonic()
    run = run_morse(figure1_plane(), stabilize=True)
    return run, time.monotonic() - t0


@pytest.fixture(scope="module")
def figure2_after():
    t0 = time.monotonic()
    run = run_morse(figure2_plane(), stabilize=True)
    return run, time.monotonic() - t0


def test_criterion_3_figure1(figure1_after):
    t0 = time.monotonic()
    run, setup_time = figure1_after
    # before-surgery critical set is just the origin
    (before,) = run.before
    assert np.linalg.norm(before.coords) < 1e-9
    assert before.index == 2
    assert before.stabilizer.order == 3
    assert not before.stable
    assert [c for c, _ in run.surgeries] == [before]
    crits, newf = run.critical, run.function
    origin = min(crits, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0
    others = [c for c in crits if c is not origin]
    assert len(others) == 6
    for c in others:
        assert np.linalg.norm(c.coords) > 0.1  # off the fixed locus {0}
        assert np.linalg.norm(newf.grad_many(c.coords[None, :])[0]) < 1e-9
    # two C3-orbits of size 3
    A = np.array(run.fixture.manifold.action.matrices[1])
    orbits = []
    left = list(others)
    while left:
        c = left.pop()
        orb = [c]
        for _ in range(2):
            img = A @ orb[-1].coords
            nxt = next(o for o in left if np.linalg.norm(o.coords - img) < 1e-8)
            left.remove(nxt)
            orb.append(nxt)
        orbits.append(orb)
    assert len(orbits) == 2
    assert all(len(o) == 3 for o in orbits)
    elapsed = time.monotonic() - t0 + setup_time
    assert elapsed < 60.0
    _mark(3, f"{elapsed:.1f}s incl. surgery")


def test_criterion_4_figure2(figure2_after):
    t0 = time.monotonic()
    run, setup_time = figure2_after
    crits = run.critical
    origin = min(crits, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0
    new = [c for c in crits if c is not origin]
    assert len(new) == 2
    for c in new:
        assert c.index == 1
        assert c.stabilizer.order == 1
        assert abs(c.coords[0]) > 0.1  # off the fixed y-axis
    elapsed = time.monotonic() - t0 + setup_time
    assert elapsed < 60.0
    _mark(4, f"{elapsed:.1f}s incl. surgery")


def test_criterion_5_construction_properties(cut):
    rng = np.random.default_rng(9)
    checked = 0
    for which in ("figure1", "figure2"):
        if which == "figure1":
            act = OrthogonalAction.rotation(3)
            model = PerturbedModel(0, 0, act,
                                   SphereFunction.cos_multiple_angle(3), cut)
            dv = dw = 0
        else:
            act = LinearAction.reflection_c2(2, axis=1)
            model = PerturbedModel(1, 0, LinearAction.sign_c2(1), None, cut)
            dv, dw = 1, 0
        predicted, crits = model_critical_points(model, act)
        n = model.dv + model.dw + model.du
        du = model.du
        # items 1-2: grid agreement in the two ranges, < 1e-12
        for _ in range(400):
            vw = rng.uniform(-1, 1, size=dv + dw)
            v = vw[:dv]
            w = vw[dv:]
            direction = rng.normal(size=du)
            direction /= np.linalg.norm(direction)
            r_in = rng.choice([0.0, 0.5, 0.999])
            x = np.concatenate([vw, r_in * direction])
            assert abs(model.value_many(x[None, :])[0]
                       - (v @ v - w @ w + r_in**2)) < 1e-12
            r_out = rng.uniform(3.0, 4.5)
            x = np.concatenate([vw, r_out * direction])
            assert abs(model.value_many(x[None, :])[0]
                       - (v @ v - w @ w - r_out**2)) < 1e-12
            checked += 1
        # item 4: no spurious critical points; the search finds exactly the
        # origin and the t0-sphere points
        assert unpredicted(predicted, crits) == []
        radii = sorted(round(float(np.linalg.norm(c.coords)), 9) for c in crits)
        assert radii[0] == 0.0
        assert all(r == round(cut.t0, 9) for r in radii[1:])
        # items 5-7: negative eigenspace inside W + U, nondegenerate * stable
        for c in crits:
            if np.linalg.norm(c.coords) < 1e-9:
                continue
            Hm = model.jet_many(c.coords[None, :], 2)[2][0]
            wvals, wvecs = np.linalg.eigh(Hm)
            assert np.all(np.abs(wvals) > 1e-6)  # item 6
            if dv:
                for wi, vec in zip(wvals, wvecs.T):
                    if wi < 0:
                        assert np.max(np.abs(vec[:dv])) < 1e-9  # item 5
            assert c.stable  # item 7
    _mark(5, f"{checked} grid points")


def test_criterion_6_bredon_oracle_equivalence():
    fixtures = [point_c2(), circle_reflection(), sphere_reflection(),
                torus_double(), circle_dihedral()]
    assert len(fixtures) >= 5
    pairs = {
        "singular": lambda G: (trivial_subgroup(G), trivial_subgroup(G)),
        "constant": lambda G: (full_subgroup(G), trivial_subgroup(G)),
        "fixed-point": lambda G: (trivial_subgroup(G), full_subgroup(G)),
    }
    checked = 0
    for X in fixtures:
        cat = OrbitCategory(X.group)
        for kind, mk in pairs.items():
            H, K = mk(X.group)
            hb = homology(bredon_chain_complex(X, build_system(cat, kind)))
            ho = homology(subquotient_complex(X, H, K))
            degs = set(hb.degrees()) | set(ho.degrees())
            for nn in degs:
                assert hb.group(nn) == ho.group(nn), (X.name, kind, nn)
            checked += 1
    _mark(6, f"{checked} fixture/system pairs")


def test_criterion_7_double_example_table():
    G = FiniteGroup.cyclic(2)
    e = trivial_subgroup(G)
    full = full_subgroup(G)
    table = {
        ("interior", "singular"): lambda k: {k: (2, ())},
        ("interior", "fixed-point"): lambda k: {},
        ("interior", "quotient"): lambda k: {k: (1, ())},
        ("interior", "quotient-rel-fixed"): lambda k: {k: (1, ())},
        ("stable", "singular"): lambda k: {k: (1, ())},
        ("stable", "fixed-point"): lambda k: {k: (1, ())},
        ("stable", "quotient"): lambda k: {k: (1, ())},
        ("stable", "quotient-rel-fixed"): lambda k: {},
        ("unstable", "singular"): lambda k: {k: (1, ())},
        ("unstable", "fixed-point"): lambda k: {k - 1: (1, ())},
        ("unstable", "quotient"): lambda k: {},
        ("unstable", "quotient-rel-fixed"): lambda k: {k: (1, ())},
    }
    count = 0
    for k in (1, 2, 3):
        for (cell, theory), want in table.items():
            if cell == "interior":
                H, V = e, RepSpec(trivial=k)
            elif cell == "stable":
                H, V = full, RepSpec(trivial=k)
            else:
                H, V = full, RepSpec(trivial=k - 1, sign=1)
            h = representation_cell_groups(H, V, theory)
            assert dict(h.entries) == want(k), (cell, theory, k)
            count += 1
    assert count == 36
    _mark(7, "12 table entries at k = 1, 2, 3")


@pytest.fixture(scope="module")
def circle_stable():
    run = run_morse(circle_c2_height(), stabilize=True)
    return run.fixture, run.flow()


def test_criterion_8_morse_vs_cellular(circle_stable):
    # sphere: morse complex of the height function vs the 2-cell CW model
    fx = sphere_height()
    data = run_morse(fx).flow()
    assert data.unresolved == 0
    cat = OrbitCategory(fx.manifold.action.group)
    C = morse_complex(data, build_system(cat, "constant", char=2))
    hm = homology(C)
    oracle = homology(ChainComplex(char=2, ranks={0: 1, 2: 1}, boundary={}))
    assert all(hm.dim(n) == oracle.dim(n) for n in (0, 1, 2))

    # torus: against the standard one-vertex CW structure
    fx = torus_tilted()
    data = run_morse(fx).flow()
    assert data.unresolved == 0
    cat = OrbitCategory(fx.manifold.action.group)
    C = morse_complex(data, build_system(cat, "constant", char=2))
    hm = homology(C)
    oracle = homology(ChainComplex(
        char=2, ranks={0: 1, 1: 2, 2: 1},
        boundary={1: ((), ()), 2: ((),)},
    ))
    assert all(hm.dim(n) == oracle.dim(n) for n in (0, 1, 2))

    # stabilized circle: against the reflection-circle G-CW fixture
    fxc, data = circle_stable
    assert data.unresolved == 0
    X = circle_reflection()
    cat = OrbitCategory(fxc.manifold.action.group)
    for kind in ("singular", "constant", "fixed-point"):
        M2 = build_system(cat, kind, char=2)
        hm = homology(morse_complex(data, M2))  # construction checks d.d = 0
        ho = homology(bredon_chain_complex(X, M2))
        assert all(hm.dim(n) == ho.dim(n) for n in (0, 1)), kind
    _mark(8, "sphere, torus, stabilized circle")


def test_criterion_9_spectral_convergence(circle_stable):
    # skeletal filtrations of every G-CW fixture over F2 converge
    checked = 0
    for name, make in sorted(GCW_FIXTURES.items()):
        X = make()
        cat = OrbitCategory(X.group)
        for kind in ("singular", "constant"):
            C = bredon_chain_complex(X, build_system(cat, kind, char=2))
            if not C.ranks:
                continue
            ok, report = einfty_check(skeletal_filtration(C))
            assert ok, (name, kind, report.text())
            checked += 1
    # Morse filtration of the stable circle fixture: E^2 = Bredon homology
    fxc, data = circle_stable
    cat = OrbitCategory(fxc.manifold.action.group)
    X = circle_reflection()
    for kind in ("singular", "constant"):
        M2 = build_system(cat, kind, char=2)
        F = skeletal_filtration(morse_complex(data, M2))
        ok, report = einfty_check(F)
        assert ok, report.text()
        e2 = spectral_pages(F, 2)[1]
        hb = homology(bredon_chain_complex(X, M2))
        for n in (0, 1):
            assert e2.dim(n, 0) == hb.dim(n), kind
        checked += 1
    _mark(9, f"{checked} filtrations")


def test_criterion_10_smith_suite():
    cases = [
        (sphere_reflection(), 2),
        (antipodal_circle(), 2),
        (sphere_rotation_c3(), 3),
    ]
    for X, p in cases:
        rep = smith_report(X, p)
        assert rep.all_pass, (X.name, rep.text_table())
    # spot values: fixed set of the C3 rotation sphere is the two poles
    rep = smith_report(sphere_rotation_c3(), 3)
    assert rep.dims_fixed == {0: 2}
    assert rep.euler_fixed == 2 and rep.euler_total == 2
    _mark(10, "3 fixtures, all tails and congruences")
