"""Manifolds, critical point finding/classification, flows, and the model."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equimorse.groups import FiniteGroup, left_cosets, trivial_subgroup
from equimorse.polynomials import LinearAction, Polynomial
from equimorse.fixtures import MANIFOLD_FIXTURES
from equimorse.morse import (
    DegenerateHessian,
    EqFunction,
    ImplicitGManifold,
    OrthogonalAction,
    classify,
    find_critical_points,
    run_morse,
    seed_grid,
)
from equimorse.morse import critical
from equimorse.morse import run as morse_run
from equimorse.morse.critical import _newton_kkt, group_into_orbits
from equimorse.morse.flow import (
    CAPTURE_TOL,
    CAPTURED,
    MAX_HALVINGS,
    STEP_TOL,
    UNRESOLVED,
    _certificate,
    integrate_batch,
)
from equimorse.morse.manifolds import (Evaluator, PolyJet, PolyTable,
                                       match_rows, tangent_frame, tangent_part)


def r2_manifold(action=None):
    act = action or LinearAction.trivial(FiniteGroup.trivial(), 2)
    return ImplicitGManifold(ambient=2, constraints=(), action=act)


def sphere_manifold(action=None):
    # x^2 + y^2 + z^2 - 1 = 0
    con = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 0, 0): -1})
    act = action or LinearAction.trivial(FiniteGroup.trivial(), 3)
    return ImplicitGManifold(ambient=3, constraints=(con,), action=act)


def row(fn, x):
    """fn at the single point x, as a batch of one."""
    return fn(np.asarray(x, dtype=float)[None, :])[0]


def constraints_at(M, x):
    """The constraint values and Jacobian of M at the single point x."""
    F, J = M.jet(np.asarray(x, dtype=float)[None, :], 1)
    return F[0], J[0]


def flow_one(f, M, x0, crits, **kw):
    """The descending trajectory from the single point x0, with its path:
    a batch of one, read from row 0."""
    return integrate_batch(f, M, np.asarray(x0, dtype=float)[None, :],
                           crits=crits, keep_paths=True, **kw)


def height_z():
    return EqFunction.from_polynomial(Polynomial(3, {(0, 0, 1): 1}))


def test_polynomial_eqfunction_derivatives():
    f = EqFunction.from_polynomial(
        Polynomial(2, {(2, 0): 1, (0, 3): 2, (1, 1): -1})
    )
    x = np.array([0.7, -0.4])
    h = 1e-6
    g = row(f.grad_many, x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (row(f.value_many, x + e) - row(f.value_many, x - e)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6)
    H = f.jet_many(x[None, :], 2)[2][0]
    assert H[0][1] == pytest.approx(-1.0)
    assert H[0][0] == pytest.approx(2.0)
    assert H[1][1] == pytest.approx(12 * (-0.4))
    X = np.array([[0.1, 0.2], [2.0, -1.0], [0.0, 0.0]])
    assert f.value_many(X).shape == (3,)
    assert f.grad_many(X).shape == (3, 2)
    assert f.jet_many(X, 2)[2].shape == (3, 2, 2)
    assert np.allclose(f.grad_many(X)[1], [2 * 2.0 - (-1.0), 6 * 1.0 - 2.0])


# -- the shared-monomial evaluator against exact evaluation ----------------

_COEFFS = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


def _points(n, rows):
    # dyadic coordinates, so the float point is exactly the Fraction point
    coord = st.integers(-48, 48).map(lambda k: Fraction(k, 16))
    return st.lists(st.tuples(*[coord] * n), min_size=rows, max_size=rows)


@st.composite
def _poly_batches(draw, count=st.integers(1, 3)):
    """Up to three polynomials in the same 1-3 variables, with points."""
    n = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 4)] * n)
    polys = [
        Polynomial(n, draw(st.dictionaries(expo, _COEFFS, max_size=8)))
        for _ in range(draw(count))
    ]
    return polys, draw(_points(n, draw(st.integers(1, 4))))


def _abs_bound(poly, pt):
    """sum |c| |x|^e: the scale of the rounding error of any evaluation."""
    return Polynomial(poly.nvars, {e: abs(c) for e, c in poly.terms.items()}
                      ).evaluate([abs(x) for x in pt])


def _assert_matches_exact(got, polys, pts, rel=1e-12):
    """got[r, j] is polys[j] at pts[r] up to rel times the error scale."""
    assert got.shape == (len(pts), len(polys))
    for r, pt in enumerate(pts):
        for j, p in enumerate(polys):
            exact = p.evaluate(pt)
            scale = float(_abs_bound(p, pt))
            assert abs(got[r, j] - float(exact)) <= rel * scale, (p, pt)


@settings(max_examples=150, deadline=None)
@given(_poly_batches())
@example(([Polynomial.zero(2)], [(Fraction(1, 2), Fraction(-3))]))
@example(([Polynomial.constant(3, Fraction(-7, 3))],
          [(Fraction(1), Fraction(2), Fraction(-1, 16)), (Fraction(0),) * 3]))
@example(([Polynomial(1, {(4,): Fraction(-1, 3), (1,): Fraction(5, 7)}),
           Polynomial.zero(1)], [(Fraction(-3),), (Fraction(0),)]))
def test_poly_table_matches_exact_evaluation(case):
    polys, pts = case
    n = polys[0].nvars
    X = np.array([[float(x) for x in pt] for pt in pts]).reshape(len(pts), n)
    _assert_matches_exact(PolyTable(polys, n)(X), polys, pts)


def test_fixture_float_coefficients_are_rounded_once():
    # torus_tilted's f is written with float records, z + 0.3 x: they are
    # read as the binary rationals they denote, differentiated exactly and
    # rounded into the table once, so the table equals z + 0.3 * x in float
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    f = fx.function.polynomial
    assert f.terms == {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(0.3)}
    X = np.random.default_rng(23).normal(scale=2.0, size=(200, 3))
    v, g = fx.function.jet_many(X, 1)
    assert np.array_equal(v, X[:, 2] + 0.3 * X[:, 0])
    assert np.array_equal(g, np.broadcast_to([0.3, 0.0, 1.0], (200, 3)))


@settings(max_examples=60, deadline=None)
@given(_poly_batches(count=st.integers(1, 2)))
@example(([Polynomial.zero(2)], [(Fraction(1, 2), Fraction(-3))]))
def test_constraint_derivatives_match_exact(case):
    cons, pts = case
    n = cons[0].nvars
    M = ImplicitGManifold(ambient=n, constraints=tuple(cons),
                          action=LinearAction.trivial(FiniteGroup.trivial(), n))
    X = np.array([[float(x) for x in pt] for pt in pts]).reshape(len(pts), n)
    c = len(cons)
    F, J, CH = M.jet(X, 2)
    _assert_matches_exact(F, cons, pts)
    firsts = [p.derivative(i) for p in cons for i in range(n)]
    _assert_matches_exact(J.reshape(len(pts), c * n), firsts, pts)
    seconds = [g.derivative(j) for g in firsts for j in range(n)]
    _assert_matches_exact(CH.reshape(len(pts), c * n * n), seconds, pts)


def test_sphere_tangent_and_projection():
    M = sphere_manifold()
    p = row(M.project_points_many, np.array([1.2, 0.6, -0.3]))
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    _, J = constraints_at(M, p)
    T = tangent_frame(J)
    assert T.shape == (3, 2)
    assert np.allclose(T.T @ T, np.eye(2), atol=1e-12)
    assert np.max(np.abs(T.T @ p)) < 1e-12
    v = np.array([1.0, 0.0, 0.0])
    pv = tangent_part(J[None], v[None, :])[0]
    assert abs(pv @ p) < 1e-12


def test_validate_action_on_sphere():
    act = LinearAction.reflection_c2(3, axis=0)
    M = sphere_manifold(act)
    worst = M.validate_action([np.array([0.3, 0.5, 0.8]),
                               np.array([-1.0, 0.2, 0.1])])
    assert worst < 1e-12


# -- the Morse layer's one action ---------------------------------------------


def _exact_points(act, rng, count=6):
    """Seeded exact points for act: random rational points, the origin,
    the diagonal, a point on each coordinate hyperplane (the mirrors) and,
    in R^3, the points with two equal coordinates (fixed by a
    transposition of S3)."""
    n = act.dim
    pts = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
           for _ in range(count)]
    pts.append((Fraction(0),) * n)
    a, b = Fraction(rng.randint(-9, 9), 3), Fraction(rng.randint(10, 19), 7)
    pts.append((a,) * n)
    pts += [tuple(Fraction(0) if i == j else b for i in range(n)) for j in range(n)]
    if n >= 3:
        pts += [(a, a, b), (b, a, a), (a, b, a)]
    return pts


@pytest.mark.parametrize("act", [
    LinearAction.trivial(FiniteGroup.cyclic(3), 2),
    LinearAction.sign_c2(1),
    LinearAction.sign_c2(3),
    LinearAction.reflection_c2(2, axis=0),
    LinearAction.reflection_c2(3, axis=2),
    LinearAction.permutation_s3(),
], ids=["trivial", "sign_c2-1", "sign_c2-3", "reflection_c2-2", "reflection_c2-3",
        "permutation_s3"])
def test_orthogonal_action_agrees_with_the_exact_action(act):
    # at seeded exact points, fixed points and points on mirrors included,
    # the Morse layer's action of the exact matrices finds the exact
    # stabilizer, and the translates by the least element of each of its
    # cosets (the orbit points localize_surgery reads) are the floats of
    # the exact orbit's images
    import random

    orth = ImplicitGManifold(ambient=act.dim, constraints=(), action=act).action
    assert isinstance(orth, OrthogonalAction)
    assert np.array_equal(orth.matrices, np.array(act.matrices, dtype=float))
    rng = random.Random(act.dim * 10 + act.group.order)
    for p in _exact_points(act, rng):
        x = np.array([float(v) for v in p])
        stab = orth.stabilizer(x)
        assert stab.elements == act.stabilizer(p).elements
        exact = act.orbit(p)
        reps = [c[0] for c in left_cosets(orth.group, stab)]
        assert reps == [s for s, _ in exact]
        for s, (_, y) in zip(reps, exact):
            assert (orth.matrices[s] @ x).tolist() == [float(v) for v in y]


def test_rotation_floats_validate():
    # the float rotations of orders 1 to 8 pass the law and orthogonality
    # to LAW_TOL; the origin is fixed by all of C_n, a point of the unit
    # circle by the identity alone, and its n translates are n points
    for n in range(1, 9):
        act = OrthogonalAction.rotation(n)
        assert act.matrices.shape == (n, 2, 2) and act.dim == 2
        assert act.stabilizer(np.zeros(2)).order == n
        assert act.stabilizer(np.array([1.0, 0.0])).elements == (0,)
        T = act.matrices @ np.array([0.6, 0.8])
        assert match_rows(T, T).tolist() == list(range(n))


def test_orthogonal_action_names_the_first_pair_that_breaks_the_law():
    # C4 with the rotation by 3 pi / 2 replaced by the one by pi / 2: the
    # first product to miss, in row order, is A_1 A_2
    R = OrthogonalAction.rotation(4).matrices
    with pytest.raises(ValueError, match=r"representation law fails on \(1,2\)"):
        OrthogonalAction(FiniteGroup.cyclic(4), [R[0], R[1], R[2], R[1]])
    # an exact action that is not orthogonal (C2 swapping the axes with a
    # rescaling) is no Morse-layer action
    swap = LinearAction(FiniteGroup.cyclic(2),
                        [((1, 0), (0, 1)), ((0, 2), (Fraction(1, 2), 0))])
    with pytest.raises(ValueError, match="element 1 is not orthogonal"):
        ImplicitGManifold(ambient=2, constraints=(), action=swap)


def test_float_rotation_is_no_linear_action():
    # the exact layer reads every float as the rational it denotes and
    # checks the law exactly, so the float C3 rotation, whose law holds
    # only to rounding, is refused when the action is built
    mats = OrthogonalAction.rotation(3).matrices.tolist()
    with pytest.raises(ValueError, match="representation law fails"):
        LinearAction(FiniteGroup.cyclic(3), mats)


@pytest.mark.parametrize("bounds, counts", [
    ([(0, 1), (0, 1)], [3]), ([(0, 1)], [3, 4]),
], ids=["two-bounds-one-count", "one-bound-two-counts"])
def test_seed_grid_needs_one_count_per_axis(bounds, counts):
    # zip once dropped the unmatched axis and returned shape (3, 1)
    with pytest.raises(ValueError, match=f"{len(bounds)} bounds, {len(counts)} counts"):
        seed_grid(bounds, counts)


def test_find_critical_points_sphere_height():
    M = sphere_manifold()
    f = height_z()
    seeds = seed_grid([(-1.2, 1.2)] * 3, 4)
    crits = find_critical_points(f, M, seeds)
    assert len(crits) == 2
    zs = sorted(round(float(c[2]), 6) for c in crits)
    assert zs == [-1.0, 1.0]


def test_find_critical_points_rotation_plane():
    act = OrthogonalAction.rotation(3)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crits = find_critical_points(f, M, seed_grid([(-1, 1)] * 2, 5))
    assert len(crits) == 1
    assert np.linalg.norm(crits[0]) < 1e-9


def test_classify_sphere_poles():
    M = sphere_manifold()
    f = height_z()
    north = classify(f, M, np.array([0.0, 0.0, 1.0]))
    south = classify(f, M, np.array([0.0, 0.0, -1.0]))
    assert north.index == 2 and south.index == 0
    assert south.stable  # trivial group: prime empty
    assert north.stable
    assert north.value == pytest.approx(1.0)


def test_classify_figure2_pattern():
    # f = y^2 - x^2 with the reflection x -> -x: index 1, stabilizer C2,
    # negative direction along the prime axis: unstable
    act = LinearAction.reflection_c2(2, axis=0)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {(0, 2): 1, (2, 0): -1}))
    c = classify(f, M, np.array([0.0, 0.0]))
    assert c.index == 1
    assert c.stabilizer.order == 2
    assert not c.stable
    assert c.prime_basis.shape[1] == 1
    # the prime direction is the x-axis
    assert abs(abs(c.prime_basis[0, 0]) - 1.0) < 1e-9


def test_classify_figure1_pattern():
    # f = -(x^2 + y^2) with C3 rotation: index 2, stabilizer C3, unstable
    act = OrthogonalAction.rotation(3)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): -1, (0, 2): -1}))
    c = classify(f, M, np.array([0.0, 0.0]))
    assert c.index == 2
    assert c.stabilizer.order == 3
    assert not c.stable
    assert c.prime_basis.shape[1] == 2  # rotation fixes no tangent vector


def test_classify_stable_minimum():
    act = OrthogonalAction.rotation(3)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    c = classify(f, M, np.array([0.0, 0.0]))
    assert c.index == 0 and c.stable


def test_classify_degenerate_raises():
    M = r2_manifold()
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 4): 1}))
    with pytest.raises(DegenerateHessian):
        classify(f, M, np.array([0.0, 0.0]))


def test_flow_to_south_pole():
    M = sphere_manifold()
    f = height_z()
    crits = [
        classify(f, M, np.array([0.0, 0.0, 1.0])),
        classify(f, M, np.array([0.0, 0.0, -1.0])),
    ]
    x0 = row(M.project_points_many, np.array([0.8, 0.2, 0.4]))
    tr = flow_one(f, M, x0, crits)
    assert tr.status[0] == CAPTURED
    assert crits[tr.limit[0]].index == 0
    # points stay on the sphere
    assert abs(np.linalg.norm(tr.end[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("step_length", [0.002, 0.01, 0.05])
def test_flow_follows_the_exact_flow_line(step_length):
    # f = x^2 + 3y^2 descends along y = y0 (x / x0)^3; with no critical
    # point to capture, each row runs its step budget down to the minimum,
    # and every point of its path lies within STEP_TOL * step_length of that
    # curve (at most 0.32 of it here), counted vertically, which bounds the
    # distance; the first step has arc length about step_length
    M = r2_manifold()
    bowl = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 3}))
    X0 = np.array([[1.0, 0.5], [-0.8, 0.3], [0.2, -1.0], [2.0, 2.0]])
    trajs = integrate_batch(bowl, M, X0, crits=[], max_steps=200,
                            step_length=step_length, keep_paths=True)
    for (x0, y0), path, end in zip(X0, trajs.paths, trajs.end):
        x, y = path.T
        assert np.abs(y - y0 * (x / x0) ** 3).max() <= STEP_TOL * step_length
        first = np.hypot(x[0] - x0, y[0] - y0)
        assert 0.9 * step_length < first <= step_length
        assert np.linalg.norm(end) < 1e-6
    assert (trajs.steps == 200).all()


def test_flow_counts_steps_and_halvings():
    # f = x^2 + 50 y^2: near the minimum the capped step leaves RK4's
    # stability region along y, so the integrator must halve it; with no
    # critical point to capture it, the row runs out its step budget there
    M = r2_manifold()
    stiff = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 50}))
    tr = flow_one(stiff, M, np.array([0.5, 0.3]), [], max_steps=100)
    assert (tr.status[0] == UNRESOLVED and tr.steps[0] == 100
            and tr.halvings[0] > 0)
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    tr = flow_one(mild, M, np.array([0.5, 0.3]), crit)
    assert tr.status[0] == CAPTURED and tr.steps[0] > 0 and tr.halvings[0] == 0


def _counting(f):
    """f with its first-order evaluations (jet_many calls below order 2)
    counted."""
    calls = {"first": 0}

    def jet_many(X, order):
        calls["first"] += order < 2
        return f.jet_many(X, order)

    return EqFunction(jet_many, nvars=f.nvars), calls


def test_flow_evaluations_per_step_and_retry():
    # a lockstep iteration makes four first-order evaluations: three
    # velocity calls and one value-and-gradient call at the new points,
    # whose gradient is the next K1; the start points take one call per
    # batch, and the capture radii of the sinks one velocity call on every
    # probe
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    X0 = np.array([[0.5, 0.3], [-0.4, 0.2]])
    used = []
    for n in (3, 4):
        g, calls = _counting(mild)
        trajs = integrate_batch(g, M, X0, crits=crit, max_steps=n)
        assert (trajs.steps == n).all() and (trajs.halvings == 0).all()
        used.append(calls["first"])
    assert used[1] - used[0] == 4
    assert used[0] == 1 + 1 + 4 * 3
    # a halving retry reuses K1: three velocity calls and one
    # value-and-gradient call; with no sink there is no probe call
    stiff = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 50}))
    g, calls = _counting(stiff)
    tr = integrate_batch(g, M, X0[:1], crits=[], max_steps=100)
    assert tr.steps[0] == 100 and tr.halvings[0] > 0
    assert calls["first"] == 1 + 4 * tr.steps[0] + 4 * tr.halvings[0]


def test_step_budget_is_checked_before_the_capture_test():
    # max_steps is each row's budget of accepted steps, spent before the
    # capture test: a row first captured after step n ends unresolved at
    # that point under max_steps=n, and as before under n + 1.  Under
    # max_steps=0 every row ends where it starts, its release included,
    # and no start point is evaluated: the only calls left are the
    # certificate's
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    X0 = np.array([[0.5, 0.3], [-0.4, 0.2]])
    free = integrate_batch(mild, M, X0, crits=crit, keep_paths=True)
    for j, x0 in enumerate(X0):
        n = free.steps[j]
        assert free.status[j] == CAPTURED and n > 0
        cut = integrate_batch(mild, M, x0, crits=crit, max_steps=n)
        assert cut.status[0] == UNRESOLVED and cut.limit[0] == -1
        assert (cut.steps[0] == n
                and cut.end[0].tobytes() == free.paths[j][-1].tobytes())
        more = integrate_batch(mild, M, x0, crits=crit, max_steps=n + 1)
        assert (more.status[0], more.steps[0], more.end[0].tobytes()) == (
            free.status[j], n, free.end[j].tobytes())
    for crits, certificate_calls in (([], 0), (crit, 1)):
        g, calls = _counting(mild)
        trajs = integrate_batch(g, M, X0, crits=crits, max_steps=0)
        assert (trajs.status == UNRESOLVED).all()
        assert (trajs.steps == 0).all() and (trajs.halvings == 0).all()
        assert trajs.end.tobytes() == X0.tobytes()
        # with the minimum, one call on its level region's boundary samples
        assert calls["first"] == certificate_calls
    saddle = EqFunction.from_polynomial(
        Polynomial(2, {(2, 0): -1, (0, 2): 1, (4, 0): 40}))
    g, calls = _counting(saddle)
    trajs = integrate_batch(g, M, np.array([[1e-3, 0.0], [0.0, 1e-3]]),
                            crits=[classify(saddle, M, np.zeros(2))],
                            direction=np.array([-1, 1]), sources=0,
                            max_steps=0)
    assert trajs.linear_release.all() and (trajs.status == UNRESOLVED).all()
    assert trajs.end.tobytes() == trajs.start.tobytes()
    assert calls["first"] == 1


def test_flow_start_points_must_be_rows_of_the_ambient_space():
    # a point of length ambient is a batch of one; any other shape is
    # refused with the shape expected
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    one = integrate_batch(mild, M, [0.5, 0.3], crits=crit)
    ref = integrate_batch(mild, M, np.array([[0.5, 0.3]]), crits=crit)
    assert len(one.status) == 1
    assert (one.end[0].tobytes(), one.status[0], one.steps[0]) == (
        ref.end[0].tobytes(), ref.status[0], ref.steps[0])
    none = integrate_batch(mild, M, np.zeros((0, 2)), crits=crit)
    assert none.end.shape == (0, 2) and len(none.status) == 0
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2)), 0.5, []):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            integrate_batch(mild, M, bad, crits=crit)


@pytest.mark.parametrize("kw, message", [
    ({"direction": 0}, r"direction must be -1 \(descend\) or \+1 \(ascend\); got 0"),
    ({"direction": 2}, r"direction must be -1 \(descend\) or \+1 \(ascend\); got 2"),
    ({"sources": [5]}, r"sources must index crits \(2 points\) or be -1 for none; got 5"),
    ({"sources": 0.5}, r"sources must index crits \(2 points\) or be -1 for none; got 0\.5"),
    ({"sources": [1, 1, 1]}, r"sources must be one value or one per row of X0 \(1\); "
                             r"got shape \(3,\)"),
])
def test_flow_rejects_bad_directions_and_sources(kw, message):
    # on the height of the sphere with its two critical points: direction 0
    # would leave the row unmoved until its step budget, direction 2 would
    # flow at twice the speed, source 5 would index past crits, source 0.5
    # would be read as 0 and three sources for one row would not broadcast
    M = sphere_manifold()
    f = height_z()
    crits = [classify(f, M, np.array([0.0, 0.0, z])) for z in (1.0, -1.0)]
    x0 = row(M.project_points_many, np.array([0.8, 0.2, 0.4]))
    with pytest.raises(ValueError, match=message):
        integrate_batch(f, M, x0, crits=crits, **kw)


def test_flow_fails_loudly_on_non_monotone_values():
    # the value contradicts the gradient: it reports a higher value at
    # every call, so no halving makes a descending step monotone and the
    # trajectory must end unresolved where it started, not be captured
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    rising = iter(range(10**6))

    def jet_many(X, order):
        jet = mild.jet_many(X, order)
        jet[0] = np.full(len(X), float(next(rising)))
        return jet

    liar = EqFunction(jet_many, nvars=2)
    x0 = np.array([0.5, 0.3])
    tr = flow_one(liar, M, x0, crit)
    assert tr.status[0] == UNRESOLVED and tr.limit[0] == -1
    assert tr.steps[0] == 0 and tr.halvings[0] == MAX_HALVINGS
    assert tr.end[0].tobytes() == x0.tobytes()


def test_flow_halving_guard_fires_on_smooth_contradicting_values():
    # a smooth value -(x^2 + y^2) against the gradient of +(x^2 + y^2): every
    # descending step raises the value, and a step halved until it barely
    # moves must not slip through the first attempt's slack, so the guard
    # ends the trajectory at once instead of spending the step budget
    M = r2_manifold()
    bowl = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(bowl, M, np.zeros(2))]
    def jet_many(X, order):
        jet = bowl.jet_many(X, order)
        jet[0] = -jet[0]
        return jet

    cap = EqFunction(jet_many, nvars=2)
    x0 = np.array([0.5, 0.3])
    tr = flow_one(cap, M, x0, crit)
    assert tr.status[0] == UNRESOLVED and tr.limit[0] == -1
    assert tr.steps[0] == 0 and tr.halvings[0] == MAX_HALVINGS
    assert tr.end[0].tobytes() == x0.tobytes()


@pytest.mark.parametrize("start_finite", [False, True])
def test_flow_fails_loudly_on_nan_values(start_finite):
    # NaN compares false with everything, so a NaN value must still count as
    # non-monotone: either every value is NaN (f_old at step 0 is NaN) or
    # the value is finite only at the start point, so f_old is finite and
    # every f_new is NaN (or, once a halved step rounds back onto the start
    # point, equal to f_old, which a retry's strict decrease rejects too)
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    x0 = np.array([0.5, 0.3])

    def jet_many(X, order):
        jet = mild.jet_many(X, order)
        finite = start_finite & (X == x0).all(axis=1)
        jet[0] = np.where(finite, jet[0], np.nan)
        return jet

    broken = EqFunction(jet_many, nvars=2)
    tr = flow_one(broken, M, x0, crit)
    assert tr.status[0] == UNRESOLVED and tr.limit[0] == -1
    assert tr.steps[0] == 0 and tr.halvings[0] == MAX_HALVINGS
    assert tr.end[0].tobytes() == x0.tobytes()


def test_row_inside_a_certified_radius_is_captured_at_step_zero():
    # the bowl's minimum and both poles of the sphere have level regions of
    # radius 0.2, at levels 0.04 and +-0.98; a row started past the level
    # ends at the sink itself without a single RK4 step
    M = r2_manifold()
    bowl = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 3}))
    crit = [classify(bowl, M, np.zeros(2))]
    tr = integrate_batch(bowl, M, np.array([[0.06, -0.05]]), crits=crit)
    assert (tr.status[0] == CAPTURED and tr.limit[0] == 0
            and tr.linear_capture[0])
    assert tr.steps[0] == 0 and np.array_equal(tr.end[0], crit[0].coords)
    S = sphere_manifold()
    f = height_z()
    crits = [classify(f, S, np.array([0.0, 0.0, 1.0])),
             classify(f, S, np.array([0.0, 0.0, -1.0]))]
    x0 = row(S.project_points_many, np.array([0.05, 0.04, -1.0]))
    for direction, sink in ((-1, 1), (+1, 0)):
        start = x0 if direction < 0 else -x0
        tr = integrate_batch(f, S, start[None, :], crits=crits,
                             direction=direction)
        assert (tr.limit[0] == sink and tr.linear_capture[0]
                and tr.steps[0] == 0)
        assert np.array_equal(tr.end[0], crits[sink].coords)


@pytest.mark.parametrize("a, radius", [(40, 0.07), (10**6, CAPTURE_TOL)])
def test_capture_radius_shrinks_where_the_quadratic_model_fails(a, radius):
    # f = x^2 + y^2 - a x^4: the velocity contracts at half the smallest
    # eigenvalue only for 4 a x^2 <= 1, so the largest certified release
    # rung of its maximum -f is 0.07 at a = 40 and none at a = 1e6.  A sink
    # captures only within CAPTURE_TOL or past its level: on the circle of
    # radius 0.2, f is least at (+-0.2, 0), 0.04 - 0.0016 a, below f near
    # the origin, so the level region certifies nothing.  Rows just inside
    # and just outside the radius both take RK4 steps to the minimum but
    # the one already within CAPTURE_TOL
    M = r2_manifold()
    f = EqFunction.from_polynomial(
        Polynomial(2, {(2, 0): 1, (0, 2): 1, (4, 0): -a}))
    crit = [classify(f, M, np.zeros(2))]
    X0 = np.array([[0.97 * radius, 0.0], [1.03 * radius, 0.0]])
    trajs = integrate_batch(f, M, X0, crits=crit)
    assert (trajs.status == CAPTURED).all() and (trajs.limit == 0).all()
    assert (np.linalg.norm(trajs.end, axis=1) < CAPTURE_TOL).all()
    assert list(trajs.steps == 0) == [radius == CAPTURE_TOL, False]
    assert not trajs.linear_capture.any()


def test_row_in_a_level_region_is_captured_at_step_zero():
    # f = x^2 + y^2 - 40 x^4 + 600 x^6 has no critical point but the origin
    # (3600 u^2 - 160 u + 2 > 0 for u = x^2).  On the circle of radius 0.2
    # f is least at (+-0.2, 0), 0.0144: the rows at (0.1, 0) and (0.19, 0),
    # where f is 0.0066 and 0.0122, end at the minimum without a step, and
    # the row at (0, 0.13), where f is 0.0169, takes RK4 steps until its f
    # is past the level; no row leaves the origin, so nothing is probed
    M = r2_manifold()
    f = EqFunction.from_polynomial(Polynomial(
        2, {(2, 0): 1, (0, 2): 1, (4, 0): -40, (6, 0): 600}))
    crit = [classify(f, M, np.zeros(2))]
    ev = M.evaluator(f)

    def flow(P, sign):
        (v, _), (G, J) = ev.jet(P, 1)
        return v, tangent_part(J, sign[:, None] * G)

    cert = _certificate(flow, M, crit, np.zeros((1, 2)),
                        np.zeros((2, 1), dtype=bool))
    assert cert.region[0] == 0.2 and not cert.release.any()
    assert cert.level[0, 0] == pytest.approx(0.0144, rel=1e-12)
    X0 = np.array([[0.1, 0.0], [0.19, 0.0], [0.0, 0.13]])
    trajs = integrate_batch(f, M, X0, crits=crit)
    assert (trajs.status == CAPTURED).all() and (trajs.limit == 0).all()
    assert trajs.linear_capture.all()
    assert (np.linalg.norm(trajs.end, axis=1) < CAPTURE_TOL).all()
    assert list(trajs.steps == 0) == [True, True, False]


# the release radius of the minimum of x^2 + y^2 - a x^4 ascending, and of
# the maximum of its negative descending: the largest rung r with
# 4 a r^2 <= 1, where the velocity on the x axis expands at half the
# smallest eigenvalue, and 0 where no rung holds
RELEASE_PINS = {1: 0.2, 40: 0.07, 400: 0.02, 4000: 3e-3, 40000: 1e-3,
                10**6: 0.0}


@pytest.mark.parametrize("a", sorted(RELEASE_PINS))
def test_certificate_keeps_the_capture_radii(a):
    # an extremum releases in the direction that leaves it and nothing in
    # the other; with no row leaving it, it is not probed and releases
    # nothing either way
    M = r2_manifold()
    for s in (1, -1):
        f = EqFunction.from_polynomial(
            Polynomial(2, {(2, 0): s, (0, 2): s, (4, 0): -s * a}))
        crit = [classify(f, M, np.zeros(2))]
        ev = M.evaluator(f)

        def flow(P, sign):
            (v, _), (G, J) = ev.jet(P, 1)
            return v, tangent_part(J, sign[:, None] * G)

        into = (1 - s) // 2               # the direction that sinks here
        named, _, _ = _certificate(flow, M, crit, np.zeros((1, 2)),
                                   np.ones((2, 1), dtype=bool))
        assert (named[into, 0], named[1 - into, 0]) == (0.0, RELEASE_PINS[a])
        unnamed, _, _ = _certificate(flow, M, crit, np.zeros((1, 2)),
                                     np.zeros((2, 1), dtype=bool))
        assert not unnamed.any()


@pytest.mark.parametrize("a, radius", [(40, 0.07), (10**6, 0.0)])
def test_release_from_a_saddle(a, radius):
    # f = -x^2 + y^2 + a x^4 descends from its saddle along x at rate 2 and
    # the velocity expands at half that rate only for 4 a x^2 <= 1: the rung
    # 0.07 holds at a = 40 and none at a = 1e6, where a descending row keeps
    # its seed bit for bit.  The ascent along y is exactly linear and is
    # released to the largest rung.  A row with no source is never released
    M = r2_manifold()
    f = EqFunction.from_polynomial(
        Polynomial(2, {(2, 0): -1, (0, 2): 1, (4, 0): a}))
    crit = [classify(f, M, np.zeros(2))]
    X0 = np.array([[1e-3, 0.0], [-1e-3, 0.0], [0.0, 1e-3], [0.0, -1e-3]])
    direction = np.array([-1, -1, 1, 1])
    kw = dict(crits=crit, direction=direction, max_steps=0)
    released = integrate_batch(f, M, X0, sources=np.zeros(4, int), **kw)
    plain = integrate_batch(f, M, X0, **kw)
    assert list(released.linear_release) == [radius > 0] * 2 + [True] * 2
    assert plain.start.tobytes() == X0.tobytes()
    reach = [radius] * 2 + [0.2] * 2
    for x0, start, r in zip(X0, released.start, reach):
        if r:
            # on the eigenline, at the certified radius
            assert np.allclose(start, r * x0 / 1e-3, rtol=1e-12, atol=0)
        else:
            assert start.tobytes() == x0.tobytes()


def test_project_points_rows_independent():
    # rows already on the sphere to within tol stay bit for bit where they
    # are (a Gauss-Newton step would move the last two by about 2e-13), and
    # the far row lands where it lands alone
    M = sphere_manifold()
    X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0 - 2e-13],
                  [0.6 + 3e-13, 0.8, 0.0], [3.0, -4.0, 12.0]])
    (F,) = M.jet(X[:3], 0)
    assert np.max(np.abs(F)) < 1e-12
    Y = M.project_points_many(X)
    assert Y[:3].tobytes() == X[:3].tobytes()
    assert Y[3].tobytes() == M.project_points_many(X[3:]).tobytes()
    assert abs(constraints_at(M, Y[3])[0][0]) < 1e-12


def test_constraint_jet_reads_one_table_call():
    # (F, J) come from one call of the constraint PolyJet's first table:
    # its first codim columns, then each constraint's gradient.  On the
    # circle cut out by x^2 + y^2 + z^2 - 1 and z every gradient column has
    # one term, so J is exact
    M = _joint_manifolds()[3]
    X = np.array([[0.3, -0.2, 0.9], [1.5, 0.1, -0.4]])
    F, J = M.jet(X, 1)
    T = M.jet._first(X)
    assert F.shape == (2, 2) and J.shape == (2, 2, 3)
    assert np.array_equal(F, T[:, :2])
    assert np.array_equal(J.reshape(2, 6), T[:, 2:])
    assert np.array_equal(F[:, 1], X[:, 2])
    assert np.array_equal(J[:, 0], 2.0 * X)
    assert np.array_equal(J[:, 1], np.broadcast_to([0.0, 0.0, 1.0], (2, 3)))


# -- the fused table and the codim-1 projections, bit for bit ----------------


def _poly_table_by_variable(table, X):
    """PolyTable's value from a monomial matrix of Python floats: each power
    multiplied up one degree at a time, x^k = x^(k-1) * x, and each
    monomial the product of its powers in variable order."""
    mono = []
    for x in np.asarray(X, dtype=float).tolist():
        row = []
        for e in table.expo.tolist():
            m = 1.0
            for xi, k in zip(x, e):
                p = 1.0
                for _ in range(k):
                    p = p * xi
                m = m * p
            row.append(m)
        mono.append(row)
    mono = np.array(mono, dtype=float).reshape(len(X), len(table.expo))
    return np.einsum("mk,kp->mp", mono, table.coef)


@st.composite
def _float_batches(draw):
    """Up to three polynomials in the same 1-3 variables with degrees up to
    6, at 1-6 rows of arbitrary floats in [-8, 8]; in some examples those
    rows lead a batch of Newton's or the certificate's size, 245 or 1,000
    rows, filled with seeded uniform floats in [-8, 8]."""
    n = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 6)] * n)
    polys = [Polynomial(n, draw(st.dictionaries(expo, _COEFFS, max_size=8)))
             for _ in range(draw(st.integers(1, 3)))]
    coord = st.floats(-8, 8, allow_nan=False)
    rows = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.tuples(*[coord] * n), min_size=rows,
                               max_size=rows)), dtype=float).reshape(rows, n)
    # most examples keep their few rows: a large batch costs the reference
    # loop about 50 ms
    size = draw(st.sampled_from((rows, rows, rows, 245, 1000)))
    fill = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return polys, np.concatenate([X, fill.uniform(-8, 8, (size - rows, n))])


@settings(max_examples=200, deadline=None)
@given(_float_batches())
@example(([Polynomial.zero(2)], np.array([[0.5, -3.0]])))
@example(([Polynomial.constant(2, 3), Polynomial(2, {(0, 5): 1})],
          np.array([[1.1, -2.7], [0.0, 7.3]])))
# a batch of no rows
@example(([Polynomial(2, {(3, 1): 2, (0, 2): -1}), Polynomial(2, {(1, 0): 1})],
          np.zeros((0, 2))))
# no monomial uses a variable: the Hessian table of a linear f, and constants
@example((PolyJet([Polynomial(3, {(1, 0, 0): 2, (0, 0, 1): -1})], 3)
          ._second.polys, np.array([[0.3, -1.2, 7.0], [-0.0, 0.0, 1e300]])))
@example(([Polynomial.constant(3, 2), Polynomial.constant(3, -5)],
          np.array([[0.3, -1.2, 7.0]])))
# one variable of three, so the used variables are an index array
@example(([Polynomial(3, {(0, 4, 0): 3, (0, 1, 0): -2}),
           Polynomial(3, {(0, 2, 0): Fraction(1, 3)})],
          np.array([[5.0, -1.7, 2.0], [-8.0, 0.1, 0.0], [1.0, 7.9, -3.0]])))
def test_poly_table_matches_per_variable_powers_bitwise(case):
    polys, X = case
    T = PolyTable(polys, X.shape[1])
    got = T(X)
    assert _same_bits(got, _poly_table_by_variable(T, X))
    for r in range(len(X)):
        assert _same_bits(T(X[r:r + 1])[0], got[r])


def test_poly_table_forms_no_power_above_a_variables_top_degree():
    # y appears to degree 1 only: at y = 1e300 the table forms no y^2, so
    # nothing overflows while x runs up to its degree 6
    T = PolyTable([Polynomial(2, {(6, 0): 1, (0, 1): 1})], 2)
    with np.errstate(over="raise", invalid="raise"):
        got = T(np.array([[2.0, 1e300]]))
    assert got[0, 0] == 64.0 + 1e300


# -- the joint tables of f and the constraints, bit for bit ------------------


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _joint_manifolds():
    """R^3 (codim 0), the sphere, the torus and the unit circle of the
    plane z = 0 cut out by x^2 + y^2 + z^2 - 1 = 0 and z = 0 (codim 2), then
    the sphere_antipodal and circle_c2_height fixtures."""
    trivial = LinearAction.trivial(FiniteGroup.trivial(), 3)
    sphere = sphere_manifold()
    circle = ImplicitGManifold(
        ambient=3, action=trivial,
        constraints=(sphere.constraints[0], Polynomial(3, {(0, 0, 1): 1})))
    return [ImplicitGManifold(ambient=3, constraints=(), action=trivial),
            sphere, MANIFOLD_FIXTURES["torus_tilted"]().manifold, circle,
            MANIFOLD_FIXTURES["sphere_antipodal"]().manifold,
            MANIFOLD_FIXTURES["circle_c2_height"]().manifold]


@pytest.fixture(scope="module")
def joint_manifolds():
    return _joint_manifolds()


def _in_first_vars(poly, n):
    """poly on R^n: its variables after the first n set to 0."""
    return Polynomial(n, {e[:n]: c for e, c in poly.terms.items()
                          if not any(e[n:])})


@st.composite
def _poly_at_points(draw):
    """A polynomial in 3 variables with degrees up to 6, at 1-6 rows of
    arbitrary floats in [-8, 8]."""
    expo = st.tuples(*[st.integers(0, 6)] * 3)
    poly = Polynomial(3, draw(st.dictionaries(expo, _COEFFS, max_size=8)))
    coord = st.floats(-8, 8, allow_nan=False)
    rows = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.tuples(*[coord] * 3), min_size=rows,
                               max_size=rows)), dtype=float).reshape(rows, 3)
    return poly, X


@settings(max_examples=100, deadline=None)
@given(_poly_at_points())
@example((Polynomial(3, {(0, 0, 1): 1}), np.array([[0.0, -0.0, 0.5]])))
@example((Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): -3}),
          np.array([[1.5, 0.1, -0.4]])))
def test_joint_tables_equal_the_separate_tables_bitwise(joint_manifolds, case):
    # the joint PolyJet of f and M's constraints, [f, c], gives f's own
    # PolyJet's and M's own bits at every order, at every row alone too;
    # at codim 0 there is no joint PolyJet and f's own is called.  On a
    # manifold in the plane, f and the points drop their last variable
    poly3, X3 = case
    for M in joint_manifolds:
        poly, X = _in_first_vars(poly3, M.ambient), X3[:, :M.ambient]
        f = EqFunction.from_polynomial(poly)
        ev = Evaluator(f, M)
        assert (ev._joint is not None) == bool(M.codim)
        got = [a for pair in ev.jet(X, 2) for a in pair]
        want = [a for pair in zip(f.jet_many(X, 2), M.jet(X, 2)) for a in pair]
        assert len(got) == 6
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        for r in range(len(X)):
            one = [a for pair in ev.jet(X[r:r + 1], 2) for a in pair]
            assert all(_same_bits(a[0], b[r]) for a, b in zip(one, got))


def test_evaluator_projection_returns_f_and_j_at_its_points():
    # the projection steps on the joint table exactly as on M's own, and
    # the f, grad f and J it returns are a fresh evaluation at its points;
    # with iters=1 the rows still moving take one more evaluation.  The
    # same function without its polynomial takes the composed path
    poly = Polynomial(3, {(0, 0, 1): 1, (1, 0, 0): Fraction(3, 10),
                          (2, 1, 0): -2})
    rng = np.random.default_rng(31)
    for M in _joint_manifolds():
        n = M.ambient
        f = EqFunction.from_polynomial(_in_first_vars(poly, n))
        plain = EqFunction(f.jet_many, nvars=n)
        on = M.project_points_many(2.0 * rng.normal(size=(4, n)))
        X0 = np.concatenate([on, on + 1e-3 * rng.normal(size=on.shape),
                             3.0 * rng.normal(size=(3, n))])
        for iters in (1, 20):
            for fn in (f, plain):
                ev = Evaluator(fn, M)
                got = ev.project(X0, iters=iters)
                X, v, g, J = got
                assert _same_bits(X, M.project_points_many(X0, iters=iters))
                (fv, _), (fg, fJ) = ev.jet(X, 1)
                assert all(_same_bits(a, b) for a, b in zip((v, g, J), (fv, fg, fJ)))
                for r in range(len(X0)):
                    one = ev.project(X0[r:r + 1], iters=iters)
                    assert all(_same_bits(a[0], b[r]) for a, b in zip(one, got))


@pytest.fixture(scope="module")
def stage_fixtures():
    return [MANIFOLD_FIXTURES[n]() for n in ("sphere_height", "torus_tilted")]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from((0.0, 1e-13, 1e-9, 1e-5, 1e-2, 0.2)),
                min_size=1, max_size=12))
@example(1, 7, [0.0, 1e-13, 1e-9, 1e-5, 1e-2, 0.2])
@example(0, 3, [0.2, 0.0])
def test_flow_stage_reads_equal_the_jet_and_the_composed_projection(
        stage_fixtures, which, seed, scales):
    # the flow's velocities and projections read f, grad f, F and J from
    # one call of the joint PolyJet's first table; they equal, bit for bit,
    # tangent_part(J, s grad f) from ev.jet(X, 1) and the projection of M
    # followed by f's own jet.  Each row of the batch lies at its own
    # distance from the sphere or the torus, so rows stop at different
    # Gauss-Newton steps
    fx = stage_fixtures[which]
    f, M = fx.function, fx.manifold
    plain = EqFunction(f.jet_many, nvars=M.ambient)
    rng = np.random.default_rng(seed)
    on = M.project_points_many(2.0 * rng.normal(size=(len(scales), 3)))
    X = on + np.array(scales)[:, None] * rng.normal(size=on.shape)
    sign = rng.choice([-1.0, 1.0], size=len(X))[:, None]
    ev = Evaluator(f, M)
    F, J, v, g = ev.first(X)
    (v0, F0), (g0, J0) = ev.jet(X, 1)
    assert all(_same_bits(a, b) for a, b in zip((F, J, v, g), (F0, J0, v0, g0)))
    for at in (ev.jet(X, 1), Evaluator(plain, M).jet(X, 1)):
        _, (ga, Ja) = at
        assert _same_bits(tangent_part(J, sign * g), tangent_part(Ja, sign * ga))
    Y, J1 = M.project_points_jacobian_many(X)
    composed = (Y, *f.jet_many(Y, 1), J1)
    for got in (ev.project(X), Evaluator(plain, M).project(X)):
        assert all(_same_bits(a, b) for a, b in zip(got, composed))


def _hypersurface_points(M, rng, count=400):
    """Points on the zero set of M, and points near it."""
    X = M.project_points_many(rng.normal(size=(count, M.ambient)) * 2.0)
    return X, X + 1e-3 * rng.normal(size=X.shape)


def _codim1_cases():
    rng = np.random.default_rng(23)
    return [(M, *_hypersurface_points(M, rng))
            for M in (sphere_manifold(),
                      MANIFOLD_FIXTURES["torus_tilted"]().manifold)]


def test_codim1_projections_equal_their_solve_forms_bitwise():
    # one constraint divides by |J|^2 where two or more take a stacked
    # solve; the 1 x 1 solve is the same division, bit for bit
    for M, on, near in _codim1_cases():
        V = np.random.default_rng(29).normal(size=on.shape)
        _, J = M.jet(on, 1)
        JV = np.einsum("mcn,mn->mc", J, V)
        G = np.einsum("mcn,mdn->mcd", J, J)
        lam = np.linalg.solve(G, JV[..., None])[..., 0]
        ref = V - np.einsum("mcn,mc->mn", J, lam)
        assert np.array_equal(tangent_part(J, V), ref)
        # the Gauss-Newton projection with the stacked solve
        X = near.copy()
        rows = np.arange(len(X))
        for _ in range(20):
            F, J = M.jet(X[rows], 1)
            left = ~(np.max(np.abs(F), axis=1) < 1e-12)
            if not left.any():
                break
            rows, F, J = rows[left], F[left], J[left]
            G = np.einsum("mcn,mdn->mcd", J, J)
            lam = np.linalg.solve(G, F[..., None])[..., 0]
            X[rows] -= np.einsum("mcn,mc->mn", J, lam)
        assert np.array_equal(M.project_points_many(near), X)


def test_codim2_rows_whose_jacobian_drops_rank_fall_back_alone():
    # {|x|^2 = 1, z = 0}: at the origin J = [[0, 0, 0], [0, 0, 1]] has rank
    # 1 and its Gram matrix is singular.  That row falls back alone to
    # least squares, and every other row of the stack is solved as it is
    # solved alone, so one such seed no longer fails the whole batch
    sphere = Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                            (0, 0, 0): -1})
    M = ImplicitGManifold(
        ambient=3, constraints=(sphere, Polynomial(3, {(0, 0, 1): 1})),
        action=LinearAction.trivial(FiniteGroup.trivial(), 3))
    X = np.array([[0.5, 0.2, 0.3], [0.0, 0.0, 0.0], [-1.1, 0.4, -0.2]])
    Y = M.project_points_many(X)
    assert [y.tobytes() for y in Y[[0, 2]]] == [
        M.project_points_many(x[None])[0].tobytes() for x in X[[0, 2]]]
    _, J = M.jet(X, 1)
    V = np.random.default_rng(31).normal(size=X.shape)
    T = tangent_part(J, V)
    assert [t.tobytes() for t in T[[0, 2]]] == [
        tangent_part(J[i][None], V[i][None])[0].tobytes() for i in (0, 2)]
    # the least-squares multipliers leave V's part along e_z out at the origin
    assert np.allclose(T[1], [V[1, 0], V[1, 1], 0.0], rtol=0, atol=1e-15)


def test_projection_jacobian_is_the_jacobian_at_the_projected_points():
    # the Jacobian comes from the projection's last table evaluation of each
    # row; with iters=1 every moving row stops before it is evaluated
    # again, so it takes one more evaluation
    for M, on, near in _codim1_cases():
        for X0 in (on, near, np.concatenate([on[:5], 3.0 * near[:5]])):
            for iters in (0, 1, 20):
                X, J = M.project_points_jacobian_many(X0, iters=iters)
                assert np.array_equal(X, M.project_points_many(X0, iters=iters))
                assert np.array_equal(J, M.jet(X, 1)[1])
                assert iters or np.array_equal(X, X0)
    M = r2_manifold()
    X, J = M.project_points_jacobian_many(np.ones((3, 2)))
    assert np.array_equal(X, np.ones((3, 2))) and J.shape == (3, 0, 2)


def test_projection_without_steps_is_one_evaluation():
    # iters=0 returns the rows as they are, with J and the rest from one
    # evaluation there; an Evaluator's projection returns f and grad f
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    M, X0 = fx.manifold, fx.seeds[:7]
    calls = []

    def evaluate(X):
        calls.append(len(X))
        return M.jet(X, 1)

    X, J = M.project_points_jacobian_many(X0, 0, evaluate=evaluate)
    assert calls == [7] and X.tobytes() == X0.tobytes()
    assert np.array_equal(J, M.jet(X0, 1)[1])
    ev = M.evaluator(fx.function)
    X, v, g, J = ev.project(X0, 0)
    (v0, _), (g0, J0) = ev.jet(X0, 1)
    assert X.tobytes() == X0.tobytes()
    assert all(np.array_equal(a, b) for a, b in ((v, v0), (g, g0), (J, J0)))


def _count_table_calls(monkeypatch):
    """Record the column count of every PolyTable call."""
    calls = []
    real = PolyTable.__call__

    def counted(table, X):
        calls.append(table.coef.shape[1])
        return real(table, X)

    monkeypatch.setattr(PolyTable, "__call__", counted)
    return calls


def _count_projection_calls(M, calls):
    """Wrap M's projection; the returned dict counts the table calls made
    inside it."""
    inside = {"calls": 0}
    project = M.project_points_jacobian_many

    def projection(X, *args, **kwargs):
        before = len(calls)
        out = project(X, *args, **kwargs)
        inside["calls"] += len(calls) - before
        return out

    M.project_points_jacobian_many = projection
    return inside


def test_flow_constraint_table_calls_per_iteration(monkeypatch):
    # a polynomial f on the sphere reads everything from the first table
    # of the joint PolyJet, [f, c, grad f, grad c] (8 columns; f's own
    # table and the sphere's have 4): K2, K3 and K4 call it once each, and the
    # projection once per Gauss-Newton step, whose last call gives f, grad f
    # and J at the new points, so besides the projections an iteration
    # makes three table calls, and the start points one
    M = sphere_manifold()
    f = height_z()
    X0 = M.project_points_many(np.array([[0.8, 0.2, 0.4], [-0.3, 0.6, 0.1]]))
    calls = _count_table_calls(monkeypatch)
    inside = _count_projection_calls(M, calls)
    for n in (3, 4):
        calls.clear()
        inside["calls"] = 0
        trajs = integrate_batch(f, M, X0, crits=[], max_steps=n)
        assert (trajs.steps == n).all() and (trajs.halvings == 0).all()
        assert set(calls) == {8}
        assert inside["calls"] >= n
        assert len(calls) - inside["calls"] == 1 + 3 * n


def test_flow_composed_calls_per_iteration(monkeypatch):
    # a surgered function has no polynomial, so the flow on the circle
    # calls f and the constraint PolyJet in turn, each at order 1: f at
    # K2-K4 and once at the new points, M.jet at K2-K4 and once per
    # projection step, and each once at the start points
    run = run_morse(MANIFOLD_FIXTURES["circle_c2_height"](), stabilize=True)
    M, g = run.fixture.manifold, run.function
    assert getattr(g, "polynomial", None) is None
    f_calls = []
    jet = g.jet_many
    g.jet_many = lambda X, order: f_calls.append((len(X), order)) or jet(X, order)
    con_calls = []
    con_jet = M.jet
    M.jet = lambda X, order: con_calls.append(order) or con_jet(X, order)
    inside = _count_projection_calls(M, con_calls)
    th = np.array([-2.0, 2.5])
    X0 = np.stack([np.cos(th), np.sin(th)], axis=1)
    for n in (3, 4):
        f_calls.clear()
        con_calls.clear()
        inside["calls"] = 0
        trajs = integrate_batch(g, M, X0, crits=[], max_steps=n)
        assert (trajs.steps == n).all() and (trajs.halvings == 0).all()
        assert len(f_calls) == 1 + 4 * n
        assert {order for _, order in f_calls} == {1}
        assert inside["calls"] >= n
        assert len(con_calls) - inside["calls"] == 1 + 3 * n
        assert set(con_calls) == {1}


def test_classify_table_calls(monkeypatch):
    # classify reads f and the constraints from one order-2 call of the
    # Evaluator: a polynomial f on the sphere makes two table calls, the
    # joint PolyJet's first table [f, c, grad f, grad c] (8 columns) and
    # its Hessian table [hess f, hess c] (18)
    M = sphere_manifold()
    calls = _count_table_calls(monkeypatch)
    c = classify(height_z(), M, np.array([0.0, 0.0, 1.0]))
    assert c.index == 2 and c.stable
    assert calls == [8, 18]


@pytest.mark.parametrize("name, bound", [("sphere_height", 20),
                                         ("torus_tilted", 121)])
def test_newton_reads_one_order_2_jet_per_iteration(monkeypatch, name, bound):
    # each Newton iteration makes one order-2 call of the joint PolyJet on
    # its active rows, its first table (8 columns) and then its Hessian
    # table (18), and the starting multipliers come from iteration 0's
    # call, so the search makes no more table calls than when they took a
    # call of their own (20 on the sphere and 121 on the torus)
    fx = MANIFOLD_FIXTURES[name]()
    calls = _count_table_calls(monkeypatch)
    _newton_kkt(fx.function, fx.manifold, fx.seeds)
    assert calls == [8, 18] * (len(calls) // 2)
    assert 0 < len(calls) <= bound


def _solve_stack_by_rows(K, b):
    """The stacked solve that, when any system is singular, solves every
    row alone: solve, then least squares."""
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for r in range(len(b)):
            try:
                out[r] = np.linalg.solve(K[r], b[r])
            except np.linalg.LinAlgError:
                out[r], *_ = np.linalg.lstsq(K[r], b[r], rcond=None)
        return out


def test_singular_kkt_rows_alone_are_solved_row_by_row(monkeypatch):
    # on torus_tilted's fixture grid the seed at the origin has J = 0, so
    # its Gram and KKT systems are singular, and other seeds meet singular
    # KKT systems on their way, so each of the first 13 stacked solves
    # holds one; the rows solve accepts stay in one stack, each call makes
    # at most one per-row solve per singular row, and the points are those
    # of the all-rows fallback
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    f, M = fx.function, fx.manifold
    monkeypatch.setattr(critical, "_solve_stack", _solve_stack_by_rows)
    want = find_critical_points(f, M, fx.seeds)
    monkeypatch.undo()
    solve, stack = np.linalg.solve, critical._solve_stack
    singular, per_row = [], []

    def counted_solve(K, b):
        per_row[-1] += K.ndim == 2
        return solve(K, b)

    def counted_stack(K, b):
        n = 0
        for r in range(len(K)):
            try:
                solve(K[r], b[r])
            except np.linalg.LinAlgError:
                n += 1
        singular.append(n)
        per_row.append(0)
        return stack(K, b)

    monkeypatch.setattr(critical, "_solve_stack", counted_stack)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    got = find_critical_points(f, M, fx.seeds)
    assert len(singular) > 13 and min(singular[:13]) >= 1
    assert all(n <= k for n, k in zip(per_row, singular))
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_a_row_whose_step_is_zero_is_retired(monkeypatch):
    # torus_tilted's seed at the origin: J = 0 makes its Gram and KKT
    # systems singular, and the least-squares step is exactly zero, so the
    # row would repeat the iteration unchanged.  It is dropped after one
    # step, unconverged
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    calls = []
    stack = critical._solve_stack

    def counted(K, b):
        out = stack(K, b)
        calls.append(out.tolist())
        return out

    monkeypatch.setattr(critical, "_solve_stack", counted)
    X, ok = _newton_kkt(fx.function, fx.manifold, np.zeros((1, 3)))
    assert calls == [[[0.0]], [[0.0, 0.0, 0.0, 0.0]]]
    assert X.tolist() == [[0.0, 0.0, 0.0]] and ok.tolist() == [False]


def test_classify_matches_the_separate_tables():
    # the joint tables equal f's and the manifold's own bit for bit, so the
    # restricted Hessian and tangent frame do too
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    f, M = fx.function, fx.manifold
    for p in find_critical_points(f, M, fx.seeds):
        c = classify(f, M, p)
        x = p[None, :]
        _, J = constraints_at(M, p)
        lam, *_ = np.linalg.lstsq(J.T, f.grad_many(x)[0], rcond=None)
        Hf = f.jet_many(x, 2)[2][0] - np.einsum("k,kij->ij", lam,
                                                M.jet(x, 2)[2][0])
        T = tangent_frame(J)
        Ht = T.T @ Hf @ T
        assert np.array_equal(c.tangent_basis, T)
        assert np.array_equal(c.hessian, (Ht + Ht.T) / 2.0)
        assert c.value == float(f.value_many(x)[0])


def test_flow_confined_to_fixed_locus():
    # stable index-1 point at the origin of the double-well fixture; its
    # descending manifold is the fixed axis and trajectories stay on it
    act = LinearAction.reflection_c2(2, axis=0)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {
        (0, 4): 1, (0, 2): -2, (0, 0): 1,       # (y^2-1)^2
        (2, 0): 1, (2, 2): 1,                   # x^2 (1 + y^2)
    }))
    crits = [
        classify(f, M, np.array([0.0, 0.0])),
        classify(f, M, np.array([0.0, 1.0])),
        classify(f, M, np.array([0.0, -1.0])),
    ]
    saddle = crits[0]
    assert saddle.index == 1 and saddle.stable
    direction = (saddle.tangent_basis @ saddle.neg_basis)[:, 0]
    x0 = saddle.coords + 1e-3 * direction
    tr = flow_one(f, M, x0, crits)
    assert tr.status[0] == CAPTURED and crits[tr.limit[0]].index == 0
    assert np.max(np.abs(tr.paths[0][:, 0])) < 1e-6  # stays on the y-axis


def test_restricted_critical_points_match_intersection():
    # critical points of f restricted to the fixed locus are exactly the
    # ambient critical points lying on it (sampled both ways)
    act = LinearAction.reflection_c2(2, axis=0)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {
        (0, 4): 1, (0, 2): -2, (0, 0): 1, (2, 0): 1, (2, 2): 1,
    }))
    ambient = find_critical_points(f, M, seed_grid([(-1.5, 1.5)] * 2, 7))
    on_axis = [p for p in ambient if abs(p[0]) < 1e-9]
    # restriction to the fixed axis x = 0 as a one-variable problem
    poly = Polynomial(1, {(4,): 1, (2,): -2, (0,): 1})
    f1 = EqFunction.from_polynomial(poly)
    M1 = ImplicitGManifold(
        ambient=1, constraints=(),
        action=LinearAction.trivial(FiniteGroup.trivial(), 1),
    )
    restricted = find_critical_points(f1, M1, seed_grid([(-1.5, 1.5)], 9))
    ys_restricted = sorted(round(float(p[0]), 6) for p in restricted)
    ys_ambient = sorted(round(float(p[1]), 6) for p in on_axis)
    assert ys_restricted == ys_ambient


def test_critical_set_equivariance():
    # critical orbits of an invariant function: index/value constant along
    # the orbit, set closed under the action
    act = LinearAction.reflection_c2(2, axis=0)
    M = r2_manifold(act)
    # invariant double well in x with a confining y^2
    f = EqFunction.from_polynomial(Polynomial(2, {
        (4, 0): 1, (2, 0): -2, (0, 0): 1, (0, 2): 1,
    }))
    crits = find_critical_points(f, M, seed_grid([(-2, 2)] * 2, 7))
    assert len(crits) == 3
    classified = [classify(f, M, p) for p in crits]
    wells = [c for c in classified if c.index == 0]
    assert len(wells) == 2
    assert wells[0].value == pytest.approx(wells[1].value)
    # the two wells map to each other under the reflection
    img = M.apply(1, wells[0].coords)
    assert np.linalg.norm(img - wells[1].coords) < 1e-9


# -- the critical set's orbits, from the one same-point rule ---------------


def _coordinatewise_stabilizer(M, x):
    """The elements that move x by less than 1e-9 in every coordinate: the
    Morse layer's stabilizer rule before match_rows decided it."""
    moved = np.abs(M.action.matrices @ x - x) < 1e-9
    return tuple(int(s) for s in np.flatnonzero(moved.all(axis=1)))


@pytest.mark.parametrize("name", sorted(MANIFOLD_FIXTURES))
def test_each_critical_orbit_has_size_times_stabilizer_order_g(
        name, monkeypatch):
    # before and after the surgery of every manifold fixture, the orbits
    # partition the critical set, each orbit's size times its stabilizer
    # order is |G|, and every point's stabilizer is the one the
    # coordinatewise rule gives and the conjugate of its orbit rep's.  The
    # run made one surgery, one localize_surgery call, per unstable orbit
    calls = []
    real = morse_run.localize_surgery
    monkeypatch.setattr(morse_run, "localize_surgery",
                        lambda *args, **kw: calls.append(args[2])
                        or real(*args, **kw))
    run = run_morse(MANIFOLD_FIXTURES[name](), stabilize=True)
    M = run.fixture.manifold
    G = M.action.group
    unstable = [o for o in group_into_orbits(M, run.before)
                if not o.rep.stable]
    assert len(calls) == len(unstable) == len(run.surgeries)
    assert calls == [c for c, _ in run.surgeries]
    for crits in (run.before, run.critical):
        orbits = group_into_orbits(M, crits)
        assert sorted(j for o in orbits for _, j in o.members) == list(
            range(len(crits)))
        for orb in orbits:
            H = orb.rep.stabilizer.elements
            assert orb.size * len(H) == G.order
            for s, j in orb.members:
                stab = crits[j].stabilizer.elements
                assert stab == _coordinatewise_stabilizer(M, crits[j].coords)
                assert stab == tuple(sorted(G.mul[G.mul[s][h]][G.inverse[s]]
                                            for h in H))


def _hand_built(M, x):
    """A critical point at x with M's stabilizer there, for group_into_orbits
    alone: its other fields are placeholders."""
    x = np.array(x, dtype=float)
    return critical.CriticalPoint(
        coords=x, value=0.0, stabilizer=M.action.stabilizer(x),
        tangent_basis=np.eye(2), hessian=np.eye(2), eigvals=np.ones(2),
        eigvecs=np.eye(2), index=0, prime_basis=np.zeros((2, 0)), stable=True)


def test_points_within_dedup_tol_make_group_into_orbits_raise():
    # the reflection of x on R^2.  Points 0.6 DEDUP_TOL apart are the same
    # point: the reflection matches (0.3 DEDUP_TOL, 1) to itself, so its
    # stabilizer is C2, and every element matches (-0.3 DEDUP_TOL, 1) to
    # that first point, which leaves its orbit empty
    M = r2_manifold(LinearAction.reflection_c2(2, axis=0))
    tol = critical.DEDUP_TOL
    near = [_hand_built(M, [x, 1.0]) for x in (0.3 * tol, -0.3 * tol)]
    assert near[0].stabilizer.order == 2
    with pytest.raises(ValueError, match="orbit of size 0 and a stabilizer "
                                         "of order 2, whose product is not "
                                         r"\|G\| = 2"):
        group_into_orbits(M, near)
    # 1.5 DEDUP_TOL apart they are one orbit of two points, each fixed by
    # the identity alone
    apart = [_hand_built(M, [x, 1.0]) for x in (0.75 * tol, -0.75 * tol)]
    (orb,) = group_into_orbits(M, apart)
    assert (orb.size, orb.members) == (2, [(0, 0), (1, 1)])
    # a stabilizer that disagrees with the table is refused too
    fixed = _hand_built(M, [0.0, 1.0])
    fixed.stabilizer = trivial_subgroup(M.action.group)
    with pytest.raises(ValueError, match="orbit of size 1 and a stabilizer "
                                         "of order 1"):
        group_into_orbits(M, [fixed])


# -- the batched critical-point search against the scalar one --------------


def _newton_kkt_reference(f, M, x0, max_iter=60, tol=1e-12, bound=1e6):
    """Newton on the Lagrange system from one seed, as the search ran before
    it was batched: f and the constraints read once per iteration, each
    from one order-2 call.  A step that is exactly zero would repeat the
    iteration unchanged, so it ends the search.  Returns the point or
    None."""
    N = M.ambient
    c = M.codim
    x = np.asarray(x0, dtype=float).copy()
    lam = None
    for _ in range(max_iter):
        _, g, H = (a[0] for a in f.jet_many(x[None, :], 2))
        F, J, CH = (a[0] for a in M.jet(x[None, :], 2))
        if lam is None:
            lam = (np.linalg.lstsq(J.T, g, rcond=None)[0] if c
                   else np.zeros(0))
        res = np.concatenate([g - J.T @ lam, F]) if c else g
        if np.linalg.norm(res) < tol:
            return x
        if c:
            Hl = H - np.einsum("k,kij->ij", lam, CH)
            top = np.concatenate([Hl, -J.T], axis=1)
            bot = np.concatenate([J, np.zeros((c, c))], axis=1)
            K = np.concatenate([top, bot], axis=0)
        else:
            K = H
        try:
            step = np.linalg.solve(K, -res)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(K, -res, rcond=None)
        if not step.any():
            return None
        x = x + step[:N]
        lam = lam + step[N:]
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > bound:
            return None
    return None


def _reference_search(f, M, seeds, tol_crit=1e-9, dedup_tol=1e-6):
    """Scalar Newton from each seed in turn, then each found point's group
    translates refined one at a time: the unbatched find_critical_points."""
    found = []

    def critical(x):
        T = tangent_frame(constraints_at(M, x)[1])
        return np.linalg.norm(T @ (T.T @ row(f.grad_many, x))) < tol_crit

    def add(x):
        if all(np.linalg.norm(x - y) > dedup_tol for y in found):
            found.append(x)

    for s in np.asarray(seeds, dtype=float):
        x = _newton_kkt_reference(f, M, s)
        if x is not None and critical(x):
            add(x)
    i = 0
    while i < len(found):
        for s in M.action.group.elements():
            y = M.apply(s, found[i])
            y2 = _newton_kkt_reference(f, M, y, max_iter=10)
            y = y2 if y2 is not None else y
            if critical(y):
                add(y)
        i += 1
    found.sort(key=lambda p: (round(float(row(f.value_many, p)), 9),)
               + tuple(np.round(p, 6)))
    return found


def _c3_cubic_plane():
    # Re(z^3) + 3/2 |z|^2 under the C3 rotation: the Hessian is singular on
    # the circle |z| = 1/2, exactly so at the dyadic point (1/2, 0)
    M = r2_manifold(OrthogonalAction.rotation(3))
    f = EqFunction.from_polynomial(Polynomial(
        2, {(3, 0): 1, (1, 2): -3, (2, 0): Fraction(3, 2), (0, 2): Fraction(3, 2)}))
    rng = np.random.default_rng(11)
    special = [[0.5, 0.0],                  # singular Hessian, then converges
               [0.35355339, 0.35355339],    # near-singular: jumps past bound
               [1e300, 0.0], [1e120, -1e120]]   # gradient overflows
    return f, M, special, rng.uniform(-3, 3, size=(40, 2)), []


def _sphere_height_case():
    fx = MANIFOLD_FIXTURES["sphere_height"]()
    rng = np.random.default_rng(12)
    special = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0],   # equator: KKT singular
               [1.0, 0.0, 1e-9],                  # jumps past bound
               [0.0, 0.0, 1.0],                   # critical from the start
               [1e100, 0.0, 0.0]]                 # leaves the bound
    overflow = [[1e155, 0.0, 0.0], [1e200, 1.0, 1.0]]  # constraint overflows
    return (fx.function, fx.manifold, special,
            1.3 * rng.normal(size=(40, 3)), overflow)


def _torus_case():
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    rng = np.random.default_rng(13)
    special = [[0.0, 3.0, 0.0], [0.0, 2.0, 1.0],   # gradient normal to f's: singular
               [0.0, 3.0, 1e-12],                 # jumps past bound
               [1e60, 0.0, 0.0]]                  # leaves the bound
    overflow = [[1e80, 0.0, 0.0], [0.0, 1e85, 0.5]]
    return (fx.function, fx.manifold, special,
            rng.uniform([-3.3, -3.3, -1.2], [3.3, 3.3, 1.2], size=(40, 3)),
            overflow)


@pytest.mark.parametrize("case", [_c3_cubic_plane, _sphere_height_case,
                                  _torus_case])
def test_batched_newton_matches_scalar_reference(case):
    f, M, special, random_seeds, overflow = case()
    seeds = np.concatenate([np.array(special + overflow, dtype=float)
                            .reshape(-1, M.ambient), random_seeds])
    order = np.random.default_rng(len(seeds)).permutation(len(seeds))
    seeds = seeds[order]
    outcomes = set()
    with np.errstate(over="ignore", invalid="ignore"):
        X, ok = _newton_kkt(f, M, seeds)
        assert X.shape == seeds.shape
        for s, x, converged in zip(seeds, X, ok):
            if any(np.array_equal(s, o) for o in overflow):
                # the scalar least-squares fallback fails on the non-finite
                # system; the batch drops the row as divergent
                with pytest.raises(np.linalg.LinAlgError):
                    _newton_kkt_reference(f, M, s)
                assert not converged
                continue
            ref = _newton_kkt_reference(f, M, s)
            assert (ref is None) == (not converged), s
            if ref is not None:
                assert np.max(np.abs(x - ref)) <= 1e-12, s
            outcomes.add(bool(converged))
    assert outcomes == {True, False}


# the critical-point counts the 20 jittered grids give per case: figure 1
# after surgery has 7 critical points, but its grids 144, 150 and 153 miss
# the orbit of three index-1 saddles and find 4, the search's known
# silent miss
SEARCH_COUNTS = {"figure1_plane": {1}, "figure1_plane-surgered": {4, 7},
                 "figure1_dihedral": {1}, "figure1_dihedral-surgered": {4, 7},
                 "figure2_plane": {1}, "figure2_plane-surgered": {3},
                 "sphere_height": {2}, "torus_tilted": {4},
                 "circle_c2_height": {2}, "circle_c2_height-surgered": {4},
                 "wells_c2": {3}, "sphere_antipodal": {6}}


def _fixture_cases():
    for name, build in MANIFOLD_FIXTURES.items():
        run = run_morse(build(), stabilize=True)
        fx = run.fixture
        yield pytest.param(fx, fx.function, SEARCH_COUNTS[name], id=name)
        if run.surgeries:
            yield pytest.param(fx, run.function,
                               SEARCH_COUNTS[name + "-surgered"],
                               id=name + "-surgered")


def _jittered(fx, rng):
    """The fixture's seeds, each moved by at most a quarter of the grid
    spacing per axis (of the angular spacing for a circle of seeds)."""
    S = fx.seeds
    if fx.manifold.codim and fx.manifold.ambient == 2:
        th = np.arctan2(S[:, 1], S[:, 0])
        th = th + rng.uniform(-0.25, 0.25, len(S)) * 2 * np.pi / len(S)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    step = np.array([np.min(np.diff(np.unique(col))) for col in S.T])
    return S + rng.uniform(-0.25, 0.25, S.shape) * step


@pytest.mark.parametrize("fx, f, expected", list(_fixture_cases()))
def test_search_matches_reference_on_jittered_grids(fx, f, expected):
    counts = set()
    for k in range(140, 160):
        seeds = _jittered(fx, np.random.default_rng(k))
        got = find_critical_points(f, fx.manifold, seeds)
        want = _reference_search(f, fx.manifold, seeds)
        assert len(got) == len(want), k
        for p, q in zip(got, want):
            assert np.max(np.abs(p - q)) <= 1e-9, k
        counts.add(len(got))
    assert counts == expected


def test_search_calls_gradient_in_batches():
    run = run_morse(MANIFOLD_FIXTURES["figure1_plane"](), stabilize=True)
    fx, M, g = run.fixture, run.fixture.manifold, run.function
    # the search reads gradients through the first-order evaluation
    calls = []
    real = g.jet_many

    def jet_many(X, order):
        if order == 1:
            calls.append(len(X))
        return real(X, order)

    g.jet_many = jet_many
    assert len(find_critical_points(g, M, fx.seeds)) == 7
    assert 0 < len(calls) < 100
