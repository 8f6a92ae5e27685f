"""Manifolds, critical point finding/classification, flows, and the model."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equimorse.groups import FiniteGroup
from equimorse.polynomials import LinearAction, Polynomial
from equimorse.fixtures import MANIFOLD_FIXTURES
from equimorse.morse import (
    CriticalPoint,
    DegenerateHessian,
    EqFunction,
    ImplicitGManifold,
    build_cutoffs,
    classify,
    find_critical_points,
    localize_surgery,
    seed_grid,
)
from equimorse.morse.critical import _newton_kkt
from equimorse.morse.flow import (
    CAPTURE_TOL,
    MAX_HALVINGS,
    UNRESOLVED,
    integrate_batch,
)
from equimorse.morse.manifolds import Evaluator, PolyTable


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


def flow_one(f, M, x0, crits, **kw):
    """The descending trajectory from the single point x0, with its path."""
    (tr,) = integrate_batch(f, M, np.asarray(x0, dtype=float)[None, :],
                            crits=crits, keep_paths=True, **kw)
    return tr


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
    H = row(f.hess_many, x)
    assert H[0][1] == pytest.approx(-1.0)
    assert H[0][0] == pytest.approx(2.0)
    assert H[1][1] == pytest.approx(12 * (-0.4))
    X = np.array([[0.1, 0.2], [2.0, -1.0], [0.0, 0.0]])
    assert f.value_many(X).shape == (3,)
    assert f.grad_many(X).shape == (3, 2)
    assert f.hess_many(X).shape == (3, 2, 2)
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
    T = fx.function._first(X)
    assert np.array_equal(T[:, 0], X[:, 2] + 0.3 * X[:, 0])
    assert np.array_equal(T[:, 1:], np.broadcast_to([0.3, 0.0, 1.0], (200, 3)))


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
    _assert_matches_exact(M.constraint_values_many(X), cons, pts)
    firsts = [p.derivative(i) for p in cons for i in range(n)]
    _assert_matches_exact(M.jacobian_many(X).reshape(len(pts), c * n),
                          firsts, pts)
    seconds = [g.derivative(j) for g in firsts for j in range(n)]
    _assert_matches_exact(
        M.constraint_hessians_many(X).reshape(len(pts), c * n * n), seconds, pts
    )


def test_sphere_tangent_and_projection():
    M = sphere_manifold()
    p = row(M.project_points_many, np.array([1.2, 0.6, -0.3]))
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12
    T = M.tangent_basis(p)
    assert T.shape == (3, 2)
    assert np.allclose(T.T @ T, np.eye(2), atol=1e-12)
    assert np.max(np.abs(T.T @ p)) < 1e-12
    v = np.array([1.0, 0.0, 0.0])
    pv = M.project_tangent_many(p[None, :], v[None, :])[0]
    assert abs(pv @ p) < 1e-12


def test_validate_action_on_sphere():
    act = LinearAction.reflection_c2(3, axis=0)
    M = sphere_manifold(act)
    worst = M.validate_action([np.array([0.3, 0.5, 0.8]),
                               np.array([-1.0, 0.2, 0.1])])
    assert worst < 1e-12


def test_find_critical_points_sphere_height():
    M = sphere_manifold()
    f = height_z()
    seeds = seed_grid([(-1.2, 1.2)] * 3, 4)
    crits = find_critical_points(f, M, seeds)
    assert len(crits) == 2
    zs = sorted(round(float(c[2]), 6) for c in crits)
    assert zs == [-1.0, 1.0]


def test_find_critical_points_rotation_plane():
    act = LinearAction.rotation_cn(3)
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
    act = LinearAction.rotation_cn(3)
    M = r2_manifold(act)
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): -1, (0, 2): -1}))
    c = classify(f, M, np.array([0.0, 0.0]))
    assert c.index == 2
    assert c.stabilizer.order == 3
    assert not c.stable
    assert c.fixed_basis.shape[1] == 0  # rotation fixes no tangent vector


def test_classify_stable_minimum():
    act = LinearAction.rotation_cn(3)
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
    assert tr.resolved
    assert tr.limit.index == 0
    # points stay on the sphere
    assert abs(np.linalg.norm(tr.end) - 1.0) < 1e-9


def test_flow_counts_steps_and_halvings():
    # f = x^2 + 50 y^2: near the minimum the capped step leaves RK4's
    # stability region along y, so the integrator must halve it; with no
    # critical point to capture it, the row runs out its step budget there
    M = r2_manifold()
    stiff = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 50}))
    tr = flow_one(stiff, M, np.array([0.5, 0.3]), [], max_steps=100)
    assert tr.status == UNRESOLVED and tr.steps == 100 and tr.halvings > 0
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    tr = flow_one(mild, M, np.array([0.5, 0.3]), crit)
    assert tr.resolved and tr.steps > 0 and tr.halvings == 0


def _counting(f):
    """f with its first-order evaluations (value_grad_many calls) counted."""
    calls = {"first": 0}

    def value_grad_many(X):
        calls["first"] += 1
        return f.value_grad_many(X)

    return EqFunction(value_grad_many, f.hess_many, nvars=f.nvars), calls


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
        assert all(tr.steps == n and tr.halvings == 0 for tr in trajs)
        used.append(calls["first"])
    assert used[1] - used[0] == 4
    assert used[0] == 1 + 1 + 4 * 3
    # a halving retry reuses K1: three velocity calls and one
    # value-and-gradient call; with no sink there is no probe call
    stiff = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 50}))
    g, calls = _counting(stiff)
    (tr,) = integrate_batch(g, M, X0[:1], crits=[], max_steps=100)
    assert tr.steps == 100 and tr.halvings > 0
    assert calls["first"] == 1 + 4 * tr.steps + 4 * tr.halvings


def test_flow_fails_loudly_on_non_monotone_values():
    # the value contradicts the gradient: it reports a higher value at
    # every call, so no halving makes a descending step monotone and the
    # trajectory must end unresolved where it started, not be captured
    M = r2_manifold()
    mild = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(mild, M, np.zeros(2))]
    rising = iter(range(10**6))
    liar = EqFunction(lambda X: (np.full(len(X), float(next(rising))),
                                 mild.grad_many(X)),
                      mild.hess_many, nvars=2)
    x0 = np.array([0.5, 0.3])
    tr = flow_one(liar, M, x0, crit)
    assert tr.status == UNRESOLVED and tr.limit is None
    assert tr.steps == 0 and tr.halvings == MAX_HALVINGS
    assert tr.end.tobytes() == x0.tobytes()


def test_flow_halving_guard_fires_on_smooth_contradicting_values():
    # a smooth value -(x^2 + y^2) against the gradient of +(x^2 + y^2): every
    # descending step raises the value, and a step halved until it barely
    # moves must not slip through the first attempt's slack, so the guard
    # ends the trajectory at once instead of spending the step budget
    M = r2_manifold()
    bowl = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    crit = [classify(bowl, M, np.zeros(2))]
    cap = EqFunction(lambda X: (-bowl.value_many(X), bowl.grad_many(X)),
                     bowl.hess_many, nvars=2)
    x0 = np.array([0.5, 0.3])
    tr = flow_one(cap, M, x0, crit)
    assert tr.status == UNRESOLVED and tr.limit is None
    assert tr.steps == 0 and tr.halvings == MAX_HALVINGS
    assert tr.end.tobytes() == x0.tobytes()


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

    def value_grad_many(X):
        v, g = mild.value_grad_many(X)
        finite = start_finite & (X == x0).all(axis=1)
        return np.where(finite, v, np.nan), g

    broken = EqFunction(value_grad_many, mild.hess_many, nvars=2)
    tr = flow_one(broken, M, x0, crit)
    assert tr.status == UNRESOLVED and tr.limit is None
    assert tr.steps == 0 and tr.halvings == MAX_HALVINGS
    assert tr.end.tobytes() == x0.tobytes()


def test_row_inside_a_certified_radius_is_captured_at_step_zero():
    # the rung 0.1 is certified for the bowl's minimum and for both poles of
    # the sphere; a row started inside it ends in closed form within
    # capture_tol of the sink without a single RK4 step
    M = r2_manifold()
    bowl = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 3}))
    crit = [classify(bowl, M, np.zeros(2))]
    (tr,) = integrate_batch(bowl, M, np.array([[0.06, -0.05]]), crits=crit)
    assert tr.resolved and tr.limit_index == 0 and tr.linear_capture
    assert tr.steps == 0 and np.linalg.norm(tr.end) < CAPTURE_TOL
    S = sphere_manifold()
    f = height_z()
    crits = [classify(f, S, np.array([0.0, 0.0, 1.0])),
             classify(f, S, np.array([0.0, 0.0, -1.0]))]
    x0 = row(S.project_points_many, np.array([0.05, 0.04, -1.0]))
    for direction, sink in ((-1, 1), (+1, 0)):
        start = x0 if direction < 0 else -x0
        (tr,) = integrate_batch(f, S, start[None, :], crits=crits,
                                direction=direction)
        assert tr.limit_index == sink and tr.linear_capture and tr.steps == 0
        assert np.linalg.norm(tr.end - crits[sink].coords) < CAPTURE_TOL
        assert abs(np.linalg.norm(tr.end) - 1.0) < 1e-12


@pytest.mark.parametrize("a, radius", [(40, 0.03), (10**6, CAPTURE_TOL)])
def test_capture_radius_shrinks_where_the_quadratic_model_fails(a, radius):
    # f = x^2 + y^2 - a x^4: the velocity contracts at half the smallest
    # eigenvalue only for 4 a x^2 <= 1, so at a = 40 the rung 0.1 fails and
    # 0.03 holds, and at a = 1e6 no rung holds and the radius is capture_tol;
    # rows just inside and just outside the radius both reach the minimum
    M = r2_manifold()
    f = EqFunction.from_polynomial(
        Polynomial(2, {(2, 0): 1, (0, 2): 1, (4, 0): -a}))
    crit = [classify(f, M, np.zeros(2))]
    X0 = np.array([[0.97 * radius, 0.0], [1.03 * radius, 0.0]])
    trajs = integrate_batch(f, M, X0, crits=crit)
    assert all(tr.resolved and tr.limit_index == 0 for tr in trajs)
    assert all(np.linalg.norm(tr.end) < CAPTURE_TOL for tr in trajs)
    assert [tr.steps == 0 for tr in trajs] == [True, False]
    assert [tr.linear_capture for tr in trajs] == [radius > CAPTURE_TOL] * 2


def test_project_points_rows_independent():
    # rows already on the sphere to within tol stay bit for bit where they
    # are (a Gauss-Newton step would move the last two by about 2e-13), and
    # the far row lands where it lands alone
    M = sphere_manifold()
    X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0 - 2e-13],
                  [0.6 + 3e-13, 0.8, 0.0], [3.0, -4.0, 12.0]])
    assert np.max(np.abs(M.constraint_values_many(X[:3]))) < 1e-12
    Y = M.project_points_many(X)
    assert Y[:3].tobytes() == X[:3].tobytes()
    assert Y[3].tobytes() == M.project_points_many(X[3:]).tobytes()
    assert abs(M.constraint_values_many(Y[3:])[0, 0]) < 1e-12


def test_constraint_values_and_jacobian_match_separate_calls():
    M = sphere_manifold()
    X = np.array([[0.3, -0.2, 0.9], [1.5, 0.1, -0.4]])
    F, J = M.constraint_values_and_jacobian_many(X)
    assert F.tobytes() == M.constraint_values_many(X).tobytes()
    assert J.tobytes() == M.jacobian_many(X).tobytes()


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
    6, at 1-6 rows of arbitrary floats in [-8, 8]."""
    n = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 6)] * n)
    polys = [Polynomial(n, draw(st.dictionaries(expo, _COEFFS, max_size=8)))
             for _ in range(draw(st.integers(1, 3)))]
    coord = st.floats(-8, 8, allow_nan=False)
    rows = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.tuples(*[coord] * n), min_size=rows,
                               max_size=rows)), dtype=float).reshape(rows, n)
    return polys, X


@settings(max_examples=200, deadline=None)
@given(_float_batches())
@example(([Polynomial.zero(2)], np.array([[0.5, -3.0]])))
@example(([Polynomial.constant(2, 3), Polynomial(2, {(0, 5): 1})],
          np.array([[1.1, -2.7], [0.0, 7.3]])))
def test_poly_table_matches_per_variable_powers_bitwise(case):
    polys, X = case
    T = PolyTable(polys, X.shape[1])
    got = T(X)
    assert np.array_equal(got, _poly_table_by_variable(T, X))
    for r in range(len(X)):
        assert np.array_equal(T(X[r:r + 1])[0], got[r])


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
    plane z = 0 cut out by x^2 + y^2 + z^2 - 1 = 0 and z = 0 (codim 2)."""
    trivial = LinearAction.trivial(FiniteGroup.trivial(), 3)
    sphere = sphere_manifold()
    circle = ImplicitGManifold(
        ambient=3, action=trivial,
        constraints=(sphere.constraints[0], Polynomial(3, {(0, 0, 1): 1})))
    return [ImplicitGManifold(ambient=3, constraints=(), action=trivial),
            sphere, MANIFOLD_FIXTURES["torus_tilted"]().manifold, circle]


@pytest.fixture(scope="module")
def joint_manifolds():
    return _joint_manifolds()


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
def test_joint_tables_equal_the_separate_tables_bitwise(joint_manifolds, case):
    # the joint first- and second-order tables of f and M's constraints
    # give f's own table's and M's own tables' bits, at every row alone too;
    # at codim 0 there is no joint table and f's own is called
    poly, X = case
    f = EqFunction.from_polynomial(poly)
    for M in joint_manifolds:
        ev = Evaluator(f, M)
        assert (ev._first is not None) == bool(M.codim)
        got = (*ev.first(X), *ev.second(X))
        want = (*f.value_grad_many(X), *M.constraint_values_and_jacobian_many(X),
                f.hess_many(X), M.constraint_hessians_many(X))
        assert all(_same_bits(a, b) for a, b in zip(got, want))
        assert all(_same_bits(a, b) for a, b in zip(ev.gradients(X), got[1:4]))
        for r in range(len(X)):
            one = (*ev.first(X[r:r + 1]), *ev.second(X[r:r + 1]))
            assert all(_same_bits(a[0], b[r]) for a, b in zip(one, got))


def test_evaluator_projection_returns_f_and_j_at_its_points():
    # the projection steps on the joint table exactly as on M's own, and
    # the f, grad f and J it returns are a fresh evaluation at its points;
    # with iters=1 the rows still moving take one more evaluation.  The
    # same function without its polynomial takes the composed path
    f = EqFunction.from_polynomial(Polynomial(3, {
        (0, 0, 1): 1, (1, 0, 0): Fraction(3, 10), (2, 1, 0): -2}))
    plain = EqFunction(f.value_grad_many, f.hess_many, nvars=3)
    rng = np.random.default_rng(31)
    for M in _joint_manifolds():
        on = M.project_points_many(2.0 * rng.normal(size=(4, 3)))
        X0 = np.concatenate([on, on + 1e-3 * rng.normal(size=on.shape),
                             3.0 * rng.normal(size=(3, 3))])
        for iters in (1, 20):
            for fn in (f, plain):
                ev = Evaluator(fn, M)
                got = ev.project(X0, iters=iters)
                X, v, g, J = got
                assert _same_bits(X, M.project_points_many(X0, iters=iters))
                fv, fg, _, fJ = ev.first(X)
                assert all(_same_bits(a, b) for a, b in zip((v, g, J), (fv, fg, fJ)))
                for r in range(len(X0)):
                    one = ev.project(X0[r:r + 1], iters=iters)
                    assert all(_same_bits(a[0], b[r]) for a, b in zip(one, got))


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
        J = M.jacobian_many(on)
        JV = np.einsum("mcn,mn->mc", J, V)
        G = np.einsum("mcn,mdn->mcd", J, J)
        lam = np.linalg.solve(G, JV[..., None])[..., 0]
        ref = V - np.einsum("mcn,mc->mn", J, lam)
        assert np.array_equal(M.project_tangent_many(on, V), ref)
        # the Gauss-Newton projection with the stacked solve
        X = near.copy()
        rows = np.arange(len(X))
        for _ in range(20):
            F, J = M.constraint_values_and_jacobian_many(X[rows])
            left = ~(np.max(np.abs(F), axis=1) < 1e-12)
            if not left.any():
                break
            rows, F, J = rows[left], F[left], J[left]
            G = np.einsum("mcn,mdn->mcd", J, J)
            lam = np.linalg.solve(G, F[..., None])[..., 0]
            X[rows] -= np.einsum("mcn,mc->mn", J, lam)
        assert np.array_equal(M.project_points_many(near), X)


def test_projection_jacobian_is_the_jacobian_at_the_projected_points():
    # the Jacobian comes from the projection's last table evaluation of each
    # row; with iters=1 every moving row stops before it is evaluated
    # again, so it takes one more evaluation
    for M, on, near in _codim1_cases():
        for X0 in (on, near, np.concatenate([on[:5], 3.0 * near[:5]])):
            for iters in (1, 20):
                X, J = M.project_points_jacobian_many(X0, iters=iters)
                assert np.array_equal(X, M.project_points_many(X0, iters=iters))
                assert np.array_equal(J, M.jacobian_many(X))
    M = r2_manifold()
    X, J = M.project_points_jacobian_many(np.ones((3, 2)))
    assert np.array_equal(X, np.ones((3, 2))) and J.shape == (3, 0, 2)


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
    # a polynomial f on the sphere reads everything from the joint
    # first-order table [f, grad f, c, grad c] (8 columns; f's own table
    # and the sphere's have 4): K2, K3 and K4 call it once each, and the
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
        assert all(tr.steps == n and tr.halvings == 0 for tr in trajs)
        assert set(calls) == {8}
        assert inside["calls"] >= n
        assert len(calls) - inside["calls"] == 1 + 3 * n


def test_flow_composed_calls_per_iteration(monkeypatch):
    # a surgered function has no polynomial, so the flow on the circle
    # calls f and the constraint table in turn: f at K2-K4 and once at the
    # new points, the constraint table at K2-K4 and once per projection
    # step, and each once at the start points
    fx = MANIFOLD_FIXTURES["circle_c2_height"]()
    M = fx.manifold
    north = classify(fx.function, M, np.array([0.0, 1.0]))
    g = localize_surgery(fx.function, M, north, fx.surgery_radius,
                         build_cutoffs(0.05), chart=fx.charts["north"])
    assert getattr(g, "polynomial", None) is None
    f_calls = []
    value_grad = g.value_grad_many
    g.value_grad_many = lambda X: f_calls.append(len(X)) or value_grad(X)
    con_calls = []
    first = M._first
    M._first = lambda X: con_calls.append(len(X)) or first(X)
    inside = _count_projection_calls(M, con_calls)
    th = np.array([-2.0, 2.5])
    X0 = np.stack([np.cos(th), np.sin(th)], axis=1)
    for n in (3, 4):
        f_calls.clear()
        con_calls.clear()
        inside["calls"] = 0
        trajs = integrate_batch(g, M, X0, crits=[], max_steps=n)
        assert all(tr.steps == n and tr.halvings == 0 for tr in trajs)
        assert len(f_calls) == 1 + 4 * n
        assert inside["calls"] >= n
        assert len(con_calls) - inside["calls"] == 1 + 3 * n


def test_classify_table_calls(monkeypatch):
    # classify reads f and the constraints through one Evaluator: a
    # polynomial f on the sphere makes two table calls, the joint
    # first-order table [f, grad f, c, grad c] (8 columns) and the joint
    # Hessian table [hess f, hess c] (18)
    M = sphere_manifold()
    calls = _count_table_calls(monkeypatch)
    c = classify(height_z(), M, np.array([0.0, 0.0, 1.0]))
    assert c.index == 2 and c.stable
    assert calls == [8, 18]


def test_classify_matches_the_separate_tables():
    # the joint tables equal f's and the manifold's own bit for bit, so the
    # restricted Hessian and tangent frame do too
    fx = MANIFOLD_FIXTURES["torus_tilted"]()
    f, M = fx.function, fx.manifold
    for p in find_critical_points(f, M, fx.seeds):
        c = classify(f, M, p)
        x = p[None, :]
        lam, *_ = np.linalg.lstsq(M.jacobian_many(x)[0].T, f.grad_many(x)[0],
                                  rcond=None)
        Hf = f.hess_many(x)[0] - np.einsum("k,kij->ij", lam,
                                           M.constraint_hessians_many(x)[0])
        T = M.tangent_basis(p)
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
    assert tr.resolved and tr.limit.index == 0
    assert np.max(np.abs(tr.points[:, 0])) < 1e-6  # stays on the y-axis


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


# -- the batched critical-point search against the scalar one --------------


def _newton_kkt_reference(f, M, x0, max_iter=60, tol=1e-12, bound=1e6):
    """Newton on the Lagrange system from one seed, as the search ran before
    it was batched.  Returns the point or None."""
    N = M.ambient
    c = M.codim
    x = np.asarray(x0, dtype=float).copy()
    if c:
        J = row(M.jacobian_many, x)
        g = row(f.grad_many, x)
        lam, *_ = np.linalg.lstsq(J.T, g, rcond=None)
    else:
        lam = np.zeros(0)
    for _ in range(max_iter):
        g = row(f.grad_many, x)
        if c:
            J = row(M.jacobian_many, x)
            F = row(M.constraint_values_many, x)
            res = np.concatenate([g - J.T @ lam, F])
        else:
            res = g
        if np.linalg.norm(res) < tol:
            return x
        H = row(f.hess_many, x)
        if c:
            CH = row(M.constraint_hessians_many, x)
            Hl = H - np.einsum("k,kij->ij", lam, CH)
            top = np.concatenate([Hl, -J.T], axis=1)
            bot = np.concatenate([J, np.zeros((c, c))], axis=1)
            K = np.concatenate([top, bot], axis=0)
            try:
                step = np.linalg.solve(K, -res)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(K, -res, rcond=None)
            x = x + step[:N]
            lam = lam + step[N:]
        else:
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(H, -g, rcond=None)
            x = x + step
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > bound:
            return None
    return None


def _reference_search(f, M, seeds, tol_crit=1e-9, dedup_tol=1e-6):
    """Scalar Newton from each seed in turn, then each found point's group
    translates refined one at a time: the unbatched find_critical_points."""
    found = []

    def critical(x):
        T = M.tangent_basis(x)
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
    M = r2_manifold(LinearAction.rotation_cn(3))
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
                 "figure2_plane": {1}, "figure2_plane-surgered": {3},
                 "sphere_height": {2}, "torus_tilted": {4},
                 "circle_c2_height": {2}, "circle_c2_height-surgered": {4},
                 "wells_c2": {3}, "sphere_antipodal": {6}}


def _fixture_cases():
    cut = build_cutoffs(0.05)
    surgery = {"figure1_plane": ((0.0, 0.0), "origin"),
               "figure2_plane": ((0.0, 0.0), "origin"),
               "circle_c2_height": ((0.0, 1.0), "north")}
    for name, build in MANIFOLD_FIXTURES.items():
        fx = build()
        yield pytest.param(fx, fx.function, SEARCH_COUNTS[name], id=name)
        if name in surgery:
            center, chart = surgery[name]
            p = classify(fx.function, fx.manifold, np.array(center))
            g = localize_surgery(fx.function, fx.manifold, p, fx.surgery_radius,
                                 cut, chart=fx.charts[chart], h=fx.sphere_fn)
            yield pytest.param(fx, g, SEARCH_COUNTS[name + "-surgered"],
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
    fx = MANIFOLD_FIXTURES["figure1_plane"]()
    M = fx.manifold
    p = classify(fx.function, M, np.zeros(2))
    g = localize_surgery(fx.function, M, p, fx.surgery_radius,
                         build_cutoffs(0.05), chart=fx.charts["origin"],
                         h=fx.sphere_fn)
    calls = []
    real = g.grad_many
    g.grad_many = lambda X: calls.append(len(X)) or real(X)
    assert len(find_critical_points(g, M, fx.seeds)) == 7
    assert 0 < len(calls) < 100
