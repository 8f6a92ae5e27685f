"""The construction model, the figure scenarios, and chart surgery."""

from fractions import Fraction

import numpy as np
import pytest

from equimorse.fixtures import MANIFOLD_FIXTURES, ManifoldFixture
from equimorse.groups import FiniteGroup
from equimorse.polynomials import LinearAction, Polynomial
from equimorse.morse import (
    AngleChart,
    ChartMissing,
    EqFunction,
    HNotEquivariant,
    ImplicitGManifold,
    LinearChart,
    OrthogonalAction,
    PerturbedModel,
    SphereFunction,
    build_cutoffs,
    classify,
    find_critical_points,
    localize_surgery,
    run_morse,
    seed_grid,
)
from equimorse.morse.manifolds import PolyJet, PolyTable
from equimorse.morse import run as morse_run
from equimorse.morse.critical import _newton_kkt
from equimorse.morse.cutoffs import _INTEGRAL, _bump, _bump_jet
from equimorse.morse.perturb import (
    SurgeredFunction,
    _chart_action,
    _sphere_samples,
    model_error,
)
from model_points import model_critical_points, unpredicted


def row(fn, x):
    """fn at the single point x, as a batch of one."""
    return fn(np.asarray(x, dtype=float)[None, :])[0]


def hess(f):
    """f's Hessians at the rows of X, from its order-2 jet."""
    return lambda X: f.jet_many(X, 2)[2]


@pytest.fixture(scope="module")
def cut():
    return build_cutoffs(0.05)


# C2 negating the second coordinate: on (v, u) it fixes V = R and acts on
# U = R^- by the sign, and on (v, w) it does the same to W
C2_FLIP = LinearAction.reflection_c2(2, axis=1)


def c3_rotation_model(cut):
    """V = W = 0, U = R^2 with the C3 rotation, h = cos(3 theta): the model
    with its action on the model space."""
    act = OrthogonalAction.rotation(3)
    return PerturbedModel(0, 0, act, SphereFunction.cos_multiple_angle(3),
                          cut), act


def c2_sign_model(cut):
    """V = R trivial, W = 0, U = R^- of C2, the default h: the model with its
    action on the model space."""
    return PerturbedModel(1, 0, LinearAction.sign_c2(1), None, cut), C2_FLIP


def test_sphere_function_cos3():
    h = SphereFunction.cos_multiple_angle(3)
    for th in (0.0, 0.4, 2.0):
        u = np.array([np.cos(th), np.sin(th)])
        assert row(h.value_many, u) == pytest.approx(np.cos(3 * th), abs=1e-12)
    # equivariant under C3 rotation, not under C4
    samples = _sphere_samples(7, 64, 2)
    assert h.invariance_error(OrthogonalAction.rotation(3), samples) < 1e-12
    assert h.invariance_error(OrthogonalAction.rotation(4), samples) > 0.1


def test_sphere_function_gradients_fd():
    h = SphereFunction.cos_multiple_angle(3)
    u = np.array([0.8, -0.6])
    eps = 1e-6
    g = row(h.grad_many, u)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (row(h.value_many, u + e) - row(h.value_many, u - e)) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    H = row(hess(h), u)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (row(h.grad_many, u + e) - row(h.grad_many, u - e)) / (2 * eps)
        assert np.allclose(H[:, i], fd, rtol=1e-5, atol=1e-6)
    # degree-zero homogeneity: gradient orthogonal to u
    assert abs(g @ u) < 1e-12


def test_sphere_critical_points_cos3():
    # h = cos(3 theta) is critical on the circle at the six angles j pi / 3
    # (the directions model_points predicts): three nondegenerate maxima and
    # three nondegenerate minima
    h = SphereFunction.cos_multiple_angle(3)
    a = np.pi * np.arange(6) / 3
    u = np.stack([np.cos(a), np.sin(a)], axis=1)
    tv = np.stack([-np.sin(a), np.cos(a)], axis=1)
    _, g, H = h.jet_many(u, 2)
    assert np.max(np.abs(g)) < 1e-12
    # on the unit circle q''(theta) = t^T H t - u . grad, here -9 cos(3 theta)
    q2 = (np.einsum("mi,mij,mj->m", tv, H, tv)
          - np.einsum("mi,mi->m", g, u))
    assert np.allclose(q2, -9.0 * np.cos(3 * a), rtol=0, atol=1e-9)
    assert np.sum(q2 < -1e-8) == 3 and np.sum(q2 > 1e-8) == 3


def test_model_figure1(cut):
    # V = W = 0, U = R^2 with the C3 rotation, h = cos(3 theta):
    # origin becomes index 0 and six new critical points appear
    model, act = c3_rotation_model(cut)
    predicted, crits = model_critical_points(model, act)
    assert unpredicted(predicted, crits) == []
    assert len(crits) == 7
    origin = min(crits, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0
    assert origin.stabilizer.order == 3
    assert origin.stable
    others = [c for c in crits if c is not origin]
    for c in others:
        assert np.linalg.norm(c.coords) == pytest.approx(cut.t0, abs=1e-9)
        assert c.stabilizer.order == 1
        assert c.stable
        # gradient tolerance at each verified point
        assert np.linalg.norm(row(model.grad_many, c.coords)) < 1e-9
    indices = sorted(c.index for c in others)
    assert indices == [1, 1, 1, 2, 2, 2]


def test_model_figure2(cut):
    # V = R trivial, W = 0, U = R^- of C2: two new index-1 points
    predicted, crits = model_critical_points(*c2_sign_model(cut))
    assert unpredicted(predicted, crits) == []
    assert len(crits) == 3
    origin = min(crits, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0 and origin.stable
    new = [c for c in crits if c is not origin]
    assert all(c.index == 1 for c in new)
    assert all(c.stabilizer.order == 1 for c in new)
    assert all(c.stable for c in new)
    us = sorted(float(c.coords[1]) for c in new)
    assert us[0] == pytest.approx(-cut.t0, abs=1e-9)
    assert us[1] == pytest.approx(cut.t0, abs=1e-9)


def test_model_ranges_and_hessian_blocks(cut):
    # construction properties: exact agreement with |v|^2 - |w|^2 +- |u|^2
    # in the inner/outer ranges, and negative eigenspace inside W + U
    model, act = c2_sign_model(cut)
    predicted, crits = model_critical_points(model, act)
    assert unpredicted(predicted, crits) == []
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.uniform(-1, 1)
        u = rng.uniform(-0.999, 0.999)
        got = row(model.value_many, np.array([v, u]))
        assert abs(got - (v * v + u * u)) < 1e-12
        u = rng.uniform(3.001, 5.0) * rng.choice([-1, 1])
        got = row(model.value_many, np.array([v, u]))
        assert abs(got - (v * v - u * u)) < 1e-12
    for c in crits:
        if np.linalg.norm(c.coords) < 1e-9:
            continue
        w, Vec = np.linalg.eigh(row(hess(model), c.coords))
        for wi, vec in zip(w, Vec.T):
            if wi < 0:
                # V coordinates of negative directions vanish (V is axis 0)
                assert abs(vec[0]) < 1e-9


def test_model_gradient_hessian_fd(cut):
    model, _ = c3_rotation_model(cut)
    rng = np.random.default_rng(1)
    eps = 1e-6
    for _ in range(12):
        x = rng.uniform(-3.3, 3.3, size=2)
        g = row(model.grad_many, x)
        H = row(hess(model), x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (row(model.value_many, x + e)
                  - row(model.value_many, x - e)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=2e-5, abs=1e-7)
            fdH = (row(model.grad_many, x + e)
                   - row(model.grad_many, x - e)) / (2 * eps)
            assert np.allclose(H[:, i], fdH, rtol=2e-4, atol=2e-5)


def test_model_equivariance(cut):
    model, act = c3_rotation_model(cut)
    rng = np.random.default_rng(2)
    samples = rng.uniform(-3, 3, size=(32, 2))
    assert model.invariance_error(act, samples) < 1e-9


def test_h_not_equivariant_rejected(cut):
    h = SphereFunction.cos_multiple_angle(4)  # C4-symmetric, not C3
    with pytest.raises(HNotEquivariant):
        PerturbedModel(0, 0, OrthogonalAction.rotation(3), h, cut)


def test_oversized_epsilon_detected():
    # force an amplitude far past the margin bound: the angular term then
    # cancels the radial slope inside a transition annulus, and the search
    # finds the spurious critical points there
    bad = build_cutoffs(0.05)
    bad.epsilon *= 2000.0
    model = PerturbedModel(1, 0, LinearAction.sign_c2(1),
                           SphereFunction.constant(1, -1.0), bad)
    predicted, crits = model_critical_points(model, C2_FLIP)
    t0, d = bad.t0, bad.delta
    radii = [abs(c.coords[1]) for c in unpredicted(predicted, crits)]
    assert any(1.0 < t < t0 - d or t0 + d < t for t in radii)


def test_u_zero_reduces_to_quadratic(cut):
    U = LinearAction.trivial(FiniteGroup.cyclic(2), 0)
    model = PerturbedModel(1, 1, U, None, cut)
    predicted, crits = model_critical_points(model, C2_FLIP)
    assert unpredicted(predicted, crits) == []
    assert len(crits) == 1
    # the origin keeps index dim(W): positive definite on V, negative on W
    assert crits[0].index == 1
    x = np.array([0.3, -0.7])
    assert row(model.value_many, x) == pytest.approx(0.3**2 - 0.7**2)


def test_default_sphere_function_needs_dim_u_one(cut):
    # the constant default h has a whole circle of critical points on a
    # plane U, so the model refuses it there, for the model alone as for
    # surgery
    with pytest.raises(ChartMissing):
        PerturbedModel(0, 0, OrthogonalAction.rotation(3), None, cut)


# -- surgery -------------------------------------------------------------


def figure1_fixture():
    act = OrthogonalAction.rotation(3)
    M = ImplicitGManifold(ambient=2, constraints=(), action=act)
    f = EqFunction.from_polynomial(Polynomial(2, {(2, 0): -1, (0, 2): -1}))
    chart = LinearChart(np.zeros(2), np.eye(2), dv=0, dw=2)
    return M, f, chart


def figure2_fixture():
    act = LinearAction.reflection_c2(2, axis=0)
    M = ImplicitGManifold(ambient=2, constraints=(), action=act)
    f = EqFunction.from_polynomial(Polynomial(2, {(0, 2): 1, (2, 0): -1}))
    # v along y (positive direction), w along x (negative direction)
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])
    chart = LinearChart(np.zeros(2), frame, dv=1, dw=1)
    return M, f, chart


def test_surgery_figure1(cut):
    M, f, chart = figure1_fixture()
    before = classify(f, M, np.zeros(2))
    assert before.index == 2 and not before.stable
    h = SphereFunction.cos_multiple_angle(3)
    newf = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart, h=h)
    s = 1.0 / 3.5
    seeds = seed_grid([(-1.1, 1.1)] * 2, 13)
    crits = find_critical_points(newf, M, seeds)
    crits = [c for c in crits if np.linalg.norm(c) < 1.05]
    assert len(crits) == 7
    classified = [classify(newf, M, p) for p in crits]
    origin = min(classified, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0 and origin.stabilizer.order == 3
    off = [c for c in classified if c is not origin]
    assert all(np.linalg.norm(c.coords) == pytest.approx(cut.t0 * s, abs=1e-9)
               for c in off)
    assert sorted(c.index for c in off) == [1, 1, 1, 2, 2, 2]
    assert all(c.stable for c in classified)
    # two C3-orbits of size 3
    ones = [c for c in off if c.index == 1]
    A = np.array(M.action.matrices[1])
    img = A @ ones[0].coords
    assert any(np.linalg.norm(img - c.coords) < 1e-8 for c in ones)
    # function untouched outside the ball
    X = np.array([[1.5, 0.2], [-2.0, 1.0]])
    assert np.allclose(newf.value_many(X), f.value_many(X), rtol=0, atol=1e-12)


def test_surgery_figure2(cut):
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    assert before.index == 1 and not before.stable
    newf = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart)
    seeds = seed_grid([(-1.2, 1.2)] * 2, 11)
    crits = find_critical_points(newf, M, seeds)
    crits = [c for c in crits if np.linalg.norm(c) < 1.05]
    classified = [classify(newf, M, p) for p in crits]
    assert len(classified) == 3
    origin = min(classified, key=lambda c: np.linalg.norm(c.coords))
    assert origin.index == 0
    new = [c for c in classified if c is not origin]
    assert all(c.index == 1 and c.stabilizer.order == 1 for c in new)
    assert all(c.stable for c in classified)
    # new points sit off the fixed locus (the y-axis), mirrored in x
    assert all(abs(c.coords[0]) > 0.1 for c in new)


def test_surgery_c0_distance_scales(cut):
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    f1 = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart)
    f2 = localize_surgery(f, M, before, radius=0.5, cut=cut, chart=chart)
    # sup-difference on a grid shrinks by the area factor (radius/2 -> 1/4)
    pts = seed_grid([(-1.0, 1.0)] * 2, 41)
    d1 = np.max(np.abs(f1.value_many(pts) - f.value_many(pts)))
    d2 = np.max(np.abs(f2.value_many(pts) - f.value_many(pts)))
    assert d2 == pytest.approx(d1 / 4.0, rel=1e-6)
    assert d1 <= f1.c0_distance + 1e-12
    assert f2.c0_distance == pytest.approx(f1.c0_distance / 4.0, rel=1e-9)


def test_surgery_smoothness_across_seam(cut):
    # analytic gradient/Hessian of the surgered function match finite
    # differences, including across the dispatch boundary
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    newf = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart)
    rng = np.random.default_rng(4)
    eps = 1e-6
    s = 1.0 / 3.5
    for x in list(rng.uniform(-1.1, 1.1, size=(10, 2))) + [
        np.array([3.0 * s + 1e-8, 0.1]), np.array([3.0 * s - 1e-8, -0.2])
    ]:
        g = row(newf.grad_many, x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (row(newf.value_many, x + e)
                  - row(newf.value_many, x - e)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=3e-5, abs=1e-7)


# model radii in units of the scale: inside, across (the difference stencil
# straddles the cylinder boundary at 3) and outside the modified cylinder
SURGERY_RADII = (0.5, 1.2, 2.0, 2.6, 2.95, 3.0 - 1e-7, 3.0 + 1e-7, 3.05, 3.6, 4.1)


def surgered_fixture(name, cut):
    fx = MANIFOLD_FIXTURES[name]()
    (chart,) = fx.charts.values()
    before = classify(fx.function, fx.manifold, chart.center)
    f = localize_surgery(fx.function, fx.manifold, before, fx.surgery_radius,
                         cut, chart=chart, h=fx.sphere_fn)
    return fx, f


def kernel_knots(cut):
    """The model radii where a piece of the radial kernel begins or ends:
    the center, the ends 1 and 3 of phi's middle piece, and psi's plateau
    edges 1 + delta, t0 - delta, t0 + delta and 3 - delta."""
    d = cut.delta
    return (0.0, 1.0, 1.0 + d, cut.t0 - d, cut.t0 + d, 3.0 - d, 3.0)


def surgery_rows(name, s, radii=SURGERY_RADII):
    """Points of the fixture whose model |u| is each of radii * s."""
    r = np.array(radii) * s
    a = 0.3 + 2.4 * np.arange(len(r))
    if name == "figure1_plane":       # u is the whole plane
        return r[:, None] * np.stack([np.cos(a), np.sin(a)], axis=1)
    if name == "figure2_plane":       # u is the x coordinate
        return np.stack([r * np.sign(np.cos(a)), np.sin(a)], axis=1)
    # the circle: u = sqrt(2) sin(angle / 2), the angle taken from the pole
    th = np.pi / 2 + 2 * np.arcsin(r / np.sqrt(2)) * np.sign(np.cos(a))
    return np.stack([np.cos(th), np.sin(th)], axis=1)


@pytest.mark.parametrize("name", ["figure1_plane", "figure2_plane",
                                  "circle_c2_height"])
def test_surgered_gradient_matches_value_differences(cut, name):
    fx, f = surgered_fixture(name, cut)
    X = surgery_rows(name, f.scale)
    # the rows well inside the cylinder see the model, those outside see f
    radii = np.array(SURGERY_RADII)
    moved = f.value_many(X) != fx.function.value_many(X)
    assert moved[radii < 2.99].all() and not moved[radii > 3.0].any()
    G = f.grad_many(X)
    H = hess(f)(X)
    eps = 1e-6
    if fx.manifold.codim:
        # on the circle: the derivative along the rotation, which keeps the
        # stencil on the manifold
        c, sn = np.cos(eps), np.sin(eps)
        R = np.array([[c, -sn], [sn, c]])
        fd = (f.value_many(X @ R.T) - f.value_many(X @ R)) / (2 * eps)
        tangent = np.stack([-X[:, 1], X[:, 0]], axis=1)
        assert np.allclose(np.einsum("mi,mi->m", G, tangent), fd,
                           rtol=3e-5, atol=1e-7)
    else:
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (f.value_many(X + e) - f.value_many(X - e)) / (2 * eps)
            assert np.allclose(G[:, i], fd, rtol=3e-5, atol=1e-7)
            fdH = (f.grad_many(X + e) - f.grad_many(X - e)) / (2 * eps)
            assert np.allclose(H[:, :, i], fdH, rtol=2e-4, atol=2e-5)


def test_dihedral_figure1_gets_figure1s_surgery():
    # figure 1 with D3 in place of C3 has the same f, chart and h, which
    # Re z^3 keeps invariant under D3's reflections too: the group enters
    # only the checks, so the surgered jets are figure 1's byte for byte on
    # a grid that crosses the cylinder edge |u| = 3s
    c3, d3 = (run_morse(MANIFOLD_FIXTURES[name](), stabilize=True)
              for name in ("figure1_plane", "figure1_dihedral"))
    axis = np.linspace(-1.2, 1.2, 29)
    X = np.vstack([np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2),
                   surgery_rows("figure1_plane", c3.function.scale)])
    for order in range(3):
        for a, b in zip(c3.function.jet_many(X, order),
                        d3.function.jet_many(X, order)):
            assert a.tobytes() == b.tobytes()
    ((p, _),) = d3.surgeries
    assert (p.index, p.stabilizer.order) == (2, 6)
    # after the surgery the origin is a stable minimum; the three saddles
    # and the three maxima lie on the reflection axes, and each maximum's
    # reflection flips its tangent descending direction, so the maxima
    # stay unstable: an invariant h has its maximum on a reflection axis
    assert sorted((c.index, c.stabilizer.order, c.stable)
                  for c in d3.critical) == (
        [(0, 6, True)] + [(1, 2, True)] * 3 + [(2, 2, False)] * 3)


def _angle_jac_reference(chart, x):
    """AngleChart's per-point Jacobian formula, kept as the reference."""
    r2 = float(x @ x)
    u = (np.arctan2(x[1], x[0]) - chart.pole_angle + np.pi) % (2 * np.pi) - np.pi
    grad_u = np.array([-x[1], x[0]]) / r2
    return (np.sqrt(2.0) * 0.5 * np.cos(u / 2.0) * grad_u)[None, :]


def test_chart_jacobians_batched():
    rng = np.random.default_rng(8)
    # polar samples that keep clear of the origin and of the angle chart's
    # cut opposite its pole
    rad = rng.uniform(0.5, 1.5, size=24)
    ang = np.pi / 2 + rng.uniform(-2.5, 2.5, size=24)
    X = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    charts = [
        LinearChart(np.array([0.3, -0.2]), turn, dv=1, dw=1),
        LinearChart(np.zeros(2), np.eye(2)[:, :1], dv=0, dw=1),
        AngleChart(np.pi / 2),
    ]
    eps = 1e-6
    for chart in charts:
        _, J, Hc = chart.jet_many(X, 2)
        assert J.shape == (len(X), chart.dim, 2)
        assert Hc.shape == (len(X), chart.dim, 2, 2)
        for x, j in zip(X, J):
            if isinstance(chart, AngleChart):
                assert np.allclose(_angle_jac_reference(chart, x), j,
                                   rtol=1e-14, atol=1e-15)
            else:
                assert np.array_equal(j, chart.frame.T)
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            (y1, J1), (y0, J0) = chart.jet_many(X + e, 1), chart.jet_many(X - e, 1)
            fd = (y1 - y0) / (2 * eps)
            assert np.allclose(J[:, :, i], fd, rtol=1e-6, atol=1e-8)
            fdJ = (J1 - J0) / (2 * eps)
            assert np.allclose(Hc[:, :, :, i], fdJ, rtol=1e-5, atol=1e-7)


def test_two_chart_surgery_first_chart_wins(cut):
    # figure 2's modified cylinder is the strip |x| < 3s; a second chart
    # shifted along v covers the same strip with different model coordinates,
    # so every strip point has two charts and must take the first
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    one = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart)
    shifted = LinearChart(chart.center + 0.2 * chart.frame[:, 0], chart.frame,
                          dv=1, dw=1)

    def spliced(charts):
        return SurgeredFunction(f, charts, one.model, one.scale, one.fp)

    two = spliced([chart, shifted])
    X = np.array([[0.1, 0.3], [0.5, -0.4], [-0.7, 1.1], [1.5, 0.2]])
    strip = np.abs(X[:, 0]) < 3.0 * one.scale
    assert strip[:3].all() and not strip[3]
    # the second chart alone gives other values on the strip
    assert np.all(spliced([shifted]).value_many(X)[strip] != one.value_many(X)[strip])
    assert np.allclose(two.value_many(X), one.value_many(X), rtol=0, atol=1e-15)
    assert np.allclose(two.grad_many(X), one.grad_many(X), rtol=0, atol=1e-14)
    assert np.allclose(hess(two)(X), hess(one)(X), rtol=0, atol=1e-13)


def test_surgery_requires_chart_and_instability(cut):
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    with pytest.raises(ChartMissing):
        localize_surgery(f, M, before, radius=1.0, cut=cut, chart=None)
    # a stable point is a no-op with a warning
    g = EqFunction.from_polynomial(Polynomial(2, {(2, 0): 1, (0, 2): 1}))
    stable_pt = classify(g, M, np.zeros(2))
    with pytest.warns(UserWarning):
        out = localize_surgery(g, M, stable_pt, radius=1.0, cut=cut, chart=chart)
    assert out is g


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf")])
def test_surgery_refuses_a_radius_that_is_not_finite_and_positive(cut, radius):
    # radius 0 was a surgery that changed nothing, and the others ended in
    # numpy's errors from the chart check
    M, f, chart = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    with pytest.raises(ValueError, match=f"surgery radius .* not {radius!r}"):
        localize_surgery(f, M, before, radius=radius, cut=cut, chart=chart)


def test_bad_chart_rejected(cut):
    M, f, _ = figure2_fixture()
    before = classify(f, M, np.zeros(2))
    bad = LinearChart(np.zeros(2), np.eye(2), dv=1, dw=1)  # v/w swapped
    with pytest.raises(ChartMissing):
        localize_surgery(f, M, before, radius=1.0, cut=cut, chart=bad)


def test_surgery_reads_u_after_the_fixed_w_directions(cut):
    # R^3 with C2 flipping y and f = x^2 - y^2 - z^2: the origin has index
    # 2 and is unstable, with z fixed and y flipped.  The chart (x | z, y)
    # lists W's fixed direction first, so U is y: the origin becomes index
    # 1 and two index-2 points appear at y = +-t0 s, all stable.  The chart
    # (x | y, z) lists the flipped direction first and is refused
    M = ImplicitGManifold(ambient=3, constraints=(),
                          action=LinearAction.reflection_c2(3, axis=1))
    f = EqFunction.from_polynomial(
        Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1}))
    before = classify(f, M, np.zeros(3))
    assert (before.index, before.stabilizer.order, before.stable) == (2, 2, False)
    e = np.eye(3)
    chart = LinearChart(np.zeros(3), e[:, [0, 2, 1]], dv=1, dw=2)
    newf = localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart)
    assert (newf.model.dv, newf.model.dw, newf.model.du) == (1, 1, 1)
    crits = [classify(newf, M, x) for x in
             find_critical_points(newf, M, seed_grid([(-1.2, 1.2)] * 3, 5))]
    assert sorted((c.index, c.stabilizer.order, c.stable) for c in crits) == [
        (1, 2, True), (2, 1, True), (2, 1, True)]
    off = [c.coords for c in crits if c.index == 2]
    assert all(abs(x[1]) == pytest.approx(cut.t0 / 3.5, abs=1e-9)
               and abs(x[0]) + abs(x[2]) < 1e-9 for x in off)
    with pytest.raises(ChartMissing, match="fixed directions first"):
        localize_surgery(f, M, before, radius=1.0, cut=cut,
                         chart=LinearChart(np.zeros(3), e, dv=1, dw=2))


def _sign_changes():
    """C2 x C2 acting on R^2 by sign changes, and f = (|x| - 1)^2 - y^2: two
    unstable saddles (1, 0) and (-1, 0), one orbit, each with stabilizer
    {1, y -> -y}, and a kink along x = 0 away from them."""
    G = FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    M = ImplicitGManifold(ambient=2, constraints=(), action=OrthogonalAction(
        G, [np.diag([(-1.0) ** a, (-1.0) ** b]) for a in (0, 1)
            for b in (0, 1)]))

    def jet_many(X, order):
        x, y = X[:, 0], X[:, 1]
        a = np.abs(x) - 1
        jet = [a * a - y * y]
        if order >= 1:
            jet.append(np.stack([2 * a * np.sign(x), -2 * y], axis=1))
        if order == 2:
            jet.append(np.broadcast_to(np.diag([2.0, -2.0]),
                                       (len(X), 2, 2)).copy())
        return jet

    return M, EqFunction(jet_many, nvars=2)


def test_chart_cylinder_holding_another_orbit_point_is_refused(cut):
    # the saddle (1, 0)'s stabilizer {1, y -> -y} is normal, so it fixes
    # the displacement to the other orbit point (-1, 0), whose u = y is 0.
    # That point lies in the cylinder |u| < 3s, unbounded in v = x, where
    # the first chart's model would overwrite f: the splice broke the
    # invariance by 5.78 and left 3 critical points where two stabilized
    # saddles give 6
    M, f = _sign_changes()
    saddle = classify(f, M, np.array([1.0, 0.0]))
    assert (saddle.index, saddle.stabilizer.order, saddle.stable) == (
        1, 2, False)
    chart = LinearChart(np.array([1.0, 0.0]), np.eye(2), dv=1, dw=1)
    with pytest.raises(ChartMissing, match=r"orbit point \[-1\.0, 0\.0\]"):
        localize_surgery(f, M, saddle, 0.35, cut, chart=chart)


def test_run_morse_makes_one_surgery_per_unstable_orbit(monkeypatch):
    # the same orbit of two saddles, as a fixture with one chart at (1, 0)
    # and seeds with x in [0.5, 1.5], so that the kink at the origin is not
    # found.  The surgery goes at the first point of the orbit that has a
    # chart, (1, 0), though (-1, 0) sorts first, so the run reaches the
    # orbit check and raises its ChartMissing; one point per orbit is one
    # localize_surgery call
    M, f = _sign_changes()
    chart = LinearChart(np.array([1.0, 0.0]), np.eye(2), dv=1, dw=1)
    fx = ManifoldFixture("sign_changes", M, f,
                         seed_grid([(0.5, 1.5), (-0.5, 0.5)], 5),
                         charts={"saddle": chart}, surgery_radius=0.35)
    before = run_morse(fx).before
    assert [(c.coords.tolist(), c.stable) for c in before] == [
        ([-1.0, 0.0], False), ([1.0, 0.0], False)]
    calls = []
    real = morse_run.localize_surgery

    def recorder(f, M, p, radius, cut, chart=None, h=None):
        calls.append((p.coords.tolist(), chart))
        return real(f, M, p, radius, cut, chart=chart, h=h)

    monkeypatch.setattr(morse_run, "localize_surgery", recorder)
    with pytest.raises(ChartMissing, match=r"orbit point \[-1\.0, 0\.0\]"):
        run_morse(fx, stabilize=True)
    assert calls == [([1.0, 0.0], chart)]


def test_angle_chart_must_be_exact(cut):
    # the circle's chart at the north pole presents the height y as
    # f(p) - y^2; the chart at the south pole and the chart for 2y do not,
    # and surgery through either must refuse to splice
    fx = MANIFOLD_FIXTURES["circle_c2_height"]()
    M, f = fx.manifold, fx.function
    (north,) = fx.charts.values()
    top = classify(f, M, north.center)
    assert model_error(north, f, top.value,
                       3.0 * fx.surgery_radius / 3.5) < 1e-12
    south = AngleChart(north.pole_angle + np.pi)
    with pytest.raises(ChartMissing):
        localize_surgery(f, M, top, fx.surgery_radius, cut, chart=south)
    doubled = EqFunction.from_polynomial(2 * f.polynomial)
    top2 = classify(doubled, M, north.center)
    assert top2.index == 1 and not top2.stable
    with pytest.raises(ChartMissing):
        localize_surgery(doubled, M, top2, fx.surgery_radius, cut, chart=north)


@pytest.mark.parametrize("name", ["figure1_plane", "figure2_plane",
                                  "circle_c2_height"])
def test_chart_inverse_and_model_error(name):
    # points_many inverts the chart's coordinates, and the fixture's own
    # chart presents its function exactly, on the box of half-width 3s
    # that model_error samples
    fx = MANIFOLD_FIXTURES[name]()
    (chart,) = fx.charts.values()
    half = 3.0 * fx.surgery_radius / 3.5
    Y = np.random.default_rng(12).uniform(-half, half, size=(64, chart.dim))
    back = chart.jet_many(chart.points_many(Y), 0)[0]
    assert np.allclose(back, Y, rtol=0, atol=1e-12)
    fp = classify(fx.function, fx.manifold, chart.center).value
    assert model_error(chart, fx.function, fp, half) < 1e-12


def test_chart_must_be_exact_on_the_modified_cylinder(cut):
    # figure 1's chart presents -(x^2 + y^2) + 1e-3 (x^2 + y^2)^20 as its
    # quadratic part to 2e-11 on the box of half-width 1/2, but the splice
    # changes f out to |u| = 3s = 6/7, where the degree-40 term is 2e-6:
    # the surgered function would jump there, so surgery refuses
    M, _, chart = figure1_fixture()
    r2 = Polynomial(2, {(2, 0): 1, (0, 2): 1})
    f = EqFunction.from_polynomial(-r2 + Fraction(1, 1000) * r2**20)
    before = classify(f, M, np.zeros(2))
    assert before.index == 2 and not before.stable
    with pytest.raises(ChartMissing):
        localize_surgery(f, M, before, radius=1.0, cut=cut, chart=chart,
                         h=SphereFunction.cos_multiple_angle(3))


@pytest.mark.parametrize("name", ["figure1_plane", "figure2_plane",
                                  "circle_c2_height"])
def test_chart_action_matches_per_chart_formulas(name):
    # J A J^+ at the chart's center against the per-type formulas it
    # replaces: frame^T A frame on a linear chart, and +1 for the identity
    # and -1 for the reflection on the circle's angle chart
    fx = MANIFOLD_FIXTURES[name]()
    M = fx.manifold
    (chart,) = fx.charts.values()
    H = classify(fx.function, M, chart.center).stabilizer
    got = _chart_action(chart, M, H.elements)
    for s, B in zip(H.elements, got):
        A = np.array([[float(v) for v in r] for r in M.action.matrices[s]])
        if isinstance(chart, LinearChart):
            want = chart.frame.T @ A @ chart.frame
        else:
            want = np.array([[1.0 if s == M.action.group.identity else -1.0]])
        assert B.tobytes() == want.tobytes()


def _profile_reference(t):
    """R, R' and R'' as three separate piecewise formulas, each evaluating
    phi(t - 2) = -1 + 2 I(t - 2) / total and its derivatives on its own."""
    total = _INTEGRAL.total

    def phi(s):
        return -1.0 + 2.0 * _INTEGRAL(s) / total

    mid = (t > 1.0) & (t < 3.0)
    tm = t[mid]
    d1 = 2.0 * _bump(tm - 2) / total
    d2 = 2.0 * _bump_jet(tm - 2, 1)[1] / total
    R = np.where(t <= 1.0, t * t, 0.0)
    R = np.where(t >= 3.0, -t * t, R)
    R[mid] = -tm * tm * phi(tm - 2.0)
    R1 = np.where(t <= 1.0, 2.0 * t, 0.0)
    R1 = np.where(t >= 3.0, -2.0 * t, R1)
    R1[mid] = -2 * tm * phi(tm - 2) - tm * tm * d1
    R2 = np.where(t <= 1.0, 2.0, 0.0)
    R2 = np.where(t >= 3.0, -2.0, R2)
    R2[mid] = -2 * phi(tm - 2) - 4 * tm * d1 - tm * tm * d2
    return [R, R1, R2]


def test_profile_matches_three_formulas(cut):
    # the grid crosses every piece of R and of psi; a lower order is the
    # leading entries of order 2 bit for bit (test_cutoffs pins psi against
    # its own two-piece formula)
    t = np.linspace(0.0, 4.0, 200_001)
    want = _profile_reference(t)
    want_psi = cut.profile(t, 2)[1]
    for order in (0, 1, 2):
        R, psi = cut.profile(t, order)
        assert len(R) == len(psi) == order + 1
        for k in range(order + 1):
            assert np.array_equal(R[k], want[k])
            assert np.array_equal(psi[k], want_psi[k])


def _sphere_jet_reference(h, U, order):
    """SphereFunction.jet_many's earlier body, kept as the reference."""
    U = np.asarray(U, dtype=float)
    t = np.sqrt(np.add.reduce(U * U, axis=1))
    m = h.deg
    P = h.P.jet_many(U, order)
    tm = t**m
    jet = [P[0] / tm]
    if order >= 1:
        tm2 = t ** (m + 2)
        jet.append(P[1] / tm[:, None] - m * (P[0] / tm2)[:, None] * U)
    if order == 2:
        p = P[0][:, None, None]
        gu = P[1][:, :, None] * U[:, None, :]
        uu = U[:, :, None] * U[:, None, :]
        jet.append(
            P[2] / tm[:, None, None]
            - m / tm2[:, None, None] * (gu + gu.transpose(0, 2, 1)
                                        + p * np.eye(h.dim))
            + m * (m + 2) * p / (t ** (m + 4))[:, None, None] * uu
        )
    return jet


def _model_jet_reference(model, X, order):
    """PerturbedModel.jet_many's earlier body, kept as the reference: every
    block scattered into full-batch arrays, with h's jet gathered onto
    psi's support."""
    def squares(A):
        return np.add.reduce(A * A, axis=1)

    X = np.asarray(X, dtype=float)
    dv, k = model.dv, model.dv + model.dw
    v, w, u = X[:, :dv], X[:, dv:k], X[:, k:]
    t = np.sqrt(squares(u))
    R, psi = model.cut.profile(t, order)
    h = [np.zeros((len(X),) + (model.du,) * j) for j in range(order + 1)]
    on = np.logical_or.reduce(psi).nonzero()[0]
    if len(on):
        for a, b in zip(h, _sphere_jet_reference(model.h, u[on], order)):
            a[on] = b
    eps = model.eps
    jet = [squares(v) - squares(w) + R[0] + eps * psi[0] * h[0]]
    if order >= 1:
        ts = np.where(t > 0.0, t, 1.0)
        uhat = u / ts[:, None]
        gu = R[1][:, None] * uhat + eps * (
            (psi[1] * h[0])[:, None] * uhat + psi[0][:, None] * h[1])
        jet.append(np.concatenate([2.0 * v, -2.0 * w, gu], axis=1))
    if order == 2:
        Pu = uhat[:, :, None] * uhat[:, None, :]
        Pt = np.eye(model.du) - Pu
        q = np.where(t > 0.0, R[1] / ts, 2.0)[:, None, None]
        p0, p1, p2 = (a[:, None, None] for a in psi)
        hv = h[0][:, None, None]
        cross = uhat[:, :, None] * h[1][:, None, :]
        Hu = R[2][:, None, None] * Pu + q * Pt + eps * (
            p2 * hv * Pu
            + p1 * (cross + cross.transpose(0, 2, 1))
            + p1 * hv * Pt / ts[:, None, None]
            + p0 * h[2]
        )
        H = np.zeros((len(X), k + model.du, k + model.du))
        H[:, :dv, :dv] = 2.0 * np.eye(dv)
        H[:, dv:k, dv:k] = -2.0 * np.eye(model.dw)
        H[:, k:, k:] = Hu
        jet.append(H)
    return jet


def _chart_jet_reference(chart, X, order):
    """The charts' earlier jet_many bodies, kept as the reference: a
    linear chart's frame repeated per row and a zero second derivative,
    and the angle chart's per-row formulas."""
    X = np.asarray(X, dtype=float)
    if isinstance(chart, LinearChart):
        N = len(chart.center)
        jet = [np.einsum("mn,nk->mk", X - chart.center, chart.frame)]
        if order >= 1:
            jet.append(chart.frame.T[None].repeat(len(X), axis=0))
        if order == 2:
            jet.append(np.zeros((len(X), chart.dim, N, N)))
        return jet
    x0, x1 = X[:, 0], X[:, 1]
    u = (np.arctan2(x1, x0) - chart.pole_angle + np.pi) % (2 * np.pi) - np.pi
    sin_half = np.sin(u / 2.0)
    jet = [(np.sqrt(2.0) * sin_half)[:, None]]
    if order >= 1:
        r2 = x0 * x0 + x1 * x1
        grad_u = np.stack([-x1, x0], axis=1) / r2[:, None]
        dy = np.sqrt(2.0) * 0.5 * np.cos(u / 2.0)
        jet.append((dy[:, None] * grad_u)[:, None, :])
    if order == 2:
        off = x1**2 - x0**2
        hess_u = np.stack(
            [np.stack([2 * x0 * x1, off], axis=1),
             np.stack([off, -2 * x0 * x1], axis=1)], axis=1
        ) / (r2 * r2)[:, None, None]
        d2y = -np.sqrt(2.0) * 0.25 * sin_half
        jet.append((d2y[:, None, None] * grad_u[:, :, None] * grad_u[:, None, :]
                    + dy[:, None, None] * hess_u)[:, None, :, :])
    return jet


def _surgered_jet_reference(f, X, order):
    """SurgeredFunction.jet_many's earlier body, kept as the reference:
    every chart on every row, and each chart's rows scattered into
    full-batch arrays."""
    X = np.asarray(X, dtype=float)
    model, s = f.model, f.scale
    k = model.dv + model.dw
    m, n = X.shape
    jet = [np.empty((m,) + (n,) * j) for j in range(order + 1)]
    free = np.ones(m, dtype=bool)
    for chart in f.charts:
        y, *dy = _chart_jet_reference(chart, X, order)
        yu = y[:, k:]
        rows = (free & (np.sqrt(np.add.reduce(yu * yu, axis=1)) < 3.0 * s)
                ).nonzero()[0]
        if not len(rows):
            continue
        free[rows] = False
        F = _model_jet_reference(model, y[rows] / s, order)
        jet[0][rows] = f.fp + s * s * F[0]
        if order >= 1:
            J = dy[0][rows]
            jet[1][rows] = s * np.einsum("mc,mcn->mn", F[1], J)
        if order == 2:
            jet[2][rows] = (
                np.einsum("mki,mkl,mlj->mij", J, F[2], J)
                + s * np.einsum("mc,mcij->mij", F[1], dy[1][rows])
            )
    rows = free.nonzero()[0]
    if len(rows) == m:
        return f.f0.jet_many(X, order)
    if len(rows):
        for a, b in zip(jet, f.f0.jet_many(X[rows], order)):
            a[rows] = b
    return jet


def _jet_subject(name, cut):
    """The jet(X, order) of a function, chart, constraint map (M.jet) or
    Evaluator (ev.jet), with rows to evaluate it at."""
    rng = np.random.default_rng(21)
    plane = rng.uniform(-3.5, 3.5, size=(40, 2))
    plane[0] = 0.0
    if name == "polynomial":
        f = EqFunction.from_polynomial(
            Polynomial(2, {(2, 0): 1, (0, 3): 2, (1, 1): -1}))
        return f.jet_many, plane
    if name == "sphere-cos3":
        return SphereFunction.cos_multiple_angle(3).jet_many, plane[1:]
    if name in ("model-c3", "model-c2"):
        model, act = (c3_rotation_model(cut) if name == "model-c3"
                      else c2_sign_model(cut))
        _, crits = model_critical_points(model, act)
        # the critical points sit on the plateau, where h enters
        return model.jet_many, np.concatenate(
            [plane] + [c.coords[None, :] for c in crits])
    if name.startswith("surgered-"):
        # rows inside, across and outside the cylinder, and at every knot
        # of the kernel, the center among them, in one batch
        fixture = name[len("surgered-"):]
        _, f = surgered_fixture(fixture, cut)
        return f.jet_many, surgery_rows(fixture, f.scale,
                                        SURGERY_RADII + kernel_knots(cut))
    if name.startswith(("evaluator-", "constraints-")):
        # the joint PolyJet (a polynomial f with constraints), the composed
        # path (a surgered f) and codim 0, at the fixture's seeds
        kind, fixture = name.split("-", 1)
        if fixture.startswith("surgered-"):
            fx, f = surgered_fixture(fixture[len("surgered-"):], cut)
        else:
            fx = MANIFOLD_FIXTURES[fixture]()
            f = fx.function
        M, ev = fx.manifold, fx.manifold.evaluator(f)
        assert (ev._joint is not None) == (fixture in ("sphere_height",
                                                       "torus_tilted"))
        return (M.jet if kind == "constraints" else ev.jet), fx.seeds
    # polar samples clear of the origin and of the angle chart's cut
    rad = rng.uniform(0.5, 1.5, size=24)
    ang = np.pi / 2 + rng.uniform(-2.5, 2.5, size=24)
    X = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if name == "linear-chart":
        turn = np.array([[np.cos(0.7), -np.sin(0.7)],
                         [np.sin(0.7), np.cos(0.7)]])
        return LinearChart(np.array([0.3, -0.2]), turn, dv=1, dw=1).jet_many, X
    return AngleChart(np.pi / 2).jet_many, X


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _leaves(jet):
    """The arrays of a jet, each (f, F) pair of an Evaluator's jet in turn."""
    return [a for entry in jet
            for a in (entry if isinstance(entry, tuple) else (entry,))]


@pytest.mark.parametrize("name", [
    "polynomial", "sphere-cos3", "model-c3", "model-c2",
    "surgered-figure1_plane", "surgered-figure2_plane",
    "surgered-circle_c2_height", "linear-chart", "angle-chart",
    "evaluator-sphere_height", "evaluator-torus_tilted",
    "evaluator-surgered-circle_c2_height", "evaluator-figure1_plane",
    "constraints-sphere_height", "constraints-torus_tilted"])
def test_jet_orders_and_rows_agree(cut, name):
    # a lower order is the leading entries of order 2 bit for bit, and
    # every row of a batch is the same point evaluated alone
    jet, X = _jet_subject(name, cut)
    full = jet(X, 2)
    assert len(full) == 3
    full = _leaves(full)
    for k in (0, 1):
        low = jet(X, k)
        assert len(low) == k + 1
        assert all(_same_bits(a, b) for a, b in zip(_leaves(low), full))
    for r in range(len(X)):
        one = _leaves(jet(X[r:r + 1], 2))
        assert all(_same_bits(a[0], b[r]) for a, b in zip(one, full))


def _reference_subject(name, cut):
    """A surgered function with the fixture whose geometry places its rows:
    a surgery fixture's own, figure1_dihedral's (figure 1's geometry),
    figure 1's spliced through a turned frame (its f is rotation invariant,
    and a frame that is not a signed permutation sums the frame products in
    the last bit), or figure 2's with a second chart shifted along v, which
    covers the same strip, so the first chart takes every strip row."""
    if name == "figure1_turned":
        _, f = surgered_fixture("figure1_plane", cut)
        c, sn = np.cos(0.7), np.sin(0.7)
        turned = LinearChart(np.zeros(2), np.array([[c, -sn], [sn, c]]),
                             dv=0, dw=2)
        return "figure1_plane", SurgeredFunction(
            f.f0, [turned], f.model, f.scale, f.fp)
    if name == "figure2_two_charts":
        _, f = surgered_fixture("figure2_plane", cut)
        (chart,) = f.charts
        shifted = LinearChart(chart.center + 0.2 * chart.frame[:, 0],
                              chart.frame, dv=1, dw=1)
        return "figure2_plane", SurgeredFunction(
            f.f0, [shifted, chart], f.model, f.scale, f.fp)
    _, f = surgered_fixture(name, cut)
    return ("figure1_plane" if name == "figure1_dihedral" else name), f


def _reference_batches(geometry, f, cut):
    """Batches of 0, 1, 2 and 200 rows, and the rows inside, across and
    outside the cylinder and at every kernel knot (u = 0 among them), all
    together, inside only and outside only."""
    radii = np.array(SURGERY_RADII + kernel_knots(cut))
    X = surgery_rows(geometry, f.scale, tuple(radii))
    many = np.random.default_rng(23).uniform(0.0, 4.0, 200)
    Y = surgery_rows(geometry, f.scale, tuple(many))
    return [X[:0], X[:1], X[[1, -4]], X, X[radii < 3.0], X[radii > 3.0], Y,
            Y[many < 2.9]]


@pytest.mark.parametrize("name", ["figure1_plane", "figure2_plane",
                                  "circle_c2_height", "figure1_dihedral",
                                  "figure1_turned", "figure2_two_charts"])
def test_surgered_jets_equal_the_earlier_formulas(cut, name):
    # the splice, the model, the sphere function and the charts against
    # their earlier bodies, byte for byte at every order
    geometry, f = _reference_subject(name, cut)
    model, s = f.model, f.scale
    k = model.dv + model.dw
    for X in _reference_batches(geometry, f, cut):
        for order in (0, 1, 2):
            got = f.jet_many(X, order)
            assert len(got) == order + 1
            assert all(_same_bits(a, b) for a, b in
                       zip(got, _surgered_jet_reference(f, X, order)))
            for chart in f.charts:
                got = chart.jet_many(X, order)
                assert len(got) == order + 1
                assert all(_same_bits(a, b) for a, b in
                           zip(got, _chart_jet_reference(chart, X, order)))
            Y = _chart_jet_reference(f.charts[0], X, 0)[0] / s
            got = model.jet_many(Y, order)
            assert len(got) == order + 1
            assert all(_same_bits(a, b) for a, b in
                       zip(got, _model_jet_reference(model, Y, order)))
            # h is 0/0 at u = 0, which the model never reads
            U = Y[np.abs(Y[:, k:]).sum(axis=1) > 0, k:]
            got = model.h.jet_many(U, order)
            assert len(got) == order + 1
            assert all(_same_bits(a, b) for a, b in
                       zip(got, _sphere_jet_reference(model.h, U, order)))


@pytest.mark.parametrize("order", [3, -1])
def test_jet_orders_other_than_0_1_2_are_refused(cut, order):
    # surgered figure 1 at order 3 returned four arrays, the last two
    # uninitialized memory, and at order -1 ended in an IndexError; a
    # polynomial f returned two arrays at order 3 and none at -1.  Every
    # place an order enters now refuses it
    fx, f = surgered_fixture("figure1_plane", cut)
    X = surgery_rows("figure1_plane", f.scale)
    poly = fx.function
    sphere = MANIFOLD_FIXTURES["sphere_height"]()
    model, _ = c3_rotation_model(cut)
    subjects = [
        (f.jet_many, X), (poly.jet_many, X), (model.jet_many, X),
        (SphereFunction.cos_multiple_angle(3).jet_many, X),
        (PolyJet([poly.polynomial], 2), X),
        (fx.manifold.evaluator(f).jet, X),
        (sphere.manifold.evaluator(sphere.function).jet, sphere.seeds),
        (LinearChart(np.zeros(2), np.eye(2), dv=1, dw=1).jet_many, X),
        (AngleChart(np.pi / 2).jet_many, X),
        (cut.profile, np.array([0.5, 1.5])),
    ]
    for jet, at in subjects:
        with pytest.raises(ValueError, match="jet order must be 0, 1 or 2"):
            jet(at, order)


def test_surgered_hessian_calls_each_table_once(cut, monkeypatch):
    # one order-2 evaluation on two plateau rows of surgered figure 1
    # reads the two tables of h's PolyJet once each (h's first-order table
    # is not called again for the Hessian) and none of f's: both rows lie
    # inside the modified cylinder
    _, f = surgered_fixture("figure1_plane", cut)
    th = np.array([0.3, 2.0])
    X = cut.t0 * f.scale * np.stack([np.cos(th), np.sin(th)], axis=1)
    calls = []
    real = PolyTable.__call__

    def counted(table, X):
        calls.append(table.polys)
        return real(table, X)

    monkeypatch.setattr(PolyTable, "__call__", counted)
    f.jet_many(X, 2)
    jets = [PolyJet([g.polynomial], g.nvars) for g in (f.f0, f.model.h.P)]
    assert [calls.count(t.polys) for j in jets
            for t in (j._first, j._second)] == [0, 0, 1, 1]
    assert len(calls) == 2


def test_surgered_f_is_read_only_outside_the_cylinders(cut, monkeypatch):
    # an order-1 call on rows inside the modified cylinder calls none of
    # f's tables; a batch with rows outside calls f's first-order table
    # once, on those rows alone
    _, f = surgered_fixture("figure1_plane", cut)
    radii = np.array(SURGERY_RADII)
    X = surgery_rows("figure1_plane", f.scale)
    f0_first = PolyJet([f.f0.polynomial], f.nvars)._first.polys
    rows = []
    real = PolyTable.__call__

    def counted(table, Z):
        if table.polys == f0_first:
            rows.append(len(Z))
        return real(table, Z)

    monkeypatch.setattr(PolyTable, "__call__", counted)
    f.jet_many(X[radii < 2.99], 1)
    assert rows == []
    f.jet_many(X, 1)
    assert rows == [np.sum(radii > 3.0)]


@pytest.mark.parametrize("name", ["figure1_plane", "figure2_plane",
                                  "circle_c2_height"])
def test_surgered_hessian_matches_gradient_differences(cut, name):
    # the order-2 Hessian against central differences of the order-1
    # gradient, at every knot of the kernel and between them
    fx, f = surgered_fixture(name, cut)
    radii = tuple(np.linspace(0.1, 2.9, 15)) + kernel_knots(cut)[1:]
    X = surgery_rows(name, f.scale, radii)
    _, G, H = f.jet_many(X, 2)
    eps = 1e-6
    if fx.manifold.codim:
        # on the circle, the second derivative along the rotation R_a:
        # d/da (tangent . grad f)(R_a x) = tangent^T H tangent - x . grad f
        def turned(a):
            c, sn = np.cos(a), np.sin(a)
            Z = X @ np.array([[c, sn], [-sn, c]])
            tangent = np.stack([-Z[:, 1], Z[:, 0]], axis=1)
            return np.einsum("mi,mi->m", tangent, f.grad_many(Z))

        tangent = np.stack([-X[:, 1], X[:, 0]], axis=1)
        want = (np.einsum("mi,mij,mj->m", tangent, H, tangent)
                - np.einsum("mi,mi->m", X, G))
        fd = (turned(eps) - turned(-eps)) / (2 * eps)
        assert np.allclose(want, fd, rtol=2e-4, atol=2e-5)
        return
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (f.grad_many(X + e) - f.grad_many(X - e)) / (2 * eps)
        assert np.allclose(H[:, :, i], fd, rtol=2e-4, atol=2e-5)


def test_surgered_newton_and_classify_read_one_order_2_jet(cut, monkeypatch):
    # Newton from figure 1's seeds on its surgered function calls f's jet
    # only at order 2, once per iteration, which gives both the residual
    # and the KKT matrix; classify at each plateau critical point makes one
    # order-2 call, which reads h's two tables once each and none of f's
    fx, f = surgered_fixture("figure1_plane", cut)
    M = fx.manifold
    crits = find_critical_points(f, M, fx.seeds)
    orders = []
    jet = f.jet_many
    f.jet_many = lambda X, order: orders.append(order) or jet(X, order)
    _newton_kkt(f, M, fx.seeds)
    assert orders == [2] * 11
    calls = []
    real = PolyTable.__call__
    monkeypatch.setattr(PolyTable, "__call__",
                        lambda table, X: calls.append(table) or real(table, X))
    plateau = [p for p in crits if np.linalg.norm(p) > 0.1]
    assert len(plateau) == 6
    for p in plateau:
        calls.clear()
        classify(f, M, p)
        assert len(calls) == 2
