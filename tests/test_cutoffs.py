import numpy as np
import pytest
from scipy.integrate import quad

from equimorse.morse.cutoffs import (
    CHUNK,
    CutoffPair,
    DeltaTooLarge,
    OddTransition,
    Plateau,
    SmoothStep,
    build_cutoffs,
    find_t0,
    _INTEGRAL,
    _bump,
)


def test_phi_endpoint_values():
    phi = OddTransition()
    assert phi(1.0) == pytest.approx(1.0, abs=1e-14)
    assert phi(-1.0) == pytest.approx(-1.0, abs=1e-14)
    assert phi(0.0) == pytest.approx(0.0, abs=1e-14)
    assert phi(5.0) == 1.0
    assert phi(-5.0) == -1.0


def test_phi_is_odd():
    phi = OddTransition()
    ts = np.linspace(-2, 2, 401)
    assert np.max(np.abs(phi(-ts) + phi(ts))) < 1e-13


def test_phi_nondecreasing_and_second_derivative_sign():
    phi = OddTransition()
    ts = np.linspace(-2, 2, 2001)
    assert np.min(phi.d1(ts)) >= 0.0
    # phi'' > 0 on (-1, 0), < 0 on (0, 1), zero only at 0
    inner = np.linspace(-0.999, -1e-3, 500)
    assert np.min(phi.d2(inner)) > 0
    inner = np.linspace(1e-3, 0.999, 500)
    assert np.max(phi.d2(inner)) < 0


def test_phi_integral_against_quadrature_oracle():
    # independent oracle: adaptive quadrature of the same bump
    phi = OddTransition()
    total, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, 1,
                    epsabs=1e-15, epsrel=1e-13)
    for t in (-0.8, -0.3, 0.2, 0.55, 0.95):
        part, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, t,
                       epsabs=1e-15, epsrel=1e-13)
        expect = -1.0 + 2.0 * part / total
        assert phi(t) == pytest.approx(expect, abs=1e-12)


def test_phi_derivatives_by_finite_differences():
    phi = OddTransition()
    h = 1e-6
    for t in (-0.7, -0.2, 0.33, 0.8):
        fd1 = (phi(t + h) - phi(t - h)) / (2 * h)
        assert phi.d1(t) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        # fd2 noise floor is ~eps/h^2 = 1e-4 absolute; stay above it
        fd2 = (phi(t + h) - 2 * phi(t) + phi(t - h)) / (h * h)
        assert phi.d2(t) == pytest.approx(fd2, rel=1e-3, abs=1e-3)


def test_t0_location_and_uniqueness():
    phi = OddTransition()
    t0 = find_t0(phi)
    assert 1.0 < t0 < 2.0
    # oracle: the bracketing function changes sign exactly once on a scan
    ts = np.linspace(1.0 + 1e-9, 2.0, 20001)
    vals = 2.0 * phi(ts - 2.0) + ts * phi.d1(ts - 2.0)
    signs = np.sign(vals)
    changes = np.sum(signs[:-1] * signs[1:] < 0)
    assert changes == 1
    assert abs(2.0 * phi(t0 - 2.0) + t0 * phi.d1(t0 - 2.0)) < 1e-10


def test_radial_profile_critical_points():
    cut = build_cutoffs(0.05)
    # -t^2 phi(t-2) has critical points exactly at 0 and t0
    ts = np.linspace(1e-4, 3.5, 30001)
    d = cut.profile(ts, 1)[0][1]
    roots = np.sum(np.sign(d[:-1]) * np.sign(d[1:]) < 0)
    assert roots == 1
    # second derivative at t0 is negative
    assert cut.profile(np.array([cut.t0]), 2)[0][2][0] < 0


def test_smoothstep_bounds():
    S = SmoothStep()
    assert S(0.0) == 0.0
    assert S(1.0) == pytest.approx(1.0, abs=1e-14)
    xs = np.linspace(-1, 2, 301)
    v = S(xs)
    assert np.all(v >= 0) and np.all(v <= 1 + 1e-14)


def test_plateau_intervals():
    cut = build_cutoffs(0.05)
    psi = cut.psi
    t0, d = cut.t0, cut.delta
    inside = np.linspace(t0 - d, t0 + d, 101)
    assert np.max(np.abs(psi(inside) - 1.0)) < 1e-14
    outside = np.concatenate([np.linspace(0, 1 + d, 101),
                              np.linspace(3 - d, 4, 101)])
    assert np.max(np.abs(psi(outside))) < 1e-14
    assert 1 + d < t0 - d and t0 + d < 3 - d


def test_plateau_derivatives_fd():
    cut = build_cutoffs(0.05)
    psi = cut.psi
    h = 1e-6
    for t in (1.2, 1.35, cut.t0, 2.2, 2.7):
        fd = (psi(t + h) - psi(t - h)) / (2 * h)
        assert psi.d1(t) == pytest.approx(float(fd), rel=1e-6, abs=1e-8)


def test_plateau_single_step_matches_two_integral_formula():
    # psi, psi' and psi'' evaluate S, S' or S'' once on a piecewise
    # argument; the reference evaluates them on both transition pieces over
    # every point and then picks
    psi = build_cutoffs(0.05).psi
    t = np.concatenate([
        np.linspace(-1.0, 5.0, 200_001),
        [psi.rise_lo, psi.rise_hi, psi.fall_lo, psi.fall_hi, psi.t0],
    ])
    rise = (t - psi.rise_lo) / (psi.rise_hi - psi.rise_lo)
    fall = (psi.fall_hi - t) / (psi.fall_hi - psi.fall_lo)
    ref = np.ones_like(t)
    ref = np.where(t < psi.rise_hi, psi.step(rise), ref)
    ref = np.where(t > psi.fall_lo, psi.step(fall), ref)
    assert np.array_equal(psi(t), ref)
    # the derivatives likewise, with their chain-rule factors per piece
    wr = psi.rise_hi - psi.rise_lo
    wf = psi.fall_hi - psi.fall_lo
    ref1 = np.zeros_like(t)
    ref1 = np.where(t < psi.rise_hi, psi.step.d1(rise) / wr, ref1)
    ref1 = np.where(t > psi.fall_lo, -psi.step.d1(fall) / wf, ref1)
    assert np.array_equal(psi.d1(t), ref1)
    ref2 = np.zeros_like(t)
    ref2 = np.where(t < psi.rise_hi, psi.step.d2(rise) / (wr * wr), ref2)
    ref2 = np.where(t > psi.fall_lo, psi.step.d2(fall) / (wf * wf), ref2)
    assert np.array_equal(psi.d2(t), ref2)


def test_epsilon_margin_inequality():
    cut = build_cutoffs(0.05)
    ts = np.concatenate([
        np.linspace(cut.psi.rise_lo, cut.psi.rise_hi, 2001),
        np.linspace(cut.psi.fall_lo, cut.psi.fall_hi, 2001),
    ])
    lhs = cut.epsilon * np.abs(cut.psi.d1(ts)) * 1.0
    rhs = np.abs(cut.profile(ts, 1)[0][1])
    assert np.all(lhs < rhs)


def test_delta_too_large():
    with pytest.raises(DeltaTooLarge, match=r"needs delta < \d"):
        build_cutoffs(0.5)


def test_bump_support():
    s = np.array([-1.5, -1.0, 0.0, 1.0, 2.0])
    v = _bump(s)
    assert v[0] == v[1] == v[3] == v[4] == 0.0
    assert v[2] == pytest.approx(np.exp(-1.0))


def test_bump_integral_in_blocks_equals_each_element_alone():
    # more than three blocks of CHUNK upper limits, in a 2-d shape: every
    # element is the integral at that element alone, bit for bit
    t = np.linspace(-1.3, 1.3, 3 * CHUNK + 7)[:3 * CHUNK + 6].reshape(2, -1)
    got = _INTEGRAL(t)
    assert got.shape == t.shape
    alone = np.array([_INTEGRAL(x) for x in t.ravel()]).reshape(t.shape)
    assert np.array_equal(got, alone)
    assert _INTEGRAL(0.25).shape == ()
