import numpy as np
import pytest
from scipy.integrate import quad

from equimorse.morse.cutoffs import (
    CHUNK,
    DeltaTooLarge,
    build_cutoffs,
    find_t0,
    _INTEGRAL,
    _bump,
    _bump_jet,
)


def phi(s):
    """phi(s) from the kernel's bump integral: -1 + 2 I(s) / total."""
    return -1.0 + 2.0 * _INTEGRAL(s) / _INTEGRAL.total


def dphi(s):
    return 2.0 * _bump(s) / _INTEGRAL.total


def bump_d1(s):
    """The bump's first derivative, from its jet."""
    return _bump_jet(np.asarray(s, dtype=float), 1)[1]


def d2phi(s):
    return 2.0 * bump_d1(s) / _INTEGRAL.total


def psi_jet(cut, t):
    """[psi, psi', psi''] at the points t, from the radial kernel."""
    return cut.profile(np.atleast_1d(np.asarray(t, dtype=float)), 2)[1]


def test_phi_endpoint_values():
    assert phi(1.0) == pytest.approx(1.0, abs=1e-14)
    assert phi(-1.0) == pytest.approx(-1.0, abs=1e-14)
    assert phi(0.0) == pytest.approx(0.0, abs=1e-14)
    assert phi(5.0) == 1.0
    assert phi(-5.0) == -1.0
    # the kernel's profile -t^2 phi(t - 2) meets t^2 at 1 and -t^2 at 3
    cut = build_cutoffs(0.05)
    t = np.array([np.nextafter(1.0, 2.0), 2.0, np.nextafter(3.0, 2.0)])
    R = cut.profile(t, 0)[0][0]
    assert R == pytest.approx([1.0, 0.0, -9.0], abs=1e-13)


def test_phi_is_odd():
    ts = np.linspace(-2, 2, 401)
    assert np.max(np.abs(phi(-ts) + phi(ts))) < 1e-13


def test_phi_nondecreasing_and_second_derivative_sign():
    ts = np.linspace(-2, 2, 2001)
    assert np.min(dphi(ts)) >= 0.0
    # phi'' > 0 on (-1, 0), < 0 on (0, 1), zero only at 0
    inner = np.linspace(-0.999, -1e-3, 500)
    assert np.min(d2phi(inner)) > 0
    inner = np.linspace(1e-3, 0.999, 500)
    assert np.max(d2phi(inner)) < 0


def test_phi_integral_against_quadrature_oracle():
    # independent oracle: adaptive quadrature of the same bump, against
    # the phi the kernel returns on its middle piece
    cut = build_cutoffs(0.05)
    total, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, 1,
                    epsabs=1e-15, epsrel=1e-13)
    for t in (-0.8, -0.3, 0.2, 0.55, 0.95):
        part, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, t,
                       epsabs=1e-15, epsrel=1e-13)
        expect = -1.0 + 2.0 * part / total
        assert phi(t) == pytest.approx(expect, abs=1e-12)
        r = t + 2.0
        R = cut.profile(np.array([r]), 0)[0][0][0]
        assert -R / (r * r) == pytest.approx(expect, abs=1e-12)


def test_phi_derivatives_by_finite_differences():
    h = 1e-6
    for t in (-0.7, -0.2, 0.33, 0.8):
        fd1 = (phi(t + h) - phi(t - h)) / (2 * h)
        assert dphi(t) == pytest.approx(fd1, rel=1e-7, abs=1e-9)
        # fd2 noise floor is ~eps/h^2 = 1e-4 absolute; stay above it
        fd2 = (phi(t + h) - 2 * phi(t) + phi(t - h)) / (h * h)
        assert d2phi(t) == pytest.approx(fd2, rel=1e-3, abs=1e-3)


def test_t0_location_and_uniqueness():
    t0 = find_t0()
    assert 1.0 < t0 < 2.0
    assert build_cutoffs(0.05).t0 == t0
    # oracle: the bracketing function changes sign exactly once on a scan
    ts = np.linspace(1.0 + 1e-9, 2.0, 20001)
    vals = 2.0 * phi(ts - 2.0) + ts * dphi(ts - 2.0)
    signs = np.sign(vals)
    changes = np.sum(signs[:-1] * signs[1:] < 0)
    assert changes == 1
    assert abs(2.0 * phi(t0 - 2.0) + t0 * dphi(t0 - 2.0)) < 1e-10


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
    # psi is the step S on its rising piece: S(0) = 0 at 1 + delta and
    # S(1) = 1 at t0 - delta, with 0 <= S <= 1 everywhere
    cut = build_cutoffs(0.05)
    t0, d = cut.t0, cut.delta
    psi = psi_jet(cut, [1.0 + d, t0 - d])[0]
    assert psi[0] == 0.0
    assert psi[1] == pytest.approx(1.0, abs=1e-14)
    v = psi_jet(cut, np.linspace(0.0, 4.0, 401))[0]
    assert np.all(v >= 0) and np.all(v <= 1 + 1e-14)


def test_plateau_intervals():
    cut = build_cutoffs(0.05)
    t0, d = cut.t0, cut.delta
    inside = np.linspace(t0 - d, t0 + d, 101)
    assert np.max(np.abs(psi_jet(cut, inside)[0] - 1.0)) < 1e-14
    outside = np.concatenate([np.linspace(0, 1 + d, 101),
                              np.linspace(3 - d, 4, 101)])
    assert np.max(np.abs(psi_jet(cut, outside)[0])) < 1e-14
    assert 1 + d < t0 - d and t0 + d < 3 - d


def test_plateau_derivatives_fd():
    cut = build_cutoffs(0.05)
    h = 1e-6
    for t in (1.2, 1.35, cut.t0, 2.2, 2.7):
        psi, dpsi, _ = psi_jet(cut, [t - h, t, t + h])
        fd = (psi[2] - psi[0]) / (2 * h)
        assert dpsi[1] == pytest.approx(float(fd), rel=1e-6, abs=1e-8)


def test_plateau_single_step_matches_two_integral_formula():
    # the kernel evaluates S, S' or S'' once on a piecewise argument; the
    # reference evaluates them on both transition pieces over every point
    # and then picks
    cut = build_cutoffs(0.05)
    t0, d = cut.t0, cut.delta
    rise_lo, rise_hi, fall_lo, fall_hi = 1 + d, t0 - d, t0 + d, 3 - d
    t = np.concatenate([
        np.linspace(-1.0, 5.0, 200_001),
        [rise_lo, rise_hi, fall_lo, fall_hi, t0],
    ])
    total = _INTEGRAL.total
    steps = [lambda x: _INTEGRAL(2.0 * x - 1.0) / total,
             lambda x: 2.0 * _bump(2.0 * x - 1.0) / total,
             lambda x: 4.0 * bump_d1(2.0 * x - 1.0) / total]
    rise = (t - rise_lo) / (rise_hi - rise_lo)
    fall = (fall_hi - t) / (fall_hi - fall_lo)
    # the chain-rule divisors per piece: the k-th power of its signed width
    wr = rise_hi - rise_lo
    wf = fall_hi - fall_lo
    rise_div = (1.0, wr, wr * wr)
    fall_div = (1.0, -wf, wf * wf)
    got = psi_jet(cut, t)
    for k, S in enumerate(steps):
        ref = np.full_like(t, 1.0 if k == 0 else 0.0)
        ref = np.where(t < rise_hi, S(rise) / rise_div[k], ref)
        ref = np.where(t > fall_lo, S(fall) / fall_div[k], ref)
        assert np.array_equal(got[k], ref)


def test_epsilon_margin_inequality():
    cut = build_cutoffs(0.05)
    t0, d = cut.t0, cut.delta
    ts = np.concatenate([
        np.linspace(1 + d, t0 - d, 2001),
        np.linspace(t0 + d, 3 - d, 2001),
    ])
    R, psi = cut.profile(ts, 1)
    lhs = cut.epsilon * np.abs(psi[1]) * 1.0
    rhs = np.abs(R[1])
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
