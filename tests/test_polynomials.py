import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse.groups import FiniteGroup
from equimorse.polynomials import (
    DuplicatePoints,
    Jet,
    JetNotFixed,
    LinearAction,
    Polynomial,
    bump_poly,
    equivariant_average,
    equivariant_jet_lift,
    jet_interpolate,
    taylor_jet,
    transport_jet,
)

# ---------------------------------------------------------------------------
# oracle: jet coefficients by repeated formal partial derivatives / factorials,
# written independently of the library's shift-and-truncate implementation
# ---------------------------------------------------------------------------


def deriv_terms(terms, i):
    out = {}
    for e, c in terms.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[i]
    return out


def eval_terms(terms, p):
    tot = Fraction(0)
    for e, c in terms.items():
        v = Fraction(c)
        for x, k in zip(p, e):
            v *= Fraction(x) ** k
        tot += v
    return tot


def oracle_jet(poly, p, k):
    coeffs = {}
    n = poly.nvars

    def rec(expo, terms):
        if sum(expo) >= k:
            return
        fact = 1
        for x in expo:
            fact *= math.factorial(x)
        val = eval_terms(terms, p) / fact
        if val:
            coeffs[tuple(expo)] = val
        for i in range(n):
            # only descend in nondecreasing index order to hit each multi-index once
            if any(expo[j] for j in range(i + 1, n)):
                continue
            e2 = list(expo)
            e2[i] += 1
            rec(tuple(e2), deriv_terms(terms, i))

    rec((0,) * n, dict(poly.terms))
    return Jet(p, k, coeffs)


def random_poly(rng, nvars, maxdeg, nterms=8):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        if sum(e) > maxdeg:
            continue
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(nvars, terms)


def random_point(rng, nvars):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nvars))


def random_jet(rng, p, k):
    terms = {}
    n = len(p)
    for e in all_indices_below(n, k):
        if rng.random() < 0.7:
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Jet(p, k, terms)


def all_indices_below(n, k):
    if n == 1:
        return [(t,) for t in range(k)]
    out = []
    for t in range(k):
        for rest in all_indices_below(n - 1, k - t):
            out.append((t,) + rest)
    return [e for e in out if sum(e) < k]


# -- arithmetic basics -------------------------------------------------------


def test_poly_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = (x + y) * (x - y)
    assert f == x * x - y * y
    assert f.degree() == 2
    assert f.evaluate((2, 1)) == 3
    assert (x - x).is_zero()


def test_poly_pow_matches_repeated_mul():
    rng = random.Random(1)
    f = random_poly(rng, 2, 3)
    g = Polynomial.constant(2, 1)
    for _ in range(4):
        g = g * f
    assert f**4 == g


def _random_int_terms(rng, nvars, maxdeg, nterms, bits):
    """Up to nterms random monomials of degree <= maxdeg in each variable
    with nonzero coefficients up to 2^bits of either sign."""
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = rng.randint(1, 2**bits) * rng.choice((-1, 1))
    return terms


def _crt_of(terms, rad, primes):
    """_crt over every slot of the degree box of radices rad, from the
    residues of the integer coefficients terms (absent slots are zero)."""
    from equimorse import polynomials as P

    box = list(itertools.product(*(range(r) for r in reversed(rad))))
    coeffs = [terms.get(tuple(reversed(e)), 0) for e in box]
    residues = np.array([[c % p for c in coeffs] for p, _ in primes], np.uint32)
    return P._crt(residues, primes, np.arange(len(box)), rad)


def test_ntt_kernel_cancelling_slots():
    # the CRT that ends every transform kernel leaves out exactly the slots
    # whose residues all vanish
    from equimorse import polynomials as P

    # (x + y)(x - y) = x^2 - y^2: the xy slot cancels and must not appear
    prod = P._imul({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1})
    assert prod == {(2, 0): 1, (0, 2): -1}
    assert _crt_of(prod, [3, 3], P._NTT_PRIMES[:1]) == prod
    # (1 + x)(1 - x + x^2 - ... + x^20) = 1 + x^21, cancelling 20 big slots
    big = 2**150
    a = {(0,): big, (1,): big}
    b = {(i,): (-1) ** i * 3 for i in range(21)}
    prod = P._imul(a, b)
    assert prod == {(0,): 3 * big, (21,): 3 * big}
    assert _crt_of(prod, [22], P._ntt_primes_for(2 * 3 * big)) == prod
    # a coefficient divisible by some of the primes is still kept
    primes = P._NTT_PRIMES[:3]
    kept = {(0,): primes[0][0], (1,): -primes[0][0] * primes[1][0], (3,): 1}
    assert _crt_of(kept, [4], primes) == kept
    rng = random.Random(9)
    f = _random_int_terms(rng, 3, 3, 15, 40)
    g = _random_int_terms(rng, 3, 3, 15, 40)
    # (x2^4 - 1) f times g: shifted and unshifted halves meet in some slots
    h = {**{(e[0], e[1], e[2] + 4): c for e, c in f.items()},
         **{e: -c for e, c in f.items()}}
    prod = P._imul(h, g)
    bound = 2 * max(map(abs, prod.values()))
    assert _crt_of(prod, [7, 7, 11], P._ntt_primes_for(bound)) == prod


@pytest.mark.parametrize("nprimes", [1, 2, 3])
def test_ntt_kernel_at_prime_count_step(nprimes):
    # coefficient bounds just below and just above the product M of the
    # first nprimes primes take nprimes and nprimes + 1 primes; the CRT over
    # nprimes primes rebuilds every coefficient within M/2 of zero with its
    # sign, the largest product coefficient ma * mb * L among them
    from equimorse import polynomials as P

    primes = P._NTT_PRIMES[:nprimes]
    M = math.prod(p for p, _ in primes)
    L = 4
    ma = math.isqrt((M - 1) // (2 * L))
    mb = (M - 1) // (2 * L * ma)
    assert 2 * ma * mb * L < M <= 2 * ma * (mb + 1) * L
    assert len(P._ntt_primes_for(2 * ma * mb * L)) == nprimes
    assert len(P._ntt_primes_for(2 * ma * (mb + 1) * L)) == nprimes + 1
    for sign in (1, -1):
        a = {(i,): sign * ma for i in range(L)}
        b = {(i,): mb for i in range(L)}
        prod = P._imul(a, b)
        assert prod[(L - 1,)] == sign * L * ma * mb
        assert _crt_of(prod, [2 * L - 1], primes) == prod
    half = M // 2
    edge = {(0,): half, (1,): -half, (2,): half - 1, (3,): 1 - half, (4,): 1}
    assert _crt_of(edge, [5], primes) == edge
    # one past M/2 wraps to the other end
    assert _crt_of({(0,): half + 1}, [1], primes) == {(0,): -half}


def test_ntt_prime_table():
    from equimorse import polynomials as P

    def is_prime(p):  # Miller-Rabin, deterministic below 3.2e9 with these bases
        d, r = p - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, p)
            if x in (1, p - 1):
                continue
            for _ in range(r - 1):
                x = x * x % p
                if x == p - 1:
                    break
            else:
                return False
        return True

    top = 1 << P._NTT_MAX_LOG
    for p, g in P._NTT_PRIMES:
        assert p < 2**31 and (p - 1) % top == 0 and is_prime(p)
        # g^((p-1)/top) has order exactly top
        assert pow(g, (p - 1) // 2, p) == p - 1
        assert pow(pow(g, (p - 1) // top, p), top // 2, p) == p - 1
    assert len({p for p, _ in P._NTT_PRIMES}) == len(P._NTT_PRIMES)


def test_substitute_linear_permutation():
    f = Polynomial(2, {(2, 0): 1, (0, 1): 3})  # x^2 + 3y
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    g = f.substitute_linear(swap)
    assert g == Polynomial(2, {(0, 2): 1, (1, 0): 3})


def test_records_roundtrip():
    f = Polynomial(2, {(1, 0): Fraction(3, 4), (0, 2): -2})
    assert Polynomial.from_records(2, f.to_records()) == f


# -- taylor jets -------------------------------------------------------------


def test_taylor_jet_x_squared_at_zero():
    f = Polynomial(1, {(2,): 1})
    jet = taylor_jet(f, (0,), 3)
    assert jet.terms == {(2,): Fraction(1)}


def test_taylor_jet_x_squared_at_one():
    # x^2 = 1 + 2(x-1) + (x-1)^2; order 2 keeps 1 + 2(x-1)
    f = Polynomial(1, {(2,): 1})
    jet = taylor_jet(f, (1,), 2)
    assert jet.terms == {(0,): Fraction(1), (1,): Fraction(2)}


@pytest.mark.parametrize("seed", range(10))
def test_taylor_jet_matches_derivative_oracle(seed):
    rng = random.Random(seed)
    f = random_poly(rng, 3, 4)
    p = random_point(rng, 3)
    jet = taylor_jet(f, p, 3)
    assert jet == oracle_jet(f, p, 3)


@pytest.mark.parametrize("seed", range(8))
def test_exact_taylor_shift_matches_derivative_oracle(seed):
    # 1 to 3 variables, orders 1 to 9 (above and below the degree), points
    # with mixed denominators and zero coordinates
    rng = random.Random(1000 + seed)
    n = 1 + seed % 3
    f = random_poly(rng, n, rng.randint(2, 7), nterms=20)
    for k in (1, 2, 3, 5, 9):
        p = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n))
        if seed % 4 == 0:
            p = (Fraction(0),) + p[1:]
        assert taylor_jet(f, p, k) == oracle_jet(f, p, k)


def test_jet_as_polynomial_roundtrip():
    rng = random.Random(3)
    p = random_point(rng, 2)
    jet = random_jet(rng, p, 3)
    assert taylor_jet(jet.as_polynomial(), p, 3) == jet


# -- bump polynomials ---------------------------------------------------------


def test_bump_single_point_is_one():
    f = bump_poly([(Fraction(1),)], 0)
    assert f == Polynomial.constant(1, 1)


def test_bump_two_points_line():
    f = bump_poly([(0,), (1,)], 0)
    # (x-1)^2
    assert f == Polynomial(1, {(0,): 1, (1,): -2, (2,): 1})


def test_bump_three_points_values():
    pts = [(0,), (1,), (2,)]
    f = bump_poly(pts, 1)
    assert f.evaluate((1,)) == 1
    assert f.evaluate((0,)) == 0
    assert f.evaluate((2,)) == 0
    assert f.degree() == 4


def test_bump_duplicate_points_raise():
    with pytest.raises(DuplicatePoints):
        bump_poly([(0, 0), (0, 0)], 0)


# -- interpolation -------------------------------------------------------------


def test_interpolate_single_point():
    p = (Fraction(0),)
    jet = Jet(p, 2, {(0,): 3, (1,): 1})
    f = jet_interpolate([p], [jet], 2)
    assert taylor_jet(f, p, 2) == jet


def test_interpolate_two_values():
    pts = [(Fraction(0),), (Fraction(1),)]
    jets = [Jet(pts[0], 1, {(): 0 for () in [()]}), Jet(pts[1], 1, {(0,): 1})]
    jets[0] = Jet(pts[0], 1, {})
    f = jet_interpolate(pts, jets, 1)
    assert f.evaluate((0,)) == 0
    assert f.evaluate((1,)) == 1


@pytest.mark.parametrize("seed", range(6))
def test_interpolate_roundtrip_r2(seed):
    rng = random.Random(100 + seed)
    pts = []
    while len(pts) < 2:
        q = random_point(rng, 2)
        if q not in pts:
            pts.append(q)
    k = 3
    jets = [random_jet(rng, p, k) for p in pts]
    f = jet_interpolate(pts, jets, k)
    for p, jet in zip(pts, jets):
        assert taylor_jet(f, p, k) == jet
    d = len(pts)
    assert f.degree() <= (2 * d - 2) * k * k + (k - 1)


def _mask_sum(pts, reps, k):
    """sum_j reps[j] * (1 - (1 - phi_j^k)^k) in Polynomial arithmetic."""
    one = Polynomial.constant(len(pts[0]), 1)
    total = Polynomial.zero(len(pts[0]))
    for j, rep in enumerate(reps):
        total = total + rep * (one - (one - bump_poly(pts, j) ** k) ** k)
    return total


def test_interp_kernel_past_the_prime_table():
    # two points on a line at high k: the bound on the mask numerators needs
    # more than the table's 905 bits of primes, so the kernel declines and
    # jet_interpolate sums the expanded masks instead
    from equimorse import polynomials as P

    pts = [(Fraction(0),), (Fraction(3),)]
    k = 16
    jets = [Jet(pts[0], k, {(0,): 2, (3,): Fraction(-1, 3)}),
            Jet(pts[1], k, {(0,): Fraction(5, 2), (1,): 1})]
    reps = [jet.as_polynomial() for jet in jets]
    assert P._interp_ntt(pts, reps, k) is None
    f = jet_interpolate(pts, jets, k)
    assert f == _mask_sum(pts, reps, k)
    for p, jet in zip(pts, jets):
        assert taylor_jet(f, p, k) == jet


def test_exact_interpolation_runs_one_crt():
    from equimorse import polynomials as P

    rng = random.Random(31)
    pts = [(Fraction(1), Fraction(-2, 3)), (Fraction(0), Fraction(1, 2)),
           (Fraction(3, 2), Fraction(2))]
    jets = [random_jet(rng, p, 3) for p in pts]
    real, calls = P._crt, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(P, "_crt", spy):
        f = jet_interpolate(pts, jets, 3)
    assert len(calls) == 1
    assert f == _mask_sum(pts, [jet.as_polynomial() for jet in jets], 3)


def test_interp_kernel_transform_shorter_than_the_box():
    # four points in 3 variables at k = 2: the degree box has 26^3 = 17,576
    # slots, but the 3,276 monomials of total degree <= 25 stay apart in a
    # cyclic transform of 2^14 points
    from equimorse import polynomials as P

    rng = random.Random(5)
    pts = [(Fraction(1), Fraction(0), Fraction(-1, 2)),
           (Fraction(2, 3), Fraction(1), Fraction(1)),
           (Fraction(-1), Fraction(1, 3), Fraction(0)),
           (Fraction(0), Fraction(-2), Fraction(3, 2))]
    reps = [random_jet(rng, p, 2).as_polynomial() for p in pts]
    real, lengths = P._ntt_stages, []

    def spy(a, *args):
        lengths.append(len(a))
        return real(a, *args)

    with mock.patch.object(P, "_ntt_stages", spy):
        f = P._interp_ntt(pts, reps, 2)
    assert set(lengths) == {1 << 14}
    assert f == _mask_sum(pts, reps, 2)


_SIGN, _S3 = LinearAction.sign_c2(1), LinearAction.permutation_s3()
_C3 = LinearAction.rotation_cn(3)


def _coefficients_close(f, g, tol):
    """The coefficients of f and g agree to tol: their jets at the origin
    of an order above both degrees."""
    origin, order = (0.0,) * f.nvars, max(f.degree(), g.degree()) + 1
    return Jet(origin, order, f.terms).close_to(Jet(origin, order, g.terms), tol)


@pytest.mark.parametrize("act, p, k, orbit_size", [
    (_SIGN, (Fraction(1, 2),), 3, 2),
    (_S3, (Fraction(1), Fraction(1), Fraction(0)), 2, 3),
    (_S3, (Fraction(2), Fraction(1), Fraction(0)), 1, 6),
    (_S3, (Fraction(1), Fraction(-1), Fraction(2)), 2, 6),
    (_C3, (0.5, -0.25), 2, 3),
], ids=["sign_c2-orbit2", "s3-orbit3", "s3-orbit6-k1", "s3-orbit6-k2",
        "rotation_c3-orbit3"])
def test_lift_equals_average_of_interpolant(act, p, k, orbit_size):
    # the lift averages the transported representatives and interpolates
    # once; averaging the interpolant of the transported jets is the same
    # polynomial, up to rounding on the float backend
    rng = random.Random(7)
    H = act.stabilizer(p)
    rep = random_jet(rng, p, k).as_polynomial()
    fixed = sum((rep.substitute_linear(act.matrices[act.group.inverse[h]])
                 for h in H.elements), Polynomial.zero(len(p)))
    jet = taylor_jet(fixed * Fraction(1, len(H.elements)), p, k)
    orbit = act.orbit(p)
    assert len(orbit) == orbit_size
    jets = [transport_jet(jet, act, s) for s, _ in orbit]
    want = equivariant_average(jet_interpolate([q for _, q in orbit], jets, k), act)
    got = equivariant_jet_lift(p, jet, act, k)
    if act.exact:
        assert got == want
    else:
        assert _coefficients_close(got, want, 1e-9)


def test_lift_rejects_a_non_orthogonal_action():
    # C2 swapping the axes with a rescaling: a representation, not orthogonal
    G = FiniteGroup.cyclic(2)
    one, two, half = Fraction(1), Fraction(2), Fraction(1, 2)
    act = LinearAction(G, [((one, 0), (0, one)), ((0, two), (half, 0))])
    assert act.exact and not act.is_orthogonal()
    p = (Fraction(1), Fraction(1))
    with pytest.raises(ValueError, match="orthogonal") as err:
        equivariant_jet_lift(p, Jet(p, 1, {(0, 0): 1}), act, 1)
    assert not isinstance(err.value, JetNotFixed)


# -- linear actions -----------------------------------------------------------


def test_action_validation_rejects_bad_law():
    G = FiniteGroup.cyclic(2)
    good = LinearAction.sign_c2(1)
    assert good.exact
    with pytest.raises(ValueError):
        LinearAction(G, [((Fraction(1),),), ((Fraction(2),),)])


def test_rotation_floats_validate():
    act = LinearAction.rotation_cn(3)
    assert not act.exact
    assert act.is_orthogonal()


def test_stabilizer_and_orbit():
    act = LinearAction.permutation_s3()
    H = act.stabilizer((Fraction(1), Fraction(1), Fraction(0)))
    assert H.order == 2
    orb = act.orbit((Fraction(1), Fraction(1), Fraction(0)))
    assert len(orb) == 3
    H2 = act.stabilizer((1, 1, 1))
    assert H2.order == 6


def test_equivariant_average_examples():
    act = LinearAction.sign_c2(1)
    x = Polynomial.variable(1, 0)
    assert equivariant_average(x, act).is_zero()
    x2 = x * x
    assert equivariant_average(x2, act) == x2
    # idempotence on an arbitrary polynomial
    f = Polynomial(1, {(0,): 2, (1,): 5, (3,): 1})
    avg = equivariant_average(f, act)
    assert equivariant_average(avg, act) == avg


def test_average_is_invariant_s3():
    rng = random.Random(5)
    act = LinearAction.permutation_s3()
    f = random_poly(rng, 3, 3)
    avg = equivariant_average(f, act)
    for s in act.group.elements():
        assert avg.substitute_linear(act.matrices[s]) == avg


# -- equivariant lifting --------------------------------------------------------


def test_lift_trivial_group_reduces_to_interpolation():
    G = FiniteGroup.trivial()
    act = LinearAction.trivial(G, 1)
    p = (Fraction(1),)
    jet = Jet(p, 2, {(0,): 2, (1,): 5})
    f = equivariant_jet_lift(p, jet, act, 2)
    assert taylor_jet(f, p, 2) == jet


def test_lift_c2_mirrors_jet():
    act = LinearAction.sign_c2(1)
    p = (Fraction(1),)
    jet = Jet(p, 2, {(1,): 1})  # x - 1 at p = 1
    f = equivariant_jet_lift(p, jet, act, 2)
    assert taylor_jet(f, p, 2) == jet
    # invariance forces the mirrored jet at -1
    mirrored = transport_jet(jet, act, 1)
    assert taylor_jet(f, (Fraction(-1),), 2) == mirrored
    for s in act.group.elements():
        assert f.substitute_linear(act.matrices[s]) == f


def test_lift_not_fixed_raises():
    act = LinearAction.sign_c2(1)
    p = (Fraction(0),)
    jet = Jet(p, 2, {(1,): 1})  # odd linear jet at the fixed point
    with pytest.raises(JetNotFixed):
        equivariant_jet_lift(p, jet, act, 2)


def test_lift_s3_generic_orbit():
    act = LinearAction.permutation_s3()
    p = (Fraction(1), Fraction(2), Fraction(0))
    rng = random.Random(11)
    jet = random_jet(rng, p, 2)
    f = equivariant_jet_lift(p, jet, act, 2)
    assert taylor_jet(f, p, 2) == jet
    for s in act.group.elements():
        assert f.substitute_linear(act.matrices[s]) == f


def test_lift_s3_jet_fixed_by_transposition():
    act = LinearAction.permutation_s3()
    p = (Fraction(1), Fraction(1), Fraction(0))  # stabilized by the swap of x0,x1
    # jet of the invariant polynomial x0 + x1 at p is fixed by the stabilizer
    g = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1})
    jet = taylor_jet(g, p, 2)
    f = equivariant_jet_lift(p, jet, act, 2)
    assert taylor_jet(f, p, 2) == jet
    # a jet moved by the stabilizer is obstructed
    bad = Jet(p, 2, {(1, 0, 0): 1})
    with pytest.raises(JetNotFixed):
        equivariant_jet_lift(p, bad, act, 2)


def test_lift_float_backend_rotation():
    act = LinearAction.rotation_cn(3)
    p = (1.0, 0.0)
    jet = Jet(p, 2, {(0, 0): 1.0, (1, 0): 0.5})
    f = equivariant_jet_lift(p, jet, act, 2)
    got = taylor_jet(f, p, 2)
    assert got.close_to(Jet(p, 2, jet.terms), tol=1e-9)
    # invariance on the unit ball, sampled
    rng = random.Random(2)
    M = act.matrices[1]
    for _ in range(25):
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        gx = (M[0][0] * x[0] + M[0][1] * x[1], M[1][0] * x[0] + M[1][1] * x[1])
        assert abs(f.evaluate(gx) - f.evaluate(x)) < 1e-9


def test_interpolate_mixed_jet_orders():
    # jets of order below k round-trip at their own order
    pts = [(Fraction(0),), (Fraction(1),)]
    jets = [Jet(pts[0], 1, {(0,): 5}), Jet(pts[1], 2, {(0,): 1, (1,): -2})]
    f = jet_interpolate(pts, jets, 2)
    assert taylor_jet(f, pts[0], 1) == jets[0]
    assert taylor_jet(f, pts[1], 2) == jets[1]


def test_lift_rotation_fixed_point_obstruction():
    # at the origin of the rotation plane only rotation-invariant jets lift
    act = LinearAction.rotation_cn(3)
    p = (0.0, 0.0)
    invariant = Jet(p, 3, {(0, 0): 1.0, (2, 0): 2.0, (0, 2): 2.0})
    f = equivariant_jet_lift(p, invariant, act, 3)
    assert taylor_jet(f, p, 3).close_to(invariant, tol=1e-9)
    linear = Jet(p, 2, {(1, 0): 1.0})
    with pytest.raises(JetNotFixed):
        equivariant_jet_lift(p, linear, act, 2)


# -- sympy oracle properties ---------------------------------------------------
#
# Small random inputs in 1-3 variables; every result is compared with the
# same computation in sympy over QQ.

_FRAC = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


def _gens(n):
    return sympy.symbols(f"x0:{n}")


def _to_sympy(f):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()},
        *_gens(f.nvars), domain=sympy.QQ,
    )


def _from_sympy(p):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in p.as_dict().items() if c}


def _sympy_substitute(f, matrix):
    xs = f.gens
    images = [sum(sympy.Rational(str(a)) * x for a, x in zip(row, xs))
              for row in matrix]
    expr = f.as_expr().subs(dict(zip(xs, images)), simultaneous=True)
    return sympy.Poly(sympy.expand(expr), *xs, domain=sympy.QQ)


def _sympy_jet(f, p, k):
    """Coefficient of (x-p)^b is the b-th partial derivative at p over b!."""
    xs = f.gens
    at = {x: sympy.Rational(str(c)) for x, c in zip(xs, p)}
    out = {}
    for b in all_indices_below(len(xs), k):
        d = f.diff(*zip(xs, b)).eval(at) / math.prod(map(math.factorial, b))
        if d:
            out[b] = Fraction(int(d.p), int(d.q))
    return out


@st.composite
def _polys(draw, n, count, maxdeg=4, max_terms=6):
    expo = st.tuples(*[st.integers(0, maxdeg)] * n)
    return [Polynomial(n, draw(st.dictionaries(expo, _FRAC, max_size=max_terms)))
            for _ in range(count)]


_poly_pair = st.integers(1, 3).flatmap(lambda n: _polys(n, 2))
_poly_triple = st.integers(1, 3).flatmap(lambda n: _polys(n, 3))


@settings(max_examples=80, deadline=None)
@given(_poly_pair)
def test_arithmetic_matches_sympy(pair):
    a, b = pair
    sa, sb = _to_sympy(a), _to_sympy(b)
    assert (a + b).terms == _from_sympy(sa + sb)
    assert (a - b).terms == _from_sympy(sa - sb)
    assert (a * b).terms == _from_sympy(sa * sb)
    assert (a * Fraction(3, 4) - 2).terms == _from_sympy(sa * sympy.Rational(3, 4) - 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_signed_permutation_matches_sympy(data):
    n = data.draw(st.integers(1, 3))
    (f,) = data.draw(_polys(n, 1))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    M = [[Fraction(signs[i] if j == perm[i] else 0) for j in range(n)]
         for i in range(n)]
    assert f.substitute_linear(M).terms == _from_sympy(
        _sympy_substitute(_to_sympy(f), M))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_substitute_rational_matrix_matches_sympy(data):
    n = data.draw(st.integers(1, 3))
    (f,) = data.draw(_polys(n, 1, maxdeg=3))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    M = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assert f.substitute_linear(M).terms == _from_sympy(
        _sympy_substitute(_to_sympy(f), M))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_jet_matches_sympy_exact(data):
    n = data.draw(st.integers(1, 3))
    (f,) = data.draw(_polys(n, 1, maxdeg=5, max_terms=8))
    p = tuple(data.draw(st.lists(_FRAC, min_size=n, max_size=n)))
    k = data.draw(st.integers(1, 6))
    assert taylor_jet(f, p, k) == Jet(p, k, _sympy_jet(_to_sympy(f), p, k))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_jet_matches_sympy_at_float_points(data):
    # dyadic coordinates, so the float point is exactly a rational one
    n = data.draw(st.integers(1, 3))
    (f,) = data.draw(_polys(n, 1, maxdeg=5, max_terms=8))
    p = tuple(data.draw(st.lists(st.integers(-24, 24), min_size=n, max_size=n)))
    p = tuple(c / 8 for c in p)
    k = data.draw(st.integers(1, 6))
    want = _sympy_jet(_to_sympy(f), p, k)
    # every Taylor coefficient is bounded by sum |c_a| prod (1 + |p_i|)^a_i
    scale = sum(abs(float(c)) * math.prod((1 + abs(x)) ** a for x, a in zip(p, e))
                for e, c in f.terms.items())
    for g in (f, f.as_float()):
        got = taylor_jet(g, p, k)
        assert got.basepoint == p and got.order == k
        assert all(type(c) is float for c in got.terms.values())
        for e in set(got.terms) | set(want):
            assert abs(got.terms.get(e, 0.0) - float(want.get(e, 0))) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equivariant_average_matches_sympy(data):
    act = data.draw(st.sampled_from(
        [LinearAction.sign_c2(1), LinearAction.sign_c2(2), LinearAction.sign_c2(3),
         LinearAction.permutation_s3()]))
    (f,) = data.draw(_polys(act.dim, 1))
    sf = _to_sympy(f)
    images = [_sympy_substitute(sf, M) for M in act.matrices]
    want = sum(images[1:], images[0]) * sympy.Rational(1, act.group.order)
    assert equivariant_average(f, act).terms == _from_sympy(want)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_jet_interpolate_roundtrip_matches_sympy(data):
    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3 if n == 1 else 2))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    pts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d,
                             unique=True))
    jets = [
        Jet(p, k, data.draw(st.dictionaries(
            st.sampled_from(all_indices_below(n, k)), _FRAC, max_size=4)))
        for p in pts
    ]
    f = jet_interpolate(pts, jets, k)
    sf = _to_sympy(f)
    for p, jet in zip(pts, jets):
        assert _sympy_jet(sf, p, k) == jet.terms


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_interp_kernel_matches_sympy(data):
    # sum_j R_j (1 - (1 - phi_j^k)^k) for arbitrary rational R_j, expanded in
    # sympy from phi_j = prod_{i != j} |x - p_i|^2 / |p_j - p_i|^2
    from equimorse import polynomials as P

    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    pts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d,
                             unique=True))
    reps = data.draw(_polys(n, d, maxdeg=2, max_terms=4))
    xs = _gens(n)
    want = sympy.Poly(0, *xs, domain=sympy.QQ)
    for j, (p, rep) in enumerate(zip(pts, reps)):
        phi = sympy.Poly(1, *xs, domain=sympy.QQ)
        for i, q in enumerate(pts):
            if i != j:
                num = sum((x - sympy.Rational(str(c))) ** 2 for x, c in zip(xs, q))
                den = sum(sympy.Rational(str(a - c)) ** 2 for a, c in zip(p, q))
                phi *= sympy.Poly(num, *xs, domain=sympy.QQ) * (1 / den)
        want += _to_sympy(rep) * (1 - (1 - phi ** k) ** k)
    got = P._interp_ntt(pts, reps, k)
    assert got is not None and got.terms == _from_sympy(want)


@settings(max_examples=60, deadline=None)
@given(_poly_triple)
def test_equal_polynomials_from_different_routes(triple):
    a, b, c = triple
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    back = a + b - b
    assert back == a and hash(back) == hash(a)
    spread = (a * 6 + b * Fraction(1, 3)) * Fraction(1, 6)
    assert spread == a + b * Fraction(1, 18)
    assert hash(spread) == hash(a + b * Fraction(1, 18))
    from_sympy = Polynomial(a.nvars, _from_sympy(_to_sympy(a) * _to_sympy(b)))
    assert from_sympy == a * b and hash(from_sympy) == hash(a * b)
