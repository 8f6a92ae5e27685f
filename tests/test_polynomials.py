import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
import hypothesis
from hypothesis import example, given, settings
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


def _leading_primes(rad, count):
    """The first count primes the per-length chooser gives for the transform
    length of the degree box of radices rad."""
    from equimorse import polynomials as P

    size = 1 << (math.prod(rad) - 1).bit_length()
    primes = P._ntt_primes(size, 1)
    while len(primes) < count:
        primes = P._ntt_primes(size, math.prod(p for p, _ in primes))
    return primes


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
    assert _crt_of(prod, [3, 3], _leading_primes([3, 3], 1)) == prod
    # (1 + x)(1 - x + x^2 - ... + x^20) = 1 + x^21, cancelling 20 big slots
    big = 2**150
    a = {(0,): big, (1,): big}
    b = {(i,): (-1) ** i * 3 for i in range(21)}
    prod = P._imul(a, b)
    assert prod == {(0,): 3 * big, (21,): 3 * big}
    assert _crt_of(prod, [22], P._ntt_primes(32, 2 * 3 * big)) == prod
    # a coefficient divisible by some of the primes is still kept
    primes = _leading_primes([4], 3)
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
    assert _crt_of(prod, [7, 7, 11], P._ntt_primes(1024, bound)) == prod


@pytest.mark.parametrize("nprimes", [1, 2, 3])
def test_ntt_kernel_at_prime_count_step(nprimes):
    # coefficient bounds just below and just above the product M of the
    # first nprimes primes take nprimes and nprimes + 1 primes; the CRT over
    # nprimes primes rebuilds every coefficient within M/2 of zero with its
    # sign, the largest product coefficient ma * mb * L among them
    from equimorse import polynomials as P

    L = 4
    primes = _leading_primes([2 * L - 1], nprimes)
    M = math.prod(p for p, _ in primes)
    ma = math.isqrt((M - 1) // (2 * L))
    mb = (M - 1) // (2 * L * ma)
    assert 2 * ma * mb * L < M <= 2 * ma * (mb + 1) * L
    assert len(P._ntt_primes(8, 2 * ma * mb * L)) == nprimes
    assert len(P._ntt_primes(8, 2 * ma * (mb + 1) * L)) == nprimes + 1
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 22), st.integers(1, 1100))
def test_ntt_prime_table(log, bits):
    # the per-length chooser at every length up to 2^22 and bounds within
    # the 1,181 bits its primes cover at 2^22: the fewest primes, largest
    # first, of all p < 2^31 with size | p - 1, each with a non-residue g,
    # so g^((p-1)/size) has order exactly size
    from equimorse import polynomials as P

    def is_prime(p):  # Miller-Rabin, deterministic below 3.2e9 with these bases
        if p < 11:
            return p in (2, 3, 5, 7)
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

    size, bound = 1 << log, 1 << bits
    primes = P._ntt_primes(size, bound)
    ps = [p for p, _ in primes]
    assert math.prod(ps[:-1]) <= bound < math.prod(ps)
    assert all(a > b for a, b in zip(ps, ps[1:]))
    # every candidate from the largest down to the last prime taken is
    # taken exactly when it is prime
    top = (2**31 - 2) // size * size + 1
    assert [c for c in range(top, ps[-1] - 1, -size) if is_prime(c)] == ps
    for p, g in primes:
        assert p < 2**31 and (p - 1) % size == 0
        assert pow(g, (p - 1) // 2, p) == p - 1
        assert pow(pow(g, (p - 1) // size, p), size // 2, p) == p - 1


def test_substitute_linear_permutation():
    f = Polynomial(2, {(2, 0): 1, (0, 1): 3})  # x^2 + 3y
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    g = f.substitute_linear(swap)
    assert g == Polynomial(2, {(0, 2): 1, (1, 0): 3})


@pytest.mark.parametrize("call", [
    lambda: Polynomial(2, {(2, 0): 1, (0, 1): 3}).substitute_linear(
        ((0, 1, 0), (1, 0, 0), (0, 0, 1))),
    lambda: Polynomial(3, {(1, 0, 2): 1}).substitute_linear(((2, 1, 5), (0, 1, 7))),
    lambda: Polynomial(2, {(1, 1): 1}).substitute_linear(((1, 0),)),
    lambda: equivariant_average(Polynomial(2, {(1, 0): 1}),
                                LinearAction.permutation_s3()),
], ids=["swap-3x3-on-2", "two-rows-of-3", "one-row", "average-s3-on-2"])
def test_substitution_by_a_matrix_of_the_wrong_shape_raises(call):
    # an n x n matrix only: a larger one was read by its top-left block, a
    # missing row ended in IndexError and an extra column was dropped
    with pytest.raises(ValueError, match="matrix must be . x .") as info:
        call()
    assert type(info.value) is ValueError


def test_records_roundtrip():
    f = Polynomial(2, {(1, 0): Fraction(3, 4), (0, 2): -2})
    assert Polynomial.from_records(2, f.to_records()) == f


def test_records_over_zero_are_the_binary_rationals_of_floats():
    f = Polynomial.from_records(2, [[[1, 0], 0.3, 0], [[0, 1], 2, 0], [[0, 0], -1, 4]])
    assert f.terms == {(1, 0): Fraction(0.3), (0, 1): Fraction(2),
                       (0, 0): Fraction(-1, 4)}
    assert Fraction(0.3) != Fraction(3, 10)
    assert f == Polynomial(2, {(1, 0): 0.3, (0, 1): 2.0, (0, 0): Fraction(-1, 4)})


@pytest.mark.parametrize("record", [
    [[2], 1.5, 2], [[2, 0], 1.5, 2], [[2, 0], 1, 0.5], [[2, 0], "1", 1],
    [[2, 0], float("inf"), 0], [[-1, 0], 1, 1], [[1.0, 0], 1, 1], [[2, 0], 1],
    5, [3, 1, 1], [[0, 0], 2, 1],
])
def test_bad_records_raise_value_error(record):
    with pytest.raises(ValueError, match="bad polynomial record"):
        Polynomial.from_records(2, [[[0, 0], 1, 1], record])


@pytest.mark.parametrize("call", [
    lambda: jet_interpolate([(0,), (1, 2)], [Jet((0,), 1, {(0,): 1}),
                                             Jet((1, 2), 1, {(0, 0): 1})], 1),
    lambda: Polynomial(2, {(1,): 1}),
    lambda: Polynomial(1, {(-1,): 1}),
    lambda: Jet((0, 0), 2, {(1,): 1}),
    lambda: Jet((0,), 2, {(-1,): 1}),
    lambda: Polynomial(2, {(1, 1): 1}).evaluate((2,)),
    lambda: LinearAction.sign_c2(1).apply(1, (1, 2)),
    lambda: LinearAction.sign_c2(2).stabilizer((0,)),
    lambda: taylor_jet(Polynomial(2, {(1, 1): 1}), (0,), 2),
    lambda: equivariant_jet_lift((0,), Jet((0,), 1, {(0,): 1}),
                                 LinearAction.sign_c2(2), 1),
    lambda: Polynomial(1, {(1.5,): 1}),
    lambda: Jet((0,), 3, {(0.5,): 1}),
    lambda: jet_interpolate([], [], 1),
    lambda: bump_poly([], 0),
    lambda: bump_poly([(0,), (1,)], 5),
    lambda: bump_poly([(0,), (1,)], -1),
], ids=["interpolate", "poly-length", "poly-negative", "jet-length",
        "jet-negative", "evaluate", "apply", "stabilizer", "taylor-jet", "lift",
        "poly-fractional", "jet-fractional", "interpolate-no-points",
        "bump-no-points", "bump-index-past", "bump-index-negative"])
def test_mismatched_dimensions_raise_value_error(call):
    # every public entry point of the exact layer checks that points and
    # exponents have as many coordinates as the space, that exponents are
    # nonnegative integers, and that a bump's index names one of its points
    with pytest.raises(ValueError, match="coordinates|nonnegative") as info:
        call()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("call, message", [
    (lambda: jet_interpolate([(0,), (1,)], [Jet((0,), 1, {(0,): 1})], 1),
     "one jet per point"),
    (lambda: jet_interpolate([(0,), (1,)], [Jet((0,), 1), Jet((2,), 1)], 1),
     "basepoint does not match"),
    (lambda: jet_interpolate([(0,), (1,)], [Jet((0,), 1), Jet((1,), 2)], 1),
     "order exceeds interpolation order"),
    (lambda: equivariant_jet_lift((1,), Jet((0,), 1), _SIGN, 1),
     "based at the given point"),
    (lambda: equivariant_jet_lift((1,), Jet((1,), 2), _SIGN, 1),
     "order exceeds lift order"),
], ids=["interpolate-count", "interpolate-basepoint", "interpolate-order",
        "lift-basepoint", "lift-order"])
def test_jets_that_do_not_fit_raise_value_error(call, message):
    # jet_interpolate takes one jet per point and equivariant_jet_lift one
    # jet, each based at its point and of order at most k
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert type(info.value) is ValueError


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


@pytest.mark.parametrize("k", [-1, -3])
def test_taylor_jet_refuses_a_negative_order(k):
    # the order a Jet itself refuses; order 0 is the empty jet
    f = Polynomial(2, {(2, 1): 3})
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        taylor_jet(f, (1, 2), k)
    with pytest.raises(ValueError, match="jet order must be >= 0"):
        Jet((1, 2), k)
    assert taylor_jet(f, (1, 2), 0) == Jet((1, 2), 0)


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


def test_jet_terms_are_one_polynomial_in_the_offset():
    # a jet keeps its terms as a Polynomial in y = x - p and terms is its
    # Fraction view; a term of degree >= the order is refused, even with
    # coefficient 0
    jet = Jet((1, 2), 2, {(0, 0): Fraction(1, 2), (1, 0): 0.25, (0, 1): 0})
    assert jet.poly == Polynomial(2, {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4)})
    assert jet.terms == {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 4)}
    assert taylor_jet(jet.as_polynomial(), (1, 2), 2).poly == jet.poly
    for terms in ({(2, 0): 0}, {(1, 1): 3}):
        with pytest.raises(ValueError, match="degree >= order 2"):
            Jet((1, 2), 2, terms)


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


def _q_bump(pts, j, Q):
    """prod_{i != j} |x - p_i|_Q^2 / |p_j - p_i|_Q^2 from the matrix Q."""
    n = len(pts[0])
    xs = [Polynomial.variable(n, m) for m in range(n)]
    out = Polynomial.constant(n, 1)
    for i, q in enumerate(pts):
        if i == j:
            continue
        y = [x - c for x, c in zip(xs, q)]
        z = [Fraction(a) - Fraction(b) for a, b in zip(pts[j], q)]
        num = sum((y[r] * y[c] * Q[r][c] for r in range(n) for c in range(n)),
                  Polynomial.zero(n))
        den = sum(z[r] * z[c] * Q[r][c] for r in range(n) for c in range(n))
        out = out * num * (1 / den)
    return out


def _mask_sum(pts, reps, k, Q=None):
    """sum_j reps[j] * (1 - (1 - phi_j^k)^k) in Polynomial arithmetic, the
    bumps in the form of the matrix Q (None: bump_poly's standard one)."""
    one = Polynomial.constant(len(pts[0]), 1)
    total = Polynomial.zero(len(pts[0]))
    for j, rep in enumerate(reps):
        phi = bump_poly(pts, j) if Q is None else _q_bump(pts, j, Q)
        total = total + rep * (one - (one - phi ** k) ** k)
    return total


def test_interp_kernel_past_the_prime_table():
    # two points on a line at high k: the bound on the mask numerators has
    # 1,029 bits, past the 905 of the 30 largest primes p = 1 mod 2^22; the
    # chooser finds the 34 it needs among p = 1 mod 2^10 for the
    # 1,024-point transform, and the kernel takes the case
    from equimorse import polynomials as P

    pts = [(Fraction(0),), (Fraction(3),)]
    k = 16
    jets = [Jet(pts[0], k, {(0,): 2, (3,): Fraction(-1, 3)}),
            Jet(pts[1], k, {(0,): Fraction(5, 2), (1,): 1})]
    reps = [jet.as_polynomial() for jet in jets]
    real, taken = P._crt, []

    def spy(residues, primes, *rest):
        taken.append(len(primes))
        return real(residues, primes, *rest)

    with mock.patch.object(P, "_crt", spy):
        got, lengths = _transform_lengths(P._interp_ntt, pts, reps, k)
    assert lengths == {1 << 10} and taken == [34]
    f = jet_interpolate(pts, jets, k)
    assert got == f == _mask_sum(pts, reps, k)
    for p, jet in zip(pts, jets):
        assert taylor_jet(f, p, k) == jet


def test_interp_kernel_refuses_a_bound_past_its_primes():
    # two points on a line at k = 1025: 2,101,251 box slots take a 2^22-point
    # transform, whose 40 primes below 2^31 give 1,182 bits of modulus
    # against a bound of about 2.1 million bits; the kernel says so before
    # any transform runs, and before a plan builds arrays over the box
    from equimorse import polynomials as P

    pts = [(Fraction(0),), (Fraction(1),)]
    jets = [Jet(pts[0], 1, {(0,): 1}), Jet(pts[1], 1, {(0,): 2})]
    lengths, planned = set(), []
    with mock.patch.object(P, "_ntt_stages", lambda a, *rest: lengths.add(len(a))), \
            mock.patch.object(P, "_kept_slots", lambda *args: planned.append(args)):
        with pytest.raises(ValueError, match="4194304-point transform give 1182 bits"):
            jet_interpolate(pts, jets, 1025)
    assert not lengths and not planned
    primes = P._ntt_primes(1 << 22, 1 << 1180)
    M = math.prod(p for p, _ in primes)
    assert len(primes) == 40 and M.bit_length() == 1182
    with pytest.raises(ValueError, match="give 1182 bits of modulus, short of the 1182"):
        P._ntt_primes(1 << 22, M)


_SLOT_SHAPES = [((5,), 3), ((5,), 9), ((4, 6), 5), ((3, 3), 9), ((7, 2, 5), 6),
                ((26, 26, 26), 25), ((3, 4, 5), 0), ((2, 3, 2, 4), 4), ((1, 1), 0)]


@pytest.mark.parametrize("rad, top", _SLOT_SHAPES)
def test_least_length_counts_the_kept_slots(rad, top):
    # the closed-form count of the slots within the total degree against
    # the slots themselves
    from equimorse import polynomials as P

    keep, _ = P._kept_slots(rad, top)
    assert P._least_length(rad, top) == 1 << max(len(keep) - 1, 1).bit_length()


def _kept_slots_by_box_scan(rad, top):
    """The kept slots found by scanning the whole degree box, n divmods per
    box slot: the reference for the enumeration from the simplex."""
    nslots = math.prod(rad)
    rest, total = np.arange(nslots), np.zeros(nslots, np.int64)
    for r in rad:
        rest, e = np.divmod(rest, r)
        total += e
    keep = np.flatnonzero(total <= top)
    rest, cols = keep, []
    for r in rad:
        rest, e = np.divmod(rest, r)
        cols.append(e)
    return keep, cols


@pytest.mark.parametrize("rad, top", _SLOT_SHAPES + [((39, 39, 39), 38)])
def test_kept_slots_match_the_box_scan(rad, top):
    # the same box indices in the same increasing order, and the same
    # exponent columns; (39, 39, 39) within 38 is the S3 orbit-3 lift at k = 3
    from equimorse import polynomials as P

    keep, cols = P._kept_slots(rad, top)
    want, want_cols = _kept_slots_by_box_scan(rad, top)
    assert keep.dtype == want.dtype and keep.tolist() == want.tolist()
    assert len(cols) == len(rad)
    for col, want_col in zip(cols, want_cols):
        assert col.dtype == want_col.dtype and col.tolist() == want_col.tolist()


def test_slot_order_is_the_order_the_inverse_transform_reads():
    # slot s holds the value at w^order[s]: the values of the monomial X^e
    # there, w^(order[s] e), transform back to size times the unit vector at
    # e, for every length from 2 to 2^16 (the powers of w by running
    # products, not the kernel's root tables)
    from equimorse import polynomials as P

    rng = random.Random(43)
    for L in range(1, 17):
        size, half = 1 << L, 1 << (L - 1)
        p, g = P._ntt_primes(size, 1)[0]
        w, powers = pow(g, (p - 1) // size, p), [1]
        while len(powers) < size:
            powers.append(powers[-1] * w % p)
        powers = np.array(powers, np.uint64)
        iroots = powers[(size - np.arange(half)) % size]
        order = P._slot_order(size)
        assert order.dtype == np.uint32
        assert np.array_equal(np.sort(order), np.arange(size))
        for e in rng.sample(range(size), min(size, 3)):
            a = powers[order.astype(np.int64) * e % size]
            out = np.empty(size, np.uint64)
            P._ntt_stages(a, out, p, iroots, tuple(np.empty(half, np.uint64) for _ in range(3)))
            want = np.zeros(size, np.uint64)
            want[e] = size
            assert np.array_equal(out, want), (size, e)


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


def _transform_lengths(fn, *args):
    """fn(*args) and the set of transform lengths _ntt_stages ran."""
    from equimorse import polynomials as P

    real, lengths = P._ntt_stages, set()

    def spy(a, *rest):
        lengths.add(len(a))
        return real(a, *rest)

    with mock.patch.object(P, "_ntt_stages", spy):
        out = fn(*args)
    return out, lengths


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
    f, lengths = _transform_lengths(P._interp_ntt, pts, reps, 2)
    assert lengths == {1 << 14}
    assert f == _mask_sum(pts, reps, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_last_stride_search_matches_brute_force(n):
    # the monomials of total degree <= T in n variables, at box strides
    # (T + 1)^m for all but the last variable: the search returns the
    # smallest last stride B that keeps them apart mod N, and None only when
    # no B in [1, N) does
    from equimorse import polynomials as P

    for T in range(1, 9):
        simplex = np.array([e for e in itertools.product(range(T + 1), repeat=n)
                            if sum(e) <= T])
        strides = [(T + 1) ** m for m in range(n - 1)]
        head, last = simplex[:, :-1] @ strides, simplex[:, -1]
        N = 1 << (len(simplex) - 1).bit_length()
        while N <= (T + 1) ** n:
            B = np.arange(1, N)[:, None]
            slots = np.sort((head + B * last) % N, axis=1)
            apart = np.flatnonzero((np.diff(slots, axis=1) != 0).all(axis=1)) + 1
            want = int(apart[0]) if len(apart) else None
            assert P._last_stride(strides, T, N) == want, (n, T, N)
            N *= 2


def test_interp_kernel_packs_the_last_stride():
    # three points in 3 variables at k = 2 with affine representatives:
    # total degree 17, box 18^3 = 5,832 slots, whose box strides need 2^13
    # points; the 1,140 monomials of total degree <= 17 stay apart in 2^12
    # with a searched last stride
    from equimorse import polynomials as P

    pts = [(Fraction(1), Fraction(0), Fraction(-1, 2)),
           (Fraction(2, 3), Fraction(1), Fraction(1)),
           (Fraction(-1), Fraction(1, 3), Fraction(0))]
    reps = [Polynomial(3, {(0, 0, 0): Fraction(a, 3), (1, 0, 0): b,
                           (0, 1, 0): Fraction(-1, b), (0, 0, 1): a})
            for a, b in ((1, 2), (-4, 3), (5, -1))]
    f, lengths = _transform_lengths(P._interp_ntt, pts, reps, 2)
    assert lengths == {1 << 12}
    assert f == _mask_sum(pts, reps, 2)


def test_s3_orbit3_lift_runs_packed_transforms():
    # k = 3 at an orbit-3 point of S3 on R^3: 10,660 monomials of total
    # degree <= 38 in a 39^3 box, kept apart by 2^15 points, not 2^16
    p = (Fraction(1), Fraction(1), Fraction(0))
    jet = Jet(p, 3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 2,
                     (2, 0, 0): Fraction(1, 3), (0, 2, 0): Fraction(1, 3),
                     (0, 0, 2): -1, (1, 1, 0): 5})
    act = LinearAction.permutation_s3()
    f, lengths = _transform_lengths(equivariant_jet_lift, p, jet, act, 3)
    assert lengths == {1 << 15}
    assert taylor_jet(f, p, 3) == jet
    assert all(f.substitute_linear(M) == f for M in act.matrices)


_SIGN, _S3 = LinearAction.sign_c2(1), LinearAction.permutation_s3()
# the rotation by 2 pi / 3 in the rational basis (1, 0), (-1/2, sqrt(3)/2):
# not orthogonal; its invariant form is [[2, -1], [-1, 2]]
_C3 = LinearAction(FiniteGroup.cyclic(3),
                   [((1, 0), (0, 1)), ((0, -1), (1, -1)), ((-1, 1), (-1, 0))])
# C2 swapping the axes with a rescaling; its invariant form is diag(1, 4)
_SWAP = LinearAction(FiniteGroup.cyclic(2),
                     [((1, 0), (0, 1)), ((0, 2), (Fraction(1, 2), 0))])


def _conjugated_c4():
    """The rotation C4 of R^2 conjugated by a fixed rational matrix S:
    A = S R S^-1, with S = [[2, 1], [1/3, 1]]."""
    S = [[Fraction(2), Fraction(1)], [Fraction(1, 3), Fraction(1)]]
    det = S[0][0] * S[1][1] - S[0][1] * S[1][0]
    Si = [[S[1][1] / det, -S[0][1] / det], [-S[1][0] / det, S[0][0] / det]]
    R = ((0, -1), (1, 0))

    def mul(A, B):
        return [[sum(A[i][t] * B[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)]

    mats, M = [], [[1, 0], [0, 1]]
    for _ in range(4):
        mats.append(mul(mul(S, M), Si))
        M = mul(M, R)
    return LinearAction(FiniteGroup.cyclic(4), mats)


_C4 = _conjugated_c4()


def _fixed_jet(rng, act, p, k):
    """A seeded order-k jet at p, projected onto the stabilizer-fixed jets."""
    H = act.stabilizer(p)
    rep = random_jet(rng, p, k).as_polynomial()
    fixed = sum((rep.substitute_linear(act.matrices[act.group.inverse[h]])
                 for h in H.elements), Polynomial.zero(len(p)))
    return taylor_jet(fixed * Fraction(1, len(H.elements)), p, k)


@pytest.mark.parametrize("act, p, k, orbit_size", [
    (_SIGN, (Fraction(1, 2),), 3, 2),
    (_SIGN, (Fraction(1, 2),), 0, 2),
    (_S3, (Fraction(1), Fraction(1), Fraction(0)), 2, 3),
    (_S3, (Fraction(2), Fraction(1), Fraction(0)), 1, 6),
    (_S3, (Fraction(1), Fraction(-1), Fraction(2)), 2, 6),
    (_C3, (Fraction(1, 2), Fraction(-1, 4)), 2, 3),
], ids=["sign_c2-orbit2", "sign_c2-k0", "s3-orbit3", "s3-orbit6-k1",
        "s3-orbit6-k2", "rotation_c3-orbit3"])
def test_lift_equals_average_of_interpolant(act, p, k, orbit_size):
    # the lift is invariant: it equals the average over G of the
    # interpolant of the transported jets, with the bumps in the action's
    # invariant form (the C3 rotation is in a rational, non-orthogonal
    # basis), and that interpolant is the lift itself.  At k = 0 all are
    # the zero polynomial
    jet = _fixed_jet(random.Random(7), act, p, k)
    orbit = act.orbit(p)
    assert len(orbit) == orbit_size
    jets = [transport_jet(jet, act, s) for s, _ in orbit]
    pts = [q for _, q in orbit]
    if act.is_orthogonal():
        interpolant = jet_interpolate(pts, jets, k)
    else:
        interpolant = _mask_sum(pts, [j.as_polynomial() for j in jets], k, act.form)
    f = equivariant_jet_lift(p, jet, act, k)
    assert f == interpolant == equivariant_average(interpolant, act)


@pytest.mark.parametrize("act, p, k, orbit_size", [
    (_SIGN, (Fraction(1, 2),), 3, 2),
    (_SIGN, (Fraction(1, 2),), 0, 2),
    (_SIGN, (Fraction(0),), 3, 1),
    (_S3, (Fraction(1), Fraction(1), Fraction(0)), 2, 3),
    (_S3, (Fraction(2), Fraction(1), Fraction(0)), 1, 6),
    (_S3, (Fraction(1), Fraction(-1), Fraction(2)), 2, 6),
    (_S3, (Fraction(1), Fraction(1), Fraction(1)), 3, 1),
    (_C3, (Fraction(1, 2), Fraction(-1, 4)), 2, 3),
    (_C3, (Fraction(0), Fraction(0)), 2, 1),
    (_SWAP, (Fraction(1), Fraction(1)), 2, 2),
    (_SWAP, (Fraction(1), Fraction(1, 2)), 2, 1),
    (_C4, (Fraction(1), Fraction(-2)), 2, 4),
    (_C4, (Fraction(0), Fraction(0)), 3, 1),
], ids=["sign_c2-orbit2", "sign_c2-k0", "sign_c2-orbit1", "s3-orbit3",
        "s3-orbit6-k1", "s3-orbit6-k2", "s3-orbit1", "rotation_c3-orbit3",
        "rotation_c3-orbit1", "scaled-swap-orbit2", "scaled-swap-orbit1",
        "conjugated-c4-orbit4", "conjugated-c4-orbit1"])
def test_lift_shifts_once_and_interpolates_once(act, p, k, orbit_size):
    # the lift is one Taylor shift of the jet, carried to each orbit point
    # by the action, and at k >= 1 one interpolation when the orbit has two
    # or more points: no shift per orbit point and no average over G
    from equimorse import polynomials as P

    jet = _fixed_jet(random.Random(13), act, p, k)
    counts = {"_taylor_shift": 0, "_interp_ntt": 0}

    def counted(name):
        real = getattr(P, name)

        def spy(*args):
            counts[name] += 1
            return real(*args)
        return spy

    with mock.patch.object(P, "_taylor_shift", counted("_taylor_shift")), \
            mock.patch.object(P, "_interp_ntt", counted("_interp_ntt")):
        f = equivariant_jet_lift(p, jet, act, k)
    orbit = act.orbit(p)
    assert len(orbit) == orbit_size
    assert counts == {"_taylor_shift": 1, "_interp_ntt": int(k >= 1 and orbit_size >= 2)}
    assert all(f.substitute_linear(A) == f for A in act.matrices)
    assert all(taylor_jet(f, q, k) == transport_jet(jet, act, s) for s, q in orbit)


def test_invariant_forms():
    # Q = sum_s A_s^T A_s over its content: the identity exactly for the
    # orthogonal actions, and A^T Q A = Q for every matrix
    for act in (_SIGN, _S3, LinearAction.reflection_c2(3, 1)):
        assert act.is_orthogonal()
        assert act.form == tuple(tuple(int(i == j) for j in range(act.dim))
                                 for i in range(act.dim))
    assert _C3.form == ((2, -1), (-1, 2)) and _SWAP.form == ((1, 0), (0, 4))
    for act in (_C3, _SWAP, _C4):
        assert not act.is_orthogonal()
        Q = act.form
        for A in act.matrices:
            AtQA = [[sum(A[r][i] * Q[r][c] * A[c][j] for r in range(2) for c in range(2))
                     for j in range(2)] for i in range(2)]
            assert AtQA == [list(row) for row in Q]


_NON_ORTHOGONAL_LIFTS = {"scaled-swap-c2": (_SWAP, 2), "rational-c3": (_C3, 2),
                         "conjugated-c4-k1": (_C4, 1), "conjugated-c4-k2": (_C4, 2)}


def _free_point_jets(act, k):
    """Two seeded (seed 41) order-k jets at seeded free points of act, each
    drawn again until it is nonzero and, at k >= 2, has two or more terms,
    one of them nonconstant."""
    rng = random.Random(41)
    jets = []
    for _ in range(2):
        p = random_point(rng, 2)
        while len(act.orbit(p)) < act.group.order:
            p = random_point(rng, 2)
        jet = random_jet(rng, p, k)
        while not jet.terms or k >= 2 and (
                len(jet.terms) < 2 or not any(map(sum, jet.terms))):
            jet = random_jet(rng, p, k)
        jets.append(jet)
    return jets


@pytest.mark.parametrize("act, k", list(_NON_ORTHOGONAL_LIFTS.values()),
                         ids=list(_NON_ORTHOGONAL_LIFTS))
def test_lift_under_non_orthogonal_rational_actions(act, k):
    # seeded jets at seeded free points: the lift is invariant under every
    # matrix exactly and restores the transported jet at every orbit point
    from equimorse import polynomials as P

    calls = []
    real = P._interp_ntt

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    for jet in _free_point_jets(act, k):
        p = jet.basepoint
        with mock.patch.object(P, "_interp_ntt", spy):
            f = equivariant_jet_lift(p, jet, act, k)
        assert all(f.substitute_linear(A) == f for A in act.matrices)
        for s, q in act.orbit(p):
            assert taylor_jet(f, q, k) == transport_jet(jet, act, s)
        assert taylor_jet(f, p, k) == jet
    # every lift took the transform kernel with the action's form, which
    # equals the expanded mask sum in that form
    assert len(calls) == 2
    for (pts, reps, kk, Q), out in calls:
        assert Q == act.form and isinstance(out, Polynomial)
        assert out == _mask_sum(pts, reps, kk, Q)


def test_lift_at_the_c3_point_of_the_rational_rotation():
    # the point (1/2, -1/4) at k = 2: the kernel's lift equals the average of
    # the expanded mask sum, in the action's form Q, of the transported jets
    p = (Fraction(1, 2), Fraction(-1, 4))
    jet = Jet(p, 2, {(0, 0): 3, (1, 0): Fraction(-1, 2), (0, 1): 2})
    f = equivariant_jet_lift(p, jet, _C3, 2)
    orbit = _C3.orbit(p)
    reps = [transport_jet(jet, _C3, s).as_polynomial() for s, _ in orbit]
    masks = _mask_sum([q for _, q in orbit], reps, 2, _C3.form)
    assert f == equivariant_average(masks, _C3)
    assert all(f.substitute_linear(A) == f for A in _C3.matrices)
    assert [taylor_jet(f, q, 2) for _, q in orbit] == [
        transport_jet(jet, _C3, s) for s, _ in orbit]


# -- linear actions -----------------------------------------------------------


def test_action_validation_rejects_bad_law():
    G = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        LinearAction(G, [((Fraction(1),),), ((Fraction(2),),)])


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


def test_lift_rotation_in_a_rational_basis():
    # the C3 rotation in the rational basis lifts exactly from a float
    # basepoint, read as the binary rational it denotes
    p = (1.0, 0.0)
    jet = Jet(p, 2, {(0, 0): 1.0, (1, 0): 0.5})
    assert jet.basepoint == (Fraction(1), Fraction(0))
    f = equivariant_jet_lift(p, jet, _C3, 2)
    assert taylor_jet(f, p, 2) == Jet(p, 2, {(0, 0): 1, (1, 0): Fraction(1, 2)})
    assert all(f.substitute_linear(M) == f for M in _C3.matrices)
    rng = random.Random(2)
    for _ in range(5):
        x = random_point(rng, 2)
        assert all(f.evaluate(_C3.apply(s, x)) == f.evaluate(x)
                   for s in _C3.group.elements())


def test_interpolate_mixed_jet_orders():
    # jets of order below k round-trip at their own order
    pts = [(Fraction(0),), (Fraction(1),)]
    jets = [Jet(pts[0], 1, {(0,): 5}), Jet(pts[1], 2, {(0,): 1, (1,): -2})]
    f = jet_interpolate(pts, jets, 2)
    assert taylor_jet(f, pts[0], 1) == jets[0]
    assert taylor_jet(f, pts[1], 2) == jets[1]


def test_lift_rotation_fixed_point_obstruction():
    # at the origin of the rotation plane only rotation-invariant jets lift:
    # in the rational basis the invariant quadratic is the form
    # 2x^2 - 2xy + 2y^2, and the standard 2x^2 + 2y^2 is moved
    p = (Fraction(0), Fraction(0))
    invariant = Jet(p, 3, {(0, 0): 1, (2, 0): 2, (1, 1): -2, (0, 2): 2})
    f = equivariant_jet_lift(p, invariant, _C3, 3)
    assert taylor_jet(f, p, 3) == invariant
    for jet in (Jet(p, 2, {(1, 0): 1}), Jet(p, 3, {(2, 0): 2, (0, 2): 2})):
        with pytest.raises(JetNotFixed):
            equivariant_jet_lift(p, jet, _C3, jet.order)


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
    g = f.substitute_linear(M)
    assert g.terms == _from_sympy(_sympy_substitute(_to_sympy(f), M))
    # the remap builds its image without reducing it: it must come out in
    # lowest terms, as the constructor builds it
    assert g == Polynomial(n, g.terms) and hash(g) == hash(Polynomial(n, g.terms))


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
    # dyadic float coordinates, read as the binary rationals they denote:
    # the jet is exact, equal to sympy's at the same rational point
    n = data.draw(st.integers(1, 3))
    (f,) = data.draw(_polys(n, 1, maxdeg=5, max_terms=8))
    p = tuple(data.draw(st.lists(st.integers(-24, 24), min_size=n, max_size=n)))
    p = tuple(c / 8 for c in p)
    k = data.draw(st.integers(1, 6))
    got = taylor_jet(f, p, k)
    assert got == Jet(p, k, _sympy_jet(_to_sympy(f), p, k))
    assert got.basepoint == tuple(Fraction(c) for c in p) and got.order == k
    assert all(type(c) is Fraction for c in got.basepoint + tuple(got.terms.values()))


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


def _sympy_mask_sum(pts, reps, k):
    """sum_j R_j (1 - (1 - phi_j^k)^k) expanded in sympy from
    phi_j = prod_{i != j} |x - p_i|^2 / |p_j - p_i|^2, as a term dict."""
    xs = _gens(len(pts[0]))
    want = sympy.Poly(0, *xs, domain=sympy.QQ)
    for j, (p, rep) in enumerate(zip(pts, reps)):
        phi = sympy.Poly(1, *xs, domain=sympy.QQ)
        for i, q in enumerate(pts):
            if i != j:
                num = sum((x - sympy.Rational(str(c))) ** 2 for x, c in zip(xs, q))
                den = sum(sympy.Rational(str(a - c)) ** 2 for a, c in zip(p, q))
                phi *= sympy.Poly(num, *xs, domain=sympy.QQ) * (1 / den)
        want += _to_sympy(rep) * (1 - (1 - phi ** k) ** k)
    return _from_sympy(want)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_interp_kernel_matches_sympy(data):
    # sum_j R_j (1 - (1 - phi_j^k)^k) for arbitrary rational R_j, expanded in
    # sympy from phi_j = prod_{i != j} |x - p_i|^2 / |p_j - p_i|^2
    from equimorse import polynomials as P

    # three variables at d <= 2 reach lengths where a packed last stride
    # beats the box strides (_transform_plan)
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3 if n < 3 else 2))
    k = data.draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    pts = data.draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d,
                             unique=True))
    reps = data.draw(_polys(n, d, maxdeg=2, max_terms=4))
    got = P._interp_ntt(pts, reps, k)
    assert got is not None and got.terms == _sympy_mask_sum(pts, reps, k)


def test_interp_kernel_packed_stride_matches_sympy():
    # two points in 3 variables at k = 2, representatives of degree 2 in
    # each variable and total degree 2: 1,331 box slots, 286 within total
    # degree 10, apart in 2^10 points with a searched last stride where the
    # box strides need 2^11
    from equimorse import polynomials as P

    pts = [(Fraction(1, 2), Fraction(-1), Fraction(0)),
           (Fraction(2), Fraction(1, 3), Fraction(-3, 4))]
    reps = [Polynomial(3, {(2, 0, 0): 3, (0, 2, 0): Fraction(-1, 2),
                           (0, 0, 2): 1, (1, 0, 1): 2, (0, 0, 0): -5}),
            Polynomial(3, {(0, 2, 0): Fraction(2, 3), (2, 0, 0): 1,
                           (0, 0, 2): -4, (0, 1, 0): 1})]
    size, strides = P._transform_plan((11, 11, 11), 10)
    assert size == 1 << 10 and strides[:2] == (1, 11) and strides[2] != 121
    got = P._interp_ntt(pts, reps, 2)
    assert got.terms == _sympy_mask_sum(pts, reps, 2)


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


# -- the Taylor-shift kernel against the per-term shift ------------------------


def _taylor_reference(f, point, k):
    """taylor_jet by the per-term shift: one variable at a time on the
    numerators, a dict lookup, a tuple concatenation and a product per
    (term, b) pair."""
    n = f.nvars
    p = [Fraction(x) for x in point]
    v = math.lcm(*(x.denominator for x in p))
    us = [int(x * v) for x in p]
    terms = f.num
    maxdeg = [max(col) for col in zip(*terms)] if terms else [0] * n
    for i in range(n):
        u, D = us[i], maxdeg[i]
        upows, vpows = [1], [1]
        for _ in range(D):
            upows.append(upows[-1] * u)
            vpows.append(vpows[-1] * v)
        factors = [
            [(b, math.comb(a, b) * upows[a - b] * vpows[D - a + b])
             for b in range(min(a, k - 1) + 1) if u or a == b]
            for a in range(D + 1)
        ]
        out = {}
        for e, c in terms.items():
            room = k - sum(e[:i])
            head, tail = e[:i], e[i + 1:]
            for b, fac in factors[e[i]]:
                if b >= room:
                    break
                key = head + (b,) + tail
                out[key] = out.get(key, 0) + c * fac
        terms = out
    den = f.den * v ** sum(maxdeg)
    return Jet(p, k, {e: Fraction(c, den) for e, c in terms.items() if c})


def _as_polynomial_reference(jet):
    """sum c_a (x - p)^a expanded by Polynomial products."""
    n = jet.nvars
    total = Polynomial.zero(n)
    for e, c in jet.terms.items():
        mono = Polynomial.constant(n, c)
        for i, k in enumerate(e):
            if k:
                mono = mono * (Polynomial.variable(n, i) - jet.basepoint[i]) ** k
        total = total + mono
    return total


def _transport_reference(jet, act, s):
    """transport_jet by the round trip: expand the representative,
    substitute the inverse matrix, take the Taylor jet at s·p."""
    moved = _as_polynomial_reference(jet).substitute_linear(
        act.matrices[act.group.inverse[s]])
    return _taylor_reference(moved, act.apply(s, jet.basepoint), jet.order)


# zero, negative and fractional coordinates; coefficients past 2^300
_COORD = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
_COEFF = st.one_of(_FRAC, st.builds(Fraction, st.integers(-(2 ** 320), 2 ** 320),
                                    st.integers(1, 9)))


@st.composite
def _shift_cases(draw):
    # 1 to 5 variables (5 packs the widest row keys), k from 1 to 6, and
    # partial degrees up to k + 2
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 6))
    expo = st.tuples(*[st.integers(0, k + 2)] * n)
    f = Polynomial(n, draw(st.dictionaries(expo, _COEFF, max_size=8)))
    return f, tuple(draw(st.lists(_COORD, min_size=n, max_size=n))), k


@hypothesis.seed(2030)
@settings(max_examples=120, deadline=None)
@given(_shift_cases())
@example((Polynomial(3, {}), (Fraction(1, 2), Fraction(0), Fraction(-2)), 4))
@example((Polynomial(2, {(0, 0): 2 ** 301 + 1}), (Fraction(-3, 5), Fraction(0)), 1))
@example((Polynomial(5, {(6, 0, 7, 1, 0): Fraction(2 ** 310, 3), (0, 0, 0, 0, 0): -1,
                         (2, 9, 0, 0, 6): 5}),
          tuple(Fraction(c, 2) for c in (1, -3, 0, 5, -1)), 6))
def test_taylor_shift_matches_the_per_term_shift(case):
    f, p, k = case
    got = taylor_jet(f, p, k)
    assert got == _taylor_reference(f, p, k) == oracle_jet(f, p, k)


def test_taylor_shift_row_keys_past_int64():
    # off x0 the exponent ranges are 2^16 + 1, 2^16, 2^16 and 2^16, and two
    # rows differ by 2^16 in x1 only: unranked, their packed keys would both
    # wrap to the same int64 and the rows would merge (coordinates in
    # {-1, 0, 1} keep the powers in the factor tables small)
    from equimorse import polynomials as P

    M = (1 << 16) - 1
    f = Polynomial(5, {(0, 0, M, M, M): 3, (0, M + 1, M, M, M): -2,
                       (1, 1, 0, 0, 2): 7, (0, 0, 0, 0, 0): 1})
    assert (M + 2) * (M + 1) ** 3 > P._KEY_SPAN
    for p in [(1, -1, 1, -1, 1), (-1, 1, 0, 1, -1)]:
        assert taylor_jet(f, p, 3) == oracle_jet(f, p, 3)


def test_taylor_shift_of_a_sparse_high_power():
    # x^65536 at 2 to order 3 is sum_b C(65536, b) 2^(65536 - b) y^b; the
    # peak stays small only when the factor table has a row for the one
    # exponent present, not for every exponent up to 65536
    import tracemalloc

    f = Polynomial(1, {(65536,): 1})
    tracemalloc.start()
    try:
        jet = taylor_jet(f, (2,), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jet.terms == {(b,): math.comb(65536, b) * 2 ** (65536 - b) for b in range(3)}
    assert peak < 10 * 2**20


@pytest.mark.parametrize("span", [2, 64, 1 << 20])
def test_taylor_shift_ranks_keys_at_any_span(span):
    # a tiny key span ranks the key before every column: the same jets
    from equimorse import polynomials as P

    rng = random.Random(span)
    with mock.patch.object(P, "_KEY_SPAN", span):
        for n in (2, 3, 5):
            f = random_poly(rng, n, 9, nterms=40)
            for k in (1, 3, 6):
                p = random_point(rng, n)
                assert taylor_jet(f, p, k) == _taylor_reference(f, p, k)


@st.composite
def _jets(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    terms = draw(st.dictionaries(st.sampled_from(all_indices_below(n, k)), _COEFF,
                                 max_size=10)) if k else {}
    return Jet(tuple(draw(st.lists(_COORD, min_size=n, max_size=n))), k, terms)


@hypothesis.seed(2031)
@settings(max_examples=80, deadline=None)
@given(_jets())
def test_as_polynomial_matches_the_product_expansion(jet):
    rep = jet.as_polynomial()
    assert rep == _as_polynomial_reference(jet)
    assert taylor_jet(rep, jet.basepoint, jet.order) == jet


@pytest.mark.parametrize("act", [_SIGN, LinearAction.sign_c2(2), _S3, _C3],
                         ids=["sign_c2", "sign_c2-dim2", "permutation_s3",
                              "rational-c3"])
def test_transport_jet_matches_the_round_trip(act):
    # the transported terms are the jet's own terms under A_{s^-1}: the
    # same jet as expanding, substituting and re-truncating, also for the
    # non-orthogonal C3 in the basis [[0, -1], [1, -1]]
    rng = random.Random(act.dim * 7 + act.group.order)
    for k in range(1, 5):
        for _ in range(3):
            p = random_point(rng, act.dim)
            jet = random_jet(rng, p, k)
            for s in act.group.elements():
                got = transport_jet(jet, act, s)
                assert got == _transport_reference(jet, act, s)
                assert got.basepoint == act.apply(s, p) and got.order == k


# -- the exact layer's golden ----------------------------------------------------
#
# exact_outputs.json holds, for jet_interpolate on every INTERP_MIX shape and
# equivariant_jet_lift on every S3 and sign case of the benchmark generators
# (bench/gen.py, passes 0 of seeds 1 and 2) and on the seeded free-point
# jets of the non-orthogonal rational actions, the sha256 of the output's
# to_records(), of its exponents in num's iteration order, and its term
# count.  The benchmark checks only the jets, which another valid
# interpolant would also pass; the golden pins the polynomials themselves.
# It was written once, from a commit whose outputs the oracles above check;
# regenerate it (`python tests/test_polynomials.py --write`, with equimorse
# importable) only when an output is meant to change.

EXACT_PATH = Path(__file__).resolve().parent / "exact_outputs.json"
GOLDEN_SEEDS = (1, 2)


def _bench_gen():
    """bench/gen.py, which imports nothing from equimorse."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    return gen


def _exact_cases():
    """(key, call) for every golden case; call() returns the polynomial."""
    gen = _bench_gen()
    templates = gen.interp_templates()
    acts = {"sign": LinearAction.sign_c2(1), "s3": LinearAction.permutation_s3()}
    out = []
    for seed in GOLDEN_SEEDS:
        ops = gen.interp_pass(gen.pass_rng("interp", seed, 0), templates)
        for i, (_, size, pts, jets) in enumerate(ops):
            k = size[2]
            out.append((f"interp seed {seed} op {i} {list(size)}",
                        lambda pts=pts, jets=jets, k=k: jet_interpolate(
                            pts, [Jet(p, k, t) for p, t in zip(pts, jets)], k)))
        ops = gen.lift_pass(gen.pass_rng("lift", seed, 0))
        for i, (_, name, p, terms, k, obstructed) in enumerate(ops):
            if not obstructed:
                out.append((f"lift seed {seed} op {i} {name} k={k}",
                            lambda name=name, p=p, terms=terms, k=k: equivariant_jet_lift(
                                p, Jet(p, k, terms), acts[name], k)))
    for name, (act, k) in _NON_ORTHOGONAL_LIFTS.items():
        for i, jet in enumerate(_free_point_jets(act, k)):
            out.append((f"lift seed 41 {name} jet {i}",
                        lambda jet=jet, act=act, k=k: equivariant_jet_lift(
                            jet.basepoint, jet, act, k)))
    return out


def _fingerprint(f: Polynomial) -> dict:
    def digest(x):
        return hashlib.sha256(json.dumps(x).encode()).hexdigest()

    return {"records": digest(f.to_records()), "order": digest(list(f.num)),
            "terms": len(f.num)}


def exact_outputs() -> dict:
    return {key: _fingerprint(call()) for key, call in _exact_cases()}


def test_exact_outputs_match_the_golden():
    golden = json.loads(EXACT_PATH.read_text())
    cases = _exact_cases()
    assert [key for key, _ in cases] == list(golden)
    for key, call in cases:
        assert _fingerprint(call()) == golden[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_polynomials.py --write")
    EXACT_PATH.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                              for k, v in exact_outputs().items()) + "\n}\n")
