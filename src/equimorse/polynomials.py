"""Exact multivariate polynomial arithmetic, truncated Taylor jets, bump
polynomial jet interpolation, and equivariant averaging/lifting.

A Polynomial stores integer numerators over one positive denominator, in
lowest terms: the gcd of the denominator and all numerators is 1 (the
content/primitive-part form of von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 6).  Equal polynomials therefore have equal fields, and == and
hash are structural.  Coefficients and points are exact rationals; a float
given as either is the binary rational it denotes, so 0.3 reads as
Fraction(0.3).  Floats enter only at the Morse layer's PolyTable, which
rounds each num / den once.

Sums combine numerators over the lcm of the denominators.  Every product is
one call to _imul, the direct term-pair loop on the numerators, over the
product of the denominators.  Taylor jets shift one variable at a time on
the numerators, and a signed permutation substitutes by an exponent remap.

Exact jet interpolation multiplies no polynomials: _interp_ntt writes the
whole interpolant sum_j R_j (1 - (1 - phi_j^k)^k) over one integer
denominator and evaluates it at the points of a multi-prime
number-theoretic transform in numpy, modulo as many primes below 2^31 as a
bound on its coefficients needs.  The variables are transformed once per
prime, every bump, mask and jet representative is a pointwise value, and
one inverse transform per prime and one CRT (_crt) rebuild it; see von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5 and 8.  The transform is
cyclic, with a length and Kronecker strides (_transform_plan) that need
only keep apart the monomials within the interpolant's total degree: the
degree box's strides where they do, else a searched last stride.  numpy
is imported only when an interpolant first takes the transform.  When the
bound needs more primes than the table holds, or the degree box more than
2^22 points, the kernel returns None and the interpolant is summed from
expanded masks.
The bumps measure distance in a positive definite integer form Q: the
standard one for jet_interpolate, and for a lift the invariant form of the
action (LinearAction.form), so a lift takes any rational action.  It
averages the jet representatives over the group and then interpolates
once.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from fractions import Fraction

from .groups import FiniteGroup, Subgroup, left_cosets

__all__ = [
    "DuplicatePoints",
    "Jet",
    "JetNotFixed",
    "LinearAction",
    "Polynomial",
    "bump_poly",
    "equivariant_average",
    "equivariant_jet_lift",
    "jet_interpolate",
    "taylor_jet",
    "transport_jet",
]


class DuplicatePoints(ValueError):
    """Interpolation points must be pairwise distinct."""


class JetNotFixed(ValueError):
    """A jet must be fixed by the basepoint's stabilizer to lift."""


def _real(c):
    """c as a Fraction, or as a float when it is a float (numpy's too): the
    entries of a LinearAction, whose float matrices are Morse-layer
    geometry, and the points it moves."""
    t = type(c)
    if t is Fraction or t is float:
        return c
    if t is int:
        return Fraction(c)
    if isinstance(c, numbers.Integral):
        return Fraction(int(c))
    if isinstance(c, numbers.Real) and not isinstance(c, numbers.Rational):
        return float(c)
    return Fraction(c)


def _coerce(c) -> Fraction:
    """c as a Fraction; a float is the binary rational it denotes."""
    c = _real(c)
    return c if type(c) is Fraction else Fraction(c)


# -- products of numerator dicts ---------------------------------------------


def _imul(A: dict, B: dict) -> dict:
    """Product of two exponent -> numerator dicts, by the direct term-pair
    loop; cancelled terms are left out."""
    out: dict = {}
    get = out.get
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(map(sum, zip(ea, eb)))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _icontent_reduce(T: dict, den: int) -> tuple[dict, int]:
    """Lowest terms: divide out the gcd of all numerators and the denominator."""
    if not T or den == 1:
        return T, 1
    g = math.gcd(den, *T.values())
    if g == 1:
        return T, den
    return {e: c // g for e, c in T.items()}, den // g


# -- the number-theoretic transform -------------------------------------------

# NTT primes p < 2^31 with 2^22 dividing p - 1, each with a primitive root,
# largest first: about 905 bits of modulus, transforms up to 2^22 points
_NTT_PRIMES = (
    (2130706433, 3), (2113929217, 5), (2088763393, 5), (2025848833, 10),
    (2013265921, 31), (1866465281, 3), (1811939329, 13), (1790967809, 13),
    (1711276033, 29), (1572864001, 13), (1484783617, 5), (1438646273, 3),
    (1321205761, 11), (1300234241, 3), (1224736769, 3), (1212153857, 3),
    (1161822209, 3), (1107296257, 10), (998244353, 3), (985661441, 3),
    (943718401, 7), (935329793, 3), (918552577, 5), (897581057, 3),
    (880803841, 26), (754974721, 11), (683671553, 3), (666894337, 5),
    (645922817, 3), (595591169, 3),
)
_NTT_MAX_LOG = 22


def _ntt_primes_for(bound: int) -> list:
    """The fewest leading NTT primes whose product exceeds bound, or None
    when all of them together do not."""
    primes, M = [], 1
    for p, g in _NTT_PRIMES:
        primes.append((p, g))
        M *= p
        if M > bound:
            return primes
    return None


def _ntt_roots(p: int, w: int, n: int):
    """w^j mod p for j < n/2, built by doubling."""
    import numpy as np

    t = np.ones(1, np.uint64)
    while len(t) < n // 2:
        t = np.concatenate((t, t * np.uint64(pow(w, len(t), p)) % np.uint64(p)))
    return t


def _ntt_stages(a, out, p, roots, inverse, scratch):
    """Radix-2 NTT of a (length n = 2^L, values in [0, p)) into out.

    Forward is decimation in frequency: natural order in, a permuted
    (blocked bit-reversed) order out.  Inverse is decimation in time with
    inverse roots, reading that order and writing natural order, not yet
    divided by n.  Butterflies pairing elements less than c = 2^ceil(L/2)
    apart run on the array transposed to (c, n/c), so every numpy loop is at
    least n/c long.  a is overwritten too; scratch is three arrays of length
    n/2.
    """
    import numpy as np

    s, d, q = scratch
    n = len(a)
    c = 1 << (n.bit_length() // 2)
    P = np.uint64(p)
    hs = [1 << i for i in range(n.bit_length() - 1)]
    if not inverse:
        hs.reverse()
    for h in hs:
        if h == c // 2 and not inverse:
            out.reshape(c, n // c)[...] = a.reshape(n // c, c).T
            a = out
        if h == c and inverse:
            out.reshape(n // c, c)[...] = a.reshape(c, n // c).T
            a = out
        w = roots[:: n // (2 * h)]
        if h < c:
            v = a.reshape(-1, 2, h, n // c)
            w = w[:, None]
        else:
            v = a.reshape(-1, 2, h)
        x, y = v[:, 0], v[:, 1]
        vs, vd, vq = (t.reshape(x.shape) for t in (s, d, q))
        if inverse:
            # t = y w;  x, y = x + t, x - t
            np.multiply(y, w, out=vd)
            np.floor_divide(vd, P, out=vq)
            np.multiply(vq, P, out=vq)
            np.subtract(vd, vq, out=vd)
            np.add(x, P, out=vs)
            np.subtract(vs, vd, out=vs)
            np.subtract(vs, P, out=vq)
            np.minimum(vs, vq, out=y)  # the wrapped s - p is larger when s < p
            np.add(x, vd, out=vs)
        else:
            # x, y = x + y, (x - y) w
            np.add(x, P, out=vd)
            np.subtract(vd, y, out=vd)
            np.add(x, y, out=vs)
            np.multiply(vd, w, out=vd)
            np.floor_divide(vd, P, out=vq)
            np.multiply(vq, P, out=vq)
            np.subtract(vd, vq, out=y)
        np.subtract(vs, P, out=vq)
        np.minimum(vs, vq, out=x)
    if a is not out:  # an inverse of length 2 never transposes
        out[...] = a


def _crt(residues, primes, slots, rad) -> dict:
    """Exponent tuple -> integer c with |c| < M/2 (M the product of the
    primes), from residues with one row per prime and one column per slot
    of the degree box of radices rad, slots[i] being column i's slot.

    Each c is rebuilt from Garner's mixed-radix digits,
    c = v_0 + v_1 p_0 + v_2 p_0 p_1 + ..., and a signed lift; a slot is zero
    exactly when all its residues are, and is left out.
    """
    import numpy as np

    hit = residues.any(axis=0)
    res = residues[:, hit].astype(np.uint64)
    digits = []
    for r, (p, _) in enumerate(primes):
        P = np.uint64(p)
        t = res[r]
        for (pj, _), v in zip(primes, digits):
            t = (t + P - v % P) * np.uint64(pow(pj, p - 2, p)) % P
        digits.append(t)
    coeffs = np.zeros(res.shape[1], dtype=object)
    for v, (p, _) in zip(reversed(digits), reversed(primes)):
        coeffs = coeffs * p + v.astype(object)
    M = math.prod(p for p, _ in primes)
    coeffs = np.where(coeffs > M // 2, coeffs - M, coeffs)
    slots, cols = slots[hit], []
    for r in rad:
        slots, e = np.divmod(slots, r)
        cols.append(e.tolist())
    return dict(zip(zip(*cols), coeffs.tolist()))


# -- polynomials -----------------------------------------------------------


class Polynomial:
    """Sparse polynomial: numerators num (exponent tuple -> nonzero int) over
    one denominator den > 0, with gcd(den, every numerator) == 1.

    Coefficients are read as exact rationals (a float as the binary
    rational it denotes).  terms is the public exponent -> Fraction view,
    built on each access; library code works on num and den.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        for e, c in (terms or {}).items():
            c = _coerce(c)
            if c:
                clean[tuple(e)] = c
        self.nvars = nvars
        # over the lcm of reduced denominators no common factor is left
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.num = {e: c.numerator * (den // c.denominator)
                    for e, c in clean.items()}
        self.den = den

    @classmethod
    def _make(cls, nvars: int, num: dict, den: int) -> "Polynomial":
        """Internal constructor: zero-free num over den, put in lowest terms."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.num, self.den = _icontent_reduce(num, den)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._make(nvars, {}, 1)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls._make(nvars, {tuple(e): 1}, 1)

    @property
    def terms(self) -> dict:
        """exponent tuple -> Fraction coefficient; a new dict on every
        access."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(e) for e in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.num.items())))

    def _other(self, other) -> "Polynomial":
        """other, a Polynomial in as many variables or a constant, as a
        Polynomial."""
        if not isinstance(other, Polynomial):
            return Polynomial.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return other

    def __add__(self, other):
        b = self._other(other)
        den = math.lcm(self.den, b.den)
        sa, sb = den // self.den, den // b.den
        out = {e: c * sa for e, c in self.num.items()}
        get = out.get
        for e, c in b.num.items():
            s = get(e, 0) + c * sb
            if s:
                out[e] = s
            else:
                del out[e]
        return Polynomial._make(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make(
            self.nvars, {e: -c for e, c in self.num.items()}, self.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._other(other)
        return Polynomial._make(self.nvars, _imul(self.num, b.num), self.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.constant(self.nvars, 1) if result is None else result

    def __call__(self, point):
        return self.evaluate(point)

    def evaluate(self, point) -> Fraction:
        point = [_coerce(x) for x in point]
        return sum((c * math.prod(x**k for x, k in zip(point, e))
                    for e, c in self.terms.items()), Fraction(0))

    def derivative(self, i: int) -> "Polynomial":
        out = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
               for e, c in self.num.items() if e[i]}
        return Polynomial._make(self.nvars, out, self.den)

    def substitute_linear(self, matrix) -> "Polynomial":
        """f(A x): substitute x_i -> sum_j A[i][j] x_j.

        Signed permutation matrices (every exact group action in the
        fixtures) reduce to an exponent remap, which keeps transport of the
        large interpolation masks cheap: x_i -> s_i x_c(i) moves exponent i
        to c(i) and negates a term whose exponents on the negated
        coordinates have odd sum.  Content and denominator are unchanged, so
        the image is already in lowest terms.
        """
        n = self.nvars
        sp = _signed_permutation(matrix, n)
        if sp is not None:
            num = self.num
            inv = [0] * n
            for i, (col, _) in enumerate(sp):
                inv[col] = i
            keys = (num.keys() if inv == list(range(n))
                    else map(operator.itemgetter(*inv), num))
            vals = num.values()
            neg = [i for i, (_, s) in enumerate(sp) if s < 0]
            if neg:
                odd = map(operator.itemgetter(*neg), num)
                if len(neg) > 1:
                    odd = map(sum, odd)
                vals = [-c if o & 1 else c for c, o in zip(vals, odd)]
            out = object.__new__(Polynomial)
            out.nvars, out.num, out.den = n, dict(zip(keys, vals)), self.den
            return out
        lin = [
            Polynomial(n, {tuple(1 if j == k else 0 for k in range(n)): matrix[i][j]
                           for j in range(n) if matrix[i][j]})
            for i in range(n)
        ]
        maxdeg = [0] * n
        for e in self.num:
            maxdeg = [max(a, b) for a, b in zip(maxdeg, e)]
        pows = []
        for i in range(n):
            pi = [Polynomial.constant(n, 1)]
            for _ in range(maxdeg[i]):
                pi.append(pi[-1] * lin[i])
            pows.append(pi)
        total = Polynomial.zero(n)
        for e, c in self.num.items():
            term = Polynomial._make(n, {(0,) * n: c}, self.den)
            for i, k in enumerate(e):
                if k:
                    term = term * pows[i][k]
            total = total + term
        return total

    def to_records(self) -> list:
        """Serializable form: [exponents, numerator, denominator] triples in
        lowest terms, sorted by exponent."""
        terms = self.terms
        return [[list(e), terms[e].numerator, terms[e].denominator]
                for e in sorted(terms)]

    @classmethod
    def from_records(cls, nvars: int, records) -> "Polynomial":
        """The polynomial of [exponents, numerator, denominator] records:
        nvars nonnegative integer exponents, not repeated, and an integer
        numerator over a nonzero integer denominator, or a finite number
        over 0, which is the binary rational that number denotes.  Anything
        else raises ValueError."""
        terms = {}
        for rec in records:
            try:
                expo, num, den = rec
                ok = (len(expo) == nvars and type(den) is int
                      and all(type(x) is int and x >= 0 for x in expo)
                      and tuple(expo) not in terms
                      and (type(num) is int if den else
                           type(num) in (int, float) and math.isfinite(num)))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"bad polynomial record {rec!r}")
            terms[tuple(expo)] = Fraction(num, den) if den else Fraction(num)
        return cls(nvars, terms)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "Polynomial(0)"
        bits = []
        for e in sorted(terms)[:6]:
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            bits.append(f"{terms[e]}{'*' + mono if mono else ''}")
        more = " + ..." if len(terms) > 6 else ""
        return f"Polynomial({' + '.join(bits)}{more})"


def _signed_permutation(matrix, n):
    """Rows of a signed permutation matrix as (column, sign) pairs, else None."""
    out = []
    for i in range(n):
        hit = None
        for j in range(n):
            v = matrix[i][j]
            if v:
                if hit is not None or v not in (1, -1):
                    return None
                hit = (j, 1 if v > 0 else -1)
        if hit is None:
            return None
        out.append(hit)
    if len({c for c, _ in out}) != n:
        return None
    return out


def _squares(Q, n: int) -> list:
    """x^T Q x for a symmetric integer matrix Q (None: the identity) as
    sum_r w_r (sum_{m in I_r} x_m)^2, a list of (I_r, w_r): (m,) weighted
    Q_mm - sum_{l != m} Q_ml, and (m, l) weighted Q_ml for m < l."""
    if Q is None:
        return [((m,), 1) for m in range(n)]
    out = [((m,), Q[m][m] - sum(Q[m][l] for l in range(n) if l != m))
           for m in range(n)]
    out += [((m, l), Q[m][l]) for m in range(n) for l in range(m + 1, n)
            if Q[m][l]]
    return [(idx, w) for idx, w in out if w]


def _form_value(squares, x) -> Fraction:
    """|x|_Q^2 for the form given by its squares."""
    return sum((w * sum(x[m] for m in idx) ** 2 for idx, w in squares),
               Fraction(0))


def _form_poly(nvars: int, center, squares) -> Polynomial:
    """|x - center|_Q^2 as a polynomial, for the form given by its squares."""
    total = Polynomial.zero(nvars)
    for idx, w in squares:
        lin = sum((Polynomial.variable(nvars, m) - center[m] for m in idx),
                  Polynomial.zero(nvars))
        total = total + lin * lin * w
    return total


# -- jets -------------------------------------------------------------------


class Jet:
    """Order-k Taylor data at a basepoint: multi-indices of total degree < k,
    with an exact basepoint and exact coefficients (floats read as the
    binary rationals they denote)."""

    __slots__ = ("basepoint", "order", "terms")

    def __init__(self, basepoint, order: int, terms: dict | None = None):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.basepoint = tuple(_coerce(x) for x in basepoint)
        self.order = order
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if sum(e) >= order:
                raise ValueError(f"multi-index {e} has degree >= order {order}")
            c = _coerce(c)
            if c:
                clean[e] = c
        self.terms = clean

    @property
    def nvars(self) -> int:
        return len(self.basepoint)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.basepoint, self.order, self.terms) == (
            other.basepoint, other.order, other.terms)

    def __repr__(self):
        return f"Jet(at {self.basepoint}, order {self.order}, {len(self.terms)} terms)"

    def as_polynomial(self) -> Polynomial:
        """The representative sum c_a (x - p)^a, expanded."""
        n = self.nvars
        total = Polynomial.zero(n)
        for e, c in self.terms.items():
            mono = Polynomial.constant(n, c)
            for i, k in enumerate(e):
                if k:
                    xi = Polynomial.variable(n, i) - self.basepoint[i]
                    mono = mono * xi**k
            total = total + mono
        return total


def taylor_jet(f: Polynomial, point, k: int) -> Jet:
    """The degree-k Taylor expansion of f about the point: f mod m_p^k.

    Coefficient of (x-p)^b is sum over terms a >= b of
    f_a * prod binom(a_i, b_i) * p^(a-b), exactly.

    The shift runs one variable at a time on the integer numerators of f,
    so extracting jets from the large interpolation outputs stays fast.
    """
    n = f.nvars
    p = [_coerce(x) for x in point]
    v = math.lcm(*(x.denominator for x in p))
    us = [int(x * v) for x in p]
    terms = f.num
    maxdeg = [max(col) for col in zip(*terms)] if terms else [0] * n
    # with p_i = u_i / v, substitute x_i = p_i + y_i one variable at a time,
    # x_i^a = v^-D_i * sum_b C(a,b) u_i^(a-b) v^(D_i-(a-b)) y_i^b for
    # a <= D_i, and drop each b whose partial degree reaches k
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
        get = out.get
        for e, c in terms.items():
            room = k - sum(e[:i])
            head, tail = e[:i], e[i + 1:]
            for b, fac in factors[e[i]]:
                if b >= room:
                    break
                key = head + (b,) + tail
                out[key] = get(key, 0) + c * fac
        terms = out
    den = f.den * v ** sum(maxdeg)
    return Jet(p, k, {e: Fraction(c, den) for e, c in terms.items() if c})


# -- bump interpolation ------------------------------------------------------


def _check_distinct(points):
    pts = [tuple(_coerce(x) for x in p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise DuplicatePoints(f"points {i} and {j} coincide")
    return pts


def bump_poly(points, j: int) -> Polynomial:
    """phi_j(x) = prod_{i != j} ||x - p_i||^2 / ||p_j - p_i||^2.

    Equal to 1 at p_j, 0 at every other p_i, of degree exactly 2(d-1).
    """
    pts = _check_distinct(points)
    return _bump(pts, j, _squares(None, len(pts[0])))


def _bump(pts, j: int, squares) -> Polynomial:
    """bump_poly at distinct exact points with |.|_Q in place of ||.||, Q
    given by its squares (see _squares)."""
    n = len(pts[0])
    out = Polynomial.constant(n, 1)
    for i, p in enumerate(pts):
        if i == j:
            continue
        denom = _form_value(squares, [a - b for a, b in zip(pts[j], p)])
        out = out * _form_poly(n, p, squares) * (1 / denom)
    return out


def _mask(pts, j: int, k: int, squares) -> Polynomial:
    """1 - (1 - phi_j^k)^k: congruent to 1 mod m_{p_j}^k, and to 0 mod
    m_{p_i}^k at every other point, where phi_j^k vanishes to order 2k."""
    one = Polynomial.constant(len(pts[0]), 1)
    return one - (one - _bump(pts, j, squares) ** k) ** k


def _kept_slots(rad, top):
    """The slots of the degree box of radices rad whose exponents sum to at
    most top: their box indices, and their exponents as one array per
    variable."""
    import numpy as np

    nslots = math.prod(rad)
    rest, total = np.arange(nslots), np.zeros(nslots, np.int64)
    for r in rad:
        rest, e = np.divmod(rest, r)
        total += e
    keep = np.flatnonzero(total <= top)
    del rest, total
    rest, cols = keep, []
    for r in rad:
        rest, e = np.divmod(rest, r)
        cols.append(e)
    return keep, cols


def _slot_map(cols, strides, size):
    """sum_m strides[m] e_m mod size for the exponent columns cols."""
    import numpy as np

    out = np.zeros(len(cols[0]), np.int64)
    for e, s in zip(cols, strides):
        out += e * s
    return out & (size - 1)


def _last_stride(strides, top, size):
    """The smallest B in [1, size) at which sum_m strides[m] e_m + B e_last
    mod size separates every two monomials of total degree <= top in
    len(strides) + 1 variables whose last exponents differ, or None.

    Monomials e, e' with e'_last - e_last = d >= 1 collide iff
    d B = sum_m strides[m] x_m mod size, x the difference of their other
    exponents; those x are exactly the integer vectors with sum x+ <= top
    and sum x- <= top - d (the differences of slices 0 and d).  With
    reach[v] the largest d for which some such x takes the value v, B is
    valid iff reach[d B mod size] < d for every d in 1..top; all B are
    tested at once.
    """
    import numpy as np

    x = np.indices((2 * top + 1,) * len(strides)).reshape(len(strides), -1) - top
    pos = np.maximum(x, 0).sum(axis=0)
    neg = pos - x.sum(axis=0)
    ok = (pos <= top) & (neg < top)
    val = np.zeros(int(ok.sum()), np.int64)
    for xm, s in zip(x[:, ok], strides):
        val += xm * s
    reach = np.zeros(size, np.int64)
    np.maximum.at(reach, val & (size - 1), top - neg[ok])
    del x, pos, neg, ok, val
    step = np.arange(1, size)
    at, bad = step.copy(), np.zeros(size - 1, bool)
    for d in range(1, top + 1):
        bad |= reach[at] >= d
        at += step
        at &= size - 1
    valid = np.flatnonzero(~bad)
    return int(valid[0]) + 1 if len(valid) else None


@functools.lru_cache(maxsize=None)
def _transform_plan(rad: tuple, top: int) -> tuple:
    """(size, strides): a cyclic transform length and Kronecker strides
    under which the slots of the degree box rad within total degree top
    take distinct indices sum_m strides[m] e_m mod size.

    Lengths are powers of two from the first at least the slot count.  At
    each the box strides prod(rad[:m]) are tried first; when they collide,
    the last one is replaced by the smallest stride that _last_stride finds
    for the total degree, when its search space, (2 top + 1)^(n-1) values,
    is no larger than the box.  Either is confirmed on the kept slots.
    Memoized: the cache holds these ints only, never the slot arrays.
    """
    n = len(rad)
    keep, cols = _kept_slots(rad, top)
    box = [math.prod(rad[:m]) for m in range(n)]
    search = (2 * top + 1) ** (n - 1) <= math.prod(rad)
    size = 1 << max(len(keep) - 1, 1).bit_length()

    def distinct(strides):
        return len(set(_slot_map(cols, strides, size).tolist())) == len(keep)

    while True:
        if distinct(box):
            return size, tuple(box)
        if search:
            B = _last_stride(box[:-1], top, size)
            if B is not None and distinct(box[:-1] + [B]):
                return size, tuple(box[:-1] + [B])
        size *= 2


def _interp_ntt(points, reps, k: int, Q=None) -> Polynomial | None:
    """sum_j reps[j] * (1 - (1 - phi_j^k)^k), the bumps phi_j measured in the
    integer form Q (None: the standard one), evaluated in the transform
    domain.

    With Q_i = b_i^2 |x - p_i|_Q^2 (b_i the lcm of p_i's denominators),
    written as sum_r w_r (b_i L_r(x) - L_r(a_i))^2 over the squares of Q
    (_squares: L_r a sum of one or two variables, a_i = b_i p_i), the
    bump is phi_j = Psi_j / u_j, Psi_j = v_j prod_{i != j} Q_i, so the mask
    numerator N_j = u_j^(k^2) - (u_j^k - Psi_j^k)^k has integer
    coefficients and the sum is F / L, F = sum_j w_j R_j N_j over
    L = lcm_j(den R_j u_j^(k^2)).  Modulo each NTT prime the n variables
    are transformed once, as unit vectors at their Kronecker strides over
    the degree box of F (read off the powers of the root of unity in the
    transform's output order); L_r, Q_i, Psi_j, N_j, R_j and F are then
    pointwise values, and F takes one inverse transform.  The transform is
    cyclic, so its length need only keep apart the indices of the box
    points within F's total degree, which can be shorter than the box;
    _transform_plan picks the length and the strides, the last one packed
    by total degree where the box strides collide, and each kept slot is
    read at its index sum_m strides[m] e_m mod the length.
    One CRT over the fewest primes whose product exceeds twice the bound
    sum_j w_j |R_j|_1 (u_j^(k^2) + (u_j^k + |Psi_j|_1^k)^k) on the
    coefficients of F rebuilds it (|.|_1 is the sum of absolute values of
    the coefficients, and |Q_i|_1 <= sum_r |w_r| (b_i |I_r| + |L_r(a_i)|)^2).
    Returns None when that needs more primes, or a longer transform, than
    the table provides.
    """
    n, d, kk = len(points[0]), len(points), k * k
    squares = _squares(Q, n)
    b = [math.lcm(*(x.denominator for x in p)) for p in points]
    a = [[int(x * bi) for x in p] for p, bi in zip(points, b)]
    # L_r(a_i) for every point and square
    la = [[sum(ai[m] for m in idx) for idx, _ in squares] for ai in a]
    q_norm = [sum(abs(w) * (bi * len(idx) + abs(c)) ** 2
                  for (idx, w), c in zip(squares, lai)) for lai, bi in zip(la, b)]
    u, v, psi_norm = [], [], []
    for j, p in enumerate(points):
        others = [i for i in range(d) if i != j]
        c = math.prod((_form_value(squares, [b[i] * x - ai for x, ai in zip(p, a[i])])
                       for i in others), start=Fraction(1))
        u.append(c.numerator)
        v.append(c.denominator)
        psi_norm.append(c.denominator * math.prod(q_norm[i] for i in others))
    live = [j for j in range(d) if reps[j].num]
    if not live:
        return Polynomial.zero(n)
    L = math.lcm(*(reps[j].den * u[j] ** kk for j in live))
    w = {j: L // (reps[j].den * u[j] ** kk) for j in live}
    bound = sum(w[j] * sum(map(abs, reps[j].num.values()))
                * (u[j] ** kk + (u[j] ** k + psi_norm[j] ** k) ** k) for j in live)
    primes = _ntt_primes_for(2 * bound)
    rdeg = [max(e[m] for j in live for e in reps[j].num) for m in range(n)]
    rad = [2 * (d - 1) * kk + r + 1 for r in rdeg]
    nslots = math.prod(rad)
    if primes is None or nslots > 1 << _NTT_MAX_LOG:
        return None
    import numpy as np

    # only slots within the total degree of F can be nonzero, and the
    # transform need only keep those apart (see _transform_plan)
    top = 2 * (d - 1) * kk + max(sum(e) for j in live for e in reps[j].num)
    size, strides = _transform_plan(tuple(rad), top)
    keep, cols = _kept_slots(rad, top)
    slots = _slot_map(cols, strides, size)
    del cols
    # w_j R_j as its constant term and (variables, coefficient) pairs, the
    # variables of a monomial listed with multiplicity
    const = {j: w[j] * reps[j].num.get((0,) * n, 0) for j in live}
    terms = {j: [(tuple(m for m, em in enumerate(ex) for _ in range(em)), w[j] * c)
                 for ex, c in reps[j].num.items() if any(ex)] for j in live}
    half = size // 2
    # values below p < 2^31 are stored in 32 bits and multiplied in the
    # 64-bit work arrays; the transforms borrow psi and quo as scratch
    X = [np.empty(size, np.uint32) for _ in range(n)]
    # L_r is x_m itself for a square of one variable
    lin = [X[idx[0]] if len(idx) == 1 else np.empty(size, np.uint32)
           for idx, _ in squares]
    Qv = [np.empty(size, np.uint32) for _ in range(d)]
    acc, psi, t, quo, rh = (np.empty(size, np.uint64) for _ in range(5))
    scratch = (psi[:half], psi[half:], quo[:half])
    residues = np.empty((len(primes), len(keep)), np.uint32)
    P = None

    def mod(x):
        # x - (x // p) p: floor_divide by a scalar is far faster than
        # remainder in numpy
        np.floor_divide(x, P, out=quo)
        np.multiply(quo, P, out=quo)
        np.subtract(x, quo, out=x)

    def mulmod(x, y, out):
        # operands below 2p are fine: (2p)^2 < 2^64
        np.multiply(x, y, out=out)
        mod(out)

    def power(x, e, out):
        out[...] = x
        for _ in range(e - 1):
            mulmod(out, x, out)

    # slot s of a forward transform holds the value at w^order[s] for every
    # prime, so x_m transforms to w^(stride_m order[s]): read the exponents
    # off one transform of x_0 = X^1, then gather x_m from the powers of w
    p, g = primes[0]
    roots = _ntt_roots(p, pow(g, (p - 1) // size, p), size)
    acc[:] = 0
    acc[1] = 1
    _ntt_stages(acc, t, p, roots, False, scratch)
    np.concatenate((roots, np.uint64(p) - roots), out=acc)
    order = np.empty(size, np.uint32)
    order[np.argsort(t)] = np.argsort(acc)
    for r, (p, g) in enumerate(primes):
        P = np.uint64(p)
        roots = _ntt_roots(p, pow(g, (p - 1) // size, p), size)
        expo = quo.view(np.int64)
        for m in range(n):
            # w^e = -w^(e - size/2) for e >= size/2
            np.multiply(order, strides[m], out=expo, dtype=np.int64)
            np.bitwise_and(expo, size - 1, out=expo)
            neg = expo >= half
            np.bitwise_and(expo, half - 1, out=expo)
            np.take(roots, expo, out=t)
            np.subtract(P, t, out=t, where=neg)
            X[m][...] = t
        for (idx, _), Lr in zip(squares, lin):
            if len(idx) == 2:
                np.add(X[idx[0]], X[idx[1]], out=t, dtype=np.uint64)
                mod(t)
                Lr[...] = t
        for i in range(d):
            psi[:] = 0
            for (_, w), Lr, c in zip(squares, lin, la[i]):
                mulmod(Lr, np.uint64(b[i] % p), t)
                np.add(t, np.uint64(-c % p), out=t)
                mulmod(t, t, t)
                if w != 1:
                    mulmod(t, np.uint64(w % p), t)
                np.add(psi, t, out=psi)
            mod(psi)
            Qv[i][...] = psi
        acc[:] = 0
        for j in live:
            psi[:] = v[j] % p
            for i in range(d):
                if i != j:
                    mulmod(psi, Qv[i], psi)
            # N_j = u^(k^2) - (u^k - Psi^k)^k: the inner difference lies
            # below 2p, so the outer one below 3p
            power(psi, k, t)
            np.subtract(np.uint64(pow(u[j], k, p) + p), t, out=t)
            power(t, k, psi)
            np.subtract(np.uint64(pow(u[j], kk, p) + 2 * p), psi, out=psi)
            # w_j R_j: a product of two values below p is below 2^62, so
            # three of them are summed before each reduction
            rh[:] = const[j] % p
            for count, (seq, c) in enumerate(terms[j], 1):
                if len(seq) == 1:
                    np.multiply(X[seq[0]], np.uint64(c % p), out=t)
                else:
                    np.multiply(X[seq[0]], X[seq[1]], out=t, dtype=np.uint64)
                    mod(t)
                    for m in seq[2:]:
                        mulmod(t, X[m], t)
                    np.multiply(t, np.uint64(c % p), out=t)
                np.add(rh, t, out=rh)
                if count % 3 == 0:
                    mod(rh)
            mod(rh)
            mulmod(rh, psi, rh)
            np.add(acc, rh, out=acc)
        mod(acc)
        mulmod(acc, np.uint64(pow(size, p - 2, p)), acc)
        # w^-s = -w^(size/2 - s) for 0 < s < size/2, built in the half of
        # quo the transform leaves alone
        iroots = quo[half:]
        iroots[0] = 1
        np.subtract(P, roots[:0:-1], out=iroots[1:])
        _ntt_stages(acc, t, p, iroots, True, scratch)
        residues[r] = t[slots]
    del X, lin, Qv, acc, psi, t, quo, rh, scratch, expo, roots, iroots, slots
    return Polynomial._make(n, _crt(residues, primes, keep, rad), L)


def _interpolate(pts, reps, k: int, Q=None) -> Polynomial:
    """sum_j reps[j] * _mask(pts, j, k) with the bumps measured in the
    integer form Q (None: the standard one): through _interp_ntt when the
    kernel takes the case, else as a Polynomial sum."""
    out = _interp_ntt(pts, reps, k, Q)
    if out is not None:
        return out
    squares = _squares(Q, len(pts[0]))
    total = Polynomial.zero(len(pts[0]))
    for j, rep in enumerate(reps):
        total = total + rep * _mask(pts, j, k, squares)
    return total


def jet_interpolate(points, jets, k: int) -> Polynomial:
    """One polynomial whose degree-k Taylor expansion at each p_j matches the
    given jet there: f = sum_j f_j * (1 - (1 - phi_j^k)^k).

    Degree is at most (2d-2)k^2 + (k-1) for d points.  The sum goes
    through the transform-domain kernel _interp_ntt: one transform pass and
    one CRT for the whole sum, with the prime count taken from a bound on
    its coefficients.  A case past the kernel's prime table or transform
    length (where it returns None) sums each jet's representative times its
    expanded mask in Polynomial arithmetic.  Points and jets are exact (a
    float coordinate is the binary rational it denotes).
    """
    pts = _check_distinct(points)
    if len(jets) != len(pts):
        raise ValueError("one jet per point required")
    for p, jet in zip(pts, jets):
        if tuple(jet.basepoint) != tuple(p):
            raise ValueError("jet basepoint does not match its point")
        if jet.order > k:
            raise ValueError("jet order exceeds interpolation order")
    n = len(pts[0])
    if k == 0:
        return Polynomial.zero(n)
    if len(pts) == 1:
        return jets[0].as_polynomial()
    return _interpolate(pts, [jet.as_polynomial() for jet in jets], k)


# -- linear actions ----------------------------------------------------------


class LinearAction:
    """A representation of a finite group by n x n matrices.

    An exact action has rational (Fraction) matrices and is checked against
    the group law exactly; it need not be orthogonal.  It carries its
    invariant form: Q = sum_s A_s^T A_s divided by its content, a primitive
    positive definite integer matrix with A_s^T Q A_s = Q for every s (see
    Serre, Linear Representations of Finite Groups, 1.3).  Q is the
    identity exactly when the action is orthogonal.  Only exact actions
    enter the exact layer (equivariant_average, transport_jet,
    equivariant_jet_lift).

    An action with a float entry is geometry for the Morse layer (the
    rotations of order >= 3, float fixture actions, surgery blocks): its
    matrices are floats, and the law and orthogonality, which it must have,
    are checked to 1e-12.  It has no form.
    """

    TOL = 1e-12

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        mats = [tuple(tuple(_real(x) for x in row) for row in M) for M in matrices]
        self.exact = not any(type(x) is float for M in mats for row in M for x in row)
        if not self.exact:
            mats = [tuple(tuple(float(x) for x in row) for row in M) for M in mats]
        self.matrices = tuple(mats)
        if len(self.matrices) != group.order:
            raise ValueError("one matrix per group element required")
        self.dim = len(self.matrices[0]) if self.matrices else 0
        self._validate()

    def _validate(self):
        G = self.group
        tol = 0 if self.exact else self.TOL
        for M in self.matrices:
            if len(M) != self.dim or any(len(row) != self.dim for row in M):
                raise ValueError("matrices must be square of equal size")
        for a in G.elements():
            for b in G.elements():
                prod = _mat_mul_num(self.matrices[a], self.matrices[b])
                target = self.matrices[G.mul[a][b]]
                if not _mat_close(prod, target, tol):
                    raise ValueError(f"representation law fails on ({a},{b})")
        ident = _diagonal([1] * self.dim)
        if self.exact:
            # sum_s A_s^T A_s is a multiple of I exactly when every A_s is
            # orthogonal, since it is invariant under each of them
            Q = [[sum(M[t][i] * M[t][j] for M in self.matrices for t in range(self.dim))
                  for j in range(self.dim)] for i in range(self.dim)]
            den = math.lcm(*(x.denominator for row in Q for x in row))
            g = math.gcd(*(int(x * den) for row in Q for x in row))
            self.form = tuple(tuple(int(x * den) // g for x in row) for row in Q)
            self._orthogonal = self.form == ident
            return
        self.form = None
        for s, M in enumerate(self.matrices):
            if not _mat_close(_mat_mul_num(tuple(zip(*M)), M), ident, tol):
                raise ValueError(f"matrix for element {s} is not orthogonal")
        self._orthogonal = True

    # -- constructors --

    @classmethod
    def trivial(cls, group: FiniteGroup, dim: int) -> "LinearAction":
        return cls(group, [_diagonal([1] * dim)] * group.order)

    @classmethod
    def sign_c2(cls, dim: int = 1) -> "LinearAction":
        """C2 acting on R^dim by negation."""
        return cls(FiniteGroup.cyclic(2), [_diagonal([1] * dim), _diagonal([-1] * dim)])

    @classmethod
    def reflection_c2(cls, dim: int, axis: int) -> "LinearAction":
        """C2 on R^dim negating one coordinate."""
        ref = [-1 if i == axis else 1 for i in range(dim)]
        return cls(FiniteGroup.cyclic(2), [_diagonal([1] * dim), _diagonal(ref)])

    @classmethod
    def rotation_cn(cls, n: int) -> "LinearAction":
        """C_n rotating R^2 by multiples of 2*pi/n: float geometry for n >= 3
        (in a rational basis, e.g. [[0, -1], [1, -1]] for n = 3, the same
        rotations are an exact action)."""
        G = FiniteGroup.cyclic(n)
        mats = []
        for j in range(n):
            th = 2.0 * math.pi * j / n
            c, s = math.cos(th), math.sin(th)
            mats.append(((c, -s), (s, c)))
        if n in (1, 2):
            mats = [
                tuple(tuple(Fraction(round(x)) for x in row) for row in M)
                for M in mats
            ]
        return cls(G, mats)

    @classmethod
    def permutation_s3(cls) -> "LinearAction":
        """S3 permuting the coordinates of R^3 (matches FiniteGroup.symmetric(3))."""
        G = FiniteGroup.symmetric(3)
        perms = sorted(itertools.permutations(range(3)))
        # (A_p x)_{p(j)} = x_j, so A_p e_j = e_{p(j)} and A_p A_q = A_{p∘q}
        return cls(G, [[[int(p[j] == i) for j in range(3)] for i in range(3)]
                       for p in perms])

    @classmethod
    def block_sum(cls, actions: list["LinearAction"]) -> "LinearAction":
        """Direct sum of actions of the same group."""
        if not actions:
            raise ValueError("need at least one action")
        G = actions[0].group
        if any(a.group != G for a in actions):
            raise ValueError("all actions must share the group")
        dim = sum(a.dim for a in actions)
        mats = []
        for s in G.elements():
            M = [[0] * dim for _ in range(dim)]
            off = 0
            for a in actions:
                for i, row in enumerate(a.matrices[s]):
                    M[off + i][off:off + a.dim] = row
                off += a.dim
            mats.append(M)
        return cls(G, mats)

    # -- use --

    def apply(self, s: int, point):
        M = self.matrices[s]
        pt = [_real(x) for x in point]
        return tuple(
            sum(M[i][j] * pt[j] for j in range(self.dim)) for i in range(self.dim)
        )

    def is_orthogonal(self) -> bool:
        """Whether every matrix has M^T M = I, as found at construction:
        the form is the identity, or a float action (checked to 1e-12)."""
        return self._orthogonal

    def stabilizer(self, point, tol: float = 1e-9) -> Subgroup:
        pt = tuple(_real(x) for x in point)
        # float input points carry numerical noise even under exact actions
        exact_cmp = self.exact and not any(type(x) is float for x in pt)
        elems = []
        for s in self.group.elements():
            img = self.apply(s, pt)
            if (img == pt if exact_cmp else
                    all(abs(float(a) - float(b)) < tol for a, b in zip(img, pt))):
                elems.append(s)
        return Subgroup(self.group, tuple(elems))

    def orbit(self, point, tol: float = 1e-9):
        """One (coset representative, image point) pair per point of the orbit."""
        cosets = left_cosets(self.group, self.stabilizer(point, tol))
        return [(c[0], self.apply(c[0], point)) for c in cosets]


def _diagonal(d) -> tuple:
    """The diagonal integer matrix with diagonal d, as a tuple of rows."""
    return tuple(tuple(x if i == j else 0 for j in range(len(d)))
                 for i, x in enumerate(d))


def _mat_mul_num(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B))
                 for row in A)


def _mat_close(A, B, tol):
    if tol == 0:
        return A == B
    return all(abs(float(a) - float(b)) <= tol
               for ra, rb in zip(A, B) for a, b in zip(ra, rb))


# -- equivariant operations ---------------------------------------------------


def _need_exact(act: LinearAction):
    if not act.exact:
        raise ValueError("the exact layer needs an action by rational matrices")


def equivariant_average(f: Polynomial, act: LinearAction) -> Polynomial:
    """(1/|G|) sum_s f(A_s x): the projection onto invariant polynomials."""
    _need_exact(act)
    G = act.group
    total = Polynomial.zero(f.nvars)
    for s in G.elements():
        total = total + f.substitute_linear(act.matrices[s])
    return total * Fraction(1, G.order)


def transport_jet(jet: Jet, act: LinearAction, s: int) -> Jet:
    """The jet of f∘s^{-1} at s·p, for f any representative of the jet at p:
    substitute the inverse matrix into the representative and re-truncate."""
    _need_exact(act)
    G = act.group
    rep = jet.as_polynomial()
    moved = rep.substitute_linear(act.matrices[G.inverse[s]])
    return taylor_jet(moved, act.apply(s, jet.basepoint), jet.order)


def equivariant_jet_lift(point, jet: Jet, act: LinearAction, k: int) -> Polynomial:
    """Lift a stab(p)-fixed jet to a G-invariant polynomial with that jet,
    for any exact (rational) action.

    Raises JetNotFixed when a stabilizer element moves the jet, which is
    exactly the obstruction to lifting, and ValueError for a float action.

    The orbit p_j = s_j·p is G-stable, and the bumps measure distance in
    the action's invariant form Q (LinearAction.form), so |A_s y|_Q = |y|_Q
    and the mask at p_j composed with A_s is the mask at s^{-1}·p_j.  So the
    average of the interpolant of the transported jets is the interpolant
    of the averaged representatives R̄_j = (1/|G|) sum_s R_{s·p_j} ∘ A_s:
    the small representatives are averaged, and one _interpolate call (see
    jet_interpolate) builds the lift.  For an orthogonal action Q is the
    identity, and the masks are jet_interpolate's.
    """
    _need_exact(act)
    pt = tuple(_coerce(x) for x in point)
    if jet.basepoint != pt:
        raise ValueError("jet must be based at the given point")
    if jet.order > k:
        raise ValueError("jet order exceeds lift order")
    G = act.group
    H = act.stabilizer(pt)
    for h in H.elements:
        if h != G.identity and transport_jet(jet, act, h) != jet:
            raise JetNotFixed(
                f"stabilizer element {h} does not fix the jet; lift obstructed"
            )
    if k == 0:
        return Polynomial.zero(len(pt))
    cosets = left_cosets(G, H)
    heads = [c[0] for c in cosets]
    # s·p_j is the orbit point of the coset of s s_j
    coset = {g: i for i, c in enumerate(cosets) for g in c}
    reps = [transport_jet(jet, act, sj).as_polynomial() for sj in heads]
    avg = []
    for sj in heads:
        total = Polynomial.zero(len(pt))
        for s in G.elements():
            rep = reps[coset[G.mul[s][sj]]]
            total = total + rep.substitute_linear(act.matrices[s])
        avg.append(total * Fraction(1, G.order))
    if len(avg) == 1:
        return avg[0]
    pts = _check_distinct([act.apply(sj, pt) for sj in heads])
    return _interpolate(pts, avg, k, act.form)
