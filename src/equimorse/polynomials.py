"""Exact multivariate polynomial arithmetic, truncated Taylor jets, bump
polynomial jet interpolation, and equivariant averaging/lifting.

A Polynomial stores integer numerators over one positive denominator, in
lowest terms: the gcd of the denominator and all numerators is 1 (the
content/primitive-part form of von zur Gathen & Gerhard, Modern Computer
Algebra, ch. 6).  Equal polynomials therefore have equal fields, and == and
hash are structural.  Linear actions with irrational orthogonal matrices
(rotations of order >= 3) use a float backend: the same two fields with
float numerators over 1, and tolerance 1e-12 checks in place of exact
equality.  Arithmetic that mixes the two gives a float polynomial.

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
The equivariant lift averages the jet representatives over the group and
then interpolates once.
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
    "norm_squared_poly",
    "taylor_jet",
    "transport_jet",
]


class DuplicatePoints(ValueError):
    """Interpolation points must be pairwise distinct."""


class JetNotFixed(ValueError):
    """A jet must be fixed by the basepoint's stabilizer to lift."""


def _coerce(c):
    t = type(c)
    if t is Fraction or t is float:
        return c
    if t is int:
        return Fraction(c)
    if isinstance(c, numbers.Integral):
        return Fraction(int(c))
    if isinstance(c, numbers.Real):
        # numpy floats and friends stay inexact
        return float(c)
    return Fraction(c)


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

    On the float backend the numerators are floats and den is 1.  terms is
    the public exponent -> coefficient view (Fraction, or float), built on
    each access; library code works on num and den.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        for e, c in (terms or {}).items():
            c = _coerce(c)
            if c:
                clean[tuple(e)] = c
        self.nvars = nvars
        if any(type(c) is float for c in clean.values()):
            self.num = {e: float(c) for e, c in clean.items()}
            self.den = 1
        else:
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
    def exact(self) -> bool:
        """False on the float backend."""
        return type(next(iter(self.num.values()), 0)) is not float

    @property
    def terms(self) -> dict:
        """exponent tuple -> coefficient: a Fraction, or a float on the float
        backend; a new dict on every access."""
        if not self.exact:
            return dict(self.num)
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

    def _pair(self, other) -> tuple["Polynomial", "Polynomial"]:
        """self and other (a Polynomial or a constant) on one backend: both
        float when either is."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        elif other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        if self.exact and other.exact:
            return self, other
        return self.as_float(), other.as_float()

    def __add__(self, other):
        a, b = self._pair(other)
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        out = {e: c * sa for e, c in a.num.items()}
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
        a, b = self._pair(other)
        return Polynomial._make(self.nvars, _imul(a.num, b.num), a.den * b.den)

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

    def evaluate(self, point):
        point = [_coerce(x) for x in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x**k
            total += v
        return total

    def derivative(self, i: int) -> "Polynomial":
        out = {}
        for e, c in self.num.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Polynomial._make(self.nvars, out, self.den)

    def gradient(self) -> list["Polynomial"]:
        return [self.derivative(i) for i in range(self.nvars)]

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

    def as_float(self) -> "Polynomial":
        if not self.exact:
            return self
        # int / int is correctly rounded, as float(Fraction) is
        return Polynomial(self.nvars, {e: c / self.den for e, c in self.num.items()})

    def to_records(self) -> list:
        """Serializable form: (exponents, numerator, denominator) triples;
        denominator 0 marks a float coefficient."""
        out = []
        terms = self.terms
        for e in sorted(terms):
            c = terms[e]
            if isinstance(c, float):
                out.append([list(e), c, 0])
            else:
                out.append([list(e), c.numerator, c.denominator])
        return out

    @classmethod
    def from_records(cls, nvars: int, records) -> "Polynomial":
        terms = {}
        for expo, num, den in records:
            terms[tuple(expo)] = float(num) if den == 0 else Fraction(num, den)
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


def norm_squared_poly(nvars: int, center=None) -> Polynomial:
    """||x - p||^2 as a polynomial, with the standard inner product."""
    total = Polynomial.zero(nvars)
    for i in range(nvars):
        xi = Polynomial.variable(nvars, i)
        if center is not None and center[i]:
            xi = xi - _coerce(center[i])
        total = total + xi * xi
    return total


# -- jets -------------------------------------------------------------------


class Jet:
    """Order-k Taylor data at a basepoint: multi-indices of total degree < k."""

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
        return (
            self.basepoint == other.basepoint
            and self.order == other.order
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Jet(at {self.basepoint}, order {self.order}, {len(self.terms)} terms)"

    def coefficient(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

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

    def close_to(self, other: "Jet", tol: float = 1e-9) -> bool:
        if self.order != other.order:
            return False
        if any(abs(float(a) - float(b)) > tol
               for a, b in zip(self.basepoint, other.basepoint)):
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(e, 0) - other.terms.get(e, 0)) <= tol for e in keys
        )


def taylor_jet(f: Polynomial, point, k: int) -> Jet:
    """The degree-k Taylor expansion of f about the point: f mod m_p^k.

    Coefficient of (x-p)^b is sum over terms a >= b of
    f_a * prod binom(a_i, b_i) * p^(a-b); exact in the exact backend.

    Both backends shift one variable at a time on the numerators of f, so
    extracting jets from the large interpolation outputs stays fast.
    """
    n = f.nvars
    p = [_coerce(x) for x in point]
    exact = f.exact and not any(type(x) is float for x in p)
    if exact:
        v = math.lcm(*(x.denominator for x in p))
        us = [int(x * v) for x in p]
    else:
        f, v = f.as_float(), 1
        us = [float(x) for x in p]
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
    if not exact:
        return Jet(p, k, terms)
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
    n = len(pts[0])
    out = Polynomial.constant(n, 1)
    for i, p in enumerate(pts):
        if i == j:
            continue
        denom = sum((a - b) ** 2 for a, b in zip(pts[j], p))
        out = out * norm_squared_poly(n, p) * (1 / denom)
    return out


def _mask(pts, j: int, k: int) -> Polynomial:
    """1 - (1 - phi_j^k)^k: congruent to 1 mod m_{p_j}^k, and to 0 mod
    m_{p_i}^k at every other point, where phi_j^k vanishes to order 2k."""
    one = Polynomial.constant(len(pts[0]), 1)
    return one - (one - bump_poly(pts, j) ** k) ** k


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


def _interp_ntt(points, reps, k: int) -> Polynomial | None:
    """sum_j reps[j] * (1 - (1 - phi_j^k)^k) for exact points and exact
    representatives, evaluated in the transform domain.

    With Q_i = b_i^2 |x - p_i|^2 (b_i the lcm of p_i's denominators) the
    bump is phi_j = Psi_j / u_j, Psi_j = v_j prod_{i != j} Q_i, so the mask
    numerator N_j = u_j^(k^2) - (u_j^k - Psi_j^k)^k has integer
    coefficients and the sum is F / L, F = sum_j w_j R_j N_j over
    L = lcm_j(den R_j u_j^(k^2)).  Modulo each NTT prime the n variables
    are transformed once, as unit vectors at their Kronecker strides over
    the degree box of F (read off the powers of the root of unity in the
    transform's output order); Q_i, Psi_j, N_j, R_j and F are then
    pointwise values, and F takes one inverse transform.  The transform is
    cyclic, so its length need only keep apart the indices of the box
    points within F's total degree, which can be shorter than the box;
    _transform_plan picks the length and the strides, the last one packed
    by total degree where the box strides collide, and each kept slot is
    read at its index sum_m strides[m] e_m mod the length.
    One CRT over the fewest primes whose product exceeds twice the bound
    sum_j w_j |R_j|_1 (u_j^(k^2) + (u_j^k + |Psi_j|_1^k)^k) on the
    coefficients of F rebuilds it (|.|_1 is the sum of absolute values of
    the coefficients).  Returns None when that needs more primes, or a
    longer transform, than the table provides.
    """
    n, d, kk = len(points[0]), len(points), k * k
    b = [math.lcm(*(x.denominator for x in p)) for p in points]
    a = [[int(x * bi) for x in p] for p, bi in zip(points, b)]
    q_norm = [sum((bi + abs(c)) ** 2 for c in ai) for ai, bi in zip(a, b)]
    u, v, psi_norm = [], [], []
    for j, p in enumerate(points):
        others = [i for i in range(d) if i != j]
        c = math.prod((sum((b[i] * x - ai) ** 2 for x, ai in zip(p, a[i]))
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
    Q = [np.empty(size, np.uint32) for _ in range(d)]
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
        for i in range(d):
            psi[:] = 0
            for m in range(n):
                mulmod(X[m], np.uint64(b[i] % p), t)
                np.add(t, np.uint64(-a[i][m] % p), out=t)
                mulmod(t, t, t)
                np.add(psi, t, out=psi)
            mod(psi)
            Q[i][...] = psi
        acc[:] = 0
        for j in live:
            psi[:] = v[j] % p
            for i in range(d):
                if i != j:
                    mulmod(psi, Q[i], psi)
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
    del X, Q, acc, psi, t, quo, rh, scratch, expo, roots, iroots, slots
    return Polynomial._make(n, _crt(residues, primes, keep, rad), L)


def _interpolate(pts, reps, k: int) -> Polynomial:
    """sum_j reps[j] * _mask(pts, j, k): through _interp_ntt when points and
    representatives are exact and the kernel takes the case, else as a
    Polynomial sum."""
    if (all(r.exact for r in reps)
            and not any(type(x) is float for p in pts for x in p)):
        out = _interp_ntt(pts, reps, k)
        if out is not None:
            return out
    total = Polynomial.zero(len(pts[0]))
    for j, rep in enumerate(reps):
        total = total + rep * _mask(pts, j, k)
    return total


def jet_interpolate(points, jets, k: int) -> Polynomial:
    """One polynomial whose degree-k Taylor expansion at each p_j matches the
    given jet there: f = sum_j f_j * (1 - (1 - phi_j^k)^k).

    Degree is at most (2d-2)k^2 + (k-1) for d points.  Exact points and jets
    go through the transform-domain kernel _interp_ntt: one transform pass
    and one CRT for the whole sum, with the prime count taken from a bound
    on its coefficients.  Float input, and a case past the kernel's prime
    table or transform length (where it returns None), sum each jet's
    representative times its expanded mask in Polynomial arithmetic.
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

    The exact backend stores Fraction matrices and checks the representation
    law exactly; the float backend allows irrational orthogonal matrices and
    checks the law and orthogonality to 1e-12.  Orthogonality is decided
    once, at construction: a float action must be orthogonal, an exact one
    need not be (is_orthogonal says which).
    """

    TOL = 1e-12

    def __init__(self, group: FiniteGroup, matrices, exact: bool | None = None):
        self.group = group
        mats = []
        any_float = False
        for M in matrices:
            rows = tuple(tuple(_coerce(x) for x in row) for row in M)
            if any(type(x) is float for row in rows for x in row):
                any_float = True
            mats.append(rows)
        self.exact = (not any_float) if exact is None else exact
        if not self.exact:
            mats = [
                tuple(tuple(float(x) for x in row) for row in M) for M in mats
            ]
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
        ident = tuple(tuple(int(i == j) for j in range(self.dim))
                      for i in range(self.dim))
        bad = [s for s, M in enumerate(self.matrices)
               if not _mat_close(_mat_mul_num(_transpose_num(M), M), ident, tol)]
        if bad and not self.exact:
            raise ValueError(f"matrix for element {bad[0]} is not orthogonal")
        self._orthogonal = not bad

    # -- constructors --

    @classmethod
    def trivial(cls, group: FiniteGroup, dim: int) -> "LinearAction":
        ident = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
        )
        return cls(group, [ident] * group.order)

    @classmethod
    def sign_c2(cls, dim: int = 1) -> "LinearAction":
        """C2 acting on R^dim by negation."""
        G = FiniteGroup.cyclic(2)
        ident = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        neg = [[Fraction(-1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        return cls(G, [ident, neg])

    @classmethod
    def reflection_c2(cls, dim: int, axis: int) -> "LinearAction":
        """C2 on R^dim negating one coordinate."""
        G = FiniteGroup.cyclic(2)
        ident = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        ref = [
            [Fraction((-1 if i == axis else 1) if i == j else 0) for j in range(dim)]
            for i in range(dim)
        ]
        return cls(G, [ident, ref])

    @classmethod
    def rotation_cn(cls, n: int) -> "LinearAction":
        """C_n rotating R^2 by multiples of 2*pi/n (float backend for n >= 3)."""
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
        mats = []
        for p in perms:
            # (A_p x)_{p(j)} = x_j, so A_p e_j = e_{p(j)} and A_p A_q = A_{p∘q}
            M = [[Fraction(0)] * 3 for _ in range(3)]
            for j in range(3):
                M[p[j]][j] = Fraction(1)
            mats.append(tuple(tuple(row) for row in M))
        return cls(G, mats)

    @classmethod
    def block_sum(cls, actions: list["LinearAction"]) -> "LinearAction":
        """Direct sum of actions of the same group."""
        if not actions:
            raise ValueError("need at least one action")
        G = actions[0].group
        if any(a.group != G for a in actions):
            raise ValueError("all actions must share the group")
        exact = all(a.exact for a in actions)
        dim = sum(a.dim for a in actions)
        mats = []
        for s in G.elements():
            M = [[(Fraction(0) if exact else 0.0)] * dim for _ in range(dim)]
            off = 0
            for a in actions:
                for i in range(a.dim):
                    for j in range(a.dim):
                        M[off + i][off + j] = a.matrices[s][i][j]
                off += a.dim
            mats.append(tuple(tuple(row) for row in M))
        return cls(G, mats, exact=exact)

    # -- use --

    def matrix(self, s: int):
        return self.matrices[s]

    def apply(self, s: int, point):
        M = self.matrices[s]
        pt = [_coerce(x) for x in point]
        return tuple(
            sum(M[i][j] * pt[j] for j in range(self.dim)) for i in range(self.dim)
        )

    def is_orthogonal(self) -> bool:
        """Whether every matrix has M^T M = I (to 1e-12 on the float
        backend), as found at construction."""
        return self._orthogonal

    def stabilizer(self, point, tol: float = 1e-9) -> Subgroup:
        pt = tuple(_coerce(x) for x in point)
        # float input points carry numerical noise even under exact actions
        exact_cmp = self.exact and not any(type(x) is float for x in pt)
        elems = []
        for s in self.group.elements():
            img = self.apply(s, pt)
            if exact_cmp:
                if img == pt:
                    elems.append(s)
            else:
                if all(abs(float(a) - float(b)) < tol for a, b in zip(img, pt)):
                    elems.append(s)
        return Subgroup(self.group, tuple(elems))

    def orbit(self, point, tol: float = 1e-9):
        """One (coset representative, image point) pair per point of the orbit."""
        H = self.stabilizer(point, tol)
        out = []
        for c in left_cosets(self.group, H):
            s = c[0]
            out.append((s, self.apply(s, point)))
        return out


def _mat_mul_num(A, B):
    n = len(A)
    if n == 0 or len(B) == 0:
        return tuple(() for _ in range(n))
    m = len(B[0])
    k = len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def _transpose_num(A):
    return tuple(zip(*A))


def _mat_close(A, B, tol):
    if tol == 0:
        return A == B
    return all(
        abs(float(a) - float(b)) <= tol for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


# -- equivariant operations ---------------------------------------------------


def equivariant_average(f: Polynomial, act: LinearAction) -> Polynomial:
    """(1/|G|) sum_s f(A_s x): the projection onto invariant polynomials."""
    G = act.group
    total = Polynomial.zero(f.nvars)
    for s in G.elements():
        total = total + f.substitute_linear(act.matrices[s])
    return total * Fraction(1, G.order)


def transport_jet(jet: Jet, act: LinearAction, s: int) -> Jet:
    """The jet of f∘s^{-1} at s·p, for f any representative of the jet at p:
    substitute the inverse matrix into the representative and re-truncate."""
    G = act.group
    rep = jet.as_polynomial()
    moved = rep.substitute_linear(act.matrices[G.inverse[s]])
    return taylor_jet(moved, act.apply(s, jet.basepoint), jet.order)


def _jets_close(a: Jet, b: Jet, exact: bool) -> bool:
    if exact:
        return a == b
    return a.close_to(b, tol=1e-9)


def equivariant_jet_lift(point, jet: Jet, act: LinearAction, k: int) -> Polynomial:
    """Lift a stab(p)-fixed jet to a G-invariant polynomial with that jet.

    Raises JetNotFixed when a stabilizer element moves the jet, which is
    exactly the obstruction to lifting, and ValueError for an action that
    is not orthogonal.

    The orbit p_j = s_j·p is G-stable, and for an orthogonal A_s the mask at
    p_j composed with A_s is the mask at s^{-1}·p_j.  So the average of the
    interpolant of the transported jets is the interpolant of the averaged
    representatives R̄_j = (1/|G|) sum_s R_{s·p_j} ∘ A_s: the small
    representatives are averaged, and one _interpolate call (see
    jet_interpolate) builds the lift, on both backends.
    """
    pt = tuple(_coerce(x) for x in point)
    if tuple(jet.basepoint) != pt:
        raise ValueError("jet must be based at the given point")
    if jet.order > k:
        raise ValueError("jet order exceeds lift order")
    if not act.is_orthogonal():
        raise ValueError("equivariant_jet_lift needs an orthogonal action")
    G = act.group
    H = act.stabilizer(pt)
    for h in H.elements:
        if h == G.identity:
            continue
        moved = transport_jet(jet, act, h)
        if not _jets_close(moved, jet, act.exact):
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
    return _interpolate(_check_distinct([act.apply(sj, pt) for sj in heads]), avg, k)
