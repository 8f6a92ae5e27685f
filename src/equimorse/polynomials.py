"""Exact multivariate polynomial arithmetic, truncated Taylor jets, bump
polynomial jet interpolation, equivariant averaging and jet lifting.

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
product of the denominators.  A signed permutation substitutes by an
exponent remap.

The exact layer has one Taylor shift, _taylor_shift, on whole arrays
converted from the numerators on each call (exponents in int64, numerators
as Python ints in an object vector, so it stays exact).  A Jet keeps its
terms as one Polynomial in y = x - p, so the layer has one coefficient
representation: taylor_jet shifts a polynomial to its basepoint and
truncates, and Jet.as_polynomial shifts a jet's polynomial back to -p.
transport_jet needs no shift: a linear substitution keeps degrees, so the
jet's own polynomial under the inverse matrix is the transported jet.

Exact jet interpolation multiplies no polynomials: _interp_ntt writes the
whole interpolant sum_j R_j (1 - (1 - phi_j^k)^k) over one integer
denominator and evaluates it at the points of a multi-prime
number-theoretic transform in numpy, modulo as many primes below 2^31 as a
bound on its coefficients needs.  No forward transform runs: the
variables' values are written in the inverse transform's slot order, a
closed-form bit reversal.  Per prime, x^T Q x is evaluated once, every
bump, mask and jet representative is a pointwise value, and one inverse
transform per prime and one CRT (_crt) rebuild the sum; see von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5 and 8.  The transform
is cyclic, with a length and Kronecker strides (_transform_plan) that need
only keep apart the monomials within the interpolant's total degree: the
degree box's strides where they do, else a searched last stride.  A transform of length 2^L needs primes p = 1 mod 2^L, which
_ntt_primes finds for each length as the bound asks; it is the one
interpolation path, and raises ValueError only where all such primes below
2^31 together cannot cover the bound.  numpy is imported inside the
kernels, when one first runs, and the group layer (equimorse.groups)
inside the code that uses an action: LinearAction's constructors,
stabilizer, orbit and equivariant_jet_lift.  So importing this module,
interpolating and taking Taylor jets load only it and _intlinalg's
primality test.
The bumps measure distance in a positive definite integer form Q: the
standard one for jet_interpolate, and for a lift the invariant form of the
action (LinearAction.form), so a lift takes any rational action.  A lift
shifts the fixed jet once, carries it to each orbit point by the action
and interpolates once; the interpolant is invariant, so nothing averages
it.  LinearAction is exact only, its group law checked exactly; the
Morse layer's float geometry is morse.manifolds.OrthogonalAction.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from fractions import Fraction
from typing import TYPE_CHECKING

from ._intlinalg import is_prime

if TYPE_CHECKING:
    from .groups import FiniteGroup, Subgroup

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


def _coerce(c) -> Fraction:
    """c as a Fraction; a float (numpy's too) is the binary rational it
    denotes."""
    t = type(c)
    if t is Fraction:
        return c
    if t is int or t is float:
        return Fraction(c)
    if isinstance(c, numbers.Integral):
        return Fraction(int(c))
    if isinstance(c, numbers.Real) and not isinstance(c, numbers.Rational):
        return Fraction(float(c))
    return Fraction(c)


def _exact_point(point, n: int) -> tuple:
    """point as a tuple of n exact rationals; ValueError for another
    length."""
    pt = tuple(_coerce(x) for x in point)
    if len(pt) != n:
        raise ValueError(f"a point of {len(pt)} coordinates where {n} are expected")
    return pt


def _exponent(e, n: int) -> tuple:
    """e, the exponent of a nonzero term, as a tuple of ints; ValueError
    unless it has n nonnegative integer entries."""
    e = tuple(e)
    try:
        ints = tuple(map(operator.index, e))
    except TypeError:
        ints = None
    if ints is None or len(ints) != n or min(ints, default=0) < 0:
        raise ValueError(f"exponent {e} is not {n} nonnegative integers")
    return ints


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

# transform length -> [the (p, g) found so far, the next candidate p]
_NTT_FOUND: dict = {}


def _ntt_primes(size: int, bound: int) -> list:
    """The fewest primes p < 2^31 with size | p - 1, largest first, whose
    product exceeds bound, each as (p, g) with g its smallest quadratic
    non-residue, so that g^((p-1)/size) has order exactly size (size a power
    of two).  The search steps down from the largest candidate and keeps
    what it finds per length.  Raises ValueError when all such primes
    together do not exceed bound."""
    found = _NTT_FOUND.setdefault(size, [[], (2**31 - 2) // size * size + 1])
    primes, M = found[0], 1
    for i in itertools.count():
        if i == len(primes):
            p = found[1]
            while p > 1 and not is_prime(p):
                p -= size
            if p <= 1:
                found[1] = p
                raise ValueError(
                    f"the primes below 2^31 for a {size}-point transform "
                    f"give {M.bit_length()} bits of modulus, short of the "
                    f"{bound.bit_length()} bits the coefficients need")
            g = 2
            while pow(g, (p - 1) // 2, p) != p - 1:
                g += 1
            primes.append((p, g))
            found[1] = p - size
        M *= primes[i][0]
        if M > bound:
            return primes[:i + 1]


def _ntt_roots(p: int, w: int, n: int):
    """w^j mod p for j < n/2, built by doubling."""
    import numpy as np

    t = np.ones(1, np.uint64)
    while len(t) < n // 2:
        t = np.concatenate((t, t * np.uint64(pow(w, len(t), p)) % np.uint64(p)))
    return t


def _slot_order(size: int):
    """order[s] (uint32): the power of w whose value slot s holds where
    _ntt_stages reads it, at length size = 2^L.  That is the bit reversal
    of arange(size) laid out as (size/c, c) and transposed, c = 2^ceil(L/2);
    it sends i c + j to rev(j) size/c + rev(i), an outer sum."""
    import numpy as np

    def rev(m):
        # the bit reversal of arange(m), m a power of two
        r = np.zeros(1, np.uint32)
        while len(r) < m:
            r = np.concatenate((2 * r, 2 * r + 1))
        return r

    c = 1 << (size.bit_length() // 2)
    rows = size // c
    return np.add.outer(rev(c) * np.uint32(rows), rev(rows)).ravel()


def _ntt_stages(a, out, p, roots, scratch):
    """Inverse radix-2 NTT of a (length n = 2^L, values in [0, p)) into out,
    not yet divided by n; roots holds w^-j for j < n/2.

    Decimation in time, reading the blocked bit-reversed order of
    _slot_order and writing natural order; there is no forward transform.
    Butterflies pairing elements less than c = 2^ceil(L/2) apart run on the
    array transposed to (c, n/c), so every numpy loop is at least n/c long.
    a is overwritten too; scratch is three arrays of length n/2.
    """
    import numpy as np

    s, d, q = scratch
    n = len(a)
    c = 1 << (n.bit_length() // 2)
    P = np.uint64(p)
    for h in (1 << i for i in range(n.bit_length() - 1)):
        if h == c:
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
        np.subtract(vs, P, out=vq)
        np.minimum(vs, vq, out=x)
    if a is not out:  # a length of 2 never transposes
        out[...] = a


def _crt(residues, primes, slots, rad) -> dict:
    """Exponent tuple -> integer c with |c| < M/2 (M the product of the
    primes), from residues with one row per prime and one column per slot
    of the degree box of radices rad, slots[i] being column i's slot.

    Each c is rebuilt from Garner's balanced mixed-radix digits v_i in
    (-p_i/2, p_i/2), c = v_0 + v_1 p_0 + v_2 p_0 p_1 + ...: all primes are
    odd, so the balanced digits span exactly (-M/2, M/2) and give the
    signed c with no lift.  A slot is zero exactly when all its residues
    are, and is left out.  Digits are paired into 64-bit words v_2i +
    v_2i+1 p_2i, |word| < 2^61, before the bigint Horner steps, which
    halves them.
    """
    import numpy as np

    hit = residues.any(axis=0)
    res = residues[:, hit].astype(np.int64)
    digits = []
    for r, (p, _) in enumerate(primes):
        t = res[r]
        for (pj, _), v in zip(primes, digits):
            # v % p is in [0, p) for a negative v too
            t = (t + p - v % p) * pow(pj, p - 2, p) % p
        digits.append(t - p * (t > p // 2))
    mods = [p for p, _ in primes]
    words = [(digits[i] + digits[i + 1] * mods[i], mods[i] * mods[i + 1])
             for i in range(0, len(mods) - 1, 2)]
    if len(mods) % 2:
        words.append((digits[-1], mods[-1]))
    coeffs = words[-1][0].astype(object)
    for v, m in reversed(words[:-1]):
        coeffs = coeffs * m + v.astype(object)
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
                clean[_exponent(e, nvars)] = c
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
        access, with one (immutable) Fraction per distinct numerator."""
        den, num = self.den, self.num
        frac = {c: Fraction(c, den) for c in set(num.values())}
        return dict(zip(num, map(frac.__getitem__, num.values())))

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
        point = _exact_point(point, self.nvars)
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
        the image is already in lowest terms.  A matrix other than n rows
        of n entries raises ValueError.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"substitution matrix must be {n} x {n}: one row "
                             f"of {n} entries per variable")
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


# -- jets -------------------------------------------------------------------


class Jet:
    """Order-k Taylor data at a basepoint: multi-indices of total degree < k,
    with an exact basepoint and exact coefficients (floats read as the
    binary rationals they denote).  poly holds the terms as one Polynomial
    in y = x - p; terms is its exponent -> Fraction view."""

    __slots__ = ("basepoint", "order", "poly")

    def __init__(self, basepoint, order: int, terms: dict | None = None):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.basepoint = tuple(_coerce(x) for x in basepoint)
        self.order = order
        terms = terms or {}
        for e in terms:
            if sum(e) >= order:
                raise ValueError(f"multi-index {tuple(e)} has degree >= order {order}")
        self.poly = Polynomial(len(self.basepoint), terms)

    @classmethod
    def _make(cls, basepoint: tuple, order: int, poly: Polynomial) -> "Jet":
        """Internal constructor: an exact basepoint and a poly of degree
        below order."""
        self = object.__new__(cls)
        self.basepoint, self.order, self.poly = basepoint, order, poly
        return self

    @property
    def nvars(self) -> int:
        return len(self.basepoint)

    @property
    def terms(self) -> dict:
        """exponent tuple -> Fraction coefficient of y^e; a new dict on
        every access."""
        return self.poly.terms

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.basepoint, self.order, self.poly) == (
            other.basepoint, other.order, other.poly)

    def __repr__(self):
        return f"Jet(at {self.basepoint}, order {self.order}, {len(self.poly.num)} terms)"

    def as_polynomial(self) -> Polynomial:
        """The representative sum c_a (x - p)^a, expanded: poly shifted to
        -p by _taylor_shift.  A shift keeps total degree, so its truncation
        at the jet's order drops nothing."""
        num, scale = _taylor_shift(self.poly.num, self.nvars,
                                   [-x for x in self.basepoint], self.order)
        return Polynomial._make(self.nvars, num, self.poly.den * scale)


# packed exponent-row keys (_row_keys) stay below this, within int64
_KEY_SPAN = 1 << 63


def _row_keys(cols, count: int):
    """One int64 key per row of the int64 exponent columns cols (count
    rows), equal exactly for equal rows.

    The key is a mixed-radix number with the columns' ranges as radices;
    where the next radix would take it past _KEY_SPAN, the key so far is
    replaced by its rank among the rows, which is below their count.
    """
    import numpy as np

    key, span = np.zeros(count, np.int64), 1
    for col in cols:
        r = int(col.max()) + 1
        if span * r > _KEY_SPAN:
            key, span = np.unique(key, return_inverse=True)[1], count
        key *= r
        key += col
        span *= r
    return key


def _factor_row(x: int, u: int, v: int, D: int, width: int) -> list:
    """[C(x,b) u^(x-b) v^(D-x+b) for b < width], 0 where b > x: running
    products down from b = min(x, width - 1), each step times b u and
    divided exactly by (x - b + 1) v."""
    row = [0] * width
    top = min(x, width - 1)
    f = math.comb(x, top) * u ** (x - top) * v ** (D - x + top)
    row[top] = f
    for b in range(top, 0, -1):
        f = f * b * u // ((x - b + 1) * v)
        row[b - 1] = f
    return row


def _taylor_shift(num: dict, n: int, point, k: int) -> tuple[dict, int]:
    """The numerators num (exponent tuple -> int, n variables) of f shifted
    to the rational point p and truncated: (out, scale) with
    f(p + y) = sum_e out[e] y^e / scale modulo the monomials of total
    degree >= k; out has no zero.

    With p_i = u_i / v over one denominator v and D_i the largest exponent
    of x_i, substituting x_i = p_i + y_i one variable at a time gives
    x_i^a = v^-D_i sum_b C(a,b) u_i^(a-b) v^(D_i-a+b) y_i^b, so scale is
    v^(D_1 + ... + D_n).  The terms are one int64 exponent matrix and one
    object vector of numerators, and variable i is one pass over them.
    The rows are sorted once by their other exponents (_row_keys), so rows
    that can meet after the substitution are runs.  Each row with exponent
    a pairs with every b <= a (only b = a when u_i = 0) below the room
    k - (its shifted exponents so far); the pairs, b-major, gather their
    numerators and their factors C(a,b) u_i^(a-b) v^(D_i-a+b) from one
    table with a row per exponent a present (so a sparse term of high
    degree costs one row; _factor_row builds each by running products),
    are multiplied, and are summed over each run of one b by one
    np.add.reduceat into rows with exponent i set to b.  The sums are
    exact, so the sort need not be stable.  This is the Taylor
    shift of von zur Gathen & Gerhard ("Fast algorithms for Taylor shifts
    and certain difference equations", ISSAC 1997) as whole-array passes,
    truncated by partial degree.
    """
    v = math.lcm(*(x.denominator for x in point))
    us = [int(x * v) for x in point]
    if not num or k < 1:
        return {}, 1
    import numpy as np

    T = len(num)
    E = np.fromiter(itertools.chain.from_iterable(num), np.int64, T * n).reshape(T, n)
    C = np.fromiter(num.values(), object, T)
    maxdeg = E.max(axis=0).tolist()
    for i, (u, D) in enumerate(zip(us, maxdeg)):
        key = _row_keys([E[:, m] for m in range(n) if m != i], len(E))
        order = np.argsort(key)
        E, C, key = E[order], C[order], key[order]
        a, room = E[:, i], k - E[:, :i].sum(axis=1)
        width = min(D, k - 1) + 1
        # one factor row per exponent present; row r's is F[arow[r]]
        present, arow = np.unique(a, return_inverse=True)
        F = np.array([_factor_row(x, u, v, D, width) for x in present.tolist()], object)
        # the (b, row) pairs in b-major order: b <= a and b < room, and
        # b == a where u = 0; a run of one b and one key is one output row
        B = np.arange(width)[:, None]
        pair = B <= np.minimum(a, room - 1)
        if not u:
            pair &= B == a
        bs, rows = np.nonzero(pair)
        if not len(rows):
            return {}, 1
        ks = key[rows]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ks[1:] != ks[:-1]) | (bs[1:] != bs[:-1]))))
        C = np.add.reduceat(C[rows] * F[arow[rows], bs], starts)
        E = E[rows[starts]]
        E[:, i] = bs[starts]
    live = np.flatnonzero(C != 0)
    return (dict(zip(map(tuple, E[live].tolist()), C[live].tolist())),
            v ** sum(maxdeg))


def taylor_jet(f: Polynomial, point, k: int) -> Jet:
    """The degree-k Taylor expansion of f about the point: f mod m_p^k.

    Coefficient of (x-p)^b is sum over terms a >= b of
    f_a * prod binom(a_i, b_i) * p^(a-b), exactly: one _taylor_shift of
    f's integer numerators, so extracting jets from the large
    interpolation outputs stays fast.
    """
    if k < 0:
        raise ValueError("jet order must be >= 0")
    p = _exact_point(point, f.nvars)
    num, scale = _taylor_shift(f.num, f.nvars, p, k)
    return Jet._make(p, k, Polynomial._make(f.nvars, num, f.den * scale))


# -- bump interpolation ------------------------------------------------------


def _check_distinct(points):
    """The points as exact tuples, at least one, all of one dimension and
    pairwise distinct, else ValueError (DuplicatePoints for a repeat)."""
    pts = [tuple(_coerce(x) for x in p) for p in points]
    if not pts:
        raise ValueError("at least one point is needed to fix the number of coordinates")
    if len({len(p) for p in pts}) > 1:
        raise ValueError("points must all have the same number of coordinates")
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
    if j not in range(len(pts)):
        raise ValueError(f"j = {j} is not a nonnegative index below {len(pts)}")
    n = len(pts[0])
    xs = [Polynomial.variable(n, m) for m in range(n)]
    out = Polynomial.constant(n, 1)
    for i, p in enumerate(pts):
        if i != j:
            dist = sum(((x - c) * (x - c) for x, c in zip(xs, p)), Polynomial.zero(n))
            out = out * dist * (1 / sum((a - c) ** 2 for a, c in zip(pts[j], p)))
    return out


def _kept_slots(rad, top):
    """The slots of the degree box of radices rad whose exponents sum to at
    most top: their box indices, increasing, and their exponents as one
    array per variable.  Enumerated from the simplex, from the last
    (outermost) variable in, each slot repeated once per e_m < rad_m the
    degree left admits: the cost grows with the kept slots, not the box."""
    import numpy as np

    index, room, cols = np.zeros(1, np.int64), np.full(1, top, np.int64), []
    for r in reversed(rad):
        count = np.minimum(room + 1, r)
        ends = np.cumsum(count)
        e = np.arange(ends[-1]) - np.repeat(ends - count, count)
        index = np.repeat(index * r, count) + e
        room = np.repeat(room, count) - e
        cols = [np.repeat(col, count) for col in cols] + [e]
    return index, cols[::-1]


def _least_length(rad, top) -> int:
    """The first power of two (at least 2) at or above the number of slots
    of the degree box rad whose exponents sum to at most top: the shortest
    length a transform plan can take.  The count is inclusion-exclusion over
    the variables whose exponent would reach its radix, each term the
    C(t + n, n) exponent vectors of total degree at most t."""
    n, count = len(rad), 0
    for over in itertools.product((0, 1), repeat=n):
        t = top - sum(r for r, o in zip(rad, over) if o)
        if t >= 0:
            count += (-1) ** sum(over) * math.comb(t + n, n)
    return 1 << max(count - 1, 1).bit_length()


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
    is no larger than the box.  Either is confirmed on the kept slots, by
    marking their indices in a boolean array of the length.  Memoized: the
    cache holds these ints only, never the slot arrays.

    Lower bound: the difference body of the degree-top simplex has volume
    C(2n,n) top^n / n! (Rogers-Shephard), so by Minkowski no Kronecker map
    keeps the slots apart at a length below C(2n,n) top^n / (n! 2^n):
    22,863 for the S3 lift at k = 3 (2^15 is shortest) and 2,352 for the
    (2,4,3) op (2^12).  (26,26,26) within 25 sits above it: the bound is
    6,511, and (1, 923, 1509) separates at 8,192 where this plan takes 2^14.
    """
    import numpy as np

    n = len(rad)
    keep, cols = _kept_slots(rad, top)
    box = [math.prod(rad[:m]) for m in range(n)]
    search = (2 * top + 1) ** (n - 1) <= math.prod(rad)
    size = _least_length(rad, top)

    def distinct(strides):
        seen = np.zeros(size, bool)
        seen[_slot_map(cols, strides, size)] = True
        return np.count_nonzero(seen) == len(keep)

    while True:
        if distinct(box):
            return size, tuple(box)
        if search:
            B = _last_stride(box[:-1], top, size)
            if B is not None and distinct(box[:-1] + [B]):
                return size, tuple(box[:-1] + [B])
        size *= 2


def _interp_ntt(points, reps, k: int, Q=None) -> Polynomial:
    """sum_j reps[j] * (1 - (1 - phi_j^k)^k), the bumps phi_j measured in the
    integer form Q (None: the standard one), evaluated in the transform
    domain.

    With Q_i = b_i^2 |x - p_i|_Q^2 (b_i the lcm of p_i's denominators),
    written as sum_r w_r (b_i L_r(x) - L_r(a_i))^2 over the squares of Q
    (_squares: L_r a sum of one or two variables, a_i = b_i p_i), the
    bump is phi_j = Psi_j / u_j, Psi_j = v_j prod_{i != j} Q_i, so the mask
    numerator N_j = u_j^(k^2) - (u_j^k - Psi_j^k)^k has integer
    coefficients and the sum is F / L, F = sum_j w_j R_j N_j over
    L = lcm_j(den R_j u_j^(k^2)).  Modulo each NTT prime, x_m at its
    Kronecker stride over the degree box of F is gathered from the powers
    of the root w in the inverse transform's slot order (_slot_order; no
    forward transform runs), S = x^T Q x is evaluated once, and
    Q_i = b_i^2 S - 2 b_i (Q a_i).x + a_i^T Q a_i; Psi_j, N_j, R_j and F
    are then pointwise values, and F takes one inverse transform.  The
    transform is cyclic, so its length need only keep apart the indices of
    the box points within F's total degree, which can be shorter than the
    box; _transform_plan picks the length and the strides, the last one
    packed by total degree where the box strides collide, and each kept
    slot (_kept_slots) is read at its index sum_m strides[m] e_m mod the
    length.
    One CRT over the fewest primes for that length (_ntt_primes) whose
    product exceeds twice the bound
    sum_j w_j |R_j|_1 (u_j^(k^2) + (u_j^k + |Psi_j|_1^k)^k) on the
    coefficients of F rebuilds it (|.|_1 is the sum of absolute values of
    the coefficients, and |Q_i|_1 <= sum_r |w_r| (b_i |I_r| + |L_r(a_i)|)^2).
    Raises ValueError, before any transform, when all the primes below
    2^31 for the length do not cover that bound; that is checked first at
    the least length a plan can take (_least_length), whose primes include
    those of every longer length, so a hopeless bound is refused before
    _transform_plan builds arrays over the box.
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
        # Q_i(p_j) = sum_r w_r (b_i L_r(p_j) - L_r(a_i))^2
        lp = [sum(p[m] for m in idx) for idx, _ in squares]
        c = math.prod((sum(w * (b[i] * x - y) ** 2 for (_, w), x, y in zip(squares, lp, la[i]))
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
    rdeg = [max(e[m] for j in live for e in reps[j].num) for m in range(n)]
    rad = [2 * (d - 1) * kk + r + 1 for r in rdeg]
    # only slots within the total degree of F can be nonzero, and the
    # transform need only keep those apart (see _transform_plan)
    top = 2 * (d - 1) * kk + max(sum(e) for j in live for e in reps[j].num)
    # the primes for a longer length are among those for the least one, so
    # a bound that they cannot cover is refused before any plan is made
    _ntt_primes(_least_length(rad, top), 2 * bound)
    size, strides = _transform_plan(tuple(rad), top)
    primes = _ntt_primes(size, 2 * bound)
    import numpy as np

    # the slot order in 32 bits, before the work arrays exist, so that it
    # adds nothing to the kernel's peak memory
    order = _slot_order(size)
    keep, cols = _kept_slots(rad, top)
    slots = _slot_map(cols, strides, size)
    del cols
    # Q_i = b_i^2 x^T Q x - 2 b_i (Q a_i).x + a_i^T Q a_i, where (Q a_i)_m
    # sums w_r L_r(a_i) over the squares r that hold x_m
    qlin = [[-2 * bi * sum(wr * c for (idx, wr), c in zip(squares, lai) if m in idx)
             for m in range(n)] for bi, lai in zip(b, la)]
    qconst = [sum(wr * c * c for (_, wr), c in zip(squares, lai)) for lai in la]
    # w_j R_j as its constant term and (variables, coefficient) pairs, the
    # variables of a monomial listed with multiplicity
    const = {j: w[j] * reps[j].num.get((0,) * n, 0) for j in live}
    terms = {j: [(tuple(m for m, em in enumerate(ex) for _ in range(em)), w[j] * c)
                 for ex, c in reps[j].num.items() if any(ex)] for j in live}
    half = size // 2
    # values below p < 2^31 are stored in 32 bits and multiplied in the
    # 64-bit work arrays; the transform borrows psi and quo as scratch
    X = [np.empty(size, np.uint32) for _ in range(n)]
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

    for r, (p, g) in enumerate(primes):
        P = np.uint64(p)
        roots = _ntt_roots(p, pow(g, (p - 1) // size, p), size)
        # slot s holds the value at w^order[s], so x_m there is
        # w^(stride_m order[s]), gathered from all the powers of w
        # (w^e = -w^(e - size/2) for e >= size/2), laid out in acc
        np.concatenate((roots, P - roots), out=acc)
        expo = quo.view(np.int64)
        for m in range(n):
            np.multiply(order, strides[m], out=expo, dtype=np.int64)
            np.bitwise_and(expo, size - 1, out=expo)
            np.take(acc, expo, out=t)
            X[m][...] = t
        # S = x^T Q x = sum_r w_r L_r(x)^2, once per prime, in acc: a
        # product of two values below p is below 2^62, so three of them are
        # summed before each reduction
        acc[:] = 0
        for count, (idx, wr) in enumerate(squares, 1):
            if len(idx) == 1:
                np.multiply(X[idx[0]], X[idx[0]], out=t, dtype=np.uint64)
                if wr != 1:
                    mod(t)
            else:
                np.add(X[idx[0]], X[idx[1]], out=t, dtype=np.uint64)
                mulmod(t, t, t)
            if wr != 1:
                np.multiply(t, np.uint64(wr % p), out=t)
            np.add(acc, t, out=acc)
            if count % 3 == 0:
                mod(acc)
        mod(acc)
        # Q_i from S by one scalar multiply-add per variable
        for i in range(d):
            np.multiply(acc, np.uint64(b[i] * b[i] % p), out=psi)
            lin = [(x, c % p) for x, c in zip(X, qlin[i]) if c % p]
            for count, (x, c) in enumerate(lin, 2):
                np.multiply(x, np.uint64(c), out=t)
                np.add(psi, t, out=psi)
                if count % 3 == 0:
                    mod(psi)
            np.add(psi, np.uint64(qconst[i] % p), out=psi)
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
            # w_j R_j, three products summed per reduction as for S
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
        _ntt_stages(acc, t, p, iroots, scratch)
        residues[r] = t[slots]
    del X, Qv, acc, psi, t, quo, rh, scratch, expo, roots, iroots, slots, order
    return Polynomial._make(n, _crt(residues, primes, keep, rad), L)


def jet_interpolate(points, jets, k: int) -> Polynomial:
    """One polynomial whose degree-k Taylor expansion at each p_j matches the
    given jet there: f = sum_j f_j * (1 - (1 - phi_j^k)^k).

    The mask 1 - (1 - phi_j^k)^k is congruent to 1 mod m_{p_j}^k and to 0
    mod m_{p_i}^k at every other point, where phi_j^k vanishes to order 2k.
    Degree is at most (2d-2)k^2 + (k-1) for d points.  The sum is one call
    to the transform-domain kernel _interp_ntt: one transform pass and one
    CRT for the whole sum, over primes found for the transform's length
    from a bound on its coefficients.  It raises ValueError where the
    primes below 2^31 for that length cannot cover the bound.  Points and
    jets are exact (a float coordinate is the binary rational it denotes).
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
    return _interp_ntt(pts, [jet.as_polynomial() for jet in jets], k)


# -- linear actions ----------------------------------------------------------


class LinearAction:
    """A representation of a finite group by n x n rational matrices: the
    exact layer's action.

    Every entry is an exact rational (a float is the binary rational it
    denotes), and the group law is checked exactly, so a float matrix that
    breaks it by a rounding error, such as the float rotation by 2*pi/3,
    raises ValueError here.  The action need not be orthogonal.  It carries
    its invariant form: Q = sum_s A_s^T A_s divided by its content, a
    primitive positive definite integer matrix with A_s^T Q A_s = Q for
    every s (see Serre, Linear Representations of Finite Groups, 1.3).  Q
    is the identity exactly when the action is orthogonal.  The Morse
    layer's geometry is morse.manifolds.OrthogonalAction, which rounds
    these matrices, or takes float ones, once.
    """

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        self.matrices = tuple(tuple(tuple(_coerce(x) for x in row) for row in M)
                              for M in matrices)
        if len(self.matrices) != group.order:
            raise ValueError("one matrix per group element required")
        self.dim = len(self.matrices[0]) if self.matrices else 0
        self._validate()

    def _validate(self):
        G = self.group
        for M in self.matrices:
            if len(M) != self.dim or any(len(row) != self.dim for row in M):
                raise ValueError("matrices must be square of equal size")
        for a in G.elements():
            for b in G.elements():
                if (_mat_mul_num(self.matrices[a], self.matrices[b])
                        != self.matrices[G.mul[a][b]]):
                    raise ValueError(f"representation law fails on ({a},{b})")
        # sum_s A_s^T A_s is a multiple of I exactly when every A_s is
        # orthogonal, since it is invariant under each of them
        Q = [[sum(M[t][i] * M[t][j] for M in self.matrices for t in range(self.dim))
              for j in range(self.dim)] for i in range(self.dim)]
        den = math.lcm(*(x.denominator for row in Q for x in row))
        g = math.gcd(*(int(x * den) for row in Q for x in row))
        self.form = tuple(tuple(int(x * den) // g for x in row) for row in Q)

    # -- constructors --

    @classmethod
    def trivial(cls, group: FiniteGroup, dim: int) -> "LinearAction":
        return cls(group, [_diagonal([1] * dim)] * group.order)

    @classmethod
    def sign_c2(cls, dim: int = 1) -> "LinearAction":
        """C2 acting on R^dim by negation."""
        from .groups import FiniteGroup

        return cls(FiniteGroup.cyclic(2), [_diagonal([1] * dim), _diagonal([-1] * dim)])

    @classmethod
    def reflection_c2(cls, dim: int, axis: int) -> "LinearAction":
        """C2 on R^dim negating one coordinate."""
        from .groups import FiniteGroup

        ref = [-1 if i == axis else 1 for i in range(dim)]
        return cls(FiniteGroup.cyclic(2), [_diagonal([1] * dim), _diagonal(ref)])

    @classmethod
    def permutation_s3(cls) -> "LinearAction":
        """S3 permuting the coordinates of R^3 (matches FiniteGroup.symmetric(3))."""
        from .groups import FiniteGroup

        G = FiniteGroup.symmetric(3)
        perms = sorted(itertools.permutations(range(3)))
        # (A_p x)_{p(j)} = x_j, so A_p e_j = e_{p(j)} and A_p A_q = A_{p∘q}
        return cls(G, [[[int(p[j] == i) for j in range(3)] for i in range(3)]
                       for p in perms])

    # -- use --

    def apply(self, s: int, point):
        M = self.matrices[s]
        pt = _exact_point(point, self.dim)
        return tuple(
            sum(M[i][j] * pt[j] for j in range(self.dim)) for i in range(self.dim)
        )

    def is_orthogonal(self) -> bool:
        """Whether every matrix has M^T M = I: the form is the identity."""
        return self.form == _diagonal([1] * self.dim)

    def stabilizer(self, point) -> Subgroup:
        """The elements fixing point exactly."""
        return self._orbit(point)[0]

    def orbit(self, point):
        """One (coset representative, image point) pair per point of the orbit."""
        return self._orbit(point)[1]

    def _orbit(self, point) -> tuple:
        """The stabilizer H of point and its orbit's (coset head, image)
        pairs, read from one list of the |G| exact images A_s point."""
        from .groups import Subgroup, left_cosets

        pt = _exact_point(point, self.dim)
        images = [self.apply(s, pt) for s in self.group.elements()]
        H = Subgroup(self.group, tuple(s for s, q in enumerate(images) if q == pt))
        return H, [(c[0], images[c[0]]) for c in left_cosets(self.group, H)]


def _diagonal(d) -> tuple:
    """The diagonal integer matrix with diagonal d, as a tuple of rows."""
    return tuple(tuple(x if i == j else 0 for j in range(len(d)))
                 for i, x in enumerate(d))


def _mat_mul_num(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B))
                 for row in A)


# -- equivariant operations ---------------------------------------------------


def equivariant_average(f: Polynomial, act: LinearAction) -> Polynomial:
    """(1/|G|) sum_s f(A_s x): the projection onto invariant polynomials."""
    G = act.group
    total = Polynomial.zero(f.nvars)
    for s in G.elements():
        total = total + f.substitute_linear(act.matrices[s])
    return total * Fraction(1, G.order)


def transport_jet(jet: Jet, act: LinearAction, s: int) -> Jet:
    """The jet of f∘s^{-1} at s·p, for f any representative of the jet at p.

    With f(x) = J(x - p) mod m_p^k, f(A_{s^-1} x) = J(A_{s^-1}(x - s·p)):
    the jet's own terms J, substituted by the inverse matrix, are the
    terms about s·p.  A linear substitution keeps every term's total
    degree, so nothing needs truncating again.
    """
    moved = jet.poly.substitute_linear(act.matrices[act.group.inverse[s]])
    return Jet._make(act.apply(s, jet.basepoint), jet.order, moved)


def equivariant_jet_lift(point, jet: Jet, act: LinearAction, k: int) -> Polynomial:
    """Lift a stab(p)-fixed jet to a G-invariant polynomial with that jet,
    for any exact (rational) action.

    Raises JetNotFixed when a stabilizer element moves the jet, which is
    exactly the obstruction to lifting.

    The jet is shifted once, to its representative R (Jet.as_polynomial);
    R ∘ A_{s^-1} carries it to each orbit point s·p, and one _interp_ntt
    call (see jet_interpolate) interpolates those; a one-point orbit
    returns R.  Nothing is averaged: R ∘ A_{s^-1} depends only on the coset
    sH, since the jet is fixed (J ∘ A_h = J for h in H), and every A_g
    permutes the masks, whose bumps measure distance in the invariant form
    Q (LinearAction.form), so the interpolant is invariant.  For an
    orthogonal action Q is the identity, and the masks are
    jet_interpolate's.
    """
    pt = _exact_point(point, act.dim)
    if jet.basepoint != pt:
        raise ValueError("jet must be based at the given point")
    if jet.order > k:
        raise ValueError("jet order exceeds lift order")
    H, orbit = act._orbit(pt)
    for h in H.elements:
        if h != act.group.identity and transport_jet(jet, act, h) != jet:
            raise JetNotFixed(
                f"stabilizer element {h} does not fix the jet; lift obstructed"
            )
    # at k = 0 the jet is empty and R is zero
    rep = jet.as_polynomial()
    if k == 0 or len(orbit) == 1:
        return rep
    inverse = act.group.inverse
    return _interp_ntt([q for _, q in orbit],
                       [rep.substitute_linear(act.matrices[inverse[s]]) for s, _ in orbit],
                       k, act.form)
