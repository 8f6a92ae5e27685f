"""Exact linear algebra shared across the homological modules.

A matrix is stored as its columns: column j is a tuple of (row, entry)
pairs in increasing row order, every entry nonzero.  Field routines work
mod a prime p, or over the rationals when p == 0 (Fraction entries).  One
sparse elimination, `eliminate`, gives ranks and the persistence pairing of
a filtered map over a field and the unit part of the Smith form over Z; the
dense `_smith`, on tuples of row tuples, diagonalises what the units leave
and serves `smith_normal_form`, which also returns U and V.  Loops walk the
nonzero entries only, and all arithmetic stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt


Matrix = tuple[tuple[int, ...], ...]
Column = tuple[tuple[int, int], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(A: Matrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


def transpose(A, nrows: int) -> tuple[Column, ...]:
    """The columns of the transpose of the matrix with columns A and nrows
    rows."""
    out = [[] for _ in range(nrows)]
    for j, col in enumerate(A):
        for i, x in col:
            out[i].append((j, x))
    return tuple(map(tuple, out))


def product_is_zero(A, B, p: int = 0) -> bool:
    """Whether A*B is zero (mod p when p > 0), for matrices given by their
    columns: each column of the product sums the columns of A that a column
    of B names, and the check stops at the first nonzero one."""
    for col in B:
        acc: dict[int, int] = {}
        for j, b in col:
            for i, a in A[j]:
                acc[i] = acc.get(i, 0) + a * b
        if any(x % p if p else x for x in acc.values()):
            return False
    return True


# Miller-Rabin to the prime bases up to 41 is exact below _MR_EXACT
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: a deterministic Miller-Rabin test below
    _MR_EXACT, trial division above it."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_EXACT:
        return all(n % d for d in range(43, isqrt(n) + 1, 2))
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- sparse elimination ------------------------------------------------------


def eliminate(cols, p: int, integral: bool = False, low=None):
    """Reduce the columns of a matrix, in the order given, by unit pivots.

    Over a field (F_p for a prime p, Q for p == 0) every nonzero entry is a
    unit; over Z (integral, p == 0) only +-1 is.  Each column is reduced by
    the pivot columns before it.  If a unit is left, the column becomes a
    pivot column, scaled to 1 on the unit whose row has the fewest entries
    in the matrix (Markowitz), or, when low gives a filtration degree per
    row, on its last row in (filtration, index) order.  A pivot column is
    zero in the pivot rows of the pivots before it, so a column meets each
    pivot at most once, in pivot order.  Under the second rule the pivot
    columns therefore have distinct last rows, and each is its input column
    plus columns before it, so the (row, column) pairs are those of the
    textbook left-to-right column reduction: the persistence pairing when
    the columns come in filtration order.  Over Z a column with no unit
    left is reduced again after every pass that made a pivot, and the Smith
    form of the matrix is a 1 per pivot followed by the Smith form of the
    remainders.

    Returns (pivots, rest): (column index, pivot row) per pivot in pivot
    order, and (index, remainder) for every other column in index order.
    The remainder is a {row: entry} dict, empty over a field.
    """
    work = []
    count: dict[int, int] = {}
    for col in cols:
        a = {}
        for i, x in col:
            x = x % p if p else (x if integral else Fraction(x))
            if x:
                a[i] = x
                count[i] = count.get(i, 0) + 1
        work.append(a)
    owner: dict[int, int] = {}    # pivot row -> its place in `pivots`
    pivots: list[tuple[int, int]] = []
    done: set[int] = set()
    reduced = []                  # (pivot row, column) per pivot
    pending = range(len(work))
    while pending:
        made = False
        for j in pending:
            a = work[j]
            heap = [owner[i] for i in a if i in owner]
            if heap:
                heapify(heap)
            while heap:
                i, b = reduced[heappop(heap)]
                c = a.get(i)
                if not c:
                    continue
                for r, y in b.items():
                    z = a.get(r, 0) - c * y
                    if p:
                        z %= p
                    if not z:
                        del a[r]
                        continue
                    if r not in a and r in owner:
                        heappush(heap, owner[r])
                    a[r] = z
            units = [i for i, x in a.items() if x == 1 or x == -1] if integral else a
            if not units:
                continue
            if low is None:
                i = min(units, key=count.__getitem__)
            else:
                i = max(units, key=lambda i: (low[i], i))
            s = a[i]
            if s != 1:
                inv = pow(s, -1, p) if p else (s if integral else 1 / s)
                a = {r: x * inv % p if p else x * inv for r, x in a.items()}
            owner[i] = len(pivots)
            pivots.append((j, i))
            done.add(j)
            reduced.append((i, a))
            made = True
        pending = [j for j in pending if j not in done and work[j]] if made else []
    return pivots, [(j, a) for j, a in enumerate(work) if j not in done]


def rank(cols, p: int) -> int:
    """Rank over F_p (p prime) or Q (p == 0) of the matrix with these
    columns, eliminated shortest column first."""
    return len(eliminate(sorted(cols, key=len), p)[0])


# -- Smith normal form -----------------------------------------------------


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D for the dense matrix A (a tuple of row
    tuples), U and V unimodular, and D diagonal with each diagonal entry
    dividing the next.

    Pivots are chosen as the smallest nonzero entry in absolute value, which
    keeps entry growth tame on the small matrices seen here.
    """
    a, u, v = _smith(A, track=True)
    return (tuple(tuple(row) for row in a), tuple(tuple(row) for row in u),
            tuple(tuple(row) for row in v))


def snf_diagonal(cols) -> list[int]:
    """Nonzero diagonal entries of the Smith form of the integer matrix with
    these columns, in divisibility order.

    Every +-1 pivot of `eliminate` is a diagonal 1, and the dense `_smith`
    runs only on the columns the units leave, over the rows they touch.
    """
    pivots, rest = eliminate(sorted(cols, key=len), 0, integral=True)
    left = [a for _, a in rest if a]
    rows = {i: t for t, i in enumerate(sorted({i for a in left for i in a}))}
    dense = [[0] * len(left) for _ in rows]
    for j, a in enumerate(left):
        for i, x in a.items():
            dense[rows[i]][j] = x
    d, _, _ = _smith(dense, track=False)
    return [1] * len(pivots) + [d[t][t] for t in range(min(len(rows), len(left)))
                                if d[t][t]]


def _smith(A: Matrix, track: bool):
    """Diagonalise a copy of A in place; U and V are None unless tracked."""
    m, n = shape(A)
    a = [list(row) for row in A]
    u = [list(row) for row in identity(m)] if track else None
    v = [list(row) for row in identity(n)] if track else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if track:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        if track:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if track:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in a:
            if row[j]:
                row[i] += c * row[j]
        if track:
            for row in v:
                if row[j]:
                    row[i] += c * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if track:
            u[i] = [-x for x in u[i]]

    def find_pivot(t):
        # the first entry of least absolute value in scan order; nothing
        # beats a unit, so the scan stops at the first one
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (best is None or x < best[0]):
                    if x == 1:
                        return (1, i, j)
                    best = (x, i, j)
        return best

    def divround(x, d):
        # quotient with |remainder| <= |d|/2, to keep entry growth tame
        q, r = divmod(x, d)
        if 2 * abs(r) > abs(d):
            q += 1
        return q

    def diagonalise(start):
        t = start
        while t < min(m, n):
            # re-select the smallest pivot on every sweep; with rounded
            # quotients the pivot magnitude at least halves per sweep
            piv = find_pivot(t)
            if piv is None:
                break
            while True:
                _, pi, pj = piv
                if pi != t:
                    swap_rows(t, pi)
                if pj != t:
                    swap_cols(t, pj)
                clear = True
                for i in range(t + 1, m):
                    if a[i][t]:
                        add_row(i, t, -divround(a[i][t], a[t][t]))
                        if a[i][t]:
                            clear = False
                for j in range(t + 1, n):
                    if a[t][j]:
                        add_col(j, t, -divround(a[t][j], a[t][t]))
                        if a[t][j]:
                            clear = False
                if clear:
                    break
                piv = find_pivot(t)
            if a[t][t] < 0:
                negate_row(t)
            t += 1

    diagonalise(0)

    # enforce the divisibility chain d1 | d2 | ...: fold the offending entry
    # back into the block and rediagonalise from there
    while True:
        bad = None
        for i in range(min(m, n) - 1):
            if a[i][i] != 0 and a[i + 1][i + 1] != 0 and a[i + 1][i + 1] % a[i][i] != 0:
                bad = i
                break
        if bad is None:
            break
        add_col(bad, bad + 1, 1)
        diagonalise(bad)
    return a, u, v
