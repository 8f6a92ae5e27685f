"""Exact linear algebra shared across the homological modules.

A matrix is stored as its columns: column j is a tuple of (row, entry)
pairs in increasing row order, every entry nonzero.  Field routines work
mod a prime p, or over the rationals when p == 0 (Fraction entries).  One
sparse elimination, `eliminate`, gives ranks and the persistence pairing of
a filtered map over a field and the unit part of the Smith form over Z;
`_invariant_factors` takes the dense rows the units leave to their
invariant factors (`smith_diagonal`).  The Smith form is its diagonal only:
no change of basis is computed.  Callers that reduce a whole complex
(`complexes.homology`, `spectral._bars`) hand each map only the columns
that the pivots of the map above do not clear.  Loops walk the nonzero
entries only, and all arithmetic stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


Column = tuple[tuple[int, int], ...]


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
    _MR_EXACT.  From there on an n with no factor among the bases raises
    ValueError, since no exact test of it is cheap."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    if n >= _MR_EXACT:
        raise ValueError(f"primality is decided exactly only below {_MR_EXACT}")
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


# -- Smith normal form -----------------------------------------------------


def smith_diagonal(units: int, rest) -> list[int]:
    """The Smith diagonal of an integer matrix from its elimination over Z:
    a 1 per unit pivot, then the invariant factors of the remainders rest,
    as `eliminate` returns them, over the rows they touch."""
    left = [a for _, a in rest if a]
    rows = {i: t for t, i in enumerate(sorted({i for a in left for i in a}))}
    dense = [[0] * len(left) for _ in rows]
    for j, a in enumerate(left):
        for i, x in a.items():
            dense[rows[i]][j] = x
    return [1] * units + _invariant_factors(dense)


def _invariant_factors(rows) -> list[int]:
    """The nonzero invariant factors of the integer matrix with these rows
    (equal-length sequences), in divisibility order.

    Each step pivots on an entry of least absolute value and clears its row
    and column by rounded quotients, so a nonzero remainder is at most half
    the pivot and becomes the next pivot.  A pivot left alone in its row and
    column is a diagonal entry, and its row and column are dropped.  The
    diagonal is then put in divisibility order by replacing each pair with
    its (gcd, lcm), which keeps the Smith form.
    """
    a = [list(row) for row in rows]
    diag = []
    while True:
        best = min(((abs(x), i, j) for i, row in enumerate(a)
                    for j, x in enumerate(row) if x), default=None)
        if best is None:
            break
        d, i, j = best
        p, prow = a[i][j], a[i]
        alone = True
        for r, row in enumerate(a):
            if r != i and row[j]:
                q = (2 * row[j] + p) // (2 * p)    # |row[j] - q p| <= |p|/2
                a[r] = row = [x - q * y for x, y in zip(row, prow)]
                alone = alone and not row[j]
        for c, y in enumerate(prow):
            if c != j and y:
                q = (2 * y + p) // (2 * p)
                for row in a:
                    if row[j]:
                        row[c] -= q * row[j]
                alone = alone and not prow[c]
        if alone:
            diag.append(d)
            del a[i]
            for row in a:
                del row[j]
    for s in range(len(diag)):
        for t in range(s + 1, len(diag)):
            g = gcd(diag[s], diag[t])
            diag[s], diag[t] = g, diag[s] // g * diag[t]
    return diag
