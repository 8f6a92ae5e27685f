"""Exact linear algebra shared across the homological modules.

Integer matrices are tuples of row tuples with arbitrary-precision entries.
Field routines work mod a prime p, or over the rationals when p == 0
(Fraction entries).  Every quotient is read off one elimination: a basis
extension, a span and a set of coordinates each come from the pivots and
entries of a single rref.  Loops walk the nonzero entries only, and all
arithmetic stays exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


Matrix = tuple[tuple[int, ...], ...]


def zeros(m: int, n: int) -> Matrix:
    return tuple((0,) * n for _ in range(m))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(A: Matrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


def transpose(A: Matrix) -> Matrix:
    m, n = shape(A)
    return tuple(tuple(A[i][j] for i in range(m)) for j in range(n))


def product_is_zero(A: Matrix, B: Matrix, p: int = 0) -> bool:
    """Whether A*B is zero (mod p when p > 0), multiplying nonzero entries
    only and stopping at the first nonzero row of the product."""
    b_rows = [[(k, b) for k, b in enumerate(row) if b] for row in B]
    for row in A:
        acc: dict[int, int] = {}
        for j, a in enumerate(row):
            if a:
                for k, b in b_rows[j]:
                    acc[k] = acc.get(k, 0) + a * b
        if any(x % p if p else x for x in acc.values()):
            return False
    return True


def from_rows(rows, p: int = 0) -> Matrix:
    """Int tuples of the rows, reduced into [0, p) when p > 0."""
    if p:
        return tuple(tuple(int(x) % p for x in row) for row in rows)
    return tuple(tuple(int(x) for x in row) for row in rows)


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


# -- Smith normal form -----------------------------------------------------


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D, U and V unimodular, and D diagonal
    with each diagonal entry dividing the next.

    Pivots are chosen as the smallest nonzero entry in absolute value, which
    keeps entry growth tame on the small matrices seen here.
    """
    a, u, v = _smith(A, track=True)
    return (tuple(tuple(row) for row in a), tuple(tuple(row) for row in u),
            tuple(tuple(row) for row in v))


def snf_diagonal(A: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form of A, in divisibility order.

    The same elimination as `smith_normal_form`, without building U and V.
    """
    a, _, _ = _smith(A, track=False)
    return [a[i][i] for i in range(min(shape(A))) if a[i][i] != 0]


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


# -- field linear algebra (F_p for prime p, rationals for p = 0) -----------


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def rref(rows, p: int):
    """Reduced row echelon form over F_p (p prime) or Q (p == 0).

    Returns (rref_rows, pivot_columns).  Input rows are int (p > 0) or
    Fraction/int (p == 0); they are not modified.  Each elimination step
    touches only the nonzero entries of the pivot row.
    """
    if p:
        mat = [[x % p for x in row] for row in rows]
    else:
        mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        inv = _inv_mod(prow[c], p) if p else 1 / prow[c]
        # the pivot row is zero left of c: earlier columns are cleared
        nz = [j for j in range(c, ncols) if prow[j]]
        for j in nz:
            prow[j] = (prow[j] * inv) % p if p else prow[j] * inv
        for i in range(nrows):
            row = mat[i]
            f = row[c]
            if i != r and f:
                if p:
                    for j in nz:
                        row[j] = (row[j] - f * prow[j]) % p
                else:
                    for j in nz:
                        row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank(rows, p: int) -> int:
    if not rows or not rows[0]:
        return 0
    _, piv = rref(rows, p)
    return len(piv)


def nullspace(rows, p: int):
    """Basis of the right null space, as a list of column vectors (lists)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, piv = rref(rows, p)
    pivots = set(piv)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols if not p else [0] * ncols
        vec[fc] = 1 if p else Fraction(1)
        for r, pc in enumerate(piv):
            val = red[r][fc]
            vec[pc] = (-val) % p if p else -val
        basis.append(vec)
    return basis


def extend_basis(base_cols, candidate_cols, p: int):
    """A basis of span(base_cols) and its greedy extension by candidates,
    from one rref of [base | candidates].

    Returns (spanning, chosen): the base columns outside the span of the
    base columns before them, and the candidates outside the span of
    base_cols and of the candidates before them.  Both are the pivot
    columns of their block.
    """
    cols = [*base_cols, *candidate_cols]
    if not cols:
        return [], []
    _, piv = rref([list(r) for r in zip(*cols)], p)
    nb = len(base_cols)
    return ([base_cols[c] for c in piv if c < nb],
            [candidate_cols[c - nb] for c in piv if c >= nb])
