"""Exact linear algebra shared across the homological modules.

Integer matrices are tuples of row tuples with arbitrary-precision entries.
Field routines work mod a prime p, or over the rationals when p == 0
(Fraction entries).  Sizes here are desk scale; clarity over speed.
"""

from __future__ import annotations

from fractions import Fraction


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


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    m, k = shape(A)
    k2, n = shape(B)
    if k != k2:
        raise ValueError(f"shape mismatch {shape(A)} x {shape(B)}")
    Bt = transpose(B)
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_mod(A: Matrix, p: int) -> Matrix:
    return tuple(tuple(a % p for a in row) for row in A)


def is_zero(A: Matrix) -> bool:
    return all(a == 0 for row in A for a in row)


def from_rows(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def det(A: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m, n = shape(A)
    if m != n:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- Smith normal form -----------------------------------------------------


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (D, U, V) with U*A*V = D, U and V unimodular, and D diagonal
    with each diagonal entry dividing the next.

    Pivots are chosen as the smallest nonzero entry in absolute value, which
    keeps entry growth tame on the small matrices seen here.
    """
    m, n = shape(A)
    a = [list(row) for row in A]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
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

    D = tuple(tuple(a[i][j] for j in range(n)) for i in range(m))
    U = tuple(tuple(row) for row in u)
    V = tuple(tuple(row) for row in v)
    return D, U, V


def snf_diagonal(A: Matrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form of A, in divisibility order."""
    D, _, _ = smith_normal_form(A)
    m, n = shape(D)
    return [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]


# -- field linear algebra (F_p for prime p, rationals for p = 0) -----------


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def rref(rows, p: int):
    """Reduced row echelon form over F_p (p prime) or Q (p == 0).

    Returns (rref_rows, pivot_columns).  Input rows are int (p > 0) or
    Fraction/int (p == 0); they are not modified.
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
        inv = _inv_mod(mat[r][c], p) if p else 1 / mat[r][c]
        mat[r] = [(x * inv) % p if p else x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                if p:
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
                else:
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
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
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols if not p else [0] * ncols
        vec[fc] = 1 if p else Fraction(1)
        for r, pc in enumerate(piv):
            val = red[r][fc]
            vec[pc] = (-val) % p if p else -val
        basis.append(vec)
    return basis


def solve(rows, rhs, p: int):
    """One solution x of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, piv = rref(aug, p)
    for r in range(len(red)):
        if all(x == 0 for x in red[r][:ncols]) and red[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols if not p else [0] * ncols
    for r, pc in enumerate(piv):
        if pc < ncols:
            x[pc] = red[r][ncols]
    return x


def column_space_basis(cols, p: int):
    """Subset of the given column vectors forming a basis of their span."""
    if not cols:
        return []
    mat = [list(r) for r in zip(*cols)]
    _, piv = rref(mat, p)
    return [cols[i] for i in piv]


def extend_basis(base_cols, candidate_cols, p: int):
    """Greedily extend base_cols by candidates to a larger independent set.

    Returns the chosen candidates (not the combined basis).
    """
    chosen = []
    current = [list(c) for c in base_cols]
    cur_rank = rank([list(r) for r in zip(*current)], p) if current else 0
    for cand in candidate_cols:
        trial = current + [list(cand)]
        r = rank([list(r) for r in zip(*trial)], p)
        if r > cur_rank:
            chosen.append(cand)
            current = trial
            cur_rank = r
    return chosen
