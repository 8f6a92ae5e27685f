"""Exact matrix helpers that only the tests use, on dense tuple-of-rows
matrices: the identity, products, reduction mod p, the zero test, the
determinant, the column form that equimorse stores, and a dense reduced row
echelon form, its null space and the textbook persistence reduction as the
references for its sparse elimination, the rank and the Smith diagonal of
a whole column matrix by that elimination, and the boundary maps of random
sparse complexes and of their duals."""

from fractions import Fraction
from itertools import combinations

from equimorse import _intlinalg as la


def mat_mul(A, B):
    if any(len(row) != len(B) for row in A):
        raise ValueError("shape mismatch")
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def identity(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mod(A, p: int):
    return tuple(tuple(a % p for a in row) for row in A)


def is_zero(A) -> bool:
    return all(a == 0 for row in A for a in row)


def det(A) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
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


def columns(A, ncols=None):
    """The (row, entry) columns of a dense matrix, zeros left out; ncols
    gives the width of a matrix without rows."""
    n = len(A[0]) if A else ncols or 0
    return tuple(tuple((i, row[j]) for i, row in enumerate(A) if row[j])
                 for j in range(n))


def snf_diagonal(cols) -> list[int]:
    """Nonzero diagonal entries of the Smith form of the integer matrix with
    these columns, in divisibility order.

    Every +-1 pivot of `eliminate` is a diagonal 1, and `_invariant_factors`
    runs only on the columns the units leave, over the rows they touch.
    """
    pivots, rest = la.eliminate(sorted(cols, key=len), 0, integral=True)
    return la.smith_diagonal(len(pivots), rest)


def rank(cols, p: int) -> int:
    """Rank over F_p (p prime) or Q (p == 0) of the matrix with these
    columns, eliminated shortest column first."""
    return len(la.eliminate(sorted(cols, key=len), p)[0])


def rref(rows, p: int):
    """Reduced row echelon form over F_p (p prime) or Q (p == 0), by dense
    Gauss-Jordan elimination: (rref_rows, pivot_columns)."""
    mat = [[x % p if p else Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / mat[r][c]
        mat[r] = [x * inv % p if p else x * inv for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                mat[i] = [(x - f * y) % p if p else x - f * y
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def rref_nullspace(A, n, p):
    """The null space basis of the dense matrix A with n columns read off
    its rref, as (index, entry) pairs."""
    red, piv = rref(A, p)
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        vec = {fc: 1}
        for r, pc in enumerate(piv):
            if red[r][fc]:
                vec[pc] = -red[r][fc] % p if p else -red[r][fc]
        basis.append(tuple(sorted(vec.items())))
    return basis


def low_reduction(A, n, p):
    """The textbook left-to-right column reduction of the dense matrix A
    with n columns over F_p (p prime) or Q (p == 0): while a column's low
    (its last nonzero row) is the low of a column before it, subtract the
    multiple of that column that clears it.  Returns (R, V, pairs): R = A V
    and V, unit upper triangular, as lists of dense columns, and the
    (low, column) pair of every nonzero column of R."""
    R = [[row[j] % p if p else Fraction(row[j]) for row in A] for j in range(n)]
    V = [[int(i == j) for i in range(n)] for j in range(n)]
    owner = {}
    for j in range(n):
        while True:
            i = max((i for i, x in enumerate(R[j]) if x), default=None)
            if i is None or i not in owner:
                break
            k = owner[i]
            f = R[j][i] * pow(R[k][i], -1, p) % p if p else R[j][i] / R[k][i]
            R[j] = [(x - f * y) % p if p else x - f * y for x, y in zip(R[j], R[k])]
            V[j] = [(x - f * y) % p if p else x - f * y for x, y in zip(V[j], V[k])]
        if i is not None:
            owner[i] = j
    return R, V, sorted(owner.items())


def random_sparse_complex(rng, top=3, nverts=6):
    """Dense boundary maps of a random sparse complex over Z in degrees
    0..top: the simplicial complex closed down from a few random simplices
    on nverts vertices, each generator's orientation flipped at random and
    some columns of the top nonzero map scaled by 2 or 3, which leaves
    torsion.  Returns (ranks, boundary)."""
    simplices = {n: set() for n in range(top + 1)}
    for _ in range(rng.randint(1, 8)):
        s = sorted(rng.sample(range(nverts), rng.randint(1, top + 1)))
        for k in range(1, len(s) + 1):
            simplices[k - 1].update(combinations(s, k))
    basis = {n: sorted(v) for n, v in simplices.items()}
    index = {n: {s: i for i, s in enumerate(b)} for n, b in basis.items()}
    sign = {n: [rng.choice((1, -1)) for _ in b] for n, b in basis.items()}
    ranks = {n: len(b) for n, b in basis.items()}
    maps = [n for n in range(1, top + 1) if ranks[n]]
    boundary = {}
    for n in maps:
        d = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for j, s in enumerate(basis[n]):
            scale = rng.choice((1, 1, 2, 3)) if n == maps[-1] else 1
            for k in range(n + 1):
                i = index[n - 1][s[:k] + s[k + 1:]]
                d[i][j] = (-1) ** k * sign[n][j] * sign[n - 1][i] * scale
        boundary[n] = tuple(map(tuple, d))
    return ranks, boundary


def dual_complex(ranks, boundary):
    """The dual of a complex given by dense boundary maps, on negated
    degrees as `bredon_cochain_complex` lays it out: degree -n holds C^n,
    and the map out of -(n - 1) is the transpose of d_n."""
    return ({-n: r for n, r in ranks.items()},
            {-(n - 1): tuple(zip(*d)) for n, d in boundary.items()})
