"""Exact integer-matrix helpers that only the tests use: products,
reduction mod p, the zero test and the determinant, on the tuple-of-rows
matrices of equimorse._intlinalg."""


def mat_mul(A, B):
    if any(len(row) != len(B) for row in A):
        raise ValueError("shape mismatch")
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


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
