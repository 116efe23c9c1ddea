"""Small dense linear algebra on nested lists.

Entries may be floats or :class:`~vhckit.dual.Dual` numbers, which is why we
cannot defer to numpy here. Matrices in this toolkit are at most 3x3, so
Gaussian elimination with partial pivoting is plenty.
"""

from __future__ import annotations

from operator import mul

from .dual import Dual, real


class SingularMatrixError(ArithmeticError):
    pass


def mat_vec(A, v):
    return [sum(map(mul, row, v)) for row in A]


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def _eliminate(a, rhs):
    """Forward elimination with partial pivoting (the first row of largest
    |real| part), in place on the rows of ``a`` and ``rhs``: returns the
    reciprocal pivots and the number of row swaps."""
    n = len(a)
    invs, swaps = [None] * n, 0
    for col in range(n):
        piv = col
        for r in range(col + 1, n):
            if abs(real(a[r][col])) > abs(real(a[piv][col])):
                piv = r
        if real(a[piv][col]) == 0.0:
            raise SingularMatrixError("singular matrix in solve()")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            swaps += 1
        prow, prhs = a[col], rhs[col]
        inv = invs[col] = 1.0 / prow[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col] * inv
            if not isinstance(f, Dual) and f == 0.0:
                continue
            for c in range(col + 1, n):
                row[c] = row[c] - f * prow[c]
            rhs[r] = [v - f * w for v, w in zip(rhs[r], prhs)]
    return invs, swaps


def solve(A, B):
    """Solve A X = B for a matrix B (list of rows)."""
    n = len(A)
    # rows of rhs are replaced, never changed in place: a shallow copy will do
    rhs = list(B)
    a = [list(row) for row in A]
    invs, _ = _eliminate(a, rhs)
    x = [None] * n
    for r in range(n - 1, -1, -1):
        row, s, inv = a[r], rhs[r], invs[r]
        for k in range(r + 1, n):
            ark = row[k]
            s = [u - ark * w for u, w in zip(s, x[k])]
        x[r] = [u * inv for u in s]
    return x


def det(A):
    """Determinant: the product of the pivots of ``solve``'s elimination,
    negated once per row swap; 0.0 where a pivot vanishes."""
    a = [list(row) for row in A]
    try:
        _, swaps = _eliminate(a, [[] for _ in a])
    except SingularMatrixError:
        return 0.0
    d = -1.0 if swaps % 2 else 1.0
    for i, row in enumerate(a):
        d = d * row[i]
    return d


def inverse(A):
    n = len(A)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return solve(A, eye)
