"""Small dense linear algebra on nested lists.

Entries may be floats or :class:`~vhckit.dual.Dual` numbers, which is why we
cannot defer to numpy here. Matrices in this toolkit are small (the reduced
dynamics solve 1x1 to 3x3 systems, and the tests go to 4x4), so Gaussian
elimination with partial pivoting is plenty. ``solve`` and ``det`` run it as
one straight-line Python function per shape, generated on first use and
kept: the pivot is the first row of largest |real| part, plain-zero
multipliers are skipped, and the operations come in the order of the row
loops it replaces, so values, on floats and on nested duals, and the duals
built are those of the loops.
"""

from __future__ import annotations

import functools
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


# -- straight-line kernels: shared by this module and ``vhc`` ------------------

def _tup(items):
    return "(" + "".join(f"{s}, " for s in items) + ")"


def _list(items):
    return "[" + ", ".join(items) + "]"


def _function(lines, name, **names):
    """The function ``run`` that ``lines`` define, compiled in a scope with
    no builtins beyond ``names``."""
    scope = {"__builtins__": {}, **names}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), scope)
    return scope["run"]


@functools.lru_cache(maxsize=None)
def _elimination(n, k):
    """(A, B) -> X with A X = B, for an n x n A and k columns of B; for
    k = None, A -> det A, the product of the pivots negated once per row
    swap. Forward elimination swaps the pivot row's live entries (and its
    right-hand side) into place, and back substitution subtracts in column
    order before it scales by the reciprocal pivot."""
    N, K = range(n), range(k or 0)
    rows = [[f"a{i}_{j}" for j in N] + [f"b{i}_{j}" for j in K] for i in N]
    lines = ["def run(A, B):", f" {_tup(_tup(r[:n]) for r in rows)} = A"]
    if k is not None:
        lines.append(f" {_tup(_tup(r[n:]) for r in rows)} = B")
    lines.append(" sg = 1.0")
    for c in N:
        lines.append(f" p = {c}; m = abs(real(a{c}_{c}))")
        for r in range(c + 1, n):
            lines += [f" v = abs(real(a{r}_{c}))",
                      f" if v > m: p = {r}; m = v"]
        lines.append(" if m == 0.0: raise SingularMatrixError("
                     "'singular matrix in solve()')")
        live = [*range(c, n), *range(n, len(rows[c]))]
        for r in range(c + 1, n):
            mine, theirs = ([rows[s][j] for j in live] for s in (c, r))
            lines += [f" {'el' if r > c + 1 else ''}if p == {r}:",
                      f"  {_tup(mine)}, {_tup(theirs)} = "
                      f"{_tup(theirs)}, {_tup(mine)}", "  sg = -sg"]
        lines.append(f" i{c} = 1.0 / a{c}_{c}")
        for r in range(c + 1, n):
            lines += [f" f = a{r}_{c} * i{c}",
                      " if isinstance(f, Dual) or not f == 0.0:"]
            lines += [f"  {rows[r][j]} = {rows[r][j]} - f * {rows[c][j]}"
                      for j in range(c + 1, len(rows[c]))]
    if k is None:
        lines.append(" return " + " * ".join(["sg"] + [f"a{i}_{i}" for i in N]))
    else:
        for r in reversed(N):
            lines += [f" x{r}_{j} = (b{r}_{j}" + "".join(
                f" - a{r}_{s} * x{s}_{j}" for s in range(r + 1, n))
                + f") * i{r}" for j in K]
        lines.append(" return "
                     + _list(_list(f"x{i}_{j}" for j in K) for i in N))
    return _function(lines, f"det{n}" if k is None else f"solve{n}x{k}",
                     real=real, abs=abs, isinstance=isinstance, Dual=Dual,
                     SingularMatrixError=SingularMatrixError)


def solve(A, B):
    """Solve A X = B for a matrix B (list of rows)."""
    n = len(A)
    return _elimination(n, len(B[0]) if n else 0)(A, B)


def det(A):
    """Determinant: the product of the pivots of ``solve``'s elimination,
    negated once per row swap; 0.0 where a pivot vanishes."""
    try:
        return _elimination(len(A), None)(A, None)
    except SingularMatrixError:
        return 0.0


def inverse(A):
    n = len(A)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return solve(A, eye)
