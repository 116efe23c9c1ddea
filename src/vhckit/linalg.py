"""Small dense linear algebra on nested lists.

Entries may be floats or :class:`~vhckit.dual.Dual` numbers, which is why we
cannot defer to numpy here. Matrices in this toolkit are small (the reduced
dynamics solve 1x1 to 3x3 systems, and the tests go to 4x4), so Gaussian
elimination with partial pivoting is plenty. ``solve`` and ``det`` run it as
one straight-line Python function per shape, generated on first use and
kept: the pivot is the first row of largest |real| part, plain-zero
multipliers are skipped, and the operations come in the order of the row
loops it replaces, so values, on floats and on nested duals, and the duals
built are those of the loops. ``stacked_solve`` runs the same elimination at
every point of a stack (numpy arrays with one entry per point), choosing
the pivot, the swap and the multiplier skip at each point.
"""

from __future__ import annotations

import functools
from operator import mul

import numpy as np

from . import dual
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
def _elimination(n, k, stacked=False):
    """(A, B) -> X with A X = B, for an n x n A and k columns of B; for
    k = None, A -> det A, the product of the pivots negated once per row
    swap. Forward elimination swaps the pivot row's live entries (and its
    right-hand side) into place, and back substitution subtracts in column
    order before it scales by the reciprocal pivot. ``stacked`` compiles it
    for stacks, where the pivot, the swap and the multiplier skip are
    chosen at each point (``dual.where``) and a vanishing pivot at any
    point raises."""
    N, K = range(n), range(k or 0)
    rows = [[f"a{i}_{j}" for j in N] + [f"b{i}_{j}" for j in K] for i in N]
    lines = ["def run(A, B):", f" {_tup(_tup(r[:n]) for r in rows)} = A"]
    if k is not None:
        lines.append(f" {_tup(_tup(r[n:]) for r in rows)} = B")
    lines.append(" sg = 1.0")
    for c in N:
        lines.append(f" p = {c}; m = abs(real(a{c}_{c}))")
        for r in range(c + 1, n):
            lines.append(f" v = abs(real(a{r}_{c}))")
            lines.append(f" s = v > m; p = where(s, {r}, p); m = where(s, v, m)"
                         if stacked else f" if v > m: p = {r}; m = v")
        zero = "anyof(m == 0.0)" if stacked else "m == 0.0"
        lines.append(f" if {zero}: raise SingularMatrixError("
                     "'singular matrix in solve()')")
        live = [*range(c, n), *range(n, len(rows[c]))]
        for r in range(c + 1, n):
            mine, theirs = ([rows[s][j] for j in live] for s in (c, r))
            if stacked:
                lines += [f" w = p == {r}", f" {_tup(mine)}, {_tup(theirs)} = "
                          + _tup(f"where(w, {t}, {m})" for t, m in
                                 zip(theirs, mine)) + ", "
                          + _tup(f"where(w, {m}, {t})" for t, m in
                                 zip(theirs, mine)),
                          " sg = where(w, -sg, sg)"]
            else:
                lines += [f" {'el' if r > c + 1 else ''}if p == {r}:",
                          f"  {_tup(mine)}, {_tup(theirs)} = "
                          f"{_tup(theirs)}, {_tup(mine)}", "  sg = -sg"]
        lines.append(f" i{c} = 1.0 / a{c}_{c}")
        for r in range(c + 1, n):
            lines.append(f" f = a{r}_{c} * i{c}")
            if stacked:
                lines += [" s = isinstance(f, Dual) or f != 0.0",
                          " if anyof(s):"]
                lines += [f"  {rows[r][j]} = where(s, {rows[r][j]} - f * "
                          f"{rows[c][j]}, {rows[r][j]})"
                          for j in range(c + 1, len(rows[c]))]
                continue
            lines.append(" if isinstance(f, Dual) or not f == 0.0:")
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
                     abs=abs, isinstance=isinstance, real=real, Dual=Dual,
                     SingularMatrixError=SingularMatrixError,
                     where=dual.where, anyof=np.any)


def solve(A, B):
    """Solve A X = B for a matrix B (list of rows)."""
    n = len(A)
    return _elimination(n, len(B[0]) if n else 0)(A, B)


def stacked_solve(A, B):
    """``solve`` at each point of a stack, whose entries are stacks, Duals
    of them or numbers: each entry of X is, bit for bit, the one that
    point's own solve gives. SingularMatrixError where a pivot vanishes at
    any point; TypeError where the points' own eliminations would leave a
    Dual in an entry at some points and a plain number at others."""
    n = len(A)
    return _elimination(n, len(B[0]) if n else 0, stacked=True)(A, B)


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

