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

``taped_solve`` runs a generated kernel of such arithmetic and its solve
on a float tape: traced once per input structure on twins of Duals with
symbolic leaves, it repeats the float operations of Dual's own methods in
their order, so values and ``repr`` are those of the Duals, which it builds
only for the output (forward mode by source transformation: Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 3 and 13).
"""

from __future__ import annotations

import functools
import math
import operator
from operator import mul
from types import FunctionType

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
def _elimination(n, k, traced=False, stacked=False):
    """(A, B) -> X with A X = B, for an n x n A and k columns of B; for
    k = None, A -> det A, the product of the pivots negated once per row
    swap. Forward elimination swaps the pivot row's live entries (and its
    right-hand side) into place, and back substitution subtracts in column
    order before it scales by the reciprocal pivot. ``traced`` compiles it
    for a trace's _TraceDuals; ``stacked`` for stacks, where the pivot, the
    swap and the multiplier skip are chosen at each point (``dual.where``)
    and a vanishing pivot at any point raises."""
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
    duals = (dict(real=_TRACE_SCOPE["real"], Dual=_TraceDual) if traced
             else dict(real=real, Dual=Dual))
    return _function(lines, f"det{n}" if k is None else f"solve{n}x{k}",
                     abs=abs, isinstance=isinstance,
                     SingularMatrixError=SingularMatrixError,
                     where=dual.where, anyof=np.any, **duals)


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


# -- float tapes of seeded kernels --------------------------------------------
# A seeded call of a kernel (reduction_matrix's projection) and its solve
# spends its time building Duals. ``taped_solve`` runs such a call once on
# ``_TraceDual``s whose leaves are ``_Sym``s: each float operation that
# Dual's methods, the kernel and the elimination perform is recorded, in
# order, as one line of a tape, and each value test the trace meets (a
# comparison, or the truth of a number) as a guard with its outcome. The
# tape compiles to one straight-line function that unpacks the inputs,
# checks their structure, runs the floats and builds the output Duals once;
# where a guard does not hold, it returns None, and the call's own path is
# traced and added as a branch. A trace builds no Dual and calls no
# ``solve``: its work is compilation, done once per process.

MAX_PATHS = 8       # traced paths per tape; past it a miss runs the kernel
RUN = object()      # a tape's answer where the call must run the kernel
_tapes = {}         # caller's key -> [_Tape], one per input structure


class _TraceDual:
    """A Dual in a trace. Its methods are Dual's own, made from the same
    code with the name ``Dual`` bound to this class, so the product rules
    stay written once and a trace builds no Dual."""

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0.0):
        self.val = val
        self.eps = eps


def _retargeted(f, scope):
    return FunctionType(f.__code__, scope, f.__name__, f.__defaults__)


_TRACE_SCOPE = {**vars(dual), "Dual": _TraceDual}
for _name, _f in vars(dual).items():
    if type(_f) is FunctionType and _f.__module__ == dual.__name__:
        _TRACE_SCOPE[_name] = _retargeted(_f, _TRACE_SCOPE)
for _name, _f in vars(Dual).items():
    if type(_f) is FunctionType and _name != "__init__":
        setattr(_TraceDual, _name, _retargeted(_f, _TRACE_SCOPE))


class _Sym:
    """A number in a trace: its value ``v`` and the tape variable ``n``
    that holds it, recorded on the trace ``t``."""

    __slots__ = ("v", "n", "t")

    def __init__(self, v, n, t):
        self.v, self.n, self.t = v, n, t

    def __neg__(self):
        return self.t.op(-self.v, f"-{self.n}")

    def __abs__(self):
        return self.t.op(abs(self.v), f"abs({self.n})")

    def __bool__(self):
        return self.t.test(bool(self.v), self.n)


def _operand(b):
    """(value, source) of a number or a _Sym; None for a _TraceDual or
    anything else, so that Python offers the operation to the other
    operand."""
    if type(b) is _Sym:
        return b.v, b.n
    if (type(b) is float or type(b) is int) and math.isfinite(b):
        return b, repr(b)
    return None


def _recorded(symbol, fn, record):
    """The forward and reflected methods for the binary ``symbol``, which
    record fn's result with the trace's ``record`` ("op" or "test")."""
    def forward(a, b):
        o = _operand(b)
        if o is None:
            return NotImplemented
        return getattr(a.t, record)(fn(a.v, o[0]), f"{a.n} {symbol} {o[1]}")

    def reflected(a, b):
        o = _operand(b)
        if o is None:
            return NotImplemented
        return getattr(a.t, record)(fn(o[0], a.v), f"{o[1]} {symbol} {a.n}")

    return forward, reflected


for _name, _symbol in (("add", "+"), ("sub", "-"), ("mul", "*"),
                       ("truediv", "/")):
    _forward, _reflected = _recorded(_symbol, getattr(operator, _name), "op")
    setattr(_Sym, f"__{_name}__", _forward)
    setattr(_Sym, f"__r{_name}__", _reflected)
for _name, _symbol in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="),
                       ("eq", "=="), ("ne", "!=")):
    setattr(_Sym, f"__{_name}__",
            _recorded(_symbol, getattr(operator, _name), "test")[0])
del _name, _f, _symbol, _forward, _reflected


class _Trace:
    """One run of a kernel on _Syms: ``path`` holds its lines, its guards
    as (condition, outcome) and, last, its return or raise line. An
    operation already on the path is not repeated: its value is the same."""

    def __init__(self):
        self.path, self.done = [], {}

    def op(self, value, expr):
        sym = self.done.get(expr)
        if sym is None:
            sym = self.done[expr] = _Sym(value, f"t{len(self.path)}", self)
            self.path.append(f"{sym.n} = {expr}")
        return sym

    def test(self, outcome, cond):
        self.path.append((cond, outcome))
        return outcome


def _structure(x):
    """The shape of nested lists and Duals down to each leaf's type."""
    t = type(x)
    if t is Dual:
        return (Dual, _structure(x.val), _structure(x.eps))
    if t is list or t is tuple:
        return (list, *map(_structure, x))
    return t


def _names(s, name, unpack, checks, types):
    """Add the lines that unpack an input of structure s, held in ``name``,
    and the type checks of its leaves, naming each leaf type in ``types``."""
    if type(s) is not tuple:
        checks.append(f"type({name}) is "
                      f"{types.setdefault(s, f'T{len(types)}')}")
    elif s[0] is Dual:
        unpack.append(f"{name}v = {name}.val; {name}e = {name}.eps")
        _names(s[1], name + "v", unpack, checks, types)
        _names(s[2], name + "e", unpack, checks, types)
    else:
        names = [f"{name}_{k}" for k in range(len(s) - 1)]
        unpack.append(f"{_tup(names)} = {name}")
        for cs, cn in zip(s[1:], names):
            _names(cs, cn, unpack, checks, types)


def _lift(x, s, name, trace):
    """x as _TraceDuals of _Syms named as ``_names`` names its leaves;
    TypeError for a leaf that is not a float, int or None."""
    if type(s) is tuple:
        if s[0] is Dual:
            return _TraceDual(_lift(x.val, s[1], name + "v", trace),
                              _lift(x.eps, s[2], name + "e", trace))
        return [_lift(c, cs, f"{name}_{k}", trace)
                for k, (c, cs) in enumerate(zip(x, s[1:]))]
    if s is float or s is int:
        return _Sym(x, name, trace)
    if x is None:
        return None
    raise TypeError(f"no tape for a {s.__name__} input")


def _source(x):
    """The tape expression that rebuilds an output x."""
    t = type(x)
    if t is _Sym:
        return x.n
    if t is _TraceDual:
        return f"Dual({_source(x.val)}, {_source(x.eps)})"
    if t is list:
        return _list(map(_source, x))
    if t is tuple:
        return _tup(map(_source, x))
    return _operand(x)[1]       # a constant; TypeError for anything else


def _emit(paths, k, pad, out, miss):
    """Append the tape lines of traced ``paths`` from their element k on,
    where they agree before k: a line once, and a guard that the paths take
    both ways as an ``if`` around the one way, else as an early ``miss``."""
    while True:
        e = paths[0][k]
        k += 1
        if type(e) is str:
            out.append(pad + e)
            if k == len(paths[0]):
                return
            continue
        yes = [p for p in paths if p[k - 1][1]]
        no = [p for p in paths if not p[k - 1][1]]
        if yes and no:
            out.append(f"{pad}if {e[0]}:")
            _emit(yes, k, pad + " ", out, miss)
            paths = no
        else:
            out.append(f"{pad}if {'not ' if yes else ''}{e[0]}: "
                       f"return {miss}")


class _Tape:
    """The traced paths of one input structure and their compiled tape:
    ``run`` returns the output, None for a call of another structure or
    off the traced paths, or RUN for one that the tape cannot take."""

    def __init__(self, structure):
        self.structure, self.paths = structure, []
        self.args = [f"a{k}" for k in range(len(structure) - 1)]
        unpack, checks, types = [], [], {}
        for s, name in zip(structure[1:], self.args):
            _names(s, name, unpack, checks, types)
        self.types = {n: t for t, n in types.items()}
        self.head = [f"def run({', '.join(self.args)}):", " try:",
                     *("  " + line for line in unpack),
                     " except (AttributeError, TypeError, ValueError):",
                     "  return None",
                     f" if not ({' and '.join(checks) or 'True'}): "
                     "return None"]

    def add(self, kernel, args):
        """Trace solve(*kernel(*args)) and compile the tape with its path.
        Where the call has no path (a leaf of another type, an error other
        than a singular matrix), or MAX_PATHS are traced, the tape answers
        RUN off its paths from then on."""
        trace = _Trace()
        try:
            A, B = kernel(*[_lift(*c, trace) for c in
                            zip(args, self.structure[1:], self.args)])
            try:
                X = _elimination(len(A), len(B[0]) if A else 0, True)(A, B)
                end = f"return {_source(X)}"
            except SingularMatrixError as e:
                end = f"raise SingularMatrixError({str(e)!r})"
        except (ArithmeticError, AttributeError, LookupError, TypeError,
                ValueError):
            closed = True
        else:
            self.paths.append(trace.path + [end])
            closed = len(self.paths) == MAX_PATHS
        lines = list(self.head)
        if self.paths:
            _emit(self.paths, 0, " ", lines, "RUN" if closed else "None")
        else:
            lines.append(" return RUN")
        self.run = _function(lines, "tape", Dual=Dual, abs=abs, type=type,
                             RUN=RUN, SingularMatrixError=SingularMatrixError,
                             AttributeError=AttributeError,
                             TypeError=TypeError, ValueError=ValueError,
                             **self.types)


def taped_solve(key, kernel, args):
    """solve(*kernel(*args)), for a kernel of float and Dual arithmetic, run
    on its float tape: bit for bit the values of the Duals, in the same
    structure, building only the output's Duals. ``key`` names the kernel;
    under it, one tape per structure of ``args`` is traced on first use and
    kept, and the kernel itself runs a call that no tape can take."""
    tapes = _tapes.setdefault(key, [])
    for tape in tapes:
        out = tape.run(*args)
        if out is RUN:
            return solve(*kernel(*args))
        if out is not None:
            return out
    s = _structure(args)
    tape = next((t for t in tapes if t.structure == s), None)
    if tape is None:
        tape = _Tape(s)
        tapes.append(tape)
    tape.add(kernel, args)
    out = tape.run(*args)
    return solve(*kernel(*args)) if out is RUN else out
