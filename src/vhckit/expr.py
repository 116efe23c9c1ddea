"""Small safe math-expression language for user-supplied models.

Expressions are parsed with ``ast`` and checked against a whitelist of
arithmetic operations and dual-aware math functions. Each compiled field
(one expression, or a vector or matrix of them) is one generated Python
function with one statement per operation. Structurally equal
subexpressions share a register, so each is evaluated once per call, and
subexpressions that read no variable are folded to constants at compile
time. No text of the expressions enters the generated source; its code is
compiled once per distinct source and shared by every load that emits it.

Partial derivatives are taken once, at load, by the chain rule on the same
registers (``compile_vector_derivatives``, ``compile_matrix_gradient``): a
rule reads the registers of the values it needs (the slope of exp(u) reads
the register of exp(u)), abs has slope +1 at 0 as in ``Dual.__abs__``, and
terms whose derivative is structurally zero are dropped. A field with its
derivatives may take at most ``MAX_OPERATIONS`` operations. Programs accept
dual arguments, so higher derivatives can still be taken through them, and
stacked points (``calculus.stacked``): ``**`` runs as ``dual.power``, and
abs' takes the sign of each entry.
"""

from __future__ import annotations

import ast
import functools
import math
import operator

from . import dual as dm


class ExpressionError(ValueError):
    pass


# operations per field program, derivatives included
MAX_OPERATIONS = 10_000


def _abs_tangent(x, d):
    """The derivative ``d`` of x carried through abs: slope +1 at 0, as in
    ``Dual.__abs__``; at a stacked point, the sign of each entry."""
    neg = x < 0.0
    try:
        return -d if neg else d
    except ValueError:
        return dm.where(neg, -d, d)


_FUNCS = {
    "sin": dm.sin, "cos": dm.cos, "tan": dm.tan,
    "exp": dm.exp, "log": dm.log, "sqrt": dm.sqrt,
    "atan": dm.atan, "asin": dm.asin, "acos": dm.acos,
    "sinh": dm.sinh, "cosh": dm.cosh, "tanh": dm.tanh,
    "atanh": dm.atanh, "abs": abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

# the operations besides _FUNCS, by register name, as constants fold them
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "**": dm.power, "neg": operator.neg,
        "abs'": _abs_tangent}

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Pow: "**"}

_COMMUTATIVE = ("+", "*")


def _number(value, what="constant subexpression"):
    """``value`` itself if it is a real number that converts to float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"{what} is not a real number "
                              f"({type(value).__name__})")
    try:
        float(value)
    except OverflowError:
        raise ExpressionError(f"{what} exceeds the float range") from None
    return value


class _Program:
    """The registers of one field under construction, in creation order, so
    every operand precedes its use. A register is a variable, a constant or
    an operation ``(name, a, b)`` on registers a and b (b None for one
    operand), hash-consed on that triple."""

    def __init__(self, variables, constants=None):
        constants = dict(constants or {})
        for name, value in constants.items():
            _number(value, f"constant {name!r}")
        self.index = {v: i for i, v in enumerate(variables)}
        self.names = {**_CONSTS, **constants}
        # looked up now, so a program keeps the functions it was built with
        self.fns = {**_OPS, **_FUNCS}
        self.nodes = [("var", i, None) for i in range(len(self.index))]
        self.value = {}             # constant register -> value
        self.keys = {}              # node or constant key -> register
        self.diffs = {}             # variable -> {register: d register}

    def _new(self, key, node):
        if len(self.nodes) >= len(self.index) + MAX_OPERATIONS:
            raise ExpressionError(f"a field needs more than {MAX_OPERATIONS} "
                                  f"operations")
        r = self.keys[key] = len(self.nodes)
        self.nodes.append(node)
        return r

    def const(self, value):
        # repr tells 0.0 from -0.0, and the type 1 from 1.0
        key = ("const", type(value), repr(value))
        r = self.keys.get(key)
        if r is None:
            r = self._new(key, ("const", None, None))
            self.value[r] = value
        return r

    def op(self, name, a, b=None):
        """Register of ``name`` on a (and b), folded to a constant when every
        operand is one and the operation succeeds."""
        value = self.value
        if a in value and (b is None or b in value):
            fn = self.fns[name]
            vals = (value[a],) if b is None else (value[a], value[b])
            # an exact int power this large would take unbounded time
            if (fn is dm.power and type(vals[0]) is type(vals[1]) is int
                    and vals[1] > 0 and abs(vals[0]) > 1
                    and vals[1] * math.log2(abs(vals[0])) > 1024):
                raise ExpressionError("integer power exceeds the float range")
            try:
                folded = fn(*vals)
            except (ArithmeticError, ValueError):
                pass    # left unfolded, so it raises where the field is evaluated
            else:
                return self.const(_number(folded))
        if name in _COMMUTATIVE and b < a:
            a, b = b, a
        key = (name, a, b)
        r = self.keys.get(key)
        return self._new(key, key) if r is None else r

    # -- lowering -------------------------------------------------------------
    def parse(self, src):
        try:
            return self._lower(ast.parse(src, mode="eval").body)
        except SyntaxError as e:
            raise ExpressionError(f"cannot parse {src!r}: {e}") from None
        except RecursionError:
            raise ExpressionError(
                f"expression nests too deeply: {src[:40]!r}...") from None

    def _lower(self, node):
        """Check one parsed node and return its register."""
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ExpressionError(
                    f"operator {type(node.op).__name__} not allowed")
            return self.op(_BINOPS[type(node.op)], self._lower(node.left),
                           self._lower(node.right))
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.UAdd, ast.USub)):
                raise ExpressionError(
                    f"operator {type(node.op).__name__} not allowed")
            operand = self._lower(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else \
                self.op("neg", operand)
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError("only whitelisted function calls allowed")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError(
                    f"{node.func.id}() takes one positional argument")
            return self.op(node.func.id, self._lower(node.args[0]))
        if isinstance(node, ast.Name):
            if node.id in self.index:
                return self.index[node.id]
            if node.id not in self.names:
                raise ExpressionError(f"unknown name {node.id!r}")
            return self.const(self.names[node.id])
        if isinstance(node, ast.Constant):
            return self.const(_number(node.value, "literal"))
        raise ExpressionError(f"syntax {type(node).__name__} not allowed")

    def _operands(self, k):
        name, a, b = self.nodes[k]
        return () if name in ("var", "const") else (a,) if b is None else (a, b)

    # -- differentiation ------------------------------------------------------
    # The helpers below drop the 0 and 1 identities of derivative terms. Two
    # constants still fold through op(), so a constant derivative has the
    # type the arithmetic gives it (3 * 1.0 is 3.0, not the int 3).
    def _is(self, r, v):
        return r in self.value and self.value[r] == v

    def _add(self, a, b):
        if a not in self.value or b not in self.value:
            if self._is(a, 0):
                return b
            if self._is(b, 0):
                return a
        return self.op("+", a, b)

    def _sub(self, a, b):
        if a not in self.value or b not in self.value:
            if self._is(b, 0):
                return a
            if self._is(a, 0):
                return self._neg(b)
        return self.op("-", a, b)

    def _mul(self, a, b):
        if a not in self.value or b not in self.value:
            if self._is(a, 0) or self._is(b, 0):
                return self.const(0.0)
            if self._is(a, 1):
                return b
            if self._is(b, 1):
                return a
        return self.op("*", a, b)

    def _div(self, a, b):
        if a not in self.value or b not in self.value:
            if self._is(a, 0):
                return self.const(0.0)
            if self._is(b, 1):
                return a
        return self.op("/", a, b)

    def _neg(self, a):
        return self.const(0.0) if self._is(a, 0) else self.op("neg", a)

    def derivative(self, r, i):
        """Register of the partial derivative of register r by variable i.
        The registers r depends on are differentiated once each, in creation
        order, and remembered for later calls."""
        d = self.diffs.setdefault(i, {})
        todo, stack = set(), [r]
        while stack:
            k = stack.pop()
            if k in d or k in todo:
                continue
            todo.add(k)
            stack.extend(self._operands(k))
        for k in sorted(todo):
            d[k] = self._chain(k, i, d)
        return d[r]

    def _chain(self, k, i, d):
        """The derivative of register k by variable i from those of its
        operands, by the chain rule; abs has slope +1 at 0, as in
        ``Dual.__abs__``."""
        name, u, w = self.nodes[k]
        if name == "const":
            return self.const(0.0)
        if name == "var":
            return self.const(1.0 if u == i else 0.0)
        du = d[u]
        dw = None if w is None else d[w]
        if self._is(du, 0) and (dw is None or self._is(dw, 0)):
            return self.const(0.0)
        one = self.const(1.0)
        if name == "+":
            return self._add(du, dw)
        if name == "-":
            return self._sub(du, dw)
        if name == "neg":
            return self._neg(du)
        if name == "*":
            return self._add(self._mul(u, dw), self._mul(du, w))
        if name == "/":
            return self._div(self._sub(du, self._mul(k, dw)), w)
        if name == "**":
            if w in self.value:                         # c u**(c - 1) du
                c = self.value[w]
                if c == 1:
                    return du
                power = u if c == 2 else self.op("**", u, self.const(c - 1))
                return self._mul(self._mul(w, power), du)
            return self._mul(k, self._add(
                self._mul(dw, self.op("log", u)),
                self._mul(w, self._div(du, u))))
        if name in ("abs", "abs'"):
            slope = du if name == "abs" else dw
            return self.const(0.0) if self._is(slope, 0) else \
                self.op("abs'", u, slope)
        if name == "sin":
            return self._mul(self.op("cos", u), du)
        if name == "cos":
            return self._mul(self._neg(self.op("sin", u)), du)
        if name == "tan":
            return self._mul(self._add(one, self._mul(k, k)), du)
        if name == "exp":
            return self._mul(k, du)
        if name == "log":
            return self._div(du, u)
        if name == "sqrt":
            return self._div(du, self._mul(self.const(2.0), k))
        if name == "atan":
            return self._div(du, self._add(one, self._mul(u, u)))
        if name in ("asin", "acos"):
            root = self.op("sqrt", self._sub(one, self._mul(u, u)))
            return self._div(du if name == "asin" else self._neg(du), root)
        if name == "atanh":
            return self._div(du, self._sub(one, self._mul(u, u)))
        if name == "tanh":
            return self._mul(self._sub(one, self._mul(k, k)), du)
        if name == "sinh":
            return self._mul(self.op("cosh", u), du)
        if name == "cosh":
            return self._mul(self.op("sinh", u), du)
        raise ExpressionError(f"no derivative rule for {name!r}")

    # -- emission -------------------------------------------------------------
    def program(self, outputs):
        """Function ``values -> outputs``, where ``outputs`` is a register or
        nested lists of them, generated as Python source with one statement
        per operation they need, in register order. Register k is the name
        ``rk``: a local for a variable or an operation, and for a constant a
        name bound in the function's namespace, as each function is. No text
        of the expressions enters the source."""
        leaves = []
        result = _display(outputs, leaves)
        need, stack = set(), leaves
        while stack:
            k = stack.pop()
            if k not in need:
                need.add(k)
                stack.extend(self._operands(k))
        n = len(self.index)
        lines = ["def run(values):"]
        lines += [f" r{k} = values[{k}]" for k in range(n)]
        scope = {"__builtins__": {}}
        for k in sorted(need):
            if k in self.value:
                scope[f"r{k}"] = self.value[k]
            elif k >= n:
                op, a, b = self.nodes[k]
                line, fn = _EMIT[op]
                if fn:
                    scope[fn] = self.fns[op]
                lines.append(line % ((k, a) if b is None else (k, a, b)))
        lines.append(" return " + result)
        exec(_code("\n".join(lines)), scope)
        return scope["run"]


# the statement of each operation, and the name it binds its function to
_EMIT = {op: (f" r%d = r%d {op} r%d", None) for op in ("+", "-", "*", "/")}
_EMIT["**"] = (" r%d = f_pow(r%d, r%d)", "f_pow")
_EMIT["neg"] = (" r%d = -r%d", None)
_EMIT["abs'"] = (" r%d = f_abs_t(r%d, r%d)", "f_abs_t")
_EMIT.update({op: (f" r%d = f_{op}(r%d)", f"f_{op}") for op in _FUNCS})


@functools.lru_cache(maxsize=256)
def _code(source):
    """The compiled source of a program, shared by every load that emits
    the same text."""
    return compile(source, "<expr program>", "exec")


def _display(outputs, leaves):
    """Python display of ``outputs``, a register or nested lists of them,
    whose registers are appended to ``leaves``."""
    if isinstance(outputs, int):
        leaves.append(outputs)
        return f"r{outputs}"
    return f"[{', '.join([_display(o, leaves) for o in outputs])}]"


def names_read(sources):
    """The names that the expression strings ``sources`` read as values:
    variables and constants, not the functions they call."""
    read = set()
    for src in sources:
        nodes = list(ast.walk(ast.parse(src, mode="eval")))
        called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        read |= {n.id for n in nodes
                 if isinstance(n, ast.Name) and id(n) not in called}
    return read


def compile_expression(src, variables, constants=None):
    """Callable(values) -> value for a validated expression string.

    ``variables`` is the ordered argument list; ``constants`` are extra
    fixed name bindings (model parameters)."""
    prog = _Program(variables, constants)
    fn = prog.program(prog.parse(src))
    fn.source = src
    return fn


def compile_vector(sources, variables, constants=None):
    prog = _Program(variables, constants)
    return prog.program([prog.parse(s) for s in sources])


def compile_matrix(sources, variables, constants=None):
    prog = _Program(variables, constants)
    return prog.program([[prog.parse(s) for s in row] for row in sources])


def compile_vector_derivatives(sources, variables, constants=None):
    """Programs ``(f, df, d2f)`` of a vector field of expression strings,
    parsed once, with ``df[a][i]`` = d_i f_a and ``d2f[a][i][j]`` =
    d_i d_j f_a (the forms of ``ConstraintParametrization.phi``, ``dphi``
    and ``d2phi``). Each pair i <= j is built once, as d_i of d_j f, the
    order of ``calculus.second_partial``."""
    prog = _Program(variables, constants)
    dims = range(len(prog.index))
    f = [prog.parse(s) for s in sources]
    df = [[prog.derivative(fa, i) for i in dims] for fa in f]
    d2f = [[[None] * len(dims) for _ in dims] for _ in df]
    for a, dfa in enumerate(df):
        for j in dims:
            for i in range(j + 1):
                d2f[a][i][j] = d2f[a][j][i] = prog.derivative(dfa[j], i)
    return prog.program(f), prog.program(df), prog.program(d2f)


def compile_matrix_gradient(sources, variables, constants=None):
    """Programs ``(M, dM)`` of a matrix field of expression strings, parsed
    once, with the gradient ``dM[l][i][j]`` = d_l M_ij (the forms of
    ``LagrangianControlSystem.D`` and ``dD``)."""
    prog = _Program(variables, constants)
    rows = [[prog.parse(s) for s in row] for row in sources]
    return prog.program(rows), prog.program(
        [[[prog.derivative(m, l) for m in row] for row in rows]
         for l in range(len(prog.index))])
