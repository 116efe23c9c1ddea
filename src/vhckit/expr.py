"""Small safe math-expression language for user-supplied models.

Expressions are parsed with ``ast``, checked against a whitelist of
arithmetic operations and dual-aware math functions, and lowered once into
nested closures, so user configs can be differentiated like built-in
models. Subexpressions that read no variable are folded to constants at
compile time."""

from __future__ import annotations

import ast
import math
import operator

from . import dual as dm


class ExpressionError(ValueError):
    pass


_FUNCS = {
    "sin": dm.sin, "cos": dm.cos, "tan": dm.tan,
    "exp": dm.exp, "log": dm.log, "sqrt": dm.sqrt,
    "atan": dm.atan, "asin": dm.asin, "acos": dm.acos,
    "sinh": dm.sinh, "cosh": dm.cosh, "tanh": dm.tanh,
    "atanh": dm.atanh, "abs": abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


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


def _apply(op, *args):
    """Closure ``values -> op(*args)`` over lowered children, or the folded
    value when no child reads a variable."""
    if not any(map(callable, args)):
        # an exact int power this large would take unbounded time to compute
        if (op is operator.pow and type(args[0]) is type(args[1]) is int
                and args[1] > 0 and abs(args[0]) > 1
                and args[1] * math.log2(abs(args[0])) > 1024):
            raise ExpressionError("integer power exceeds the float range")
        try:
            value = op(*args)
        except (ArithmeticError, ValueError):
            pass        # left unfolded, so it raises where the field is evaluated
        else:
            return _number(value)
    if len(args) == 1:
        a, = args
        return (lambda v: op(a(v))) if callable(a) else (lambda v: op(a))
    a, b = args
    if callable(a) and callable(b):
        return lambda v: op(a(v), b(v))
    if callable(a):
        return lambda v: op(a(v), b)
    if callable(b):
        return lambda v: op(a, b(v))
    return lambda v: op(a, b)


def _lower(node, index, consts):
    """Check one parsed node and lower it: variable ``i`` becomes
    ``lambda v: v[i]``, a name or literal its value, every other node one
    closure over its lowered children (see ``_apply``)."""
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        return _apply(_BINOPS[type(node.op)], _lower(node.left, index, consts),
                      _lower(node.right, index, consts))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        operand = _lower(node.operand, index, consts)
        return operand if isinstance(node.op, ast.UAdd) else _apply(operator.neg, operand)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ExpressionError("only whitelisted function calls allowed")
        if node.keywords or len(node.args) != 1:
            raise ExpressionError(f"{node.func.id}() takes one positional argument")
        return _apply(_FUNCS[node.func.id], _lower(node.args[0], index, consts))
    if isinstance(node, ast.Name):
        if node.id in index:
            i = index[node.id]
            return lambda v: v[i]
        if node.id not in consts:
            raise ExpressionError(f"unknown name {node.id!r}")
        return consts[node.id]
    if isinstance(node, ast.Constant):
        return _number(node.value, "literal")
    raise ExpressionError(f"syntax {type(node).__name__} not allowed")


def compile_expression(src, variables, constants=None):
    """Callable(env_values...) -> value for a validated expression string.

    ``variables`` is the ordered argument list; ``constants`` are extra
    fixed name bindings (model parameters)."""
    constants = dict(constants or {})
    for name, value in constants.items():
        _number(value, f"constant {name!r}")
    try:
        tree = ast.parse(src, mode="eval")
        body = _lower(tree.body, {v: i for i, v in enumerate(variables)},
                      {**_CONSTS, **constants})
    except SyntaxError as e:
        raise ExpressionError(f"cannot parse {src!r}: {e}") from None
    except RecursionError:
        raise ExpressionError(f"expression nests too deeply: {src[:40]!r}...") from None
    fn = body if callable(body) else (lambda values: body)
    fn.source = src
    return fn


def compile_vector(sources, variables, constants=None):
    fns = [compile_expression(s, variables, constants) for s in sources]
    return lambda values: [f(values) for f in fns]


def compile_matrix(sources, variables, constants=None):
    rows = [[compile_expression(s, variables, constants) for s in row]
            for row in sources]
    return lambda values: [[f(values) for f in row] for row in rows]
