"""Whitelisted expression evaluator: correctness, duals, constant folding,
rejection of anything outside the arithmetic subset, and the compiled
closures against a reference tree walk."""

import ast
import math

import pytest
from hypothesis import given, settings, strategies as st

import vhckit.expr
from vhckit.dual import Dual, eps, real
from vhckit.expr import (_CONSTS, _FUNCS, ExpressionError, compile_expression,
                         compile_matrix, compile_vector)


def test_basic_evaluation():
    f = compile_expression("sin(x) * y + y**2", ["x", "y"])
    assert f([0.5, 2.0]) == pytest.approx(math.sin(0.5) * 2.0 + 4.0)


def test_constants_and_pi():
    f = compile_expression("g * cos(pi)", ["q"], {"g": 9.81})
    assert f([0.0]) == pytest.approx(-9.81)


def test_unary_and_division():
    f = compile_expression("-x / (1 + x)", ["x"])
    assert f([1.0]) == pytest.approx(-0.5)


def test_dual_propagation():
    f = compile_expression("exp(2*x)", ["x"])
    d = f([Dual(0.3, 1.0)])
    assert real(d) == pytest.approx(math.exp(0.6))
    assert eps(d) == pytest.approx(2.0 * math.exp(0.6), rel=1e-12)


def test_vector_and_matrix():
    v = compile_vector(["x", "x + y"], ["x", "y"])
    assert v([1.0, 2.0]) == pytest.approx([1.0, 3.0])
    M = compile_matrix([["1", "0"], ["0", "x"]], ["x"])
    assert M([3.0])[1][1] == pytest.approx(3.0)
    assert M([3.0])[0][0] == pytest.approx(1.0)


@pytest.mark.parametrize("src", [
    "__import__('os')",
    "x.__class__",
    "open('f')",
    "lambda: 1",
    "[1,2]",
    "x if y else 0",
    "unknown_name",
    "x @ y",
])
def test_rejects_non_whitelisted(src):
    with pytest.raises(ExpressionError):
        f = compile_expression(src, ["x", "y"])
        f([1.0, 2.0])


def test_rejects_bad_syntax():
    with pytest.raises(ExpressionError):
        compile_expression("1 +", ["x"])


@pytest.mark.parametrize("src", ["sin(x, y)", "sin()", "abs(x, 1)",
                                 "cos(x=1)", "sin(*x)"])
def test_rejects_wrong_arity_at_compile(src):
    with pytest.raises(ExpressionError):
        compile_expression(src, ["x", "y"])


@pytest.mark.parametrize("src", ["x**True", "False", "x + None", "1j*x",
                                 "'a'"])
def test_rejects_non_real_literals(src):
    with pytest.raises(ExpressionError, match="literal"):
        compile_expression(src, ["x"])


@pytest.mark.parametrize("value", ["9.81", True, None, [1.0], 10 ** 400],
                         ids=["str", "bool", "none", "list", "beyond-float"])
def test_rejects_non_numeric_constants(value):
    with pytest.raises(ExpressionError, match="constant 'g'"):
        compile_expression("g*x", ["x"], {"g": value})


def test_constant_subexpressions_are_folded(monkeypatch):
    calls = []

    def cos(v):
        calls.append(v)
        return math.cos(v)

    monkeypatch.setitem(vhckit.expr._FUNCS, "cos", cos)
    f = compile_expression("cos(a + pi/2)*x - cos(x)", ["x"], {"a": 0.25})
    assert len(calls) == 1                      # the folded cos(a + pi/2)
    for x in (0.5, 1.5, -2.0):
        assert f([x]) == math.cos(0.25 + math.pi / 2) * x - math.cos(x)
    assert len(calls) == 4                      # one cos(x) per evaluation
    assert compile_expression("sqrt(2)*3 - 1", ["x"])([7.0]) == \
        math.sqrt(2) * 3 - 1


@pytest.mark.parametrize("src,error", [("log(0)*x", ValueError),
                                       ("x + 1/0", ZeroDivisionError),
                                       ("exp(1000) - x", OverflowError)])
def test_failing_constant_raises_at_evaluation(src, error):
    f = compile_expression(src, ["x"])
    with pytest.raises(error):
        f([1.0])


@pytest.mark.parametrize("src,match", [
    ("9**9**6*x", "integer power"),             # not computed: 9**531441
    ("10**400*x", "integer power"),
    ("2**1024*x", "float range"),               # computed, then refused
    ("(-1)**0.5*x", "not a real number"),
    ("x" + "+x" * 3000, "nests too deeply"),
], ids=["int-power-9", "int-power-10", "beyond-float", "complex",
        "deep-nesting"])
def test_hostile_constants_and_nesting_fail_at_compile(src, match):
    with pytest.raises(ExpressionError, match=match):
        compile_expression(src, ["x"])


# -- the compiled closures against the tree walk they replaced ---------------

_REF_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
               ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b,
               ast.Pow: lambda a, b: a ** b}


def _reference(node, env):
    if isinstance(node, ast.BinOp):
        return _REF_BINOPS[type(node.op)](_reference(node.left, env),
                                          _reference(node.right, env))
    if isinstance(node, ast.UnaryOp):
        value = _reference(node.operand, env)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](*[_reference(a, env) for a in node.args])
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTS[node.id]
    return node.value


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError, TypeError) as e:
        return type(e)


def _same(a, b):
    if isinstance(a, Dual) or isinstance(b, Dual):
        return (isinstance(a, Dual) and isinstance(b, Dual)
                and _same(a.val, b.val) and _same(a.eps, b.eps))
    return type(a) is type(b) and (a == b or (a != a and b != b))


# exponents are small ints or variables, so no exact power can grow without
# bound and no folded constant leaves the reals
_LEAF = st.sampled_from(["x", "y", "c", "pi", "0", "1", "2", "3", "0.5",
                         "2.5", "1e-3"])
_EXPONENT = st.sampled_from(["0", "1", "2", "3", "x", "y"])


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, _EXPONENT).map(lambda t: f"({t[0]})**{t[1]}"),
        st.tuples(st.sampled_from(sorted(_FUNCS)), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from("-+"), inner).map(
            lambda t: f"{t[0]}({t[1]})"))


_finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(src=st.recursive(_LEAF, _extend, max_leaves=8), x=_finite, y=_finite,
       c=st.sampled_from([2, 1.5, -0.75]))
def test_compiled_matches_reference_tree_walk(src, x, y, c):
    f = compile_expression(src, ["x", "y"], {"c": c})
    tree = ast.parse(src, mode="eval").body
    for values in ([x, y], [Dual(x, 1.0), Dual(y, -0.5)]):
        env = {"c": c, "x": values[0], "y": values[1]}
        got = _outcome(lambda: f(values))
        want = _outcome(lambda: _reference(tree, env))
        assert _same(got, want), (src, values, got, want)
