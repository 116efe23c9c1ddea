"""Whitelisted expression evaluator: correctness, duals, constant folding,
rejection of anything outside the arithmetic subset, the compiled programs
against a reference tree walk, and the derivatives compiled at load against
dual numbers."""

import ast
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import vhckit.expr
from vhckit.calculus import partial, second_partial, stacked, vector_partial
from vhckit.dual import Dual, eps, real
from vhckit.expr import (_CONSTS, _FUNCS, MAX_OPERATIONS, ExpressionError,
                         compile_expression, compile_matrix,
                         compile_matrix_gradient, compile_vector,
                         compile_vector_derivatives)


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


# -- derivatives compiled at load against dual numbers ------------------------

def _floats(fn):
    """The flattened floats fn returns, or the type of what it raises; a
    complex entry counts as a TypeError."""
    out = _outcome(fn)
    if isinstance(out, type):
        return out
    flat = []
    stack = [out]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif not isinstance(v, float):
            return TypeError
        else:
            flat.append(v)
    return flat


def _nearby(v):
    """v moved by one and by two ulps along each coordinate, both ways."""
    out = []
    for i in range(len(v)):
        for to in (math.inf, -math.inf):
            u = list(v)
            for _ in range(2):
                u[i] = math.nextafter(u[i], to)
                out.append(list(u))
    return out


def _fails(out):
    return isinstance(out, type) or any(v != v for v in out)


def _agrees(got, want, near):
    """Whether the compiled result ``got`` agrees with the dual result
    ``want`` at a point, given the dual results ``near`` it."""
    # Dual numbers also evaluate the terms whose tangent is zero, and so can
    # fail where the derivative exists (the slope of sqrt(y) at y = 0 while
    # x moves); the compiled rules drop those terms.
    if _fails(want):
        return True
    # Near a singular point the two round differently: acos(x/x) at x = 1.9
    # has dual slope -3.9e-9 in x, as x*(1/x) is not 1, while the compiled
    # slope divides by sqrt(1 - x/x) = 0. So the compiled result may fail
    # only where the dual one fails within two ulps.
    if _fails(got):
        return any(_fails(w) for w in near)
    # Otherwise they are equal to 1e-10 relative, up to the dual's rounding
    # noise, read from how far it moves within two ulps (y/(x*y) at
    # y = 1e-12 has dual slope 8.9e-5 in y, where the exact one is 0).
    noise = max([abs(a - b) for w in near if not _fails(w)
                 for a, b in zip(w, want)], default=0.0)
    return all(math.isclose(g, w, rel_tol=1e-10, abs_tol=1e-12 + 10.0 * noise)
               for g, w in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(src=st.recursive(_LEAF, _extend, max_leaves=8), x=_finite, y=_finite,
       c=st.sampled_from([2, 1.5, -0.75]))
# x/y near the float maximum: the float power of the derivative overflows,
# and so must the dual power of the value
@example(src="((x / y))**3", x=1.0, y=1.1125369292536007e-308, c=2)
def test_compiled_derivatives_match_dual_partials(src, x, y, c):
    f = compile_expression(src, ["x", "y"], {"c": c})
    value, df, d2f = compile_vector_derivatives([src], ["x", "y"], {"c": c})
    # the field's own program, parsed with its derivatives, is f
    assert _same(_outcome(lambda: value([x, y])[0]),
                 _outcome(lambda: f([x, y])))
    for program, reference in [
            (df, lambda v: [partial(f, v, i) for i in range(2)]),
            (d2f, lambda v: [[second_partial(f, v, i, j) for j in range(2)]
                             for i in range(2)])]:
        got = _floats(lambda: program([x, y])[0])
        want = _floats(lambda: reference([x, y]))
        near = [_floats(lambda: reference(u)) for u in _nearby([x, y])]
        assert _agrees(got, want, near), (src, x, y, got, want)


def test_matrix_gradient_layout():
    M, dM = compile_matrix_gradient([["x*y", "sin(y)"], ["2", "x**3"]],
                                    ["x", "y"])
    assert M([2.0, 0.5]) == [[1.0, math.sin(0.5)], [2, 8.0]]
    assert dM([2.0, 0.5]) == [[[0.5, 0.0], [0.0, 12.0]],
                              [[2.0, math.cos(0.5)], [0.0, 0.0]]]


def test_shared_subexpressions_are_evaluated_once(monkeypatch):
    calls = []

    def cos(v):
        calls.append(v)
        return math.cos(v)

    monkeypatch.setitem(vhckit.expr._FUNCS, "cos", cos)
    v = compile_vector(["cos(x)*y", "cos(x) + y*cos(x)", "cos(y)"],
                       ["x", "y"])
    assert v([0.5, 2.0]) == [math.cos(0.5) * 2.0,
                             math.cos(0.5) + 2.0 * math.cos(0.5),
                             math.cos(2.0)]
    assert calls == [0.5, 2.0]                  # cos(x) once, cos(y) once
    # d/dx sin(x)**2 = 2 sin(x) cos(x): one cos(x) per call, in the first
    # and the second derivative alike
    _, df, d2f = compile_vector_derivatives(["sin(x)*sin(x)"], ["x"])
    calls.clear()
    assert df([0.3]) == [[2.0 * (math.sin(0.3) * math.cos(0.3))]]
    assert calls == [0.3]
    calls.clear()
    d2f([0.3])
    assert calls == [0.3]


def test_program_size_is_bounded():
    def balanced(terms):
        if len(terms) == 1:
            return terms[0]
        mid = len(terms) // 2
        return f"({balanced(terms[:mid])} + {balanced(terms[mid:])})"

    src = balanced([f"x*{k}" for k in range(1, MAX_OPERATIONS // 2)])
    with pytest.raises(ExpressionError, match="operations"):
        compile_expression(src, ["x"])
    # the derivatives of a field count against the same bound
    small = balanced([f"sin(x*{k})" for k in range(1, MAX_OPERATIONS // 5)])
    compile_expression(small, ["x"])
    with pytest.raises(ExpressionError, match="operations"):
        compile_vector_derivatives([small], ["x"])


# -- the generated source against names from the expressions -----------------

_GENERATED = re.compile(r"r\d+|f_[a-z]+|f_abs_t")


def _generated_names_only(fn):
    """Whether ``fn`` reads only generated names bound in its namespace and
    holds no constant of the expressions as a literal."""
    code = fn.__code__
    return (set(code.co_names) <= set(fn.__globals__) - {"__builtins__"}
            and all(_GENERATED.fullmatch(name) for name in code.co_names)
            and all(type(v) is int or v is None for v in code.co_consts)
            and fn.__globals__["__builtins__"] == {})


@pytest.mark.parametrize("names", [("r1", "values", "f_sin"),
                                   ("run", "r0", "__builtins__")])
@settings(max_examples=100, deadline=None)
@given(src=st.recursive(_LEAF, _extend, max_leaves=8), x=_finite, y=_finite,
       c=st.sampled_from([2, 1.5, -0.75]))
def test_names_like_generated_ones_evaluate_as_the_tree_walk(names, src, x,
                                                             y, c):
    # x, y and c renamed to identifiers the generated source uses itself
    rename = dict(zip("xyc", names))
    hostile = re.sub(r"\b[xyc]\b", lambda m: rename[m.group()], src)
    f = compile_expression(hostile, list(names[:2]), {names[2]: c})
    assert _generated_names_only(f), hostile
    tree = ast.parse(src, mode="eval").body
    for values in ([x, y], [Dual(x, 1.0), Dual(y, -0.5)]):
        env = {"c": c, "x": values[0], "y": values[1]}
        got = _outcome(lambda: f(values))
        want = _outcome(lambda: _reference(tree, env))
        assert _same(got, want), (hostile, values, got, want)


def test_every_program_reads_only_generated_names():
    sources = [["x*g + sin(y)", "abs(x - y)", "exp(-x)*g"], ["x", "y", "g"]]
    programs = [*compile_vector_derivatives(sources[0], ["x", "y"], {"g": 3.5}),
                *compile_matrix_gradient(sources, ["x", "y"], {"g": 3.5}),
                compile_vector(sources[1], ["x", "y"], {"g": 3.5})]
    for program in programs:
        assert _generated_names_only(program)
        assert 3.5 not in program.__code__.co_consts



# -- programs at stacked points ------------------------------------------------

def _flat_floats(fn):
    """The floats fn returns, flattened in order, or the type of what it
    raises; a complex entry counts as a TypeError."""
    return _outcome(lambda: np.array(fn(), dtype=float).ravel().tolist())


@settings(max_examples=200, deadline=None)
@given(src=st.recursive(_LEAF, _extend, max_leaves=8),
       c=st.sampled_from([2, 1.5, -0.75]),
       points=st.lists(st.tuples(_finite, _finite), min_size=2, max_size=5))
def test_programs_at_stacked_points_are_the_points_programs(src, c, points):
    # the value, derivative and second-derivative programs at a float stack,
    # and the value program's partials at a seeded one: where the stacked
    # read succeeds, each entry is the float.hex of that point's own value;
    # where it raises, some point raises or gives a value that is not finite
    points = [list(p) for p in points]
    value, df, d2f = compile_vector_derivatives([src], ["x", "y"], {"c": c})
    reads = [value, df, d2f] + [
        lambda p, i=i: vector_partial(value, p, i) for i in range(2)]
    for read in reads:
        got = _outcome(lambda: stacked(read, points))
        want = [_flat_floats(lambda: read(p)) for p in points]
        if isinstance(got, type):
            assert any(isinstance(w, type) or not all(map(math.isfinite, w))
                       for w in want), (src, points)
            continue
        for k, w in enumerate(want):
            assert not isinstance(w, type), (src, points[k], w)
            assert [v.hex() for v in got[k].ravel().tolist()] == \
                [v.hex() for v in w], (src, points[k])


def test_a_power_at_a_stack_is_python_s_power():
    # numpy's power differs from Python's in the last bit at some points
    # (x**2 at 162 and x**3 at 8,214 of 200,000 draws), so a program runs
    # ** as dual.power at a stack
    f = compile_expression("x**2 + x**3 + y**x + 2.5**y", ["x", "y"])
    points = [[0.5 + 0.001 * k, 1.0 + 0.0007 * k] for k in range(2000)]
    got = stacked(f, points)
    assert [float(v).hex() for v in got] == \
        [float(f(p)).hex() for p in points]
