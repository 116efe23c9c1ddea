"""Forward-mode dual numbers against finite-difference and closed-form
oracles, including nesting and the lifted-seeding regression."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vhckit import dual as dm
from vhckit.dual import Dual, eps, real, seed
from vhckit.expr import compile_expression

FD = 1e-6

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def fd_derivative(f, x, h=FD):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_arithmetic_values():
    a = Dual(2.0, 1.0)
    assert real(a + 3.0) == 5.0
    assert real(3.0 + a) == 5.0
    assert real(a * a) == 4.0
    assert real(a - 1.0) == 1.0
    assert real(1.0 - a) == -1.0
    assert real(a / 2.0) == 1.0
    assert real(2.0 / a) == 1.0
    assert real(-a) == -2.0
    assert real(a ** 3) == 8.0


def test_int_power_overflows_as_float_power_does():
    # 1e200 ** 2 raises OverflowError for a float, so it does for a dual;
    # an infinite base and an underflowing negative power do not raise
    for x in (1e200, Dual(1e200, 1.0)):
        with pytest.raises(OverflowError):
            Dual(x, 1.0) ** 2
    assert real(Dual(math.inf, 1.0) ** 2) == math.inf
    assert real(Dual(1e200, 1.0) ** -2) == 0.0


def test_constant_base_power():
    # c ** x = exp(x log c), the non-int branch of __pow__ seen from the base
    d = 2 ** Dual(0.7, 1.0)
    assert real(d) == pytest.approx(2.0 ** 0.7, rel=1e-15)
    assert eps(d) == pytest.approx(2.0 ** 0.7 * math.log(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        (-2.0) ** Dual(0.5, 1.0)


def test_float_power_is_the_power_rule():
    # u ** c for a plain float c is c u^(c-1) du, as expr compiles it: a
    # negative base with an integral c is fine at every nesting level, a
    # non-integral c still raises, and a dual exponent keeps exp(c log u)
    d = Dual(Dual(-1.5, 1.0), 1.0) ** 2.0
    assert (real(d), real(eps(d)), eps(eps(d))) == (2.25, -3.0, 2.0)
    d = Dual(2.0, 1.0) ** 0.5
    assert real(d) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert eps(d) == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        Dual(-2.0, 1.0) ** 0.5
    d = Dual(2.0, 1.0) ** Dual(0.5, 0.0)
    assert eps(d) == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        Dual(-2.0, 1.0) ** Dual(2.0, 0.0)


@given(finite)
@settings(max_examples=50, deadline=None)
def test_product_and_chain_rule(x):
    f = lambda t: dm.sin(t) * dm.exp(0.3 * t) + t * t * t
    d = f(Dual(x, 1.0))
    exact = (math.cos(x) * math.exp(0.3 * x)
             + 0.3 * math.sin(x) * math.exp(0.3 * x) + 3.0 * x * x)
    assert eps(d) == pytest.approx(exact, abs=1e-9)


@given(st.floats(min_value=0.2, max_value=2.5))
@settings(max_examples=30, deadline=None)
def test_transcendental_derivatives(x):
    cases = [
        (dm.log, lambda t: 1.0 / t),
        (dm.sqrt, lambda t: 0.5 / math.sqrt(t)),
        (dm.tan, lambda t: 1.0 / math.cos(t) ** 2),
        (dm.atan, lambda t: 1.0 / (1.0 + t * t)),
        (dm.tanh, lambda t: 1.0 - math.tanh(t) ** 2),
        (dm.sinh, math.cosh),
        (dm.cosh, math.sinh),
        (dm.exp, math.exp),
    ]
    for f, fprime in cases:
        assert eps(f(Dual(x, 1.0))) == pytest.approx(fprime(x), rel=1e-12)


def test_division_derivative_matches_fd():
    f = lambda t: (t * t + 1.0) / (dm.cos(t) + 2.0)
    x = 0.7
    assert eps(f(Dual(x, 1.0))) == pytest.approx(
        fd_derivative(lambda t: (t * t + 1.0) / (math.cos(t) + 2.0), x),
        abs=1e-8)


def test_nested_second_derivative():
    # d^2/dx^2 sin(x^2) = 2 cos(x^2) - 4 x^2 sin(x^2)
    x = 0.9
    d = dm.sin(Dual(Dual(x, 1.0), 1.0) ** 2)
    exact = 2.0 * math.cos(x * x) - 4.0 * x * x * math.sin(x * x)
    assert eps(eps(d)) == pytest.approx(exact, rel=1e-12)


def test_seed_lifts_existing_duals():
    # Seeding direction i over coordinates that already carry a derivative
    # must keep the two infinitesimals distinct.
    x = [Dual(0.5, 1.0), 2.0]
    xs = seed(x, 1)
    # cross derivative d/dx1 d/dx0 of x0 * x1  ->  1
    prod = xs[0] * xs[1]
    assert real(real(prod)) == pytest.approx(1.0)
    assert real(eps(eps(prod))) == pytest.approx(1.0)


def test_mixed_partial_of_cot_like_function():
    # Regression: an outer seed must not contaminate an inner derivative.
    # g(u, v) = cos(u) / sin(u) + v, evaluated with nested seeds.
    u, v = 1.1, 0.4

    def g(z):
        return dm.cos(z[0]) / dm.sin(z[0]) + z[1]

    inner = seed([u, v], 0)           # du
    outer = seed(inner, 0)            # du again, one level up
    val = g(outer)
    d2 = eps(eps(val))
    # d^2/du^2 cot(u) = 2 cos(u) / sin(u)^3
    assert real(d2) == pytest.approx(2.0 * math.cos(u) / math.sin(u) ** 3,
                                     rel=1e-10)


def test_depth_three_nesting():
    # third derivative of exp(2x): 8 exp(2x)
    x = 0.3
    z = Dual(Dual(Dual(x, 1.0), 1.0), 1.0)
    d = dm.exp(2.0 * z)
    assert eps(eps(eps(d))) == pytest.approx(8.0 * math.exp(2.0 * x),
                                             rel=1e-12)


def test_comparisons_and_helpers():
    a = Dual(2.0, 5.0)
    assert real(a) == 2.0
    assert eps(a) == 5.0
    assert eps(3.0) == 0.0
    assert real(3.0) == 3.0
    assert abs(real(a) - 2.0) == 0.0


def test_integer_power_derivative():
    x = 1.3
    assert eps(Dual(x, 1.0) ** 5) == pytest.approx(5.0 * x ** 4, rel=1e-12)
    assert abs(Dual(-x, 1.0)).val == pytest.approx(x)


def test_small_integer_powers_are_repeated_products():
    # n <= 3 keeps the exact products of repeated multiplication
    for a in (Dual(1.3, 0.7), Dual(Dual(-0.9, 1.0), Dual(0.4, 0.0))):
        for n, ref in ((0, Dual(1.0, 0.0)), (1, a), (2, a * a),
                       (3, (a * a) * a), (-2, 1.0 / (a * a))):
            p = a ** n
            assert (real(p), real(eps(p))) == (real(ref), real(eps(ref)))
        assert real(eps(eps(a ** 3))) == real(eps(eps((a * a) * a)))


def test_large_integer_power_is_logarithmic():
    # an exponent that reads a variable is not folded at compile time, so a
    # large one must cost log2(n) products, not n
    f = compile_expression("q1**1000000", ["q1"])
    x = 1.0 + 1e-7
    t0 = time.process_time()
    p = f([Dual(x, 1.0)])
    assert time.process_time() - t0 < 0.01
    assert real(p) == pytest.approx(math.pow(x, 1e6), rel=1e-9)
    assert eps(p) == pytest.approx(1e6 * math.pow(x, 999999), rel=1e-9)
    q = Dual(x, 1.0) ** -1000001
    assert real(q) == pytest.approx(math.pow(x, -1000001), rel=1e-9)
    assert eps(q) == pytest.approx(-1000001 * math.pow(x, -1000002), rel=1e-9)


# -- stacks: one entry per point, each bit for bit the point's own value ------

def _tree(leaves, depth):
    """A value of nesting depth 0, 1 or 2 from 1, 2 or 4 leaves."""
    if depth == 0:
        return leaves[0]
    half = len(leaves) // 2
    return Dual(_tree(leaves[:half], depth - 1), _tree(leaves[half:], depth - 1))


@st.composite
def stacked_pairs(draw):
    """Two stacked values x, y of one depth (0, 1 or 2) over 2 to 6 points,
    and the per-point values of each."""
    depth, n = draw(st.integers(0, 2)), draw(st.integers(2, 6))
    out = []
    for _ in range(2):
        cols = [draw(st.lists(finite | st.sampled_from([0.0, -0.0, 1.0]),
                              min_size=n, max_size=n))
                for _ in range(2 ** depth)]
        out.append((_tree([np.array(c) for c in cols], depth),
                    [_tree([c[k] for c in cols], depth) for k in range(n)]))
    return n, out


def _positive(x):
    return x * x + 0.5


def _unit(x):
    return x / (x * x + 4.0)


STACK_OPS = {
    **{name: (lambda f: lambda x, y: f(x))(getattr(dm, name))
       for name in ("sin", "cos", "tan", "exp", "atan", "tanh", "sinh",
                    "cosh")},
    "log": lambda x, y: dm.log(_positive(x)),
    "sqrt": lambda x, y: dm.sqrt(_positive(x)),
    "asin": lambda x, y: dm.asin(_unit(x)),
    "acos": lambda x, y: dm.acos(_unit(x)),
    "atanh": lambda x, y: dm.atanh(_unit(x)),
    "abs": lambda x, y: abs(x),
    "pow-int": lambda x, y: dm.power(x, 3),
    "pow-negative-int": lambda x, y: dm.power(_positive(x), -2),
    "pow-float": lambda x, y: dm.power(x, 2.0),
    "pow-fraction": lambda x, y: dm.power(_positive(x), 0.5),
    "pow-stack": lambda x, y: dm.power(_positive(x), y),
    "pow-base": lambda x, y: dm.power(2.0, x),
    "add": lambda x, y: x + y + 1.5,
    "sub": lambda x, y: 1.5 - x - y,
    "mul": lambda x, y: 0.5 * x * y,
    "div": lambda x, y: x / _positive(y),
    "rdiv": lambda x, y: 2.0 / _positive(x),
    "neg": lambda x, y: -x,
}


@pytest.mark.parametrize("op", list(STACK_OPS))
@given(stacked_pairs())
@settings(max_examples=40, deadline=None)
def test_stacked_values_are_the_points_values(op, drawn):
    # every dual function, abs, ** and the operators on float stacks and
    # on depth-1 and depth-2 Dual stacks: each entry is the float.hex of
    # that point's own value
    n, ((x, xs), (y, ys)) = drawn
    f = STACK_OPS[op]
    got = f(x, y)
    for k in range(n):
        assert oracles.bits(got, k) == oracles.bits(f(xs[k], ys[k]))


@given(stacked_pairs())
@settings(max_examples=40, deadline=None)
def test_stacked_dual_powers_and_mixed_operands(drawn):
    # ``**`` on a Dual stack with int, float and Dual exponents, and a bare
    # float stack meeting a Dual stack (ndarray op Dual is Dual's reflected
    # operation)
    n, ((x, xs), (y, ys)) = drawn
    if not isinstance(x, Dual):
        x, xs = Dual(x, 1.0), [Dual(v, 1.0) for v in xs]
    bare, bares = real(y), [real(v) for v in ys]
    cases = [lambda u, b: u ** 3, lambda u, b: _positive(u) ** -1,
             lambda u, b: _positive(u) ** 1.5,
             lambda u, b: _positive(u) ** Dual(b, 0.25),
             lambda u, b: b * u, lambda u, b: b - u,
             lambda u, b: b / _positive(u), lambda u, b: _positive(b) ** u]
    for f in cases:
        got = f(x, bare)
        for k in range(n):
            assert oracles.bits(got, k) == oracles.bits(f(xs[k], bares[k]))


def test_a_stack_keeps_math_s_last_bit():
    # numpy's own exp differs from math.exp in the last bit at some points;
    # a stack takes math's
    x = np.linspace(0.01, 5.0, 2001)
    assert [float(v).hex() for v in dm.exp(x)] == \
        [math.exp(v).hex() for v in x.tolist()]
    assert [float(v).hex() for v in dm.power(x, 2)] == \
        [(v ** 2).hex() for v in x.tolist()]


def test_a_stack_overflow_and_domain_errors_raise_as_a_point_does():
    x = np.array([1.0, 1e200])
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        Dual(x, 1.0) ** 2
    with pytest.raises(ValueError):
        dm.log(np.array([1.0, -1.0]))
    with pytest.raises(TypeError):      # Python's power gives a complex
        dm.power(np.array([-8.0, 8.0]), 1.0 / 3.0)
    with pytest.raises(TypeError):      # math's own error, not a stack's
        dm.sin("x")
