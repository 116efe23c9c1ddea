"""Forward-mode dual numbers against finite-difference and closed-form
oracles, including nesting and the lifted-seeding regression."""

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

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
