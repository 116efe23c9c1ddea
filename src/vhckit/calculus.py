"""Shared numerical kernels: differentiation, quadrature, ODE integration.

Every derivative in vhckit is taken by the operators below, by seeding dual
numbers; fields must accept dual arguments (see ``vhckit.dual``). Every
ODE is solved by ``integrate_ode``, the one call to scipy's ``solve_ivp``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad, solve_ivp

from .dual import Dual, eps, seed

DEFAULT_QUAD_TOL = 1e-10


class DomainError(ValueError):
    pass


class IntegrationError(RuntimeError):
    pass


_NESTED = (list, tuple)


def _peel(v, part):
    """Apply ``part`` to every entry of a scalar, vector, matrix or rank-3
    value; the depth is read once, from the first entries."""
    if not isinstance(v, _NESTED):
        return part(v)
    if not v or not isinstance(v[0], _NESTED):
        return [part(c) for c in v]
    if not v[0] or not isinstance(v[0][0], _NESTED):
        return [[part(c) for c in row] for row in v]
    return [[[part(c) for c in row] for row in mat] for mat in v]


def _eps2(v):
    return eps(eps(v))


def partial(f, x, i):
    """First partial derivative of a scalar-valued field at x."""
    if i >= len(x):
        raise DomainError(f"index {i} out of range for arity {len(x)}")
    return eps(f(seed(x, i)))


def second_partial(f, x, i, j):
    """Second partial derivative d_i d_j of a field at x; the field may be
    scalar-, vector-, matrix- or rank-3-valued."""
    xs = [Dual(Dual(c, 0.0), 0.0) for c in x]
    if i == j:
        xs[i] = Dual(Dual(x[i], 1.0), 1.0)
    else:
        xs[i] = Dual(Dual(x[i], 1.0), 0.0)
        xs[j] = Dual(Dual(x[j], 0.0), 1.0)
    return _peel(f(xs), _eps2)


def gradient(f, x):
    return [partial(f, x, i) for i in range(len(x))]


def vector_partial(f, x, i):
    """Partial derivative of a vector-valued field: returns a list."""
    return [eps(c) for c in f(seed(x, i))]


def jacobian(f, x):
    """Jacobian of a vector field as rows-of-components [a][i] = df^a/dx^i."""
    cols = [vector_partial(f, x, i) for i in range(len(x))]
    return [list(row) for row in zip(*cols)]


def matrix_partial(f, x, i):
    """Partial derivative of a matrix- or rank-3-valued field: nested lists."""
    return _peel(f(seed(x, i)), eps)


def quad(f, a, b, tol=DEFAULT_QUAD_TOL):
    """Adaptive quadrature of ``f`` over [a, b] with absolute tolerance tol."""
    if a == b:
        return 0.0
    val, err = _scipy_quad(f, a, b, epsabs=tol, epsrel=tol, limit=200)
    if err > max(100.0 * tol, 1e-8 * abs(val)) and err > 1e-7:
        raise IntegrationError(f"quadrature did not converge: err={err:g}")
    return val


@dataclass(frozen=True)
class CurveSampler:
    """Piecewise-smooth curve t -> (point, velocity) in chart coordinates."""

    fn: callable
    t_start: float
    t_end: float
    breakpoints: tuple = ()

    def __call__(self, t):
        return self.fn(t)


def line_segment(p, q, t_start=0.0, t_end=1.0):
    """Straight segment from p to q, affine in t."""
    p = [float(c) for c in p]
    q = [float(c) for c in q]
    dt = t_end - t_start
    vel = [(b - a) / dt for a, b in zip(p, q)]

    def fn(t):
        s = (t - t_start) / dt
        return ([a + s * (b - a) for a, b in zip(p, q)], list(vel))

    return CurveSampler(fn, t_start, t_end)


class Trajectory:
    """ODE solution at the solver's nodes or at requested times, with
    interpolation at arbitrary times when dense output was kept."""

    def __init__(self, times, states, interpolant=None, diagnostics=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self._interp = interpolant
        self.diagnostics = diagnostics if diagnostics is not None else {}

    @property
    def end_state(self):
        return self.states[-1].copy()

    def at(self, t):
        if self._interp is None:
            raise ValueError("trajectory kept no dense output to interpolate")
        return np.asarray(self._interp(t), dtype=float)


def integrate_ode(rhs, t0, x0, t1, tol, max_step=np.inf, method="RK45",
                  first_step=None, dense=True, t_eval=None):
    """Integrate ``x' = rhs(t, x)`` from t0 to t1 (either direction) with an
    adaptive scipy solver at rtol = atol = ``tol``, keeping the nodes (or the
    states at ``t_eval``) and, if ``dense``, the interpolant.

    This is the package's one ODE primitive. Each caller keeps the method
    that makes the fewest counted RHS calls on its work: parallel transport
    uses RK45 (DOP853 once around a generator), on a Chebyshev sample of
    the connection where that converges (see ``holonomy``), and the
    simulations and the antiderivatives of ``holonomy`` use DOP853. Only
    the simulations drop the interpolant, which costs DOP853 three more RHS
    calls per step. A right-hand side that is not finite at the start
    raises ``IntegrationError``; scipy would take a NaN first step and
    never leave its step loop.
    """
    x0 = np.asarray(x0, dtype=float)
    if t1 == t0:
        return Trajectory([t0], [x0], interpolant=lambda t: x0)
    if not np.all(np.isfinite(np.asarray(rhs(t0, x0), dtype=float))):
        raise IntegrationError(f"right-hand side is not finite at t = {t0:g}")
    sol = solve_ivp(rhs, (t0, t1), x0, method=method, rtol=tol, atol=tol,
                    max_step=max_step, first_step=first_step,
                    dense_output=dense, t_eval=t_eval)
    if not sol.success:
        raise IntegrationError(sol.message)
    return Trajectory(sol.t, sol.y.T, interpolant=sol.sol)
