"""Built-in example systems: a particle pushed along a circle, a mass on a
sphere, and a double pendulum on a cart with two actuation choices."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from . import dual as dm
from .calculus import CurveSampler, partial
from .holonomy import LoopDescriptor
from .manifold import (Chart, ConnectionCoeffs, christoffel_from_metric_grad,
                       zero_connection)
from .vhc import ConstraintParametrization, LagrangianControlSystem

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelBundle:
    name: str
    system: LagrangianControlSystem
    parametrization: ConstraintParametrization
    generators: tuple = ()          # LoopDescriptor fundamental-group loops
    topology: str = ""              # reduced-space type: S1, RxS1, or box
    params: dict = dc_field(default_factory=dict)
    expected: dict = dc_field(default_factory=dict)

    @property
    def chart(self):
        return self.parametrization.chart


def _coordinate_loop(base, i, tag=""):
    d = len(base)

    def fn(t):
        p = list(base)
        p[i] = p[i] + t
        v = [0.0] * d
        v[i] = 1.0
        return p, v

    seg = CurveSampler(fn, 0.0, TWO_PI)
    return LoopDescriptor(tuple(base), (seg,), tag)


# ---------------------------------------------------------------------------
# Unit-mass particle on the unit circle, force at a fixed angle to the radius


def circle_particle(alpha=0.0):
    """Particle in the plane, force field R_alpha q, constrained to |q| = 1.

    The induced connection has the single coefficient tan(alpha); the reduced
    circle dynamics are metrizable exactly when alpha = 0.
    """
    alpha = float(alpha)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(alpha + 0.5 * math.pi), math.sin(alpha + 0.5 * math.pi)
    q_chart = Chart(2, (False, False), ((-2.0, 2.0), (-2.0, 2.0)))

    system = LagrangianControlSystem(
        chart=q_chart,
        D=lambda q: [[1.0, 0.0], [0.0, 1.0]],
        P=lambda q: 0.0,
        gradP=lambda q: [0.0, 0.0],
        B=lambda q: [[ca * q[0] - sa * q[1]], [sa * q[0] + ca * q[1]]],
        Bperp=lambda q: [[cb * q[0] - sb * q[1], sb * q[0] + cb * q[1]]],
        m=1,
        h=lambda q: [0.5 * (q[0] * q[0] + q[1] * q[1] - 1.0)],
        christoffels=zero_connection(q_chart),
    )
    chart = Chart(1, (True,), ((0.0, TWO_PI),))
    par = ConstraintParametrization(
        chart,
        phi=lambda th: [dm.cos(th[0]), dm.sin(th[0])],
        dphi=lambda th: [[-dm.sin(th[0])], [dm.cos(th[0])]],
        d2phi=lambda th: [[[-dm.cos(th[0])]], [[-dm.sin(th[0])]]],
    )
    tan_a = math.tan(alpha)
    expected = {
        "gammaC_111": tan_a,
        "psi2": lambda th: -tan_a,
        "psi1": lambda th: 0.0,
        "int_psi2": -TWO_PI * tan_a,
        "metrizable": abs(tan_a) < 1e-12,
    }
    return ModelBundle("circle", system, par,
                       generators=(_coordinate_loop([0.0], 0, "s1"),),
                       topology="S1", params={"alpha": alpha},
                       expected=expected)


# ---------------------------------------------------------------------------
# Unit mass on the unit sphere


def _sphere_gammaC(th):
    t1 = th[0]
    s, c = dm.sin(t1), dm.cos(t1)
    z = 0.0 * t1
    g111 = -s * c / (c * c + 1.0)          # = -sin(2 t1) / (2 (cos^2 + 1))
    g122 = -2.0 * s * c / (c * c + 1.0)
    g212 = c / s
    return [[[g111, z], [z, g122]],
            [[z, g212], [g212, z]]]


def _sphere_ric(th):
    s, c = dm.sin(th[0]), dm.cos(th[0])
    z = 0.0 * th[0]
    return [[1.0 / (c * c + 1.0), z],
            [z, 2.0 * s * s / ((s * s - 2.0) ** 2)]]


def _sphere_omega(th):
    s, c = dm.sin(th[0]), dm.cos(th[0])
    return [4.0 * s * c / (c * c + 1.0), 0.0 * th[0]]


def _sphere_f(th):
    """Recurrence potential anchored to 0 at theta1 = pi/2."""
    s = dm.sin(th[0])
    return -4.0 * dm.atanh(s * s / (s * s - 4.0)) - 4.0 * math.atanh(1.0 / 3.0)


def _sphere_nabla_ric(th):
    s, c = dm.sin(th[0]), dm.cos(th[0])
    sin2 = 2.0 * s * c
    return {
        (0, 0, 0): 2.0 * sin2 / ((c * c + 1.0) ** 2),
        (0, 1, 1): -4.0 * sin2 * s * s / ((s * s - 2.0) ** 3),
    }


def _sphere_DC(th):
    s = dm.sin(th[0])
    z = 0.0 * th[0]
    return [[0.5 - 0.25 * s * s, z], [z, 0.5 * s * s]]


def sphere_mass():
    """Unit mass on the unit sphere with a single radial-family input.

    The reduced connection on the polar chart is curved with a definite
    recurrent Ricci tensor, hence metrizable; closed forms of every derived
    object are bundled in ``expected``.
    """
    q_chart = Chart(3, (False, False, False), tuple(((-2.0, 2.0),) * 3))

    def B(q):
        return [[q[0]], [q[1]], [2.0 * q[2]]]

    def Bperp(q):
        return [[-q[1], q[0], 0.0],
                [-q[0] * q[2], -q[1] * q[2],
                 0.5 * (q[0] * q[0] + q[1] * q[1])]]

    system = LagrangianControlSystem(
        chart=q_chart,
        D=lambda q: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        P=lambda q: 0.0,
        gradP=lambda q: [0.0, 0.0, 0.0],
        B=B, Bperp=Bperp, m=1,
        h=lambda q: [0.5 * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2] - 1.0)],
        christoffels=zero_connection(q_chart),
    )
    chart = Chart(2, (False, False), ((0.0, math.pi), (-math.pi, math.pi)))
    def dphi(th):
        s1, c1 = dm.sin(th[0]), dm.cos(th[0])
        s2, c2 = dm.sin(th[1]), dm.cos(th[1])
        return [[c1 * c2, -s1 * s2],
                [c1 * s2, s1 * c2],
                [-s1, 0.0]]

    def d2phi(th):
        s1, c1 = dm.sin(th[0]), dm.cos(th[0])
        s2, c2 = dm.sin(th[1]), dm.cos(th[1])
        return [[[-s1 * c2, -c1 * s2], [-c1 * s2, -s1 * c2]],
                [[-s1 * s2, c1 * c2], [c1 * c2, -s1 * s2]],
                [[-c1, 0.0], [0.0, 0.0]]]

    par = ConstraintParametrization(
        chart,
        phi=lambda th: [dm.sin(th[0]) * dm.cos(th[1]),
                        dm.sin(th[0]) * dm.sin(th[1]),
                        dm.cos(th[0])],
        dphi=dphi,
        d2phi=d2phi,
    )
    expected = {
        "gammaC": _sphere_gammaC,
        "ric": _sphere_ric,
        "nabla_ric": _sphere_nabla_ric,
        "omega": _sphere_omega,
        "f": _sphere_f,
        "D_C": _sphere_DC,
        "gauge_b": -2.0 * math.log(2.0),
        "gauge_ref": (0.5 * math.pi, 0.0),
        "metrizable": True,
        "lagrangian": True,
    }
    return ModelBundle("sphere", system, par, generators=(),
                       topology="box", params={}, expected=expected)


# ---------------------------------------------------------------------------
# Double pendulum on a cart


def rho(q2):
    """Pendulum-coupling profile: smooth, odd, 2*pi-periodic."""
    r2 = math.sqrt(2.0)
    return -2.0 * dm.atan(r2 * dm.sin(q2) / (2.0 + r2 - r2 * dm.cos(q2)))


def rho_prime(q2):
    r2 = math.sqrt(2.0)
    den = 2.0 + r2 - r2 * dm.cos(q2)
    u = r2 * dm.sin(q2) / den
    du = r2 * ((2.0 + r2) * dm.cos(q2) - r2) / (den * den)
    return -2.0 * du / (1.0 + u * u)


def rho_second(q2):
    return partial(lambda q: rho_prime(q[0]), [q2], 0)


def double_pendulum_cart(case="a", gravity=9.81):
    """Cart with a double pendulum; the VHC locks q3 = rho(q2).

    Case "a" actuates the cart, case "b" the outer joint. The reduced space
    is a cylinder R x S1 with a flat induced connection; only case "b"
    admits a Lagrangian structure.
    """
    if case not in ("a", "b"):
        raise ValueError(f"unknown actuation case {case!r}")
    G = float(gravity)
    q_chart = Chart(3, (False, True, True),
                    ((-5.0, 5.0), (0.0, TWO_PI), (0.0, TWO_PI)))

    def D(q):
        c2, c3 = dm.cos(q[1]), dm.cos(q[2])
        c23 = dm.cos(q[1] - q[2])
        return [[3.0, -2.0 * c2, -c3],
                [-2.0 * c2, 2.0, c23],
                [-c3, c23, 1.0]]

    def dD(q):
        s2, s3 = dm.sin(q[1]), dm.sin(q[2])
        s23 = dm.sin(q[1] - q[2])
        z = 0.0
        return [[[z, z, z], [z, z, z], [z, z, z]],
                [[z, 2.0 * s2, z], [2.0 * s2, z, -s23], [z, -s23, z]],
                [[z, z, s3], [z, z, s23], [s3, s23, z]]]

    def P(q):
        return (2.0 * dm.cos(q[1]) + dm.cos(q[2])) * G

    def gradP(q):
        return [0.0, -2.0 * G * dm.sin(q[1]), -G * dm.sin(q[2])]

    if case == "a":
        B = lambda q: [[1.0], [0.0], [0.0]]
        Bperp = lambda q: [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    else:
        B = lambda q: [[0.0], [0.0], [1.0]]
        Bperp = lambda q: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    system = LagrangianControlSystem(
        chart=q_chart, D=D, P=P, gradP=gradP, B=B, Bperp=Bperp, m=1,
        h=lambda q: [q[2] - rho(q[1])],
        christoffels=ConnectionCoeffs(
            q_chart, lambda q: christoffel_from_metric_grad(D, dD, q)),
    )
    chart = Chart(2, (False, True), ((-2.0, 2.0), (0.0, TWO_PI)))
    par = ConstraintParametrization(
        chart,
        phi=lambda th: [th[0], th[1], rho(th[1])],
        dphi=lambda th: [[1.0, 0.0], [0.0, 1.0], [0.0, rho_prime(th[1])]],
        d2phi=lambda th: [[[0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], [0.0, rho_second(th[1])]]],
    )
    expected = {
        "rho": rho,
        "lagrangian": case == "b",
        "a_frame": -(2.0 + rho_prime(0.0)) / 3.0 if case == "b" else None,
    }
    return ModelBundle(f"dpc-{case}", system, par,
                       generators=(_coordinate_loop([0.0, 0.0], 1, "s1"),),
                       topology="RxS1",
                       params={"case": case, "gravity": G},
                       expected=expected)


def get_model(name, **params):
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; have "
                       f"{sorted(MODEL_BUILDERS)}") from None
    return builder(**params)


MODEL_BUILDERS = {
    "circle": circle_particle,
    "sphere": sphere_mass,
    "dpc-a": lambda **kw: double_pendulum_cart(case="a", **kw),
    "dpc-b": lambda **kw: double_pendulum_cart(case="b", **kw),
}
