"""JSON config twins of the four built-in model families.

Each config describes the same system as its built-in twin in the
expression language of ``vhckit.expr``, so a config model is analyzed
through ``cli.main`` and differentiated by the generic dual towers instead of
the hand-written ``dphi``/``d2phi``/Christoffel shortcuts.
"""

import math

TWO_PI = 2.0 * math.pi

# circle: the CIRCLE_CONFIG schema of the CLI tests, with the force angle
# ``alpha`` as a constant so that ``--param alpha=...`` varies it
CIRCLE = {
    "name": "circle-config",
    "ambient": {"dim": 2, "periodic": [False, False],
                "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
    "reduced": {"dim": 1, "periodic": [True], "bounds": [[0.0, TWO_PI]]},
    "variables": ["q1", "q2"],
    "theta_variables": ["t"],
    "constants": {"alpha": 0.0},
    "D": [["1", "0"], ["0", "1"]],
    "P": "0",
    "B": [["cos(alpha)*q1 - sin(alpha)*q2"],
          ["sin(alpha)*q1 + cos(alpha)*q2"]],
    "Bperp": [["cos(alpha + pi/2)*q1 - sin(alpha + pi/2)*q2",
               "sin(alpha + pi/2)*q1 + cos(alpha + pi/2)*q2"]],
    "phi": ["cos(t)", "sin(t)"],
    "h": ["(q1*q1 + q2*q2 - 1) / 2"],
    "m": 1,
    "topology": "S1",
}

SPHERE = {
    "name": "sphere-config",
    "ambient": {"dim": 3, "periodic": [False] * 3,
                "bounds": [[-2.0, 2.0]] * 3},
    "reduced": {"dim": 2, "periodic": [False, False],
                "bounds": [[0.0, math.pi], [-math.pi, math.pi]]},
    "variables": ["q1", "q2", "q3"],
    "theta_variables": ["t1", "t2"],
    "D": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "P": "0",
    "B": [["q1"], ["q2"], ["2*q3"]],
    "Bperp": [["-q2", "q1", "0"],
              ["-q1*q3", "-q2*q3", "(q1*q1 + q2*q2) / 2"]],
    "phi": ["sin(t1)*cos(t2)", "sin(t1)*sin(t2)", "cos(t1)"],
    "h": ["(q1*q1 + q2*q2 + q3*q3 - 1) / 2"],
    "m": 1,
    "topology": "box",
}

_RHO = "(-2*atan(sqrt(2)*sin({v}) / (2 + sqrt(2) - sqrt(2)*cos({v}))))"


def _double_pendulum_cart(case):
    return {
        "name": f"dpc-{case}-config",
        "ambient": {"dim": 3, "periodic": [False, True, True],
                    "bounds": [[-5.0, 5.0], [0.0, TWO_PI], [0.0, TWO_PI]]},
        "reduced": {"dim": 2, "periodic": [False, True],
                    "bounds": [[-2.0, 2.0], [0.0, TWO_PI]]},
        "variables": ["x", "q2", "q3"],
        "theta_variables": ["t1", "t2"],
        "constants": {"gravity": 9.81},
        "D": [["3", "-2*cos(q2)", "-cos(q3)"],
              ["-2*cos(q2)", "2", "cos(q2 - q3)"],
              ["-cos(q3)", "cos(q2 - q3)", "1"]],
        "P": "(2*cos(q2) + cos(q3)) * gravity",
        "B": [["1"], ["0"], ["0"]] if case == "a" else [["0"], ["0"], ["1"]],
        "Bperp": ([["0", "1", "0"], ["0", "0", "1"]] if case == "a"
                  else [["1", "0", "0"], ["0", "1", "0"]]),
        "phi": ["t1", "t2", _RHO.format(v="t2")],
        "h": ["q3 - " + _RHO.format(v="q2")],
        "m": 1,
        "topology": "RxS1",
    }


CONFIGS = {
    "circle": CIRCLE,
    "sphere": SPHERE,
    "dpc-a": _double_pendulum_cart("a"),
    "dpc-b": _double_pendulum_cart("b"),
}
