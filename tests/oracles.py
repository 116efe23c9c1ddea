"""Reference constructions the tests compare the package against, which the
package itself does not need."""

import numpy as np

from vhckit.manifold import ConnectionCoeffs, christoffel_from_metric


def connection_from_metric(chart, D):
    """The Levi-Civita connection of the metric field D on chart."""
    return ConnectionCoeffs(chart, lambda x: christoffel_from_metric(D, x))


def minimax_by_linprog(p, Q):
    """max_i |p_i + (Q y)_i| at HiGHS's solution y of min t subject to
    -t <= p + Q y <= t: the oracle of metrize2d._minimax_linear."""
    from scipy.optimize import linprog

    p, Q = np.asarray(p, dtype=float), np.asarray(Q, dtype=float)
    k, one = Q.shape[1], np.ones((len(p), 1))
    res = linprog(np.r_[np.zeros(k), 1.0],
                  A_ub=np.block([[Q, -one], [-Q, -one]]), b_ub=np.r_[-p, p],
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    assert res.success, res.message
    return float(np.max(np.abs(p + Q @ res.x[:k])))
