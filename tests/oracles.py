"""Reference constructions the tests compare the package against, which the
package itself does not need."""

from vhckit.manifold import ConnectionCoeffs, christoffel_from_metric


def connection_from_metric(chart, D):
    """The Levi-Civita connection of the metric field D on chart."""
    return ConnectionCoeffs(chart, lambda x: christoffel_from_metric(D, x))
