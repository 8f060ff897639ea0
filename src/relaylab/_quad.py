"""Cached Gauss-Legendre rules shared by the spectral and outage integrals."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(a: float, b: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]."""
    x, w = _leggauss(int(n))
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def gl_panels(a: float, b: float, total_points: int, max_panel: float):
    """Composite Gauss-Legendre rule on [a, b].

    The interval is split into equal panels no wider than max_panel and the
    node budget is spread evenly, never dropping below 4 points per panel or
    total_points overall.
    """
    panels = max(1, int(np.ceil((b - a) / max_panel - 1e-12)))
    per = max(4, -(-int(total_points) // panels))
    edges = np.linspace(a, b, panels + 1)
    x, w = _leggauss(per)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]  # gl_nodes, one row per panel
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()
