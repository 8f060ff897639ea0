"""Cached Gauss-Legendre rules for the outage oracles' integrals."""

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

