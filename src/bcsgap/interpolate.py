"""Monotone piecewise-cubic (PCHIP) interpolation and the hat basis.

Fritsch-Carlson slope limiting keeps the interpolant free of overshoot, so
nonnegative data stay nonnegative and sandwich bounds survive interpolation.
The interval search for a set of queries (``PreparedQueries``) is kept apart
from the slope build and the Horner pass (``pchip_eval_prepared``).
"""
from __future__ import annotations

import numpy as np


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Limited derivative estimates at the data points (scipy-compatible)."""
    h = np.diff(x)
    delta = np.diff(y) / h
    n = x.size
    d = np.zeros(n)

    if n == 2:
        d[:] = delta[0]
        return d

    # interior: weighted harmonic mean where the secant slopes agree in sign
    d0, d1 = delta[:-1], delta[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        hm = (w1 + w2) / (w1 / d0 + w2 / d1)
    mask = (d0 * d1) > 0
    d[1:-1] = np.where(mask, hm, 0.0)

    d[0] = _edge_slope(h[0], h[1], delta[0], delta[1])
    d[-1] = _edge_slope(h[-1], h[-2], delta[-1], delta[-2])
    return d


def _edge_slope(h0, h1, del0, del1):
    d = ((2.0 * h0 + h1) * del0 - h0 * del1) / (h0 + h1)
    if d * del0 <= 0:
        return 0.0
    if (del0 * del1 < 0) and (abs(d) > 3.0 * abs(del0)):
        return 3.0 * del0
    return d


def hat_basis(nodes: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Matrix H with (H @ y) the piecewise-linear interpolant of y at xq.

    Queries outside [nodes[0], nodes[-1]] take the nearest end value.
    """
    nodes = np.asarray(nodes, dtype=float)
    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(nodes, xq, side="right") - 1, 0, nodes.size - 2)
    w = (np.clip(xq, nodes[0], nodes[-1]) - nodes[i]) / (nodes[i + 1] - nodes[i])
    h = np.zeros((xq.size, nodes.size))
    rows = np.arange(xq.size)
    h[rows, i] = 1.0 - w
    h[rows, i + 1] = w
    return h


class PreparedQueries:
    """Interval indices and offsets for a fixed set of query points."""

    __slots__ = ("idx", "t", "h")

    def __init__(self, x: np.ndarray, xq: np.ndarray):
        self.idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
        self.t = xq - x[self.idx]
        self.h = np.diff(x)[self.idx]


def pchip_eval_prepared(y: np.ndarray, d: np.ndarray, prep: PreparedQueries) -> np.ndarray:
    i, t, h = prep.idx, prep.t, prep.h
    yl = y[i]
    dl = d[i]
    dr = d[i + 1]
    delta = (y[i + 1] - yl) / h
    c2 = (3.0 * delta - 2.0 * dl - dr) / h
    c3 = (dl + dr - 2.0 * delta) / (h * h)
    return yl + t * (dl + t * (c2 + t * c3))


class MonotoneCubic:
    """Convenience wrapper: build once, evaluate anywhere in [x[0], x[-1]]."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.ndim != 1 or self.x.size < 2 or np.any(np.diff(self.x) <= 0):
            raise ValueError("nodes must be strictly ascending, at least 2")
        if self.y.shape != self.x.shape:
            raise ValueError("values must match nodes")
        self.d = pchip_slopes(self.x, self.y)

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        prep = PreparedQueries(self.x, np.atleast_1d(xq))
        out = pchip_eval_prepared(self.y, self.d, prep)
        return float(out[0]) if scalar else out
