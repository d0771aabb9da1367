"""Deterministic adaptive quadrature (Gauss-Kronrod 15/7) and panel rules.

``integrate`` drives an interval heap: the panel with the largest embedded
error estimate is split until the summed estimate meets the requested
tolerance.  Integrands must accept numpy arrays.  ``integrate_tail`` handles
semi-infinite integrals of exponentially decaying integrands by truncation at
60 decay lengths (e^-60 ~ 1e-26, far below every tolerance used here).
No computation in the package uses them; they are the tests' independent
reference integrals.

``composite_gauss`` builds the fixed Gauss-Legendre panel rules of every
integral the package computes: the gap solver's hot loop, the
constant-coupling gap integral and the normal-state Fermi windows; it is
exact for piecewise-cubic integrand factors whose breakpoints coincide with
the panels.
"""
from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from .errors import NumericalError

# 15-point Kronrod abscissae/weights on [-1, 1]; odd indices are the embedded
# 7-point Gauss rule.
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])

# 7-point Gauss-Legendre rule (same abscissae as the embedded Gauss points).
_XGL7 = _XGK[1::2].copy()
_WGL7 = _WG.copy()


class QuadResult(NamedTuple):
    value: float
    err_estimate: float
    evaluations: int


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    y = np.asarray(f(c + h * _XGK), dtype=float)
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"integrand not finite inside [{a:g}, {b:g}]")
    k = h * float(_WGK @ y)
    g = h * float(_WG @ y[1::2])
    return k, abs(k - g)


def integrate(f, a: float, b: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over [a, b] to absolute-or-relative tolerance ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    val, err = _gk15(f, a, b)
    evals = 15
    # (error, tiebreak, a, b, value); tiebreak keeps heap order deterministic
    heap = [(-err, 0, a, b, val)]
    counter = 1
    total_val, total_err = val, err
    max_intervals = 4000
    while total_err > max(tol, tol * abs(total_val)) * 0.5:
        if len(heap) >= max_intervals:
            raise NumericalError(
                "quadrature failed to converge within subdivision budget",
                best=total_val, residual=total_err)
        nerr, _, ia, ib, ival = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im <= ia or im >= ib:
            # interval at rounding resolution; accept its estimate
            heapq.heappush(heap, (0.0, counter, ia, ib, ival))
            counter += 1
            total_err += nerr  # nerr is negative: removes this panel's error
            continue
        v1, e1 = _gk15(f, ia, im)
        v2, e2 = _gk15(f, im, ib)
        evals += 30
        total_val += v1 + v2 - ival
        total_err += e1 + e2 + nerr
        heapq.heappush(heap, (-e1, counter, ia, im, v1))
        heapq.heappush(heap, (-e2, counter + 1, im, ib, v2))
        counter += 2
    return QuadResult(total_val, total_err, evals)


def integrate_tail(f, a: float, decay_scale: float, tol: float = 1e-10) -> QuadResult:
    """Integrate f over [a, inf) assuming |f| <~ poly * exp(-xi/decay_scale)."""
    if decay_scale <= 0:
        raise ValueError("decay_scale must be positive")
    cut = a + 60.0 * decay_scale
    # split at a few decay lengths so the adaptive pass starts well shaped
    mid = a + 8.0 * decay_scale
    r1 = integrate(f, a, mid, tol)
    r2 = integrate(f, mid, cut, tol)
    return QuadResult(r1.value + r2.value, r1.err_estimate + r2.err_estimate,
                      r1.evaluations + r2.evaluations)


def composite_gauss(breakpoints):
    """Per-interval 7-point Gauss-Legendre nodes and weights on sorted breakpoints.

    Returns (nodes, weights) flattened in ascending order; exact for
    polynomials of degree 13 on each interval.
    """
    x = np.asarray(breakpoints, dtype=float)
    lo = x[:-1]
    h = 0.5 * np.diff(x)
    c = lo + h
    nodes = (c[:, None] + h[:, None] * _XGL7[None, :]).ravel()
    weights = (h[:, None] * _WGL7[None, :]).ravel()
    return nodes, weights
