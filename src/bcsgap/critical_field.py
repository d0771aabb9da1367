"""Critical magnetic field H_c(T) = sqrt(-8 pi Psi(T)) and its derivative.

Units are natural: H_c^2/(8 pi) is an energy density and k_B = 1.  The curve
reads the solved slices: below T_c the field and its slope come from Psi and
dPsi/dT of the slice, which stay accurate all the way to the transition; on
the zero slices from T_c up the field is 0, and the slope at T_c is its
closed-form limit.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .gap_solver import Discretization, SolverOpts, solve_at_T
from .thermo import VFunction, _psi_curve, psi


def hc(psi_value: float) -> float:
    """Field from the potential: sqrt(-8 pi Psi), +0.0 at Psi = 0."""
    if psi_value > 0.0:
        raise NumericalError(f"positive Psi ({psi_value:g}) has no real field")
    return math.sqrt(8.0 * math.pi * abs(psi_value))


def hc_slope(psi_value: float, dpsi_value: float) -> float:
    """Temperature derivative away from the transition; needs Psi < 0."""
    if psi_value >= 0.0:
        raise NumericalError(
            "field slope undefined at Psi = 0; use the closed-form transition slope")
    return -4.0 * math.pi * dpsi_value / math.sqrt(-8.0 * math.pi * psi_value)


def slope_at_tc(v: VFunction) -> float:
    """Closed-form (negative) slope of H_c at the transition,
    -sqrt(4 pi Delta C_V / T_c), with Delta C_V = v.jump and T_c = v.tc."""
    return -math.sqrt(4.0 * math.pi * v.jump / v.tc)


class HcCurve(NamedTuple):
    t: np.ndarray
    hc: np.ndarray
    dhc_dT: np.ndarray
    hc0: float
    slope_at_tc: float
    tc: float


class LinearLawReport(NamedTuple):
    fitted_coefficient: float
    predicted_coefficient: float
    n_points: int


def hc_temperatures(base: np.ndarray, tc: float) -> np.ndarray:
    """base on [0, T_c] plus the ladder T_c(1 - 2^-k), k = 3..10, that
    linear_law_check fits, less any ladder point within 1e-12 T_c of base.

    Sorted and deduplicated as a set of floats; np.unique would import numpy.ma.
    """
    pts = base.tolist()
    ladder = (tc * (1.0 - 2.0 ** -k) for k in range(3, 11))
    ts = set(pts).union(t for t in ladder if all(abs(t - b) > 1e-12 * tc for b in pts))
    return np.array(sorted(t for t in ts if 0.0 <= t <= tc), dtype=float)


def build_hc_curve(slices, v: VFunction, disc: Discretization,
                   opts: SolverOpts | None = None) -> HcCurve:
    """Field and slope over the slices of a sweep.

    Zero slices give the field 0, with the closed-form transition slope at
    and below T_c = v.tc and slope 0 above it; the slope at T = 0 is 0.
    """
    tc = v.tc
    slope_tc = slope_at_tc(v)
    ts = np.array([sl.T for sl in slices])
    ps, dps, _ = _psi_curve(slices, disc)
    h = np.empty(ts.size)
    dh = np.empty(ts.size)
    for i, t in enumerate(ts):
        h[i] = hc(ps[i])
        if ps[i] == 0.0:
            dh[i] = slope_tc if t <= tc else 0.0
        else:
            dh[i] = 0.0 if t == 0.0 else hc_slope(ps[i], dps[i])

    h0 = h[0] if ts[0] == 0.0 else hc(psi(solve_at_T(0.0, disc, opts), disc))
    return HcCurve(ts, h, dh, h0, slope_tc, tc)


def linear_law_check(curve: HcCurve) -> LinearLawReport:
    """Fit the near-transition linear law and compare against the closed form.

    Points with 0 < d = 1 - T/T_c <= 0.13, the hc_temperatures ladder and any
    base points as near, enter a least-squares quadratic fit of hc/d, whose
    value at d = 0 is the fitted linear coefficient.  It expands in p_0 = 1,
    p_1 = d - a_0 and p_2 = (d - a_1) p_1 - b_1, orthogonal on the points
    (Forsythe, J. SIAM 5 (1957) 74): dot products only, with no LAPACK and no
    numpy.polynomial.  For every kernel type the ratio of that coefficient to
    hc(0) tends to HC_SLOPE_RATIO_WIDE_SHELL in the weak-coupling wide-shell
    limit.
    """
    tc = curve.tc
    rel = 1.0 - curve.t / tc
    m = (rel > 1e-12) & (rel <= 0.13)
    d = rel[m]
    if d.size < 4:
        raise NumericalError("need at least 4 points near T_c for the linear-law fit")
    z = curve.hc[m] / d
    a0 = float(d.mean())
    p1 = d - a0
    n1 = float(p1 @ p1)
    a1, b1 = float((d * p1) @ p1) / n1, n1 / d.size
    p2 = (d - a1) * p1 - b1
    # p_0, p_1 and p_2 are 1, -a0 and a0 a1 - b1 at d = 0
    fitted = (float(z.mean()) - a0 * float(z @ p1) / n1
              + (a0 * a1 - b1) * float(z @ p2) / float(p2 @ p2))
    predicted = tc * abs(curve.slope_at_tc)
    return LinearLawReport(fitted, predicted, d.size)
