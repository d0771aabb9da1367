"""Thermodynamic potentials, specific heats and the jump-ratio machinery.

The superconducting potential Psi is integrated with the same grid-aligned
panel rule the solver uses, over the slice the solver produced (u = Ft c at
the quadrature nodes), with all differences of nearly equal quantities
(E - xi, the log of the Fermi-factor ratio) rewritten in cancellation-free
form; near the transition Psi shrinks like (T_c - T)^2 and would otherwise
drown in roundoff.

The limit function v(x) = -d(u^2)/dT at T_c is extracted from a dyadic ladder
of near-transition solves: the quotient u^2/(T_c - T) is fitted per energy
node by a quadratic polynomial in (T_c - T) and v is its intercept, which
suppresses the curvature bias a plain straight-line slope would pick up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .gap_solver import (Discretization, GapSlice, SolverOpts,
                         du_dT_at_fixed_point, find_Tc, solve_at_T)
from .interpolate import MonotoneCubic
from .model import DosModel, PhysicalParams, eval_dos
from .quadrature import composite_gauss, integrate, integrate_tail
from .special import fermi, sech2

ZETA3 = 1.2020569031595943
JUMP_RATIO_WIDE_SHELL = 12.0 / (7.0 * ZETA3)


def g_weight(eta):
    """Even weight -(tanh(eta)/eta - sech^2(eta))/eta^2, continuous at 0.

    A short Taylor series takes over below eta = 0.05 where the direct form
    loses digits to cancellation; g(0) = -2/3 exactly.
    """
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0):
        raise ValueError("g_weight needs eta >= 0")
    scalar = eta.ndim == 0
    e = np.atleast_1d(eta)
    out = np.empty_like(e)
    small = e < 0.05
    es = e[small]
    e2 = es * es
    out[small] = -(2.0 / 3.0 + e2 * (-8.0 / 15.0 + e2 * (34.0 / 105.0
                                                         - e2 * 496.0 / 2835.0)))
    el = e[~small]
    out[~small] = -(np.tanh(el) / el - sech2(el)) / (el * el)
    return float(out[0]) if scalar else out


def psi(t: float, u: GapSlice, disc: Discretization) -> float:
    """Condensation part of the thermodynamic potential at one temperature.

    u is taken at the quadrature nodes as Ft @ u.coef, the interpolant the
    solver iterated.
    """
    qn, qw = disc.qn, disc.qw
    uu = disc.Ft @ u.coef
    e = np.hypot(qn, uu)
    u2 = uu * uu
    delta = u2 / (e + qn)  # E - xi without cancellation
    if t == 0.0:
        integrand = -delta * delta / e
    else:
        th = np.tanh(e / (2.0 * t))
        b = np.exp(-qn / t)
        # ln(1+e^(-E/T)) - ln(1+e^(-xi/T)), stable for E close to xi
        dlog = np.log1p(b * np.expm1(-delta / t) / (1.0 + b))
        integrand = -2.0 * delta + u2 / e * th - 4.0 * t * dlog
    return disc.kernel.params.n0 * float(qw @ integrand)


def psi_derivative(t: float, u: GapSlice, du: np.ndarray,
                   disc: Discretization) -> float:
    """Analytic temperature derivative of psi along the solution; T > 0.

    u enters as Ft @ u.coef, du as its grid values through disc.interp.
    """
    if t <= 0.0:
        raise ValueError("psi_derivative needs T > 0; the T = 0 value is 0")
    qn, qw = disc.qn, disc.qw
    uu = disc.Ft @ u.coef
    dd = disc.interp(du)
    e2 = qn * qn + uu * uu
    e = np.sqrt(e2)
    th = np.tanh(e / (2.0 * t))
    s2 = sech2(e / (2.0 * t))
    u2 = uu * uu
    delta = u2 / (e + qn)

    term1 = -2.0 * uu / e * dd * 2.0 * fermi(e / t)  # 1 - tanh = 2*fermi
    term2 = -(uu * u2) / (e2 * e) * dd * th

    k1 = u2 / (2.0 * t * e2) * s2 * (uu * dd - e2 / t)
    b = np.exp(-qn / t)
    k2 = -4.0 * np.log1p(b * np.expm1(-delta / t) / (1.0 + b))
    k3 = 4.0 * qn / t * fermi(qn / t)
    k4 = 4.0 * fermi(e / t) * (uu * dd / e - e / t)

    return disc.kernel.params.n0 * float(qw @ (term1 + term2 + k1 + k2 + k3 + k4))


def omega_normal(t: float, params: PhysicalParams, dos: DosModel,
                 tol: float = 1e-10) -> float:
    """Normal-state thermodynamic potential (five-integral form)."""
    eps, om, mu, n0 = params.epsilon, params.hbar_omega_d, params.mu, params.n0
    o1 = -2.0 * n0 * integrate(lambda x: x, eps, om, tol).value
    o3 = 2.0 * integrate(lambda x: x * eval_dos(dos, x), -mu, -om, tol).value
    if t == 0.0:
        return o1 + o3
    o2 = -4.0 * n0 * t * integrate(
        lambda x: np.log1p(np.exp(-x / t)), eps, om, tol).value
    o4 = -2.0 * t * integrate(
        lambda x: eval_dos(dos, x) * np.log1p(np.exp(x / t)), -mu, -om, tol).value
    o5 = -2.0 * t * integrate_tail(
        lambda x: eval_dos(dos, x) * np.log1p(np.exp(-x / t)), om, t, tol).value
    return o1 + o2 + o3 + o4 + o5


def omega_normal_second_derivative(t: float, params: PhysicalParams,
                                   dos: DosModel, tol: float = 1e-10) -> float:
    """Closed-form d^2(Omega_N)/dT^2 (no numerical differentiation)."""
    if t <= 0.0:
        raise ValueError("omega_normal_second_derivative needs T > 0")
    eps, om, mu, n0 = params.epsilon, params.hbar_omega_d, params.mu, params.n0
    t1 = -n0 / t ** 3 * integrate(
        lambda x: x * x * sech2(x / (2.0 * t)), eps, om, tol).value
    t2 = -0.5 / t ** 3 * integrate(
        lambda x: eval_dos(dos, x) * x * x * sech2(x / (2.0 * t)), -mu, -om, tol).value
    t3 = -0.5 / t ** 3 * integrate_tail(
        lambda x: eval_dos(dos, x) * x * x * sech2(x / (2.0 * t)), om, t, tol).value
    return t1 + t2 + t3


def cv_normal(t: float, params: PhysicalParams, dos: DosModel,
              tol: float = 1e-10) -> float:
    """Normal-state specific heat C_V^N(T) = -T d^2(Omega_N)/dT^2."""
    if t == 0.0:
        return 0.0
    return -t * omega_normal_second_derivative(t, params, dos, tol)


@dataclass
class VFunction:
    x: np.ndarray
    values: np.ndarray
    fit_residual: np.ndarray


def extract_v(disc: Discretization, opts: SolverOpts | None = None,
              tc: float | None = None, ks=range(3, 11)) -> VFunction:
    """Near-transition limit v(x) of u^2/(T_c - T) from a dyadic ladder.

    Solves at T = T_c (1 - 2^-k) for k in ``ks``, each from the solver's
    Delta_2(T) supersolution seed so that every rung runs Newton, fits
    u^2/(T_c - T) per node as a quadratic in (T_c - T) and reports the
    intercept with a residual that also covers ladder stability.
    """
    opts = opts or SolverOpts()
    if tc is None:
        tc = find_Tc(disc.kernel, disc.kernel.params, opts, disc.grid)

    ks = list(ks)
    deltas = np.array([2.0 ** -k for k in ks])
    z = np.empty((len(ks), disc.grid.count))
    for i, d in enumerate(deltas):
        sl = solve_at_T(tc * (1.0 - d), disc, opts)
        z[i] = sl.values ** 2 / (tc * d)

    dh = deltas  # already dimensionless: (T_c - T)/T_c
    coef = np.polynomial.polynomial.polyfit(dh, z, 2)
    v = coef[0]
    fit = np.polynomial.polynomial.polyval(dh, coef)
    rms = np.sqrt(np.mean((fit - z.T) ** 2, axis=1))

    # stability: refit without the two shallowest rungs
    coef_deep = np.polynomial.polynomial.polyfit(dh[2:], z[2:], 2)
    resid = np.maximum(rms, np.abs(v - coef_deep[0]))

    if np.any(v <= 0):
        raise NumericalError(
            "extracted near-transition slope must be positive at every node")
    return VFunction(disc.grid.nodes, v, resid)


def _v_squared_g_deta(v: VFunction, params: PhysicalParams, tc: float) -> float:
    """Integral of v(2 T_c eta)^2 g(eta) d eta over the shell, in eta units."""
    qn, qw = composite_gauss(v.x)
    vv = np.maximum(MonotoneCubic(v.x, v.values)(qn), 0.0)
    return float(qw @ (vv * vv * g_weight(qn / (2.0 * tc)))) / (2.0 * tc)


def psi_second_derivative_at_tc(v: VFunction, params: PhysicalParams,
                                tc: float) -> float:
    """Curvature of psi at the transition (negative)."""
    return params.n0 / (8.0 * tc * tc) * _v_squared_g_deta(v, params, tc)


def v_selfconsistency_residual(v: VFunction, disc: Discretization,
                               tc: float) -> float:
    """Sup-norm gap between v and its own fixed-point image F.

    F(x) is the square of the kernel integral of sqrt(v)/xi * tanh(xi/2T_c);
    for the true limit function both sides coincide.
    """
    return float(np.max(np.abs(v.values - v_fixed_point_image(v, disc, tc))))


def v_fixed_point_image(v: VFunction, disc: Discretization,
                        tc: float) -> np.ndarray:
    vv = np.maximum(disc.interp(v.values), 0.0)
    f = disc.kernel_apply(np.sqrt(vv) / disc.qn * np.tanh(disc.qn / (2.0 * tc)))
    return f * f


def delta_cv(v: VFunction, params: PhysicalParams, tc: float) -> float:
    """Specific-heat jump at the transition (positive; g < 0)."""
    return -params.n0 / (8.0 * tc) * _v_squared_g_deta(v, params, tc)


def _j_integral(params: PhysicalParams, dos: DosModel, tc: float,
                tol: float = 1e-12) -> float:
    """Shell plus off-shell cosh^-2 weight integrals entering the ratio."""
    eps, om, mu, n0 = params.epsilon, params.hbar_omega_d, params.mu, params.n0
    ehat, b, mhat = eps / (2 * tc), om / (2 * tc), mu / (2 * tc)
    j1 = 2.0 * n0 * integrate(lambda e: e * e * sech2(e), ehat, b, tol).value
    # below-shell piece, folded to positive eta
    j2 = integrate(lambda e: eval_dos(dos, -2.0 * tc * e) * e * e * sech2(e),
                   b, mhat, tol).value
    j3 = integrate_tail(lambda e: eval_dos(dos, 2.0 * tc * e) * e * e * sech2(e),
                        b, 0.5, tol).value
    return j1 + j2 + j3


def cv_ratio(v: VFunction, params: PhysicalParams, dos: DosModel,
             tc: float, tol: float = 1e-12) -> float:
    """Jump over normal specific heat at T_c, from the explicit expression."""
    j = _j_integral(params, dos, tc, tol)
    return -params.n0 / (32.0 * tc * tc * j) * _v_squared_g_deta(v, params, tc)


def universal_constant(tol: float = 1e-12) -> float:
    """Wide-shell limit of the jump ratio for constant kernels.

    The squared tanh difference across the shell tends to 1, leaving the
    reciprocal product of the two weight integrals.  The algebraic 1/eta^3
    tail of -g beyond the truncation point is added in closed form (the
    remaining exponentially small part is below 1e-50).
    """
    cut = 60.0
    i1 = integrate(lambda e: e * e * sech2(e), 0.0, cut, tol).value
    i2 = integrate(lambda e: -g_weight(e), 0.0, cut, tol).value + 0.5 / cut ** 2
    return 1.0 / (i1 * i2)


@dataclass
class ThermoCurve:
    t: np.ndarray
    omega_n: np.ndarray
    psi: np.ndarray
    dpsi_dT: np.ndarray
    cv_normal: np.ndarray
    cv_super: np.ndarray


def build_thermo_curve(surface, disc: Discretization, dos: DosModel,
                       tol: float = 1e-10) -> ThermoCurve:
    """Per-temperature thermodynamic records over a solved surface.

    cv_super uses second central differences of Omega_N + Psi on the curve
    grid (one-sided at the ends); everything else is analytic.
    """
    params = disc.kernel.params
    ts = surface.t_grid
    n = ts.size
    om_n = np.empty(n)
    ps = np.empty(n)
    dps = np.empty(n)
    cvn = np.empty(n)
    for i, sl in enumerate(surface.slices):
        t = float(ts[i])
        om_n[i] = omega_normal(t, params, dos, tol)
        ps[i] = psi(t, sl, disc)
        cvn[i] = cv_normal(t, params, dos, tol)
        if t == 0.0 or sl.sup() == 0.0:
            dps[i] = 0.0
        else:
            du = du_dT_at_fixed_point(sl, disc)
            dps[i] = psi_derivative(t, sl, du, disc)

    total = om_n + ps
    cvs = np.empty(n)
    for i in range(n):
        j = min(max(i, 1), n - 2)
        h1 = ts[j] - ts[j - 1]
        h2 = ts[j + 1] - ts[j]
        f2 = 2.0 * (total[j - 1] / (h1 * (h1 + h2)) - total[j] / (h1 * h2)
                    + total[j + 1] / (h2 * (h1 + h2)))
        cvs[i] = -ts[i] * f2
    return ThermoCurve(ts, om_n, ps, dps, cvn, cvs)
