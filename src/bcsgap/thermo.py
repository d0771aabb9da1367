"""Thermodynamic potentials, specific heats and the specific-heat jump.

The superconducting potential Psi is integrated with the same grid-aligned
panel rule the solver uses, over the slice the solver produced (u = Ft c at
the quadrature nodes), with all differences of nearly equal quantities
(E - xi, the log of the Fermi-factor ratio) rewritten in cancellation-free
form; near the transition Psi shrinks like (T_c - T)^2 and would otherwise
drown in roundoff.

The limit function v(x) = -d(u^2)/dT at T_c, which carries the jump in the
specific heat and the slope of H_c at T_c, is read off the bifurcation of the
iterated map at T_c: an r-by-r reduction on its Perron vectors, with no solve,
which also gives the jump on v at the solver's own quadrature nodes.
Below T_c, condensation reads Psi, dPsi/dT and the entropy form of C_V^S off
each slice in one pass, from its u and du/dT.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gap_solver import (Discretization, GapSlice, _gap_terms,
                         du_dT_at_fixed_point, perron, weight_at_zero)
from .model import DosModel, PhysicalParams, eval_dos
from .quadrature import composite_gauss
from .special import fermi, sech2

ZETA3 = 1.2020569031595943
JUMP_RATIO_WIDE_SHELL = 12.0 / (7.0 * ZETA3)
HC_SLOPE_RATIO_WIDE_SHELL = 1.7366609468270189  # sqrt(8 e^(2 gamma) / (7 zeta(3)))


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


def psi(u: GapSlice, disc: Discretization) -> float:
    """Condensation part of the thermodynamic potential at the slice's T.

    u is taken at the quadrature nodes as Ft @ u.coef, the interpolant the
    solver iterated.
    """
    t, qn, qw = u.T, disc.qn, disc.qw
    uu = disc.Ft @ u.coef
    e = np.hypot(qn, uu)
    u2 = uu * uu
    delta = u2 / (e + qn)  # E - xi without cancellation
    integrand = -delta * delta / e  # -2 delta + u^2/E, the T = 0 part
    if t > 0.0:
        b = np.exp(-qn / t)
        # ln(1+e^(-E/T)) - ln(1+e^(-xi/T)), stable for E close to xi
        dlog = np.log1p(b * np.expm1(-delta / t) / (1.0 + b))
        # tanh(E/2T) = 1 - 2 fermi(E/T); at a T too small for any Fermi
        # factor to register, this is the T = 0 integrand bit for bit
        integrand = integrand - 2.0 * u2 / e * fermi(e / t) - 4.0 * t * dlog
    return disc.kernel.params.n0 * float(qw @ integrand)


def condensation(u: GapSlice, disc: Discretization):
    """Psi, dPsi/dT and the shell part of C_V^S on a nonzero slice at T > 0.

    dPsi/dT is the analytic derivative along the solution and C_V^S's shell
    part the entropy form, (n0/T) * integral of sech^2(E/2T) (E^2/T - u du/dT);
    u enters as Ft @ u.coef and du/dT as Ft @ dc/dT, dc/dT from
    du_dT_at_fixed_point.
    """
    t, qn, qw, n0 = u.T, disc.qn, disc.qw, disc.kernel.params.n0
    if t <= 0.0:
        raise ValueError("condensation needs T > 0; at T = 0 take psi")
    uu = disc.Ft @ u.coef
    du = disc.Ft @ du_dT_at_fixed_point(u, disc)
    phi, dphi_du, dphi_dT = _gap_terms(disc, uu, t)
    e2 = qn * qn + uu * uu
    e = np.sqrt(e2)
    b = np.exp(-qn / t)
    dlog = np.log1p(b * np.expm1(-uu * uu / (e + qn) / t) / (1.0 + b))
    # d/dT of the psi integrand along u(T); its two f(E/T) du/dT terms cancel
    dpsi = (du * (uu * dphi_du - phi) + uu * dphi_dT
            - 4.0 * (dlog + (e * fermi(e / t) - qn * fermi(qn / t)) / t))
    shell = sech2(e / (2.0 * t)) * (e2 / t - uu * du)
    return psi(u, disc), n0 * float(qw @ dpsi), n0 * float(qw @ shell) / t


# Fermi-window rules: 7-point Gauss panels at most T wide (every pole of the
# Fermi factors lies at |Im x| >= pi T), cut _WINDOW thermal lengths from the
# shell edge where the factor peaks; x^2 sech^2(x/2T) has fallen below 1e-16
# of its integral there.
_WINDOW = 46.0


@lru_cache(maxsize=None)
def _unit_panels():
    """Gauss nodes and weights on the 128 unit panels of [0, 128]."""
    return composite_gauss(np.arange(129.0))


def _panels(a: float, length: float, width: float):
    """Gauss rule on [a, a + length] with ceil(length/width) <= 128 equal panels."""
    m = max(1, math.ceil(length / width))
    u, w = _unit_panels()
    h = length / m
    return a + h * u[:7 * m], h * w[:7 * m]


def _below_shell(reach: float, width: float, params: PhysicalParams):
    """Gauss rule on [max(-mu, -om - reach), -om], panels at most width wide.

    The panels are uniform in d = sqrt(mu - om) - sqrt(x + mu): in d the
    sqrt-band branch point at x = -mu is a polynomial factor, so the rule
    converges geometrically up to it.
    """
    om, mu = params.hbar_omega_d, params.mu
    top = math.sqrt(mu - om)
    d, wd = _panels(0.0, top - math.sqrt(max(top * top - reach, 0.0)),
                    width / (2.0 * top))
    x = np.maximum(-om - d * (2.0 * top - d), -mu)
    return x, 2.0 * (top - d) * wd


def _ground_energy(dos: DosModel) -> float:
    """Omega_N at T = 0, from its two temperature-free terms, both exact:
    -2 n0 (integral of x over the shell) in closed form, and
    2 (integral of x N(x) over [-mu, -om]) by one Gauss panel in
    sqrt(x + mu), where both DOS models are polynomials."""
    eps, om, n0 = dos.params.epsilon, dos.params.hbar_omega_d, dos.params.n0
    xb, wb = _below_shell(math.inf, math.inf, dos.params)
    return -n0 * (om - eps) * (om + eps) + 2.0 * float(wb @ (xb * eval_dos(dos, xb)))


def _normal_thermal(t: float, dos: DosModel):
    """(Omega_N(T) - Omega_N(0), C_V^N(T), its off-shell part) at T = t > 0, on
    Fermi-window rules for the shell [eps, om] and for the off-shell windows
    below -om and above om, joined into one rule with the DOS on it."""
    p = dos.params
    reach = _WINDOW * t
    xs, ws = _panels(p.epsilon, min(p.hbar_omega_d - p.epsilon, reach), t)
    xb, wb = _below_shell(reach, t, p)
    xa, wa = _panels(p.hbar_omega_d, reach, t)
    xo, wo = np.concatenate([xb, xa]), np.concatenate([wb, wa])
    n_off = eval_dos(dos, xo)
    omega = (2.0 * p.n0 * float(ws @ np.log1p(np.exp(-xs / t)))
             + float(wo @ (n_off * np.log1p(np.exp(-np.abs(xo) / t)))))
    cv_shell = 2.0 * p.n0 * float(ws @ (xs * xs * sech2(xs / (2.0 * t))))
    cv_off = float(wo @ (n_off * xo * xo * sech2(xo / (2.0 * t))))
    # divided by T twice, not by T^2, which underflows below T ~ 1e-154
    return -2.0 * t * omega, 0.5 * (cv_shell + cv_off) / t / t, 0.5 * cv_off / t / t


def omega_normal(t: float, dos: DosModel) -> float:
    """Normal-state thermodynamic potential (five-integral form)."""
    energy = _ground_energy(dos)
    return energy if t == 0.0 else energy + _normal_thermal(t, dos)[0]


def cv_normal(t: float, dos: DosModel) -> float:
    """Normal-state specific heat C_V^N(T) = -T d^2(Omega_N)/dT^2, from the
    closed-form second derivative (no numerical differentiation)."""
    if t < 0.0:
        raise ValueError("cv_normal needs T >= 0")
    return 0.0 if t == 0.0 else _normal_thermal(t, dos)[1]


class VFunction(NamedTuple):
    """v(x) = -d(u^2)/dT at T = tc on the grid nodes, and the jump it carries.

    jump is Delta C_V = -n0/(16 T_c^2) (integral of v^2 g(xi/2T_c)) > 0.
    fit_residual is |m| * v, m the relative mismatch between jump, quadratic
    in v, and the entropy form, linear in v: they agree only when the
    amplitude of v is right.
    """
    values: np.ndarray
    fit_residual: np.ndarray
    jump: float
    tc: float


def extract_v(disc: Discretization, tc: float) -> VFunction:
    """Near-transition limit v(x) of u^2/(T_c - T), from the bifurcation.

    Let phi and chi be the right and left Perron vectors (perron) of the map
    linearized at zero, A = core(tanh(xi/2T_c)/xi).  To leading order the
    branch leaving c = 0 at T_c is c = a sqrt(T_c - T) phi, with
    a^2 = chi A' phi / chi N(phi) (Lyapunov-Schmidt reduction at a simple
    eigenvalue).  A' = dA/dT = core(-sech^2(xi/2T_c)/2T_c^2), and
    N(phi) = Gw^T[(Ft phi)^3 k3] is the cubic term of the map, with
    k3 = (1/2 xi) d/dxi[tanh(xi/2T_c)/xi] = g(xi/2T_c)/(16 T_c^3).  The core
    is positive and A' and N negative, so a^2 > 0; v = a^2 (F phi)^2, and
    both forms of the jump take a^2 (Ft phi)^2 at the quadrature nodes.  No
    gap equation is solved.
    """
    params = disc.kernel.params
    qn, qw = disc.qn, disc.qw
    s2 = sech2(qn / (2.0 * tc))
    g = g_weight(qn / (2.0 * tc))
    _, phi, chi = perron(disc.core(weight_at_zero(disc, tc)))
    ut = disc.Ft @ phi
    cubic = disc.Gw.T @ (ut ** 3 * g / (16.0 * tc ** 3))
    a2 = (chi @ disc.core(-s2 / (2.0 * tc * tc)) @ phi) / (chi @ cubic)

    values = a2 * (disc.F @ phi) ** 2
    vq = a2 * ut * ut
    jump = -params.n0 / (16.0 * tc * tc) * float(qw @ (vq * vq * g))
    m = jump / (params.n0 / (2.0 * tc) * float(qw @ (vq * s2))) - 1.0
    return VFunction(values, abs(m) * values, jump, tc)


def universal_constant() -> float:
    """Wide-shell limit of the jump ratio for constant kernels.

    The squared tanh difference across the shell tends to 1, leaving the
    reciprocal product of the two weight integrals, taken with Gauss panels
    of width 1/2 in eta (the sech^2 poles lie at +-i pi/2).  The algebraic
    1/eta^3 tail of -g beyond the truncation point is added in closed form
    (the remaining exponentially small part is below 1e-50).
    """
    cut = 60.0
    e, w = _panels(0.0, cut, 0.5)
    i1 = float(w @ (e * e * sech2(e)))
    i2 = float(w @ -g_weight(e)) + 0.5 / cut ** 2
    return 1.0 / (i1 * i2)


class ThermoCurve(NamedTuple):
    t: np.ndarray
    omega_n: np.ndarray
    psi: np.ndarray
    dpsi_dT: np.ndarray
    cv_normal: np.ndarray
    cv_super: np.ndarray


def _psi_curve(slices, disc: Discretization):
    """condensation on every slice: all 0 on zero slices (T >= T_c), and Psi
    alone at T = 0."""
    return np.array([(0.0,) * 3 if not sl.coef.any()
                     else condensation(sl, disc) if sl.T > 0.0
                     else (psi(sl, disc), 0.0, 0.0) for sl in slices]).T


def build_thermo_curve(slices, disc: Discretization,
                       dos: DosModel) -> ThermoCurve:
    """Per-temperature thermodynamic records over the slices of a sweep, all
    analytic: cv_super is cv_normal wherever Psi vanishes identically, and
    below T_c the off-shell part of cv_normal plus condensation's shell part.
    """
    ts = np.array([sl.T for sl in slices])
    d_omega, cvn, cv_off = np.array([_normal_thermal(t, dos) if t > 0.0 else (0.0,) * 3
                                     for t in ts.tolist()]).T
    ps, dps, shell = _psi_curve(slices, disc)
    return ThermoCurve(ts, _ground_energy(dos) + d_omega, ps, dps, cvn,
                       np.where(ps == 0.0, cvn, cv_off + shell))
