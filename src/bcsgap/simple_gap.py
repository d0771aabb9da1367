"""Constant-potential gap curves: the envelopes of every general solution.

For a constant coupling U the gap equation collapses to a scalar equation for
Delta(T).  The two couplings u1 < u2 give the lower/upper envelopes Delta_1,
Delta_2 that sandwich the full solution, the vanishing temperatures tau_1 <
tau_2 bracket the transition, and the crossing temperature tau_0 (where
Delta_1 equals 2*z0*T) fixes the small-temperature regime boundary
tau_3 = tau_0 / 2 used by the contraction diagnostics.

The gap integral is one fixed 7-point Gauss rule on panels of width <= 1/2 in
ln(xi): its singularities all lie at arg xi = +-pi/2 for every T and Delta, so
it converges geometrically, to about 1e-15, with no tolerance to set.  Every
root (tau, Delta(T), tau_0, z0) comes from rootfind.solve_bracketed on a
closed-form bracket, to its fixed relative width of 4e-16.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .model import PhysicalParams
from .quadrature import composite_gauss
from .rootfind import solve_bracketed


@lru_cache(maxsize=None)
def solve_z0() -> float:
    """Unique positive root of 2/z = tanh z (about 2.0653)."""
    return solve_bracketed(lambda z: 2.0 / z - math.tanh(z), 1.5, 2.5)


@lru_cache(maxsize=None)
def _log_panel_rule(eps: float, om: float):
    """Nodes xi and weights w with integral_eps^om f dxi ~ w @ f(xi)."""
    length = math.log(om / eps)
    s, qw = composite_gauss(np.linspace(0.0, length, math.ceil(2.0 * length) + 1))
    xi = eps * np.exp(s)
    return xi, qw * xi


def gap_rhs(u_const: float, t: float, delta: float, params: PhysicalParams) -> float:
    """Right side of the constant-coupling gap equation at (T, Delta)."""
    xi, w = _log_panel_rule(params.epsilon, params.hbar_omega_d)
    e = np.hypot(xi, delta)
    f = 1.0 / e if t == 0.0 else np.tanh(e / (2.0 * t)) / e
    return u_const * float(w @ f)


def delta_at_zero(u_const: float, params: PhysicalParams) -> float:
    """Closed-form zero-temperature gap for a constant coupling."""
    eps, om = params.epsilon, params.hbar_omega_d
    a = math.exp(1.0 / u_const)
    rad = (om - eps * a) * (om - eps / a)
    if rad <= 0.0:
        raise ConfigError("cutoff too large for this coupling")
    return math.sqrt(rad) / math.sinh(1.0 / u_const)


@lru_cache(maxsize=None)
def solve_tau(u_const: float, params: PhysicalParams) -> float:
    """Temperature where the constant-coupling gap vanishes."""
    eps, om = params.epsilon, params.hbar_omega_d
    if u_const * math.log(om / eps) <= 1.0:
        raise NumericalError("no transition for this coupling/cutoff")

    # f(0) = u_const * ln(om/eps) - 1 > 0, and tanh y < y gives
    # gap_rhs(u_const, T, 0) < u_const * (om - eps) / 2T, so f < 0 at the top
    def f(t):
        return gap_rhs(u_const, t, 0.0, params) - 1.0

    return solve_bracketed(f, 0.0, 0.5 * u_const * (om - eps))


def solve_simple_gap(t: float, u_const: float, params: PhysicalParams) -> float:
    """Gap Delta(T) for a constant coupling; exactly 0 at and above tau."""
    if not (t == 0.0 or t >= sys.float_info.min):
        raise ConfigError(f"temperature {t!r} must be 0 or >= {sys.float_info.min!r}")
    tau = solve_tau(u_const, params)
    if t >= tau:
        return 0.0

    def f(delta):
        return gap_rhs(u_const, t, delta, params) - 1.0

    # Delta(T) <= Delta(0), and gap_rhs falls with Delta
    return solve_bracketed(f, 0.0, 1.01 * delta_at_zero(u_const, params),
                           atol=1e-15 * params.hbar_omega_d)


@lru_cache(maxsize=None)
def solve_tau0(params: PhysicalParams) -> float:
    """Temperature where Delta_1 crosses 2*z0*T (inside (0, tau_1))."""
    z0 = solve_z0()
    tau1 = solve_tau(params.u1, params)

    # gap_rhs falls with Delta, so h has the sign of Delta_1(T) - 2*z0*T
    def h(t):
        return gap_rhs(params.u1, t, 2.0 * z0 * t, params) - 1.0

    return solve_bracketed(h, 1e-6 * tau1, tau1 * (1.0 - 1e-12))


def tau3(params: PhysicalParams) -> float:
    """Small-temperature regime boundary, fixed as half of tau_0."""
    return 0.5 * solve_tau0(params)


class SimpleGapCurve(NamedTuple):
    tau: float
    t: np.ndarray
    delta: np.ndarray
    residual: np.ndarray


def build_simple_gap_curve(u_const: float, params: PhysicalParams,
                           t_points: int) -> SimpleGapCurve:
    """Sample Delta(T) on [0, 1.05 tau], recording the equation residual."""
    tau = solve_tau(u_const, params)
    ts = np.linspace(0.0, 1.05 * tau, t_points)
    deltas = np.empty_like(ts)
    resid = np.empty_like(ts)
    for i, t in enumerate(ts):
        d = solve_simple_gap(float(t), u_const, params)
        deltas[i] = d
        resid[i] = 0.0 if d == 0.0 else abs(gap_rhs(u_const, float(t), d, params) - 1.0)
    return SimpleGapCurve(tau, ts, deltas, resid)
