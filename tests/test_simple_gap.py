import math

import numpy as np
import pytest

from bcsgap import (ConfigError, NumericalError, PhysicalParams,
                    build_simple_gap_curve, delta_at_zero, gap_rhs,
                    solve_simple_gap, solve_tau, solve_tau0, solve_z0, tau3,
                    validate_params)

P = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.25, 0.35))
P6 = validate_params(PhysicalParams(1e-6, 1.0, 20.0, 1.0, 0.25, 0.35))

# frozen from a 30-digit root/quadrature oracle (mpmath + brute bisection)
Z0_ORACLE = 2.0653381389747047
DELTA0_U03_EPS0 = 0.071438902256246705       # 1/sinh(10/3) with cutoff 0
TAU_U03_EPS6 = 0.0404490251878                # brute-force bisection oracle
TAU0_U025_EPS3 = 0.008465578243               # sign-change bracketing oracle


def test_z0_near_published_value():
    z0 = solve_z0()
    assert abs(z0 - 2.07) < 0.01
    assert z0 == pytest.approx(Z0_ORACLE, abs=1e-12)


def test_z0_residual():
    z0 = solve_z0()
    assert abs(2.0 / z0 - math.tanh(z0)) <= 1e-12


def test_z0_bracket_sign_change():
    f = lambda z: 2.0 / z - math.tanh(z)
    assert f(2.0) > 0 > f(2.1)


def test_delta_at_zero_small_cutoff_limit():
    # with a vanishing cutoff the closed form tends to hbar_omega_d/sinh(1/U)
    p = validate_params(PhysicalParams(1e-12, 1.0, 20.0, 1.0, 0.25, 0.35))
    assert delta_at_zero(0.3, p) == pytest.approx(1.0 / math.sinh(10.0 / 3.0), rel=1e-9)
    assert delta_at_zero(0.3, p) == pytest.approx(DELTA0_U03_EPS0, rel=1e-9)


def test_delta_at_zero_matches_root_of_gap_equation():
    for p in (P, P6):
        for u in (0.28, 0.3, 0.34):
            closed = delta_at_zero(u, p)
            numeric = solve_simple_gap(0.0, u, p)
            assert numeric == pytest.approx(closed, rel=1e-8)


def test_delta_at_zero_cutoff_too_large():
    p = validate_params(PhysicalParams(0.5, 1.0, 20.0, 1.0, 0.25, 0.35))
    with pytest.raises(ConfigError, match="cutoff too large"):
        delta_at_zero(0.3, p)


def test_tau_equation_right_side_decreasing_in_tau():
    tau = solve_tau(0.3, P)
    assert gap_rhs(0.3, tau, 0.0, P) > gap_rhs(0.3, 2 * tau, 0.0, P)


def test_tau_weak_coupling_value():
    tau = solve_tau(0.3, P6)
    assert tau == pytest.approx(TAU_U03_EPS6, rel=1e-9)
    asymptote = 2.0 * math.exp(np.euler_gamma) / math.pi * math.exp(-10.0 / 3.0)
    assert abs(tau / asymptote - 1.0) < 0.02


def test_tau_ordering():
    assert solve_tau(P.u1, P) < solve_tau(P.u2, P)


def test_no_transition_error():
    p = validate_params(PhysicalParams(0.2, 1.0, 20.0, 1.0, 0.05, 0.5))
    with pytest.raises(NumericalError, match="no transition"):
        solve_tau(0.1, p)


def test_gap_vanishes_at_and_above_tau():
    tau = solve_tau(0.3, P)
    assert solve_simple_gap(tau, 0.3, P) == 0.0
    assert solve_simple_gap(2 * tau, 0.3, P) == 0.0


def test_gap_midpoint_between_endpoints():
    tau = solve_tau(0.3, P)
    d0 = solve_simple_gap(0.0, 0.3, P)
    dm = solve_simple_gap(tau / 2.0, 0.3, P)
    assert 0.0 < dm < d0


def test_gap_self_consistency():
    tau = solve_tau(0.3, P)
    for t in (0.0, 0.3 * tau, 0.7 * tau, 0.95 * tau):
        d = solve_simple_gap(t, 0.3, P)
        assert gap_rhs(0.3, t, d, P) == pytest.approx(1.0, abs=1e-8)


def test_sandwich_ordering():
    tau2 = solve_tau(P.u2, P)
    for t in np.linspace(0.0, 1.2 * tau2, 9):
        d1 = solve_simple_gap(float(t), P.u1, P)
        d2 = solve_simple_gap(float(t), P.u2, P)
        if t < tau2:
            assert d1 < d2
        else:
            assert d1 == 0.0 == d2


def test_strict_decrease_on_grid():
    tau = solve_tau(0.3, P)
    ts = np.linspace(0.0, tau, 12)
    ds = [solve_simple_gap(float(t), 0.3, P) for t in ts]
    assert all(a > b for a, b in zip(ds[:-2], ds[1:-1]))


@pytest.mark.parametrize("u", [0.2, 0.3])
def test_weak_coupling_gap_to_tau_ratio(u):
    ratio = solve_simple_gap(0.0, u, P6) / solve_tau(u, P6)
    assert 1.73 <= ratio <= 1.80


def test_tau0_defining_relation():
    z0 = solve_z0()
    t0 = solve_tau0(P)
    d = solve_simple_gap(t0, P.u1, P)
    assert abs(d - 2.0 * z0 * t0) < 1e-9 * solve_simple_gap(0.0, P.u1, P)
    assert t0 < solve_tau(P.u1, P)
    assert t0 == pytest.approx(TAU0_U025_EPS3, rel=1e-6)
    assert tau3(P) == pytest.approx(t0 / 2.0, rel=0, abs=0)


def test_curve_builder():
    c = build_simple_gap_curve(P.u1, P, 11)
    assert c.t.size == 11 and c.delta.size == 11
    assert c.delta[0] > 0 and c.delta[-1] == 0.0      # grid extends past tau
    assert np.all(np.diff(c.delta) <= 0)
    live = c.delta > 0
    assert np.all(c.residual[live] < 1e-8)


def test_negative_temperature_rejected():
    with pytest.raises(ConfigError):
        solve_simple_gap(-0.1, 0.3, P)


def _gap_rhs_grid():
    """40 (epsilon, T, Delta) points: every cutoff, T from 0 to 3 tau."""
    tau = solve_tau(0.3, P)
    eps = (1e-8, 1e-6, 1e-4, 1e-3, 0.05)
    temps = (0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0)
    deltas = (0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 1.0)
    return [(e, f * tau, deltas[(i + 3 * j) % len(deltas)])
            for j, e in enumerate(eps) for i, f in enumerate(temps)]


@pytest.mark.parametrize("eps, t, delta", _gap_rhs_grid())
def test_gap_rhs_matches_mpmath(eps, t, delta):
    mp = pytest.importorskip("mpmath")
    p = validate_params(PhysicalParams(eps, 1.0, 20.0, 1.0, 0.25, 0.35))

    def f(xi):
        e = mp.sqrt(xi * xi + mp.mpf(delta) ** 2)
        return 1 / e if t == 0.0 else mp.tanh(e / (2 * mp.mpf(t))) / e

    # split where the integrand varies on the scale of ln(xi)
    with mp.workdps(20):
        cuts = [mp.mpf(eps) * mp.e ** k for k in range(int(math.log(1.0 / eps)) + 1)]
        ref = mp.quad(f, cuts + [mp.mpf(1)])
    assert gap_rhs(1.0, t, delta, p) == pytest.approx(float(ref), rel=1e-14, abs=0)
