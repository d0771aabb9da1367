import math

import numpy as np
import pytest

from bcsgap import (ConstantPotential, Discretization, GapSlice, NumericalError,
                    PhysicalParams, SeparablePotential, SolverOpts,
                    TabulatedPotential, build_grid, build_hc_curve,
                    condensation, extract_v, find_Tc, hc, hc_slope,
                    linear_law_check, psi, slope_at_tc,
                    solve_at_T, sweep, validate_params)
from bcsgap.critical_field import HcCurve, hc_temperatures
from bcsgap.thermo import HC_SLOPE_RATIO_WIDE_SHELL

P = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.25, 0.35))
K = ConstantPotential(0.3, P)
GRID = build_grid(P, 129)
DISC = Discretization(K, GRID)
OPTS = SolverOpts()


@pytest.fixture(scope="module")
def tc():
    return find_Tc(K, GRID, OPTS)


@pytest.fixture(scope="module")
def v(tc):
    return extract_v(DISC, tc)


@pytest.fixture(scope="module")
def curve(tc, v):
    surface = sweep(hc_temperatures(np.linspace(0.0, tc, 25), tc), DISC, OPTS)
    return build_hc_curve(surface, v, DISC, OPTS)


def test_hc_inverts_defining_square_root():
    assert hc(0.0) == 0.0
    assert hc(-1.0 / (8.0 * math.pi)) == pytest.approx(1.0, rel=1e-15)


def test_hc_monotone_link():
    assert hc(-2.0) > hc(-1.0)


def test_hc_rejects_positive_psi():
    with pytest.raises(NumericalError, match="positive Psi"):
        hc(1e-6)


def test_hc_slope_sign_and_scaling():
    s = hc_slope(-1.0, 0.5)
    assert s < 0.0
    s2 = hc_slope(-2.0, 1.0)
    assert s2 == pytest.approx(math.sqrt(2.0) * s, rel=1e-14)
    with pytest.raises(NumericalError):
        hc_slope(0.0, 0.5)


def test_slope_at_tc_negative_and_consistent(tc, v):
    s = slope_at_tc(v)
    assert s < 0.0
    pdd = -v.jump / tc
    assert s * s == pytest.approx(4.0 * math.pi * abs(pdd), rel=1e-8)


def test_hc_slope_approaches_transition_slope(tc, v):
    s_tc = slope_at_tc(v)
    errs = []
    for k in (4, 6, 8):
        t = tc * (1.0 - 2.0 ** -k)
        sl = solve_at_T(t, DISC, OPTS)
        p = psi(sl, DISC)
        dp = condensation(sl, DISC)[1]
        errs.append(abs(hc_slope(p, dp) - s_tc))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.01 * abs(s_tc)


def test_zero_slice_has_zero_field_at_zero_temperature():
    zero = GapSlice(0.0, np.zeros(1), 0, 0.0)
    assert hc(psi(zero, DISC)) == 0.0


def test_hc_zero_small_gap_taylor_pointwise():
    # where the gap is far below the energy, the integrand collapses to
    # u^4/(4 xi^3); checked pointwise at such nodes for a weak coupling
    p = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.15, 0.25))
    k = ConstantPotential(0.2, p)
    g = build_grid(p, 129)
    disc = Discretization(k, g)
    sl = solve_at_T(0.0, disc, SolverOpts())
    u0 = (disc.F @ sl.coef).max()
    sel = g.nodes >= 20.0 * u0
    x = g.nodes[sel]
    u = (disc.F @ sl.coef)[sel]
    e = np.hypot(x, u)
    exact = (e - x) ** 2 / e
    approx = u ** 4 / (4.0 * x ** 3)
    assert np.max(np.abs(approx / exact - 1.0)) < 5e-3


def test_curve_shape(tc, curve):
    inside = curve.t <= tc
    assert np.all(curve.hc[inside] >= 0.0)
    assert curve.hc[-1] == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(curve.hc) < 0.0)
    live = (curve.t > 0) & (curve.t <= tc)
    assert np.all(curve.dhc_dT[live] < 0.0)
    assert curve.dhc_dT[0] == 0.0


def test_curve_flat_at_zero_temperature(tc, v):
    # vanishing slope at T = 0: the field change from hc(0) is exponentially
    # small; at resolvable temperatures the halving test shows super-linear
    # flattening, below them both differences sit at the quadrature floor
    t3 = 0.5 * 0.00846557824340508
    sl0 = solve_at_T(0.0, DISC, OPTS)
    h0 = hc(psi(sl0, DISC))

    def hc_at(t):
        sl = solve_at_T(t, DISC, OPTS)
        return hc(psi(sl, DISC))

    floor = 1e-10 * h0
    d1 = abs(hc_at(0.6 * t3) - h0)
    d2 = abs(hc_at(0.3 * t3) - h0)
    assert d2 <= max(d1 / 3.0, floor)
    d1f = abs(hc_at(t3 / 8.0) - h0)
    d2f = abs(hc_at(t3 / 16.0) - h0)
    assert d2f <= max(d1f / 3.0, floor)


def test_analytic_slope_matches_differences(tc, curve):
    sel = (curve.t >= 0.2 * tc) & (curve.t <= 0.95 * tc)
    ts = curve.t[sel]

    def hc_at(t):
        sl = solve_at_T(float(t), DISC, OPTS)
        return hc(psi(sl, DISC))

    for t in ts[:: max(1, ts.size // 4)]:
        errs = []
        for h in (4e-3 * tc, 2e-3 * tc):
            fd = (hc_at(t + h) - hc_at(t - h)) / (2.0 * h)
            errs.append(abs(fd - curve.dhc_dT[curve.t == t][0]))
        assert errs[1] < 0.5 * errs[0] or errs[1] < 1e-8


@pytest.mark.parametrize("kind,ref", [
    ("constant", 4.34e-6), ("separable", -1.40e-5), ("tabulated", -3.03e-6)])
def test_slope_ratio_tends_to_wide_shell_limit(kind, ref):
    # criterion 02b's kernels: flat shell, u1 = 0.8 u0, u2 = 1.25 u0 at
    # (epsilon, u0) = (1e-9, 0.1); the measured deviation, pinned within 2x
    u0 = 0.1
    p = validate_params(PhysicalParams(1e-9, 1.0, 20.0, 1.0, 0.8 * u0, 1.25 * u0))
    fn = np.linspace(p.epsilon, p.hbar_omega_d, 41)
    x = np.linspace(p.epsilon, p.hbar_omega_d, 5)
    table = u0 * (1.0 + 0.025 * (np.sin(np.add.outer(3.0 * x, 2.0 * x))
                                 + np.sin(np.add.outer(2.0 * x, 3.0 * x))))
    kernel = {"constant": ConstantPotential(u0, p),
              "separable": SeparablePotential(
                  fn, np.sqrt(u0 * (1.0 + 0.1 * np.sin(5.0 * fn))), p),
              "tabulated": TabulatedPotential(x, table, p)}[kind]
    grid = build_grid(p, 129)
    disc = Discretization(kernel, grid)
    tc = find_Tc(kernel, grid)
    surface = sweep(hc_temperatures(np.linspace(0.0, tc, 33), tc), disc)
    curve = build_hc_curve(surface, extract_v(disc, tc), disc)
    dev = (linear_law_check(curve).fitted_coefficient / curve.hc0
           / HC_SLOPE_RATIO_WIDE_SHELL - 1.0)
    assert 0.5 <= dev / ref <= 2.0


def test_linear_law(tc, v, curve):
    law = linear_law_check(curve)
    assert law.fitted_coefficient == pytest.approx(law.predicted_coefficient, rel=0.02)
    assert 1.70 <= law.fitted_coefficient / curve.hc0 <= 1.78
    # the fitted line passes through zero at the transition
    assert curve.hc[curve.t == tc][0] == pytest.approx(0.0, abs=1e-15)


def test_linear_law_fit_matches_polyfit(curve):
    # the least-squares fit on the Vandermonde matrix is numpy's polyfit
    law = linear_law_check(curve)
    rel = 1.0 - curve.t / curve.tc
    m = (rel > 1e-12) & (rel <= 0.13)
    ref = np.polynomial.polynomial.polyfit(rel[m], curve.hc[m] / rel[m], 2)[0]
    assert law.fitted_coefficient == pytest.approx(ref, rel=1e-12, abs=0)


def polyfit_intercept(curve, t_window=0.13):
    rel = 1.0 - curve.t / curve.tc
    m = (rel > 1e-12) & (rel <= t_window)
    return np.polyfit(rel[m], curve.hc[m] / rel[m], deg=2)[-1]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_linear_law_intercept_matches_polyfit_on_random_points(n):
    rng = np.random.default_rng(100 + n)
    tc = 0.04
    d = np.sort(rng.uniform(1e-3, 0.13, n))
    z = 0.43 + rng.normal(0.0, 0.05) * d + rng.normal(0.0, 0.5) * d * d \
        + rng.normal(0.0, 1e-3, n)
    t = np.concatenate([[0.0, 0.5 * tc], tc * (1.0 - d[::-1]), [tc]])
    h = np.concatenate([[1.0, 0.7], (z * d)[::-1], [0.0]])
    curve = HcCurve(t, h, np.zeros_like(t), 1.0, -1.0, tc)
    law = linear_law_check(curve)
    assert law.n_points == n
    assert law.fitted_coefficient == pytest.approx(polyfit_intercept(curve),
                                                   rel=1e-12, abs=0)


@pytest.mark.parametrize("kernel", [
    SeparablePotential(np.linspace(P.epsilon, P.hbar_omega_d, 9),
                       np.sqrt(0.30 + 0.04 * np.cos(np.linspace(0.0, np.pi, 9))), P),
    TabulatedPotential(np.linspace(P.epsilon, P.hbar_omega_d, 5),
                       0.29 + 0.02 * np.cos(np.subtract.outer(*[np.arange(5.0)] * 2)), P),
], ids=["separable", "tabulated"])
def test_linear_law_intercept_matches_polyfit_on_hc_curves(kernel):
    disc = Discretization(kernel, GRID)
    t_c = find_Tc(kernel, GRID, OPTS)
    ts = hc_temperatures(np.linspace(0.0, t_c, 25), t_c)
    curve = build_hc_curve(sweep(ts, disc, OPTS), extract_v(disc, t_c),
                           disc, OPTS)
    assert linear_law_check(curve).fitted_coefficient == pytest.approx(
        polyfit_intercept(curve), rel=1e-12, abs=0)


def unique_reference(base, tc):
    """The hc grid written with np.unique."""
    ladder = tc * (1.0 - 2.0 ** -np.arange(3, 11))
    near = np.any(np.abs(ladder[:, None] - base) <= 1e-12 * tc, axis=1)
    ts = np.unique(np.concatenate([base, ladder[~near]]))
    return ts[(ts >= 0.0) & (ts <= tc)]


@pytest.mark.parametrize("case", ["holds_ladder_point", "near_ladder_point",
                                  "below_tc"])
def test_hc_temperatures_match_unique_reference(case):
    tc = 0.04
    base = np.linspace(0.0, tc, 25)
    if case == "holds_ladder_point":
        base = np.sort(np.append(base, tc * (1.0 - 2.0 ** -5)))
    elif case == "near_ladder_point":
        base = np.sort(np.append(base, tc * (1.0 - 2.0 ** -6) * (1.0 + 5e-13)))
    else:
        base = np.linspace(0.0, 0.9 * tc, 25)
    ts = hc_temperatures(base, tc)
    ref = unique_reference(base, tc)
    assert ts.dtype == ref.dtype and np.array_equal(ts, ref)
    assert np.all(np.diff(ts) > 0.0)


def test_hc_is_positive_zero_at_zero_psi():
    assert math.copysign(1.0, hc(0.0)) == 1.0
    assert math.copysign(1.0, hc(-0.0)) == 1.0


def test_hc_curve_is_the_solved_field_through_tc(tc, v):
    # no splice near T_c: every row below it is the field of its own slice,
    # and the slope of that field tends to the closed-form transition slope
    ks = np.arange(3, 25)
    ts = np.unique(np.concatenate([np.linspace(0.0, tc, 25), tc * (1.0 - 2.0 ** -ks)]))
    surface = sweep(ts, DISC, OPTS)
    curve = build_hc_curve(surface, v, DISC, OPTS)
    live = [i for i, sl in enumerate(surface) if np.max(np.abs(DISC.F @ sl.coef)) > 0.0]
    assert [curve.t[i] for i in live] == list(ts[ts < tc])
    for i in live:
        assert curve.hc[i] == pytest.approx(hc(psi(surface[i], DISC)), rel=1e-12)
    s_tc = slope_at_tc(v)
    for k in ks[ks >= 11]:
        i = int(np.flatnonzero(ts == tc * (1.0 - 2.0 ** -float(k)))[0])
        assert abs(curve.dhc_dT[i] / s_tc - 1.0) <= 1e-3


@pytest.mark.parametrize("eps,u0", [(1e-3, 0.3), (1e-3, 0.27), (1e-4, 0.32)])
def test_hc_zero_matches_mpmath(eps, u0):
    # Delta(0) is the root of 1 = u0 (asinh(om/D) - asinh(eps/D)), and
    # H_c(0)^2 = 8 pi n0 (integral of (E - xi)^2 / E over the shell)
    mpmath = pytest.importorskip("mpmath")
    p = validate_params(PhysicalParams(eps, 1.0, 20.0, 1.0, 0.25, 0.35))
    with mpmath.workdps(40):
        om, e0 = mpmath.mpf(p.hbar_omega_d), mpmath.mpf(p.epsilon)
        d = mpmath.findroot(
            lambda d: u0 * (mpmath.asinh(om / d) - mpmath.asinh(e0 / d)) - 1, 0.05)

        def integrand(xi):
            e = mpmath.sqrt(xi * xi + d * d)
            return (e - xi) ** 2 / e

        ref = float(mpmath.sqrt(8 * mpmath.pi * p.n0
                                * mpmath.quad(integrand, [e0, d, om])))
    disc = Discretization(ConstantPotential(u0, p), build_grid(p, 129))
    assert hc(psi(solve_at_T(0.0, disc, OPTS), disc)) == pytest.approx(ref, rel=1e-12)


_XG, _WG = np.polynomial.legendre.leggauss(24)


def fermi_integrals(a, b):
    """int_a^b ln(1 + e^-s) ds and int_a^b s/(e^s + 1) ds, by 24-point Gauss
    on 32 panels of [a, min(b, a + 64)]; both tails past a + 64 are below 1e-25."""
    edges = np.linspace(a, min(b, a + 64.0), 33)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (1.0 + _XG)).ravel()
    w = (half * _WG).ravel()
    return float(w @ np.log1p(np.exp(-s))), float(w @ (s / (np.exp(s) + 1.0)))


def shell_excitations(t, p):
    """S(T) = 4 n0 T int_eps^omega ln(1 + e^(-xi/T)) d xi and dS/dT."""
    i1, i2 = fermi_integrals(p.epsilon / t, p.hbar_omega_d / t)
    return 4.0 * p.n0 * t * t * i1, 4.0 * p.n0 * t * (i1 + i2)


def test_fermi_integrals_match_closed_form_and_mpmath():
    # on [0, inf) both are eta(2) = pi^2/12
    for value in fermi_integrals(0.0, math.inf):
        assert value == pytest.approx(math.pi ** 2 / 12.0, rel=1e-15)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for a, b in [(1e-6, 1400.0), (1.2, 560.0), (0.5, 3.0)]:
            pts = [a, min(a + 1, b), min(a + 10, b), b]
            ref = (mpmath.quad(lambda s: mpmath.log1p(mpmath.exp(-s)), pts),
                   mpmath.quad(lambda s: s / (mpmath.exp(s) + 1), pts))
            for value, r in zip(fermi_integrals(a, b), ref):
                assert value == pytest.approx(float(r), rel=1e-14)


@pytest.mark.parametrize("eps", [1e-3, 1e-9])
def test_hc_leaves_hc0_by_the_shell_excitations(eps):
    # far below T_c the condensate changes only by O(e^(-Delta(0)/T)), so
    # Psi(T) - Psi(0) = S(T) and dH_c/dT H_c = -4 pi S'(T) for every kernel
    p = validate_params(PhysicalParams(eps, 1.0, 20.0, 1.0, 0.25, 0.35))
    grid, opts = build_grid(p, 129), SolverOpts(tol=1.1e-16)
    fn = np.linspace(p.epsilon, p.hbar_omega_d, 41)
    x = np.linspace(p.epsilon, p.hbar_omega_d, 5)
    table = 0.3 * (1.0 + 0.025 * (np.sin(np.add.outer(3.0 * x, 2.0 * x))
                                  + np.sin(np.add.outer(2.0 * x, 3.0 * x))))
    for kernel in (ConstantPotential(0.3, p),
                   SeparablePotential(fn, np.sqrt(0.3 + 0.03 * np.sin(5.0 * fn)), p),
                   TabulatedPotential(x, table, p)):
        disc = Discretization(kernel, grid)
        t_c = find_Tc(kernel, grid, opts)
        surface = sweep(np.array([0.0, 0.02 * t_c, 0.05 * t_c]), disc, opts)
        curve = build_hc_curve(surface, extract_v(disc, t_c), disc, opts)
        psi0 = psi(surface[0], disc)
        for i in (1, 2):
            t = surface[i].T
            s, ds = shell_excitations(t, p)
            value = (psi(surface[i], disc) - psi0) / s - 1.0
            slope = curve.dhc_dT[i] * curve.hc[i] / (-4.0 * math.pi * ds) - 1.0
            assert abs(value) <= 1e-10, (type(kernel).__name__, t / t_c, value)
            assert abs(slope) <= 1e-10, (type(kernel).__name__, t / t_c, slope)
