import math

import numpy as np
import pytest

from bcsgap import (ConstantPotential, Discretization, FlatShellDos, GapSlice,
                    PhysicalParams, SeparablePotential, SolverOpts,
                    SqrtBandDos, TabulatedPotential, build_grid,
                    build_thermo_curve, condensation, cv_normal, extract_v,
                    find_Tc, g_weight, integrate, integrate_tail,
                    omega_normal, psi, solve_at_T, solve_tau,
                    sweep, universal_constant, validate_params)
from bcsgap.interpolate import MonotoneCubic
from bcsgap.model import eval_dos
from bcsgap.special import sech2
from bcsgap.thermo import ZETA3

P = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.25, 0.35))
K = ConstantPotential(0.3, P)
GRID = build_grid(P, 129)
DISC = Discretization(K, GRID)
OPTS = SolverOpts()
DOS = SqrtBandDos(P)
FLAT = FlatShellDos(P)

# mpmath oracle, 30 digits
G_AT_ONE = -0.34161981434173882
NEG_G_INTEGRAL = 0.85255679763501158   # equals 7 zeta(3) / pi^2


def zeta_series(s, n=200_000):
    k = np.arange(1, n + 1, dtype=float)
    # Euler-Maclaurin tail keeps the truncation below 1e-12
    return float(np.sum(k ** -s)) + n ** (1 - s) / (s - 1) - 0.5 * n ** -s


def test_g_weight_branch_values():
    assert g_weight(0.0) == -2.0 / 3.0
    assert g_weight(1e-4) == pytest.approx(-2.0 / 3.0, abs=1e-6)
    assert g_weight(1.0) == pytest.approx(G_AT_ONE, abs=1e-15)


def test_g_weight_negative_everywhere():
    eta = np.linspace(0.0, 80.0, 10_000)
    assert np.all(g_weight(eta) < 0.0)


def test_g_weight_series_crossover_continuous():
    # branch mismatch must stay below the function's own change (slope 0.053)
    lo, hi = 0.05 - 1e-9, 0.05 + 1e-9
    assert g_weight(lo) == pytest.approx(g_weight(hi), abs=2e-10)


def test_g_weight_rejects_negative():
    with pytest.raises(ValueError):
        g_weight(-0.1)


def test_g_weight_integral_closed_form():
    # zeta(3) from an independent series oracle
    z3 = zeta_series(3)
    assert z3 == pytest.approx(ZETA3, abs=1e-11)
    val = integrate(lambda e: -g_weight(e), 0.0, 60.0, 1e-12).value + 0.5 / 60.0 ** 2
    assert val == pytest.approx(7.0 * z3 / math.pi ** 2, abs=1e-9)
    assert val == pytest.approx(NEG_G_INTEGRAL, abs=1e-9)


def test_universal_constant_value():
    z3 = zeta_series(3)
    target = 12.0 / (7.0 * z3)
    assert universal_constant() == pytest.approx(target, abs=1e-6)


def test_universal_constant_first_factor():
    val = integrate(lambda e: e * e * sech2(e), 0.0, 60.0, 1e-12).value
    assert val == pytest.approx(math.pi ** 2 / 12.0, abs=1e-10)


def test_omega_normal_energy_only_terms_flat_shell():
    # the two temperature-free integrals against polynomial antiderivatives
    eps, om, mu = P.epsilon, P.hbar_omega_d, P.mu
    o1 = -P.n0 * (om ** 2 - eps ** 2)
    o3 = FLAT.params.n0 * (om ** 2 - mu ** 2)
    assert omega_normal(0.0, FLAT) == pytest.approx(o1 + o3, rel=1e-12)


def test_omega_normal_energy_only_terms_sqrt_band():
    # antiderivative of (t - mu) sqrt(t) for the anchored below-shell branch
    eps, om, mu = P.epsilon, P.hbar_omega_d, P.mu
    o1 = -P.n0 * (om ** 2 - eps ** 2)
    tmax = mu - om
    o3 = 2.0 / math.sqrt(eps + mu) * (0.4 * tmax ** 2.5 - (2.0 / 3.0) * mu * tmax ** 1.5)
    assert omega_normal(0.0, DOS) == pytest.approx(o1 + o3, rel=1e-10)


def test_omega_normal_fermi_terms_vanish_at_low_temperature():
    # with the cutoff tens of thermal lengths away the log-factor integrals
    # are exponentially dead
    p = validate_params(PhysicalParams(5e-3, 1.0, 20.0, 1.0, 0.25, 0.35))
    t = 1e-4
    shell = 4.0 * p.n0 * t * integrate(
        lambda x: np.log1p(np.exp(-x / t)), p.epsilon, p.hbar_omega_d, 1e-30).value
    assert shell < 1e-20
    assert omega_normal(t, FlatShellDos(p)) == pytest.approx(
        omega_normal(0.0, FlatShellDos(p)), abs=1e-18)


def test_omega_normal_term_additivity():
    t, tol = 0.03, 1e-11
    eps, om, mu, n0 = P.epsilon, P.hbar_omega_d, P.mu, P.n0
    terms = [
        -2.0 * n0 * integrate(lambda x: x, eps, om, tol).value,
        -4.0 * n0 * t * integrate(lambda x: np.log1p(np.exp(-x / t)), eps, om, tol).value,
        2.0 * integrate(lambda x: x * eval_dos(DOS, x), -mu, -om, tol).value,
        -2.0 * t * integrate(lambda x: eval_dos(DOS, x) * np.log1p(np.exp(x / t)), -mu, -om, tol).value,
        -2.0 * t * integrate_tail(lambda x: eval_dos(DOS, x) * np.log1p(np.exp(-x / t)), om, t, tol).value,
    ]
    assert omega_normal(t, DOS) == pytest.approx(sum(terms), abs=5 * tol)


def test_cv_normal_matches_substituted_form_at_tc():
    tc = solve_tau(0.3, P)
    ehat, b, mhat = P.epsilon / (2 * tc), 1.0 / (2 * tc), P.mu / (2 * tc)
    tol = 1e-12
    c = (8.0 * tc * P.n0 * integrate(lambda e: e * e * sech2(e), ehat, b, tol).value
         + 4.0 * tc * integrate(lambda e: eval_dos(DOS, -2 * tc * e) * e * e * sech2(e), b, mhat, tol).value
         + 4.0 * tc * integrate_tail(lambda e: eval_dos(DOS, 2 * tc * e) * e * e * sech2(e), b, 0.5, tol).value)
    assert cv_normal(tc, DOS) == pytest.approx(c, rel=1e-10)


def test_cv_normal_flat_shell_wide_limit():
    p = validate_params(PhysicalParams(1e-9, 1.0, 20.0, 1.0, 0.25, 0.35))
    t = 0.01
    expected = 8.0 * t * p.n0 * math.pi ** 2 / 12.0
    assert cv_normal(t, FlatShellDos(p)) == pytest.approx(expected, rel=1e-6)


def test_cv_normal_against_second_differences():
    t = 0.02
    h = 1e-3 * t
    tol = 1e-13
    fd = -(t / h ** 2) * (omega_normal(t + h, DOS)
                          - 2.0 * omega_normal(t, DOS)
                          + omega_normal(t - h, DOS))
    assert fd == pytest.approx(cv_normal(t, DOS), rel=1e-2)


@pytest.fixture(scope="module")
def tc_const():
    return find_Tc(K, GRID, OPTS)


@pytest.fixture(scope="module")
def v_const(tc_const):
    return extract_v(DISC, tc_const)


def test_psi_zero_slice_is_zero_exactly():
    z = GapSlice(0.02, np.zeros(1), 0, 0.0)
    assert psi(z, DISC) == 0.0


def test_psi_zero_temperature_closed_form():
    sl = solve_at_T(0.0, DISC, OPTS)
    m = MonotoneCubic(GRID.nodes, DISC.F @ sl.coef)

    def integrand(xi):
        u = m(xi)
        e = np.hypot(xi, u)
        return (e - xi) ** 2 / e

    ref = -P.n0 * integrate(integrand, P.epsilon, P.hbar_omega_d, 1e-13).value
    assert psi(sl, DISC) == pytest.approx(ref, rel=1e-9)


def test_psi_negative_below_tc(tc_const):
    for frac in (0.1, 0.4, 0.7, 0.95):
        t = frac * tc_const
        sl = solve_at_T(t, DISC, OPTS)
        assert psi(sl, DISC) < 0.0


def test_thermo_curve_psi_and_slope_vanish_on_zero_slices(tc_const):
    # on a surface that crosses T_c, Psi and dPsi/dT are exactly 0 on every
    # zero slice, and C_V^S is C_V^N there
    curve = build_thermo_curve(sweep(np.linspace(0.5 * tc_const, solve_tau(P.u2, P), 9),
                                     DISC, OPTS), DISC, DOS)
    zero = curve.t >= tc_const
    assert 0 < zero.sum() < zero.size
    assert np.all(curve.psi[zero] == 0.0) and np.all(curve.dpsi_dT[zero] == 0.0)
    assert np.all(curve.cv_super[zero] == curve.cv_normal[zero])
    assert np.all(curve.psi[~zero] < 0.0)


def test_psi_derivative_rejects_zero_temperature():
    sl = solve_at_T(0.01, DISC, OPTS)
    with pytest.raises(ValueError):
        condensation(sl._replace(T=0.0), DISC)


def test_psi_derivative_matches_central_differences(tc_const):
    t = 0.6 * tc_const
    sl = solve_at_T(t, DISC, OPTS)
    ana = condensation(sl, DISC)[1]
    h = 1e-4 * tc_const
    pp = psi(solve_at_T(t + h, DISC, OPTS), DISC)
    pm = psi(solve_at_T(t - h, DISC, OPTS), DISC)
    fd = (pp - pm) / (2.0 * h)
    assert fd == pytest.approx(ana, rel=1e-5)


def test_psi_derivative_second_order_step_convergence(tc_const):
    t = 0.6 * tc_const
    sl = solve_at_T(t, DISC, OPTS)
    ana = condensation(sl, DISC)[1]

    def fd_err(h):
        pp = psi(solve_at_T(t + h, DISC, OPTS), DISC)
        pm = psi(solve_at_T(t - h, DISC, OPTS), DISC)
        return abs((pp - pm) / (2.0 * h) - ana)

    e1 = fd_err(0.02 * tc_const)
    e2 = fd_err(0.01 * tc_const)
    assert 0.15 <= e2 / e1 <= 0.40


def test_psi_derivative_vanishes_toward_tc(tc_const):
    vals = []
    for k in (5, 7, 9):
        t = tc_const * (1.0 - 2.0 ** -k)
        sl = solve_at_T(t, DISC, OPTS)
        vals.append(abs(condensation(sl, DISC)[1]))
    assert vals[2] < vals[1] < vals[0]
    # the derivative falls linearly in T_c - T: a factor 16 over two rungs
    assert vals[2] < 0.1 * vals[0]


def test_extract_v_constant_kernel(tc_const, v_const):
    v = v_const
    assert np.all(v.values > 0)
    # constant kernel: v is x-independent within the reported residual
    assert np.ptp(v.values) <= np.maximum(v.fit_residual.max(), 1e-12)
    # the relation fixing the constant value from the transition data
    ehat, b = P.epsilon / (2 * tc_const), 1.0 / (2 * tc_const)
    g_int = integrate(lambda e: -g_weight(e), ehat, b, 1e-12).value
    v0 = 8.0 * tc_const * (math.tanh(b) - math.tanh(ehat)) / g_int
    assert np.mean(v.values) == pytest.approx(v0, rel=1e-2)


def test_delta_cv_constant_v_quadrature_oracle(tc_const, v_const):
    v0 = float(np.mean(v_const.values))
    ehat, b = P.epsilon / (2 * tc_const), 1.0 / (2 * tc_const)
    g_int = integrate(lambda e: -g_weight(e), ehat, b, 1e-13).value
    expected = P.n0 * v0 ** 2 / (8.0 * tc_const) * g_int
    assert v_const.jump == pytest.approx(expected, rel=1e-6)


def test_delta_cv_constant_kernel_matches_mpmath(tc_const, v_const):
    # T_c is the root of u0 (integral of tanh(xi/2T)/xi) = 1; on the branch
    # u0 (integral of tanh(E/2T)/E) = 1 with E^2 = xi^2 + Delta^2,
    # v = -dDelta^2/dT at Delta = 0 is (dF/dT)/(dF/dDelta^2), and the jump is
    # n0/(2 T_c) (integral of v sech^2(xi/2T_c))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        om, e0 = mpmath.mpf(P.hbar_omega_d), mpmath.mpf(P.epsilon)

        def shell(fn):
            return mpmath.quad(fn, [e0, mpmath.mpf("0.01"), mpmath.mpf("0.1"), om])

        tc = mpmath.findroot(
            lambda t: K.u0 * shell(lambda x: mpmath.tanh(x / (2 * t)) / x) - 1, 0.04)

        def s2(x):
            return mpmath.sech(x / (2 * tc)) ** 2

        dfds = shell(lambda x: (s2(x) / (2 * tc * x) - mpmath.tanh(x / (2 * tc)) / x ** 2)
                     / (2 * x))
        dfdt = -shell(s2) / (2 * tc * tc)
        ref = float(dfdt / dfds * P.n0 / (2 * tc) * shell(s2))
    assert v_const.jump == pytest.approx(ref, rel=1e-8)


def test_cv_ratio_wide_shell_band():
    # U = 0.2 puts the Debye edge 65 thermal lengths out and the cutoff at
    # 7e-5 of one, honoring the wide-shell premises
    p6 = validate_params(PhysicalParams(1e-6, 1.0, 20.0, 1.0, 0.15, 0.25))
    k = ConstantPotential(0.2, p6)
    g = build_grid(p6, 129)
    tc = find_Tc(k, g, OPTS)
    assert 1.0 / (2.0 * tc) >= 25.0 and p6.epsilon / (2.0 * tc) <= 1e-4
    v = extract_v(Discretization(k, g), tc)
    ratio = v.jump / cv_normal(tc, SqrtBandDos(p6))
    assert abs(ratio - 12.0 / (7.0 * ZETA3)) <= 0.02 * 12.0 / (7.0 * ZETA3)


def test_thermo_curve_assembly(tc_const):
    tau2 = solve_tau(P.u2, P)
    ts = np.linspace(0.0, tau2, 17)
    surf = sweep(ts, DISC, OPTS)
    curve = build_thermo_curve(surf, DISC, DOS)
    below = ts < tc_const
    assert np.all(curve.psi[below] < 0.0)
    assert np.all(curve.psi[~below] == 0.0)
    assert curve.dpsi_dT[0] == 0.0
    # above the transition the curve reduces to the normal branch
    above = ts > tc_const
    assert np.allclose(curve.cv_super[above][1:], curve.cv_normal[above][1:], rtol=1e-5)


def _separable(params):
    fn = np.linspace(params.epsilon, params.hbar_omega_d, 9)
    fv = np.sqrt(0.30 + 0.04 * np.cos(np.pi * (fn - params.epsilon)
                                      / (params.hbar_omega_d - params.epsilon)))
    return SeparablePotential(fn, fv, params)


def _tabulated(params):
    nodes = np.linspace(params.epsilon, params.hbar_omega_d, 5)
    return TabulatedPotential(nodes, 0.29 + 0.02 * np.sin(np.add.outer(nodes, nodes)),
                              params)


@pytest.mark.parametrize("kernel", [K, _separable(P), _tabulated(P)],
                         ids=["constant", "separable", "tabulated"])
def test_jump_positive_for_every_kernel_type(kernel):
    tc = find_Tc(kernel, GRID, OPTS)
    assert extract_v(Discretization(kernel, GRID), tc).jump > 0.0


@pytest.mark.parametrize("kernel", [K, _separable(P), _tabulated(P)],
                         ids=["constant", "separable", "tabulated"])
def test_cv_super_is_cv_normal_where_psi_vanishes(kernel):
    # from T_c up Psi is identically zero, so the superconducting specific
    # heat is the normal one on every such row, the first above T_c included
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    ts = np.linspace(0.0, solve_tau(P.u2, P), 33)
    curve = build_thermo_curve(sweep(ts, disc, OPTS), disc, DOS)
    zero = curve.psi == 0.0
    assert np.array_equal(zero, ts >= tc)
    assert np.array_equal(curve.cv_super[zero], curve.cv_normal[zero])


@pytest.mark.parametrize("kernel", [K, _separable(P), _tabulated(P)],
                         ids=["constant", "separable", "tabulated"])
def test_sweep_and_thermo_curve_build_no_interpolant(kernel, monkeypatch):
    # every slice and its dc/dT are kernel coefficients, read at the
    # quadrature nodes through the Discretization's Ft: once that is built,
    # no solve and no thermodynamic record builds a monotone cubic
    disc = Discretization(kernel, GRID)
    builds = []
    init = MonotoneCubic.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MonotoneCubic, "__init__", counted)
    ts = np.linspace(0.0, solve_tau(P.u2, P), 9)
    build_thermo_curve(sweep(ts, disc, OPTS), disc, DOS)
    assert len(builds) == 0


@pytest.fixture(scope="module", params=["constant", "separable", "tabulated"])
def default_curve(request):
    """(kernel name, discretization, T_c, thermo curve on the default
    33-point grid on [0, tau_2])."""
    kernel = {"constant": K, "separable": _separable(P),
              "tabulated": _tabulated(P)}[request.param]
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    ts = np.linspace(0.0, solve_tau(P.u2, P), 33)
    return request.param, disc, tc, build_thermo_curve(sweep(ts, disc, OPTS),
                                                       disc, DOS)


def test_cv_super_matches_differenced_potential(default_curve):
    # reference: C_V^N - T d(dPsi/dT)/dT, central differences (h = 1e-5 T)
    # of the analytic dPsi/dT on solves at tol 5e-16; it falls into noise
    # where C_V^S is exponentially small
    name, disc, tc, curve = default_curve
    tight = SolverOpts(tol=5e-16)

    def dpsi(t):
        sl = solve_at_T(t, disc, tight)
        return condensation(sl, disc)[1]

    rows = []
    for t, cvs in zip(curve.t, curve.cv_super):
        if 0.0 < t < tc:
            h = 1e-5 * t
            ref = cv_normal(t, DOS) - t * (dpsi(t + h) - dpsi(t - h)) / (2.0 * h)
            rows.append((t / tc, cvs, abs(cvs / ref - 1.0)))
    frac, cvs, err = np.array(rows).T
    if name == "separable":
        # the entropy form takes Omega stationary in u, which the discrete
        # map is only when Ft is proportional to G
        assert err[cvs > 1e-7].max() <= 1e-5
        assert err[frac >= 0.5].max() <= 3e-7
    else:
        bound = {"constant": 1e-9, "tabulated": 1e-7}[name]
        assert err[frac >= 0.15].max() <= bound


def test_cv_super_positive_below_tc(default_curve):
    _, _, tc, curve = default_curve
    below = (curve.t > 0.0) & (curve.t < tc)
    assert below.sum() >= 19
    assert np.all(curve.cv_super[below] > 0.0)


def test_cv_super_meets_the_jump_at_tc(default_curve):
    # (C_S - C_N)/Delta C_V - 1 at T_c (1 - 2^-k), k = 16, 20, 24: it
    # vanishes linearly in T_c - T
    _, disc, tc, _ = default_curve
    ts = tc * (1.0 - 2.0 ** -np.array([16.0, 20.0, 24.0]))
    curve = build_thermo_curve(sweep(ts, disc, OPTS), disc, DOS)
    jump = extract_v(disc, tc).jump
    dev = np.abs((curve.cv_super - curve.cv_normal) / jump - 1.0)
    assert dev[1] <= 0.1 * dev[0]
    assert dev[2] <= 3e-7
