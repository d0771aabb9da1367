import time
from types import SimpleNamespace

import numpy as np
import pytest

from bcsgap import (ConfigError, ConstantPotential, EnergyGrid,
                    NumericalError, PhysicalParams, SeparablePotential,
                    SolverOpts, SqrtBandDos, TabulatedPotential, build_grid,
                    contraction_diagnostics, cv_normal, delta_at_zero,
                    du_dT_at_fixed_point, extract_v,
                    find_Tc, gap_rhs, hc_slope, integrate, psi,
                    condensation, slope_at_tc, solve_at_T,
                    solve_simple_gap, solve_tau, solve_tau0, sweep, tau3,
                    validate_params)
import bcsgap.gap_solver as gap_solver
from bcsgap.critical_field import hc_temperatures
from bcsgap.gap_solver import NEWTON_BUDGET, Discretization, perron
from bcsgap.interpolate import MonotoneCubic
from bcsgap.quadrature import composite_gauss
from bcsgap.special import sech2

P = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.25, 0.35))
K = ConstantPotential(0.3, P)
GRID = build_grid(P, 129)
DISC = Discretization(K, GRID)
OPTS = SolverOpts()


def sup(disc, sl):
    """Largest absolute gap value of a slice on the grid nodes."""
    return float(np.max(np.abs(disc.F @ sl.coef)))


def separable_kernel(params):
    fn = np.linspace(params.epsilon, params.hbar_omega_d, 9)
    fv = np.sqrt(0.30 + 0.04 * np.cos(np.pi * (fn - params.epsilon)
                                      / (params.hbar_omega_d - params.epsilon)))
    return SeparablePotential(fn, fv, params)


@pytest.mark.parametrize("call", [
    lambda: solve_at_T(np.nan, DISC),
    lambda: sweep([0.0, np.nan], DISC),
    lambda: solve_simple_gap(np.nan, 0.3, P),
], ids=["solve_at_T", "sweep", "solve_simple_gap"])
def test_nan_temperature_rejected(call):
    with pytest.raises(ConfigError, match="must be 0 or"):
        call()


def test_grid_endpoints_and_count():
    assert GRID.nodes[0] == P.epsilon
    assert GRID.nodes[-1] == P.hbar_omega_d
    assert GRID.nodes.size == 129
    with pytest.raises(ConfigError):
        EnergyGrid(np.linspace(0.1, 1.0, 8))


def image(disc, c, t):
    """Grid values F Gw^T phi_T(Ft c) of the map solve_at_T iterates."""
    return disc.F @ (disc.Gw.T @ gap_solver._gap_terms(disc, disc.Ft @ c, t)[0])


def image_dT(disc, c, t):
    """Grid values of the map's T-derivative at fixed c, F Gw^T dphi/dT."""
    return disc.F @ (disc.Gw.T @ gap_solver._gap_terms(disc, disc.Ft @ c, t)[2])


def test_apply_A_zero_is_zero_exactly():
    assert np.all(image(DISC, np.zeros(1), 0.01) == 0.0)


def test_apply_A_constant_kernel_gives_constant_output():
    u = np.linspace(0.01, 0.05, DISC.qn.size)
    out = DISC.kernel_apply(gap_solver._gap_terms(DISC, u, 0.01)[0])
    assert np.ptp(out) < 1e-15


def test_apply_A_upper_envelope_contracts():
    # with u fixed at Delta_2(T), the U_2 gap equation makes the integral
    # equal Delta_2/U_2, so any kernel below U_2 must land strictly under it
    t = 0.01
    d2 = solve_simple_gap(t, P.u2, P)
    for kernel in (K, separable_kernel(P)):
        disc = Discretization(kernel, GRID)
        phi = gap_solver._gap_terms(disc, np.full(disc.qn.size, d2), t)[0]
        assert np.all(disc.kernel_apply(phi) < d2)


@pytest.mark.parametrize("t", [0.0, 0.004, 0.02])
def test_panel_operator_matches_adaptive_quadrature(t, bilinear):
    # the map's image against an independent adaptive integration of the
    # same integrand, at one node: a rank-5 table on every 32nd grid node, so
    # its kinks are panel ends, and u the monotone cubics of F's columns
    # weighted by c
    rng = np.random.RandomState(1)
    nodes = GRID.nodes[::32]
    table = rng.uniform(0.26, 0.34, (nodes.size, nodes.size))
    disc = Discretization(TabulatedPotential(nodes, table, P), GRID)
    c = 0.03 + 0.01 * rng.uniform(size=nodes.size)
    cols = [MonotoneCubic(GRID.nodes, col) for col in disc.F.T]
    x17 = GRID.nodes[17]

    def integrand(xi):
        uu = sum(ck * m(xi) for ck, m in zip(c, cols))
        e = np.hypot(xi, uu)
        th = 1.0 if t == 0.0 else np.tanh(e / (2.0 * t))
        return bilinear(nodes, table, x17, xi) * uu / e * th

    ref = sum(integrate(integrand, a, b, 1e-13).value
              for a, b in zip(nodes[:-1], nodes[1:]))
    assert image(disc, c, t)[17] == pytest.approx(ref, abs=5e-12)


def test_solve_zero_above_tau2():
    tau2 = solve_tau(P.u2, P)
    sl = solve_at_T(tau2 * 1.01, DISC, OPTS)
    assert np.all(DISC.F @ sl.coef == 0.0)


@pytest.mark.parametrize("frac", [0.0, 0.25, 0.6, 0.9])
def test_constant_kernel_matches_simple_gap(frac):
    tau = solve_tau(0.3, P)
    t = frac * tau
    sl = solve_at_T(t, DISC, OPTS)
    oracle = solve_simple_gap(t, 0.3, P)
    assert np.max(np.abs(DISC.F @ sl.coef - oracle)) < 1e-8


def test_converged_residual_below_tolerance():
    sl = solve_at_T(0.01, DISC, OPTS)
    d20 = solve_simple_gap(0.0, P.u2, P)
    assert sl.final_residual <= OPTS.resolved_tol(d20)
    assert np.all(DISC.F @ sl.coef >= 0.0)


def test_sandwich_for_separable_kernel():
    disc = Discretization(separable_kernel(P), GRID)
    for t in (0.005, 0.02, 0.04):
        sl = solve_at_T(t, disc, OPTS)
        d1 = solve_simple_gap(t, P.u1, P)
        d2 = solve_simple_gap(t, P.u2, P)
        assert np.all(disc.F @ sl.coef >= d1 - 1e-8)
        assert np.all(disc.F @ sl.coef <= d2 + 1e-8)


def test_grid_refinement_converges():
    # a smooth kernel factor (dense samples) so the interpolation order of
    # the discretization is what the refinement ratio measures
    fn = np.linspace(P.epsilon, P.hbar_omega_d, 4097)
    fv = np.sqrt(0.30 + 0.04 * np.cos(np.pi * (fn - P.epsilon)
                                      / (P.hbar_omega_d - P.epsilon)))
    ks = SeparablePotential(fn, fv, P)
    t = 0.02
    sols = {}
    for n in (65, 129, 257):
        disc = Discretization(ks, build_grid(P, n))
        sols[n] = disc, solve_at_T(t, disc, OPTS)

    def diff(a, b):
        (da, sa), (db, sb) = a, b
        za = MonotoneCubic(da.grid.nodes, da.F @ sa.coef)
        return np.max(np.abs(za(db.grid.nodes) - db.F @ sb.coef))

    d_coarse = diff(sols[65], sols[129])
    d_fine = diff(sols[129], sols[257])
    assert d_coarse < 2e-5 * sup(*sols[129])
    assert d_fine < d_coarse / 3.5


def test_two_seeds_same_fixed_point(picard):
    tc = find_Tc(K, GRID, OPTS)
    t = 0.9 * tc
    d20 = solve_simple_gap(0.0, P.u2, P)
    tol = OPTS.resolved_tol(d20)
    upper = solve_at_T(t, DISC, OPTS)
    lower = picard(t, DISC, seed=1e-3 * d20)[0]
    assert np.max(np.abs(DISC.F @ upper.coef - DISC.F @ lower.coef)) <= 2.0 * tol


@pytest.mark.parametrize("offset", [1e-4, 1e-6])
def test_newton_converges_close_to_tc(offset):
    # plain Picard contracts at about 1 - offset here and runs out of budget
    tc = solve_tau(0.3, P)
    t = tc * (1.0 - offset)
    d20 = solve_simple_gap(0.0, P.u2, P)
    sl = solve_at_T(t, DISC, OPTS)
    oracle = solve_simple_gap(t, 0.3, P)
    assert np.max(np.abs(DISC.F @ sl.coef - oracle)) <= OPTS.resolved_tol(d20)


def tabulated_kernel(params):
    nodes = np.linspace(params.epsilon, params.hbar_omega_d, 5)
    vals = 0.29 + 0.02 * np.sin(np.add.outer(nodes, nodes))
    return TabulatedPotential(nodes, vals, params)


def _dense_kernel(kernel, x, xi, bilinear):
    """U at every (x_i, xi_j), written out per kernel type."""
    if isinstance(kernel, ConstantPotential):
        return np.full((x.size, xi.size), kernel.u0)
    if isinstance(kernel, SeparablePotential):
        return np.outer(np.interp(x, kernel.f_nodes, kernel.f_values),
                        np.interp(xi, kernel.f_nodes, kernel.f_values))
    return bilinear(kernel.nodes, kernel.values, x[:, None], xi[None, :])


def _dense_factors(kernel, x, xi):
    """(F, G) with U(x_i, xi_j) = (F G^T)_ij, written out per kernel type."""
    if isinstance(kernel, ConstantPotential):
        return np.full((x.size, 1), kernel.u0), np.ones((xi.size, 1))
    if isinstance(kernel, SeparablePotential):
        return (np.interp(x, kernel.f_nodes, kernel.f_values)[:, None],
                np.interp(xi, kernel.f_nodes, kernel.f_values)[:, None])

    def hat(q):
        return np.column_stack([np.interp(q, kernel.nodes, e)
                                for e in np.eye(kernel.nodes.size)])
    return hat(x) @ kernel.values, hat(xi)


def _table(nodes):
    rng = np.random.RandomState(5)
    return TabulatedPotential(nodes, rng.uniform(0.26, 0.34, (nodes.size, nodes.size)), P)


@pytest.mark.parametrize("kernel,grid", [
    (K, GRID),
    (separable_kernel(P), GRID),
    (_table(np.linspace(0.1, 0.9, 5)), GRID),
    (_table(np.linspace(P.epsilon, P.hbar_omega_d, 40)), build_grid(P, 17)),
], ids=["constant", "separable", "table5", "table40-grid17"])
def test_factored_operator_matches_dense_reference(kernel, grid, bilinear):
    # the rank-r product against the dense kernel-times-weights matrix, and
    # the Perron root against factors written out per kernel type, with the
    # left factor interpolated column by column by MonotoneCubic
    disc = Discretization(kernel, grid)
    x, qn, qw = grid.nodes, disc.qn, disc.qw
    w_dense = _dense_kernel(kernel, x, qn, bilinear) * qw[None, :]
    phi = 0.05 + 0.01 * np.sin(3.0 * qn)
    weight = np.tanh(qn / (2.0 * 0.02)) / qn

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    assert close(disc.kernel_apply(phi), w_dense @ phi)
    f, g = _dense_factors(kernel, x, qn)
    f_q = np.column_stack([MonotoneCubic(x, col)(qn) for col in f.T])
    rho = np.max(np.abs(np.linalg.eigvals((g * (qw * weight)[:, None]).T @ f_q)))
    assert abs(disc.spectral_radius(weight) - rho) <= 1e-12 * rho


@pytest.mark.parametrize("kappa", [1.4, 1e3])
@pytest.mark.parametrize("r", [1, 2, 9, 40])
def test_perron_matches_lapack(r, kappa):
    # repeated squaring against the general eigensolver, on seeded positive
    # matrices with entries in [1, kappa]; vectors compared at sum 1
    a = np.random.default_rng(r).uniform(1.0, kappa, (r, r))
    rho, phi, chi = perron(a)
    vals = np.linalg.eigvals(a)
    assert abs(rho - np.max(np.abs(vals))) <= 1e-13 * rho
    for mat, vec in ((a, phi), (a.T, chi)):
        vals, vecs = np.linalg.eig(mat)
        ref = vecs[:, np.argmax(np.abs(vals))].real
        ref /= ref.sum()
        assert np.max(np.abs(vec / vec.sum() - ref)) <= 1e-12 * np.max(ref)
    assert np.linalg.norm(a @ phi - rho * phi) <= 1e-13 * rho * np.linalg.norm(phi)
    assert np.linalg.norm(chi @ a - rho * chi) <= 1e-13 * rho * np.linalg.norm(chi)
    if r == 1:
        assert rho == a[0, 0]


@pytest.mark.parametrize("kernel", [separable_kernel(P), tabulated_kernel(P)],
                         ids=["separable", "tabulated"])
@pytest.mark.parametrize("frac", [0.5, 0.95])
def test_newton_matches_picard_reference(kernel, frac, picard):
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, SolverOpts())
    d20 = solve_simple_gap(0.0, P.u2, P)
    tol = OPTS.resolved_tol(d20)
    newton = solve_at_T(frac * tc, disc, OPTS)
    plain = picard(frac * tc, disc)[0]
    assert newton.iterations <= 20 < plain.iterations
    assert np.max(np.abs(disc.F @ newton.coef - disc.F @ plain.coef)) <= 2.0 * tol


def test_picard_stops_at_the_roundoff_floor(picard):
    # the residual reaches its roundoff floor (about 3e-18) long before the
    # budget; ratios measured there are noise and must not block the stop
    grid = build_grid(P, 33)
    disc = Discretization(K, grid)
    tc = find_Tc(K, grid, SolverOpts())
    tol = 1e-14 * solve_simple_gap(0.0, P.u2, P)
    t = tc * (1.0 - 2.0 ** -4)
    newton = solve_at_T(t, disc, SolverOpts(tol=tol))
    plain = picard(t, disc, SolverOpts(tol=tol), max_iter=60_000)[0]
    assert np.max(np.abs(disc.F @ plain.coef - disc.F @ newton.coef)) <= tol


@pytest.mark.parametrize("n", [65, 129, 257])
@pytest.mark.parametrize("kernel", [K, separable_kernel(P), tabulated_kernel(P)],
                         ids=["constant", "separable", "tabulated"])
def test_newton_stops_at_the_roundoff_floor(kernel, n):
    # near T_c the Jacobian is nearly singular, so once the residual sits at
    # its roundoff floor the Newton step is amplified noise that need not
    # fall below tol; the solve must stop there instead of running on, well
    # inside the budget, down to the first double below T_c with a nonzero
    # slice (a double between, where rho - 1 is at roundoff, may raise)
    grid = build_grid(P, n)
    disc = Discretization(kernel, grid)
    tc = find_Tc(kernel, grid, SolverOpts())
    tol = 1e-14 * solve_simple_gap(0.0, P.u2, P)
    opts = SolverOpts(tol=tol)
    last = tc
    while True:
        try:
            if sup(disc, solve_at_T(last, disc, opts)) > 0.0:
                break
        except NumericalError:  # a pivot <= 0 in I - core(dphi/du)
            pass
        last = float(np.nextafter(last, 0.0))
    for t in [tc * (1.0 - 2.0 ** -k) for k in [*range(1, 21), 40]] + [last]:
        sl = solve_at_T(t, disc, opts)
        assert sl.final_residual <= tol
        assert sl.iterations <= NEWTON_BUDGET // 2


def test_solve_at_a_roundoff_pivot_returns_its_converged_iterate():
    # at the 9th double below T_c, rho(core(dphi/du)) computes as 1 + 2^-52
    # by Newton step 44, so I - core(dphi/du) has a pivot <= 0 and no step can
    # be formed; the residual there is already inside tol, and the slice is
    # returned, no larger than the slice one double further down
    grid = build_grid(P, 65)
    kernel = tabulated_kernel(P)
    disc = Discretization(kernel, grid)
    tc = find_Tc(kernel, grid, SolverOpts())
    t = tc
    for _ in range(9):
        t = float(np.nextafter(t, 0.0))
    below = solve_at_T(float(np.nextafter(t, 0.0)), disc, OPTS)
    for opts in (OPTS, SolverOpts(tol=1e-14 * solve_simple_gap(0.0, P.u2, P))):
        sl = solve_at_T(t, disc, opts)
        assert sl.final_residual <= opts.resolved_tol(solve_simple_gap(0.0, P.u2, P))
        assert 0.0 < sup(disc, sl) <= sup(disc, below)


def roadmap_separable_kernel(params):
    fn = np.linspace(params.epsilon, params.hbar_omega_d, 41)
    return SeparablePotential(fn, np.sqrt(0.3 + 0.03 * np.sin(5.0 * fn)), params)


def _continuum_tc(kernel):
    """T at which the continuum operator linearized at zero has Perron root 1.

    Its r-by-r core integral G(xi)^T F(xi) tanh(xi/2T)/xi d xi is taken with
    scipy's adaptive quadrature, split at the kinks of the factors (the
    kernel's nodes, which span the shell here).
    """
    breaks = (kernel.f_nodes if isinstance(kernel, SeparablePotential)
              else kernel.nodes)
    si = pytest.importorskip("scipy.integrate")
    so = pytest.importorskip("scipy.optimize")

    def integrand(xi, t):
        f, g = _dense_factors(kernel, np.array([xi]), np.array([xi]))
        return np.outer(g[0], f[0]) * np.tanh(xi / (2.0 * t)) / xi

    def excess(t):
        core = si.quad_vec(integrand, breaks[0], breaks[-1], args=(t,),
                           points=breaks[1:-1], epsabs=0.0, epsrel=1e-12)[0]
        return np.max(np.abs(np.linalg.eigvals(core))) - 1.0

    return so.brentq(excess, solve_tau(P.u1, P), solve_tau(P.u2, P),
                     xtol=1e-15, rtol=1e-14)


THRESHOLD_KERNELS = pytest.mark.parametrize(
    "kernel", [roadmap_separable_kernel(P), tabulated_kernel(P)],
    ids=["separable", "tabulated"])


@THRESHOLD_KERNELS
def test_find_tc_is_the_threshold_of_the_iterated_operator(kernel):
    # T_c comes from the same operator that is iterated, so it converges to
    # the continuum threshold with the interpolation order, with no offset
    ref = _continuum_tc(kernel)
    for n in (129, 257, 513):
        tc = find_Tc(kernel, build_grid(P, n), OPTS)
        assert abs(tc - ref) <= 1e-6 * ref


@THRESHOLD_KERNELS
def test_jump_ratio_is_grid_independent(kernel):
    dos = SqrtBandDos(P)
    ratios = []
    for n in (129, 257, 513):
        grid = build_grid(P, n)
        tc = find_Tc(kernel, grid, OPTS)
        ratios.append(extract_v(Discretization(kernel, grid), tc).jump
                      / cv_normal(tc, dos))
    assert np.ptp(ratios) <= 2e-5 * np.mean(ratios)


@THRESHOLD_KERNELS
def test_bifurcation_v_holds_ratio_and_amplitude_across_grids(kernel):
    # the entropy form of the jump, n0/(2 T_c) (integral of v sech^2), is
    # linear in v and v.jump, the integral of v^2 g, quadratic: they agree
    # only when the amplitude of v is right
    dos = SqrtBandDos(P)
    ratios = []
    for n in (129, 257, 513):
        grid = build_grid(P, n)
        tc = find_Tc(kernel, grid, OPTS)
        v = extract_v(Discretization(kernel, grid), tc)
        qn, qw = composite_gauss(grid.nodes)
        entropy = P.n0 / (2.0 * tc) * float(
            qw @ (MonotoneCubic(grid.nodes, v.values)(qn) * sech2(qn / (2.0 * tc))))
        assert abs(v.jump / entropy - 1.0) <= 1e-7
        assert np.all(v.fit_residual <= 1e-7 * v.values)
        ratios.append(v.jump / cv_normal(tc, dos))
    assert np.ptp(ratios) <= 1e-7 * np.mean(ratios)


@pytest.mark.parametrize("kernel", [K, roadmap_separable_kernel(P), tabulated_kernel(P)],
                         ids=["constant", "separable", "tabulated"])
def test_solved_branch_tends_to_the_bifurcation(kernel):
    # at T = T_c (1 - 2^-k), -2 u du/dT / v - 1 and the H_c slope over its
    # closed-form limit, minus 1, are both O(T_c - T): a factor 16 in four
    # rungs, with no floor from the way v is found
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    v = extract_v(disc, tc)
    s_tc = slope_at_tc(v)
    opts = SolverOpts(tol=1e-15 * solve_simple_gap(0.0, P.u2, P))
    v_err, slope_err = [], []
    for k in (12, 16, 20, 24):
        t = tc * (1.0 - 2.0 ** -k)
        sl = solve_at_T(t, disc, opts)
        dc = du_dT_at_fixed_point(sl, disc)
        du = disc.F @ dc
        v_err.append(np.max(np.abs(-2.0 * (disc.F @ sl.coef) * du / v.values - 1.0)))
        dh = hc_slope(psi(sl, disc), condensation(sl, disc)[1])
        slope_err.append(abs(dh / s_tc - 1.0))
    assert 12.0 <= v_err[0] / v_err[1] <= 20.0
    assert 12.0 <= v_err[1] / v_err[2] <= 20.0
    assert v_err[2] <= 2e-6
    assert 12.0 <= slope_err[2] / slope_err[3] <= 20.0
    assert slope_err[3] <= 1e-7


@THRESHOLD_KERNELS
def test_du_dT_matches_differences_of_converged_solves(kernel):
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    opts = SolverOpts(tol=1e-13 * solve_simple_gap(0.0, P.u2, P))
    for frac in (0.5, 0.95, 1.0 - 2.0 ** -10):
        t = frac * tc
        du = disc.F @ du_dT_at_fixed_point(solve_at_T(t, disc, opts), disc)
        h = 1e-3 * min(t, tc - t)
        up = solve_at_T(t + h, disc, opts)
        dn = solve_at_T(t - h, disc, opts)
        fd = (disc.F @ up.coef - disc.F @ dn.coef) / (2.0 * h)
        assert np.max(np.abs(fd - du)) <= 1e-5 * np.max(np.abs(du))


@pytest.mark.parametrize("frac", [0.6, 0.95])
@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("kernel", [K, roadmap_separable_kernel(P), tabulated_kernel(P)],
                         ids=["constant", "separable", "tabulated"])
def test_psi_derivative_is_the_derivative_along_converged_solves(kernel, n, frac):
    # Psi reads u as Ft c and dPsi/dT reads du/dT as Ft dc/dT, so dPsi/dT is
    # the derivative of Psi along the solves themselves: Richardson
    # extrapolated central differences (error O(h^4)) agree to roundoff
    grid = build_grid(P, n)
    disc = Discretization(kernel, grid)
    opts = SolverOpts(tol=1e-15 * delta_at_zero(P.u2, P))
    t = frac * find_Tc(kernel, grid, OPTS)
    sl = solve_at_T(t, disc, opts)
    ana = condensation(sl, disc)[1]

    def central(h):
        return (psi(solve_at_T(t + h, disc, opts), disc)
                - psi(solve_at_T(t - h, disc, opts), disc)) / (2.0 * h)

    h = 1e-3 * t
    fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert abs(fd - ana) <= 2e-11 * abs(ana)


@pytest.mark.parametrize("t", [0.0, 0.02])
def test_psi_integrates_the_slice_the_solver_produced(t):
    # for a tabulated kernel (rank 5) the solver iterates u = Ft c at the
    # quadrature nodes, which a monotone cubic through the grid values F c
    # does not reproduce; Psi must be the potential of the solved slice
    disc = Discretization(tabulated_kernel(P), GRID)
    sl = solve_at_T(t, disc, OPTS)
    xi, u = disc.qn, disc.Ft @ sl.coef
    e = np.sqrt(xi * xi + u * u)
    if t == 0.0:
        integrand = -(e - xi) ** 2 / e
    else:
        integrand = (-2.0 * (e - xi) + u * u / e * np.tanh(e / (2.0 * t))
                     - 4.0 * t * (np.log1p(np.exp(-e / t))
                                  - np.log1p(np.exp(-xi / t))))
    ref = P.n0 * float(disc.qw @ integrand)
    assert psi(sl, disc) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_iteration_budget_error_carries_state():
    # a tolerance below the roundoff floor runs out the Newton budget, fast
    t0 = time.perf_counter()
    with pytest.raises(NumericalError) as exc:
        solve_at_T(0.01, DISC, SolverOpts(tol=1e-30))
    assert time.perf_counter() - t0 < 5.0
    assert exc.value.best is not None and exc.value.residual is not None


def test_sweep_matches_simple_gap_curve():
    tau2 = solve_tau(P.u2, P)
    ts = np.linspace(0.0, tau2, 17)
    surf = sweep(ts, DISC, OPTS)
    for t, sl in zip(ts, surf):
        oracle = solve_simple_gap(float(t), 0.3, P)
        assert np.max(np.abs(DISC.F @ sl.coef - oracle)) < 1e-8


def test_sweep_monotone_per_node():
    ks = separable_kernel(P)
    tau2 = solve_tau(P.u2, P)
    ts = np.linspace(0.0, tau2, 17)
    disc = Discretization(ks, GRID)
    surf = sweep(ts, disc, OPTS)
    vals = np.array([disc.F @ sl.coef for sl in surf])
    assert np.all(np.diff(vals, axis=0) <= 2e-10)
    # largest T is tau2 where the slice is identically zero
    assert sup(disc, surf[-1]) == 0.0


def test_sweep_lipschitz_with_feasible_gamma():
    # gamma is only finite for couplings within about half a percent of each
    # other; use such a configuration and check the band Lipschitz bound
    p = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.3, 0.3012))
    k = ConstantPotential(0.3005, p)
    disc = Discretization(k, build_grid(p, 65))
    tc = find_Tc(k, disc.grid, SolverOpts())
    rep = contraction_diagnostics(disc, 0.9 * solve_tau(0.3005, p), tc)
    assert rep.gamma_feasible and rep.gamma > 0
    t3 = tau3(p)
    ts = np.linspace(0.0, t3, 9)
    surf = sweep(ts, disc, SolverOpts())
    d20 = solve_simple_gap(0.0, p.u2, p)
    tol = SolverOpts().resolved_tol(d20)
    for i in range(len(ts) - 1):
        du = disc.F @ surf[i].coef - disc.F @ surf[i + 1].coef
        dt = ts[i + 1] - ts[i]
        assert np.all(du >= -2 * tol)
        assert np.all(du <= rep.gamma * dt + 2 * tol)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ConfigError):
        sweep([0.0, 0.0, 0.01], DISC, OPTS)
    with pytest.raises(ConfigError):
        sweep([0.0, 1.0], DISC, OPTS)


def test_find_tc_constant_kernel_matches_tau():
    tau2 = solve_tau(P.u2, P)
    t_tol = OPTS.resolved_t_tol(tau2)
    tc = find_Tc(K, GRID, OPTS)
    assert abs(tc - solve_tau(0.3, P)) < 10 * t_tol


def test_find_tc_between_envelope_temperatures():
    ks = separable_kernel(P)
    tc = find_Tc(ks, GRID, OPTS)
    assert solve_tau(P.u1, P) <= tc <= solve_tau(P.u2, P)


ALL_KERNELS = pytest.mark.parametrize(
    "kernel", [K, separable_kernel(P), tabulated_kernel(P)],
    ids=["constant", "separable", "tabulated"])


@ALL_KERNELS
@pytest.mark.parametrize("grid_kind", ["linspace", "hc"])
def test_sweep_warm_start_matches_cold_solves_in_fewer_steps(kernel, grid_kind):
    # each solve starts from the slice below it, a supersolution at the higher
    # temperature: the same fixed point as a cold start, never more Newton
    # steps on any row, and markedly fewer in total
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    ts = (np.linspace(0.0, solve_tau(P.u2, P), 33) if grid_kind == "linspace"
          else hc_temperatures(np.linspace(0.0, tc, 33), tc))
    warm = sweep(ts, disc, OPTS)
    cold = [solve_at_T(float(t), disc, OPTS) for t in ts]
    assert sum(sup(disc, sl) > 0.0 for sl in cold) >= 16
    for w, c in zip(warm, cold):
        assert np.max(np.abs(disc.F @ w.coef - disc.F @ c.coef)) <= 1e-12 * sup(disc, c)
        assert w.iterations <= c.iterations
    assert (sum(w.iterations for w in warm)
            <= 0.8 * sum(c.iterations for c in cold))


@ALL_KERNELS
@pytest.mark.parametrize("n", [65, 129, 257])
def test_find_tc_lands_on_the_threshold_in_few_perron_roots(kernel, n, monkeypatch):
    # the zero-shortcut test bisected down to adjacent doubles is the
    # threshold; find_Tc reaches it to roundoff, on the zero side
    grid = build_grid(P, n)
    disc = Discretization(kernel, grid)
    lo, hi = solve_tau(P.u1, P), solve_tau(P.u2, P)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if gap_solver._supercritical(disc, mid):
            lo = mid
        else:
            hi = mid

    roots = []
    radius = Discretization.spectral_radius

    def counted(self, weight):
        roots.append(1)
        return radius(self, weight)

    monkeypatch.setattr(Discretization, "spectral_radius", counted)
    tc = find_Tc(kernel, grid, OPTS)
    assert len(roots) <= 16
    assert abs(tc - hi) <= 1e-14 * hi
    assert not gap_solver._supercritical(disc, tc)


def test_constant_kernel_tc_and_jump_match_mpmath():
    # T_c solves u0 * int tanh(xi/2T)/xi = 1; with E^2 = xi^2 + Delta^2 the
    # same equation gives v = -dDelta^2/dT = F_T / F_D at (T_c, 0), and
    # Delta C_V = -n0 v^2 / (16 T_c^2) * int g(xi/2T_c) dxi
    mp = pytest.importorskip("mpmath")
    tc = find_Tc(K, GRID, OPTS)
    jump = extract_v(DISC, tc).jump
    with mp.workdps(30):
        u0, eps, om = mp.mpf(K.u0), mp.mpf(P.epsilon), mp.mpf(P.hbar_omega_d)
        pieces = [eps, mp.mpf("0.01"), mp.mpf("0.1"), om]

        def shell(f):
            return mp.quad(f, pieces)

        t = mp.findroot(lambda t: u0 * shell(lambda x: mp.tanh(x / (2 * t)) / x) - 1,
                        mp.mpf(tc))
        f_t = shell(lambda x: -mp.sech(x / (2 * t)) ** 2 / (2 * t * t))
        f_d = shell(lambda x: (mp.sech(x / (2 * t)) ** 2 / (2 * t * x)
                               - mp.tanh(x / (2 * t)) / x ** 2) / (2 * x))
        v = f_t / f_d

        def g(x):
            eta = x / (2 * t)
            return -(mp.tanh(eta) / eta - mp.sech(eta) ** 2) / eta ** 2
        ref = -mp.mpf(P.n0) * v * v / (16 * t * t) * shell(g)
        assert abs(tc - t) <= 1e-13 * t
        assert abs(jump - ref) <= 1e-12 * ref


@ALL_KERNELS
def test_solves_straddling_tc_change_zero_classification(kernel):
    # find_Tc runs no solve: the zero slice at and above T_c, and a nonzero
    # one below it, are properties of solve_at_T, checked here
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    d20 = solve_simple_gap(0.0, P.u2, P)
    t_tol = OPTS.resolved_t_tol(solve_tau(P.u2, P))
    for m in (0.02 * tc, 10 * t_tol):
        above = solve_at_T(tc + m, disc, OPTS)
        assert above.iterations == 0 and np.all(disc.F @ above.coef == 0.0)
        assert sup(disc, solve_at_T(tc - m, disc, OPTS)) >= 1e-8 * d20
    assert sup(disc, solve_at_T(tc, disc, OPTS)) == 0.0


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts of the solves gap_solver makes through its module globals."""
    calls = {"solve_at_T": 0, "solve_simple_gap": 0}

    def counted(name):
        fn = getattr(gap_solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gap_solver, name, counted(name))
    return calls


@ALL_KERNELS
def test_find_tc_runs_no_solve(kernel, solve_calls):
    find_Tc(kernel, GRID, OPTS)
    assert solve_calls["solve_at_T"] == 0


@ALL_KERNELS
def test_solve_at_t_runs_no_envelope_solve(kernel, solve_calls):
    tc = find_Tc(kernel, GRID, OPTS)
    disc = Discretization(kernel, GRID)
    for frac in (0.0, 0.5, 0.99):
        solve_at_T(frac * tc, disc, OPTS)
    assert solve_calls["solve_simple_gap"] == 0


@ALL_KERNELS
@pytest.mark.parametrize("frac", [0.0, 0.5, 1.0 - 2.0 ** -10, 1.0 - 1e-6])
def test_newton_from_the_default_seed_converges_quickly(kernel, frac):
    # the constant Delta_2(0) is a supersolution at every T, so every step
    # is a Newton step and the count stays flat up to T_c
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    sl = solve_at_T(frac * tc, disc, OPTS)
    assert sup(disc, sl) > 0.0
    assert sl.iterations <= 25
    assert sl.final_residual <= OPTS.resolved_tol(solve_simple_gap(0.0, P.u2, P))


@ALL_KERNELS
@pytest.mark.parametrize("frac", [0.0, 0.5, 0.99])
def test_newton_seed_is_a_supersolution(kernel, frac):
    # the seed c0 = Gw^T phi_T(Delta_2(0)) lies below the constant Delta_2(0)
    # on the grid, and the map takes it to at or below itself: Newton on the
    # concave map starts, and stays, above the fixed point
    disc = Discretization(kernel, GRID)
    t = frac * find_Tc(kernel, GRID, OPTS)
    d20 = delta_at_zero(P.u2, P)
    c0 = disc.Gw.T @ gap_solver._gap_terms(disc, np.full(disc.qn.size, d20), t)[0]
    assert np.all(disc.F @ c0 < d20)
    assert np.all(image(disc, c0, t) <= disc.F @ c0)


@ALL_KERNELS
def test_newton_steps_only_from_supersolutions(kernel, monkeypatch):
    # solve_at_T has one step rule: every linearized solve it makes is a
    # Newton step from a supersolution, F b = u - Au >= -tol for b = c - g,
    # on cold solves up to 2^-20 below T_c and on a warm-started sweep; each
    # slice counts its Newton steps, plus one when it stops at the roundoff
    # floor, where the residual inside tol has stopped falling (reached, if
    # at all, only at the tight tolerance)
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    d20 = delta_at_zero(P.u2, P)
    solve_linearized, solve = Discretization.solve_linearized, gap_solver.solve_at_T
    residuals = []

    def checked(self, weight_q, b):
        assert (self.F @ b).min() >= -tol
        residuals[-1].append(float(np.abs(self.F @ b).max()))
        return solve_linearized(self, weight_q, b)

    def counted(t, *args):
        residuals.append([])
        sl = solve(t, *args)
        steps = residuals[-1]
        if sl.iterations == len(steps) + 1:
            # the unstepped last iterate, whose residual did not fall
            g = disc.Gw.T @ gap_solver._gap_terms(disc, disc.Ft @ sl.coef, t)[0]
            assert sl.final_residual == np.abs(disc.F @ (sl.coef - g)).max()
            assert steps[-1] <= sl.final_residual <= tol
        else:
            assert sl.iterations == len(steps)
            assert sl.final_residual == (steps[-1] if steps else 0.0)
        return sl

    monkeypatch.setattr(Discretization, "solve_linearized", checked)
    monkeypatch.setattr(gap_solver, "solve_at_T", counted)
    for opts in (SolverOpts(tol=1e-15 * d20), OPTS):
        tol = opts.resolved_tol(d20)
        for frac in (0.0, 0.5, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -20):
            assert sup(disc, counted(frac * tc, disc, opts)) > 0.0
    ts = hc_temperatures(np.linspace(0.0, tc, 33), tc)
    assert len(sweep(ts, disc, OPTS)) == len(ts)
    assert len(residuals) == 8 + len(ts)


def _fixed_core(c):
    """A stand-in for Discretization whose core is c at every weight."""
    return SimpleNamespace(core=lambda weight_q: c)


def _assert_close_to_lapack(a, b, x):
    # Gauss-Jordan's backward error is O(r eps), so the forward error
    # against LAPACK's LU is bounded by a multiple of r eps cond(a)
    ref = np.linalg.solve(a, b)
    bound = 4.0 * b.size * np.finfo(float).eps * np.linalg.cond(a)
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("rho", [0.5, 0.99, 1.0 - 1e-6])
@pytest.mark.parametrize("r", range(1, 13))
def test_solve_linearized_matches_lapack(r, rho):
    # seeded positive cores scaled to Perron root rho, up to 1e-6 from the
    # singular I - c
    rng = np.random.default_rng(r)
    for _ in range(5):
        c = rng.uniform(0.01, 1.0, (r, r))
        c *= rho / np.max(np.abs(np.linalg.eigvals(c)))
        b = rng.normal(size=r)
        x = Discretization.solve_linearized(_fixed_core(c), None, b)
        _assert_close_to_lapack(np.eye(r) - c, b, x)


def test_solve_linearized_at_rank_one_is_one_division():
    rng = np.random.default_rng(7)
    for c, b in zip(rng.uniform(0.0, 1.0, 200), rng.normal(size=200)):
        x = Discretization.solve_linearized(_fixed_core(np.array([[c]])),
                                            None, np.array([b]))
        assert x[0] == b / (1.0 - c)


@pytest.mark.parametrize("r", [1, 2, 5, 12])
def test_solve_linearized_refuses_a_core_past_perron_root_one(r):
    # I - c is then no M-matrix and some pivot is not positive
    c = np.random.default_rng(r).uniform(0.01, 1.0, (r, r))
    c *= 1.01 / np.max(np.abs(np.linalg.eigvals(c)))
    with pytest.raises(NumericalError, match="pivot"):
        Discretization.solve_linearized(_fixed_core(c), None, np.ones(r))


@ALL_KERNELS
def test_solve_linearized_on_the_solver_cores_matches_lapack(kernel, monkeypatch):
    # every Newton step and du/dT solve the solver makes, down to 2^-10
    # below T_c where I - core(dphi/du) is nearest singular
    disc = Discretization(kernel, GRID)
    tc = find_Tc(kernel, GRID, OPTS)
    seen = []
    solve = Discretization.solve_linearized

    def recorded(self, weight_q, b):
        x = solve(self, weight_q, b)
        seen.append((np.eye(b.size) - self.core(weight_q), b, x))
        return x

    monkeypatch.setattr(Discretization, "solve_linearized", recorded)
    for frac in (0.0, 0.5, 1.0 - 2.0 ** -10):
        du_dT_at_fixed_point(solve_at_T(frac * tc, disc, OPTS), disc)
    assert len(seen) >= 6
    for a, b, x in seen:
        _assert_close_to_lapack(a, b, x)


def test_picard_from_a_low_seed_is_undamped(picard):
    # the residual grows while an iterate rises from a subsolution; halving
    # the steps there would double the iteration count
    tc = find_Tc(K, GRID, OPTS)
    d20 = solve_simple_gap(0.0, P.u2, P)
    newton = solve_at_T(0.9 * tc, DISC, OPTS)
    low = picard(0.9 * tc, DISC, seed=1e-3 * d20)[0]
    assert low.iterations <= 600
    assert np.max(np.abs(DISC.F @ low.coef - DISC.F @ newton.coef)) <= 2.0 * OPTS.resolved_tol(d20)


def test_diagnostics_report_structure():
    tc = solve_tau(0.3, P)
    rep = contraction_diagnostics(DISC, 0.9 * tc, tc)
    assert rep.a > 0 and rep.b > 0
    assert tau3(P) == pytest.approx(solve_tau0(P) / 2.0)
    # defaults: coupling window far too wide for a finite gamma
    assert not rep.gamma_feasible and rep.gamma == np.inf
    # for a constant kernel the alpha integrand is
    # u0/u2 + u0 Delta_2(tau)^2/(2 eps^2) K(T, 0) (see
    # test_coded_alpha_exceeds_perron_root), which falls with T, so it peaks
    # at T = tau
    assert rep.alpha_argmax[0] == 0.9 * tc
    with pytest.raises(ConfigError):
        contraction_diagnostics(DISC, 2.0 * tc, tc)


def test_diagnostics_a_is_the_sup_over_the_low_temperature_band():
    # a is the value at tau_3; the sup over a 65-point Delta_1 ladder on
    # [0, tau_3] must be that same value
    tc = solve_tau(0.3, P)
    rep = contraction_diagnostics(DISC, 0.9 * tc, tc)
    qn, qw = DISC.qn, DISC.qw
    ladder = []
    for t in np.linspace(0.0, tau3(P), 65):
        e = np.hypot(qn, solve_simple_gap(float(t), P.u1, P))
        ladder.append(float(qw @ (np.tanh(e / (2.0 * solve_tau0(P))) / e)))
    assert rep.a == pytest.approx(max(ladder), rel=1e-15, abs=0)


def test_empirical_iteration_ratios_below_alpha_bound(picard):
    # alpha is above 1 (see test_coded_alpha_exceeds_perron_root), about 5849
    # here, so the ratios are held to the stricter bound 1: the iteration
    # contracts
    tc = solve_tau(0.3, P)
    r = np.array(picard(0.95 * tc, DISC)[1])
    ratios = r[1:] / r[:-1]
    assert np.max(ratios[ratios > 0]) < 1.0


def test_coded_alpha_exceeds_perron_root():
    """alpha as coded exceeds rho(A_tau) > 1, so alpha_feasible never holds.

    This pins the formula that `contraction_diagnostics` codes; whether it
    is the paper's contraction hypothesis is not settled in this repository.
    Let f_T(E) = tanh(E/2T)/E and let alpha be the maximum over T in
    [tau, T_c] and x of
    integral U(x, xi) [f_T(E_T) + Delta_2(tau)^2/(2 eps^2) f_T(xi)] dxi with
    E_T = sqrt(xi^2 + Delta_2(T)^2).  Then alpha > rho(A_tau) > 1:

    1. For xi >= eps, f_T(xi) - f_T(sqrt(xi^2 + D^2)) < D^2 f_T(xi)/(2 eps^2),
       because tanh grows, so the difference is at most
       f_T(xi) (E - xi)/E = f_T(xi) D^2/(E (E + xi)) < f_T(xi) D^2/(2 xi^2).
    2. Delta_2(tau) >= Delta_2(T) on [tau, T_c].
    3. By 1 and 2 the integrand at every (T, x) exceeds
       (A_T 1)(x) = integral U(x, xi) f_T(xi) dxi.
    4. The largest row sum of A_T is at least its Perron root, which is
       above 1 for T < T_c.

    The configuration is acceptance criterion 07a's, the most favourable one
    a grid search found.  Let K(T, D) = integral_eps^omega
    f_T(sqrt(xi^2 + D^2)) dxi.  For a constant kernel u0 the Delta_2(T) term
    is u0/u2 at every T, since Delta_2(T) solves u2 K(T, D) = 1, and the
    second term peaks at T = tau, so the coded alpha is
    u0/u2 + u0 Delta_2(tau)^2/(2 eps^2) K(tau, 0), and rho(A_tau) is
    u0 K(tau, 0).  Both are evaluated with mpmath alone.
    """
    mp = pytest.importorskip("mpmath")
    eps = 0.9
    p_probe = PhysicalParams(eps, 1.0, 20.0, 1.0, 1.0, 2.0)
    u0 = 1.0 / gap_rhs(1.0, eps / 6.0, 0.0, p_probe)
    p = validate_params(PhysicalParams(eps, 1.0, 20.0, 1.0, 0.997 * u0, 1.05 * u0))
    k = ConstantPotential(u0, p)
    grid = build_grid(p, 65)
    opts = SolverOpts()
    tc = find_Tc(k, grid, opts)
    tau = tc * (1.0 - 1e-5)
    rep = contraction_diagnostics(Discretization(k, grid), tau, tc)

    with mp.workdps(30):
        t = mp.mpf(tau)

        def shell_k(d):
            def f(xi):
                e = mp.sqrt(xi * xi + d * d)
                return mp.tanh(e / (2 * t)) / e
            return mp.quad(f, [p.epsilon, p.hbar_omega_d])

        d2_tau = mp.findroot(lambda d: p.u2 * shell_k(d) - 1,
                             (mp.mpf("1e-6"), mp.mpf(p.hbar_omega_d)),
                             solver="anderson")
        rho = u0 * shell_k(0)
        closed_form = u0 / mp.mpf(p.u2) + rho * d2_tau ** 2 / (2 * mp.mpf(eps) ** 2)
        rho, closed_form = float(rho), float(closed_form)

    assert rep.alpha == pytest.approx(closed_form, rel=1e-10)
    assert rep.alpha > rho > 1.0
    assert rep.alpha_feasible == (rep.alpha < 1.0)


def test_apply_dA_dT_examples():
    t3 = 0.5 * 0.00846557824340508  # tau_3 at the default parameter set
    sl = solve_at_T(t3, DISC, OPTS)
    assert np.all(image_dT(DISC, sl.coef, t3) < 0.0)

    # the explicit temperature term fades to zero with T when du does
    tiny = solve_at_T(1e-4, DISC, OPTS)
    assert np.max(np.abs(image_dT(DISC, tiny.coef, 1e-4))) < 1e-100

    # and at T = 0, where the tanh factor is 1, it is identically zero
    assert np.all(image_dT(DISC, sl.coef, 0.0) == 0.0)


def test_apply_dA_dT_matches_finite_difference_at_fixed_u():
    t = 0.015
    sl = solve_at_T(t, DISC, OPTS)
    h = 1e-4 * solve_tau(P.u1, P)
    fd = (image(DISC, sl.coef, t + h) - image(DISC, sl.coef, t - h)) / (2.0 * h)
    ana = image_dT(DISC, sl.coef, t)
    assert np.max(np.abs(fd - ana)) < 1e-6 * np.max(np.abs(ana))


def test_du_fixed_point_solution():
    disc = DISC
    t = 0.015
    sl = solve_at_T(t, DISC, OPTS)
    dc = du_dT_at_fixed_point(sl, disc)
    du = disc.F @ dc
    assert np.all(du < 0.0)
    # dc solves the differentiated fixed-point identity
    _, dphi_du, dphi_dT = gap_solver._gap_terms(disc, disc.Ft @ sl.coef, t)
    img = disc.F @ (disc.Gw.T @ (dphi_du * (disc.Ft @ dc) + dphi_dT))
    assert np.max(np.abs(img - du)) < 1e-12 * np.max(np.abs(du))
    # and matches a centered difference of the solution surface
    h = 2e-4 * t
    up = solve_at_T(t + h, DISC, OPTS)
    dn = solve_at_T(t - h, DISC, OPTS)
    fd = (DISC.F @ up.coef - DISC.F @ dn.coef) / (2.0 * h)
    assert np.max(np.abs(fd - du)) < 1e-4 * np.max(np.abs(du))
