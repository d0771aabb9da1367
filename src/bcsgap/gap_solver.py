"""Discretized gap operator, Newton fixed-point solver, sweeps and T_c.

The kernel enters as its exact rank-r factorization U = F G^T (r is 1 for
constant and separable kernels, the table size for tabulated ones), so every
iterate is u = F(x) c and the unknowns are the r coefficients c.  Between
grid nodes each column of F is extended by monotone piecewise-cubic
interpolation (Ft), and the integral is a 7-point Gauss rule on each grid
interval, with the weights folded into Gw: the iterated map is
c -> Gw^T phi_T(Ft c).  For rank 1 Ft c is exactly the monotone cubic
interpolant of the grid values F c, which is homogeneous of degree one.
Every linearization of the map is the r-by-r matrix core(w) = (Gw w)^T Ft,
and Newton and du/dT solve I - core(dphi/du) x = b by solve_linearized.

The iteration is Newton's method from the image of the constant
Delta_2(0), a supersolution (Au <= u) at every T: every kernel value lies
below u_2, and gap_rhs(u_2, T, D) falls with D, through 1 at
Delta_2(T) <= Delta_2(0).  The map is concave in u, so Newton iterates from
a supersolution stay above the fixed point and the step count does not grow
as T approaches T_c, where plain Picard contracts at roughly
1 - |T - T_c|/T_c.  Plain Picard, the paper's own iteration, is the
reference for the contraction and uniqueness checks; it lives with the
tests (the picard fixture in tests/conftest.py).

T_c is where the Perron root of core(tanh(xi/2T)/xi), the map linearized at
u = 0, falls through 1 as T rises: the exact zero/nonzero boundary of the
iterated map.  find_Tc finds that root with the package's one bracketed root
finder, to a bracket 1e-15 * tau_2 wide by default, and the same Perron root
is the test of solve_at_T's zero shortcut.
"""
from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError
from .interpolate import MonotoneCubic
from .model import PhysicalParams, PotentialSpec, SolverOpts
from .quadrature import composite_gauss
from .rootfind import solve_bracketed
from .simple_gap import delta_at_zero, solve_simple_gap, solve_tau, solve_tau0, tau3
from .special import sech2


class EnergyGrid:
    def __init__(self, nodes):
        n = np.asarray(nodes, dtype=float)
        if n.ndim != 1 or n.size < 16:
            raise ConfigError("energy grid needs at least 16 ascending nodes")
        h = float(np.diff(n).min())
        if h <= 0:
            raise ConfigError("energy grid nodes must be strictly ascending")
        if h * h < sys.float_info.min:  # the interpolant divides by h^2
            raise ConfigError(f"energy grid spacing {h!r} squares to below the "
                              f"smallest normal double; raise epsilon ({float(n[0])!r})")
        top = float(n[-1])
        if top * top * top > sys.float_info.max:  # the gap terms cube energies
            raise ConfigError(f"energy grid node {top!r} cubes to beyond the largest "
                              "double; lower hbar_omega_d")
        n.setflags(write=False)
        self.nodes = n


def build_grid(params: PhysicalParams, count: int) -> EnergyGrid:
    """Geometric spacing near the cutoff, uniform across the rest of the shell."""
    eps, om = params.epsilon, params.hbar_omega_d
    split = 0.125 * om
    if eps >= split:
        nodes = np.geomspace(eps, om, count)
    else:
        n_log = count // 2
        log_part = np.geomspace(eps, split, n_log)
        lin_part = np.linspace(split, om, count - n_log + 1)[1:]
        nodes = np.concatenate([log_part, lin_part])
    nodes[0], nodes[-1] = eps, om
    return EnergyGrid(nodes)


class GapSlice(NamedTuple):
    """Fixed point at T by its kernel coefficients: u = F @ coef on the grid nodes,
    Ft @ coef at the quadrature nodes.  F > 0 and coef >= 0, so u = 0 iff not coef.any()."""
    T: float
    coef: np.ndarray
    iterations: int
    final_residual: float


class ContractionReport(NamedTuple):
    """Iteration constants from `contraction_diagnostics`.

    `alpha_feasible` records whether alpha < 1.  For alpha as coded it is
    always False: alpha exceeds the Perron root rho(A_tau) of the operator
    linearized at zero, which is above 1 for tau < T_c.
    """
    a: float
    b: float
    gamma: float
    alpha: float
    gamma_feasible: bool
    alpha_feasible: bool
    alpha_argmax: tuple  # (T, x)


# Newton steps per solve.  No solve in the tests or the benchmark takes over
# 45, the count at the first doubles below T_c, where I - core is near singular.
NEWTON_BUDGET = 100


class Discretization:
    """Quadrature rule and kernel factors for one (kernel, grid) pair.

    This is the problem object of a request: the solver, the thermodynamics
    and the critical field all take it, and read the physical parameters
    from kernel.params.

    The kernel enters only through its exact factorization
    U(x_i, xi_j) = (F G^T)_ij (see PotentialSpec.factors).  F is kept at the
    grid nodes and, column by column as its monotone cubic interpolant Ft, at
    the quadrature nodes; G, scaled by the quadrature weights, is Gw.  Every
    product with the kernel costs O(r (n + q)) for rank r, and every
    linearization of the iterated map c -> Gw^T phi(Ft c) is the r-by-r
    core(weight).
    """

    def __init__(self, kernel: PotentialSpec, grid: EnergyGrid):
        self.kernel = kernel
        self.grid = grid
        x = grid.nodes
        self.qn, self.qw = composite_gauss(x)
        f, g = kernel.factors(x, self.qn)
        self.F = f
        self.Ft = np.column_stack([MonotoneCubic(x, col)(self.qn) for col in f.T])
        self.Gw = g * self.qw[:, None]

    def kernel_apply(self, phi: np.ndarray) -> np.ndarray:
        """Integral of U(x_i, xi) * phi(xi) over the shell, for all grid nodes."""
        return self.F @ (self.Gw.T @ phi)

    def core(self, weight_q: np.ndarray) -> np.ndarray:
        """Matrix of c -> Gw^T (weight * Ft c), the map linearized with weight."""
        return (self.Gw * weight_q[:, None]).T @ self.Ft

    def solve_linearized(self, weight_q: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with (I - core(weight_q)) x = b by Gauss-Jordan elimination without
        pivoting.  Callers pass dphi/du at u = Ft c, c > 0, a fixed point or a Newton
        (super)solution: c >= core(phi/u) c, so rho(core(phi/u)) <= 1 by
        Collatz-Wielandt, and 0 < dphi/du < phi/u gives rho(core(dphi/du)) < 1.  I -
        core(dphi/du) is then a nonsingular M-matrix (Berman & Plemmons 1994, ch. 6):
        its pivots, ratios of leading principal minors, are positive, and one that is
        not raises NumericalError.  Zero slices: solve_at_T and _psi_curve skip them."""
        m = np.column_stack([np.eye(b.size) - self.core(weight_q), b])
        for k in range(b.size):
            if not m[k, k] > 0.0:
                raise NumericalError(f"pivot {m[k, k]!r} of I - core(w) is not positive")
            row = m[k] / m[k, k]
            m -= np.outer(m[:, k], row)
            m[k] = row
        return m[:, -1]

    def spectral_radius(self, weight_q: np.ndarray) -> float:
        """Perron root of core(weight_q)."""
        return perron(self.core(weight_q))[0]


def perron(a: np.ndarray):
    """Perron root rho and right and left Perron vectors phi, chi of a.

    a is an entrywise positive r-by-r matrix, such as core(w) for any w > 0:
    each of its columns is Gw^T (w Ft_j), with Gw >= 0 and every column of Ft
    inside the kernel range (u_1, u_2), so any two columns agree within a
    factor kappa = u_2/u_1 entry by entry.  By Birkhoff's theorem each
    product with a then shrinks the projective distance of a positive vector
    to phi by at least (kappa - 1)/(kappa + 1), so repeated squaring, p =
    a^(2^k) rescaled, squares that factor at every step and p tends to the
    rank-one phi chi^T.  Its row sums are phi and its column sums chi, each
    scaled to sum 1; the squaring stops once phi moves by at most 1e-15, and
    rho = chi a phi / chi phi is then exact to second order.  For r = 1, rho
    is a itself.
    """
    p = a / a.max()
    phi = p.sum(axis=1)
    phi /= phi.sum()
    for _ in range(64):
        p = p @ p
        p /= p.max()
        prev, phi = phi, p.sum(axis=1)
        phi /= phi.sum()
        if abs(phi - prev).max() <= 1e-15:
            chi = p.sum(axis=0)
            chi /= chi.sum()
            return float(chi @ a @ phi / (chi @ phi)), phi, chi
    raise NumericalError("Perron vector did not converge in 64 squarings")


def _gap_terms(disc: Discretization, u: np.ndarray, t: float):
    """phi(u) = u/E tanh(E/2T) at the quadrature nodes and its u- and T-partials.

    Returns (phi, dphi/du, dphi/dT) for E = sqrt(xi^2 + u^2), u given at the
    quadrature nodes; at T = 0 the tanh factor is 1 and dphi/dT is 0.
    """
    xi2 = disc.qn ** 2
    u2 = u ** 2
    e2 = xi2 + u2
    e = np.sqrt(e2)
    if t == 0.0:
        return u / e, xi2 / (e2 * e), np.zeros_like(u)
    y = e / (2.0 * t)
    th = np.tanh(y)
    # sech^2/2T first: it is 0 wherever a factor T*T would underflow to 0
    s2t = sech2(y) / (2.0 * t)
    return u / e * th, xi2 / (e2 * e) * th + u2 / e2 * s2t, -u * s2t / t


def weight_at_zero(disc: Discretization, t: float) -> np.ndarray:
    """Weight tanh(xi/2T)/xi of the map linearized at u = 0, at T = t, at the
    quadrature nodes; 1/xi at T = 0."""
    return (1.0 / disc.qn) if t == 0.0 else np.tanh(disc.qn / (2.0 * t)) / disc.qn


def _supercritical(disc: Discretization, t: float) -> bool:
    """Whether the map linearized at u = 0 has Perron root above 1 at T = t."""
    return disc.spectral_radius(weight_at_zero(disc, t)) > 1.0


def du_dT_at_fixed_point(u: GapSlice, disc: Discretization) -> np.ndarray:
    """dc/dT at a converged slice from solve_at_T: the r kernel coefficients.

    Differentiating c = Gw^T phi_T(Ft c) in T gives
    (I - core(dphi/du)) dc/dT = Gw^T dphi/dT, one r-by-r solve.  du/dT, the
    exact derivative of the discrete solution, is F dc/dT on the grid nodes
    and Ft dc/dT at the quadrature nodes.
    """
    if u.T <= 0.0:
        return np.zeros_like(u.coef)
    _, dphi_du, dphi_dT = _gap_terms(disc, disc.Ft @ u.coef, u.T)
    return disc.solve_linearized(dphi_du, disc.Gw.T @ dphi_dT)


def solve_at_T(t: float, disc: Discretization, opts: SolverOpts | None = None,
               start: np.ndarray | None = None) -> GapSlice:
    """Fixed point of the gap operator at one temperature, by Newton's method.

    Iterates on the kernel coefficients c from start, a supersolution such as
    a nonzero slice below t, or else from the image of the constant
    Delta_2(0); residuals and steps are measured on the grid values F c.  At
    and above tau_2, and wherever the operator linearized at zero is
    subcritical (T >= T_c), the zero slice is returned outright.  Newton
    iterates from a supersolution stay supersolutions (see module
    docstring), so every step is a Newton step; the iteration stops once the
    residual and the step are inside the tolerance, or the residual is
    inside it and stops falling, or a pivot of the Newton system is not
    positive (only where rho - 1 is at roundoff) with the residual inside
    it.  Exhausting NEWTON_BUDGET raises NumericalError carrying the last
    iterate.
    """
    if not (t == 0.0 or t >= sys.float_info.min):
        raise ConfigError(f"temperature {t!r} must be 0 or >= {sys.float_info.min!r}")
    opts = opts or SolverOpts()
    params = disc.kernel.params
    zero = np.zeros(disc.F.shape[1])
    tau2 = solve_tau(params.u2, params)
    if t >= tau2:
        return GapSlice(t, zero, 0, 0.0)

    # Subcritical operator: the only nonnegative fixed point is zero, which
    # plain iteration from the upper envelope would approach at a crawl for T
    # just above the transition.  The zero slice is exact there.
    if not _supercritical(disc, t):
        return GapSlice(t, zero, 0, 0.0)

    d20 = delta_at_zero(params.u2, params)
    tol = opts.resolved_tol(d20)
    c = (start if start is not None
         else disc.Gw.T @ _gap_terms(disc, np.full_like(disc.qn, d20), t)[0])

    res_prev = np.inf
    for it in range(1, NEWTON_BUDGET + 1):
        phi, dphi_du, _ = _gap_terms(disc, disc.Ft @ c, t)
        g = disc.Gw.T @ phi
        res = float(np.abs(disc.F @ (c - g)).max())
        # a residual inside tol that stops falling is at the roundoff floor,
        # where a Newton step would only amplify the noise
        if res_prev <= res <= tol:
            return GapSlice(t, c, it, res)
        try:
            step = disc.solve_linearized(dphi_du, c - g)
        except NumericalError:  # no step can be formed, a few doubles below T_c
            if res <= tol:
                return GapSlice(t, c, it, res)
            raise
        c = c - step
        if res <= tol and float(np.abs(disc.F @ step).max()) <= tol:
            return GapSlice(t, c, it, res)
        res_prev = res

    raise NumericalError(
        f"gap iteration budget exhausted at T={t:g} (residual {res_prev:g})",
        best=disc.F @ c, residual=res_prev)


def sweep(temperatures, disc: Discretization, opts: SolverOpts | None = None) -> list:
    """The slices of per-temperature solves in ascending order, each started from
    the last nonzero slice u below it, a supersolution there: A_T' u <= A_T u for T' > T."""
    params = disc.kernel.params
    ts = np.asarray(temperatures, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ConfigError("temperature grid must be strictly ascending")
    tau2 = solve_tau(params.u2, params)
    if ts[0] < 0 or ts[-1] > tau2 * (1 + 1e-12):
        raise ConfigError("temperature grid must lie within [0, tau_2]")

    slices, start = [], None
    for t in ts:
        slices.append(solve_at_T(float(t), disc, opts, start))
        start = slices[-1].coef if slices[-1].coef.any() else start
    return slices


def find_Tc(kernel: PotentialSpec, grid: EnergyGrid,
            opts: SolverOpts | None = None) -> float:
    """Transition temperature: boundary of the zero-solution region.

    The root of rho(T) - 1 on [tau_1, tau_2], rho the Perron root behind
    solve_at_T's zero shortcut (see module docstring), to a final bracket
    t_tol wide.  The end returned has rho <= 1, so a solve at the reported
    T_c takes the shortcut: solves from T_c up return the zero slice, and
    solves below it a nonzero fixed point.
    """
    opts, params = opts or SolverOpts(), kernel.params
    disc = Discretization(kernel, grid)
    tau2 = solve_tau(params.u2, params)
    return solve_bracketed(
        lambda t: disc.spectral_radius(weight_at_zero(disc, t)) - 1.0,
        solve_tau(params.u1, params), tau2, atol=opts.resolved_t_tol(tau2))


def contraction_diagnostics(disc: Discretization, tau: float,
                            tc: float) -> ContractionReport:
    """Certified iteration constants on the two proven regimes.

    a and b bound the low-temperature band [0, tau_3] (gamma is their
    Lipschitz combination, flagged infeasible when 1 - u2*a <= 0); alpha is
    the near-transition contraction bound, maximized over a fine grid on
    [tau, T_c] x [epsilon, hbar_omega_d] and flagged when it fails to be < 1.

    For alpha as coded that flag never clears: alpha > rho(A_tau) > 1 for
    every kernel and every tau < T_c, where
    A_T u = integral U(x, xi) tanh(xi/2T)/xi u(xi) dxi is the operator
    linearized at zero.  With f(E) = tanh(E/2T)/E and
    xi >= epsilon, f(xi) - f(sqrt(xi^2 + D^2)) < D^2 f(xi) / (2 epsilon^2);
    since Delta_2(tau) >= Delta_2(T) on [tau, T_c], the alpha integrand at
    every (T, x) exceeds the row sum (A_T 1)(x), and the largest row sum is
    at least the Perron root, which is above 1 below T_c.  Whether this
    alpha is the paper's contraction hypothesis is not settled here; the
    abstract alone does not state it.
    """
    params = disc.kernel.params
    if not 0.0 < tau < tc:
        raise ConfigError("tau must lie strictly between 0 and T_c")

    t0 = solve_tau0(params)
    t3 = tau3(params)
    qn, qw = disc.qn, disc.qw

    # Delta_1 falls with T and tanh(E/2 tau_0)/E with E, so the sup of the
    # a integrand over [0, tau_3] is its value at tau_3
    d1_t3 = solve_simple_gap(t3, params.u1, params)
    e = np.hypot(qn, d1_t3)
    a = float(qw @ (np.tanh(e / (2.0 * t0)) / e))
    b = 32.0 * t3 ** 2 / d1_t3 ** 2 * np.arctan(params.hbar_omega_d / d1_t3)

    gamma_feasible = 1.0 - params.u2 * a > 0.0
    gamma = params.u2 * b / (1.0 - params.u2 * a) if gamma_feasible else np.inf

    ts = np.linspace(tau, tc, 33)
    total = _alpha_coefs(disc, tau, ts) @ disc.F.T
    j, i = np.unravel_index(np.argmax(total), total.shape)
    alpha, argmax = float(total[j, i]), (float(ts[j]), float(disc.grid.nodes[i]))

    return ContractionReport(a, float(b), float(gamma), alpha, gamma_feasible,
                             alpha < 1.0, argmax)


def _alpha_coefs(disc: Discretization, tau: float, ts) -> np.ndarray:
    """Rows Gw^T [f_T(E) + Delta_2(tau)^2/(2 eps^2) f_T(xi)], one per T in ts.

    f_T(E) = tanh(E/2T)/E with E = sqrt(xi^2 + Delta_2(T)^2); the alpha
    integrand at (T, x) is F(x) times the row for T.
    """
    qn, params = disc.qn, disc.kernel.params
    pref = solve_simple_gap(tau, params.u2, params) ** 2 / (2.0 * params.epsilon ** 2)
    rows = []
    for t in ts:
        e = np.hypot(qn, solve_simple_gap(float(t), params.u2, params))
        rows.append(np.tanh(e / (2.0 * t)) / e + pref * np.tanh(qn / (2.0 * t)) / qn)
    return np.array(rows) @ disc.Gw
