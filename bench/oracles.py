"""Output checks for the bcsgap benchmark that share no code with bcsgap.

Everything here is written from the model's definitions in the README and
the module docstrings, with scipy and mpmath doing the numerics:

* constant kernels: T_c from u0 * int_eps^om tanh(xi / 2T) / xi dxi = 1 and
  Delta(T) from the finite-T gap equation, both in mpmath; the jump ratio from
  v = -d(Delta^2)/dT at T_c by implicit differentiation of the gap equation,
  with Delta C = n0 / (2 T_c) * int v sech^2(xi / 2T_c) dxi (both shell sides,
  spin 2) over the normal specific heat of the model's density of states;
* every emitted gap slice: the gap-equation residual computed with scipy's own
  PCHIP on the CSV values and a 24-point Gauss-Legendre rule per interval, and
  the sandwich Delta_1(T) <= u <= Delta_2(T);
* every T_c: tau_1 <= T_c <= tau_2, and for non-constant kernels the Perron
  threshold of the continuum operator linearised at zero.

Seed-computed T_c or ratio values of separable and tabulated kernels are not
pinned: the discrete threshold is expected to move by about 2e-5 relative when
the solver's linearisation is corrected, which is a fix, not a regression.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy import integrate, interpolate, optimize, special

ZETA3 = float(mp.zeta(3))
UNIVERSAL_JUMP_RATIO = 12.0 / (7.0 * ZETA3)

_GL_X, _GL_W = special.roots_legendre(24)


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, want: float, rel: float, what: str, abs_: float = 0.0) -> None:
    err = abs(got - want)
    _require(err <= rel * abs(want) + abs_,
             f"{what}: got {got!r}, oracle {want!r} (|diff| {err:.3g})")


# ------------------------------------------------------- constant coupling

def _shell_pieces(eps: float, om: float) -> list:
    """Geometric break points so tanh-sinh sees each decade of 1/xi separately."""
    pts = [eps]
    x = eps * 10.0
    while x < om:
        pts.append(x)
        x *= 10.0
    pts.append(om)
    return pts


@functools.lru_cache(maxsize=None)
def tau_of_coupling(u: float, eps: float, om: float) -> float:
    """Vanishing temperature of the constant-coupling gap (scipy, double precision)."""
    return optimize.brentq(lambda t: constant_gap_equation(t, 0.0, u, eps, om),
                           1e-6 * om, om, xtol=1e-15 * om, rtol=1e-14)


def constant_gap_equation(t: float, d: float, u: float, eps: float, om: float) -> float:
    """u * int_eps^om tanh(E/2T)/E dxi - 1 with E = sqrt(xi^2 + d^2) (scipy)."""
    if t == 0.0:
        fn = lambda x: 1.0 / math.hypot(x, d)
    else:
        fn = lambda x: math.tanh(math.hypot(x, d) / (2 * t)) / math.hypot(x, d)
    pts = _shell_pieces(eps, om)
    return u * sum(integrate.quad(fn, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(pts[:-1], pts[1:])) - 1.0


def delta_of_coupling(t: float, u: float, eps: float, om: float) -> float:
    """Constant-coupling gap Delta(T) (scipy); 0 at and above tau."""
    if t >= tau_of_coupling(u, eps, om):
        return 0.0
    return optimize.brentq(lambda d: constant_gap_equation(t, d, u, eps, om),
                           1e-14 * om, 10 * om, xtol=1e-16 * om, rtol=1e-14)


def _mp_shell(fn, eps, om):
    return mp.quad(fn, [mp.mpf(p) for p in _shell_pieces(eps, om)])


@functools.lru_cache(maxsize=None)
def tc_constant_mp(u0: float, eps: float, om: float) -> float:
    """T_c of a constant kernel from u0 * int tanh(xi/2T)/xi = 1, in mpmath."""
    with mp.workdps(25):
        u0m = mp.mpf(u0)
        f = lambda t: u0m * _mp_shell(lambda x: mp.tanh(x / (2 * t)) / x, eps, om) - 1
        t0 = tau_of_coupling(u0, eps, om)
        return float(mp.findroot(f, (mp.mpf(t0) * (1 - 1e-6), mp.mpf(t0) * (1 + 1e-6)),
                                 solver="secant", tol=mp.mpf(10) ** -40))


def gap_constant_mp(t: float, u0: float, eps: float, om: float) -> float:
    """Delta(T) of a constant kernel, in mpmath (T > 0 below T_c, or T = 0)."""
    with mp.workdps(25):
        u0m, tm = mp.mpf(u0), mp.mpf(t)

        def f(d):
            if t == 0.0:
                g = lambda x: 1 / mp.sqrt(x * x + d * d)
            else:
                g = lambda x: mp.tanh(mp.sqrt(x * x + d * d) / (2 * tm)) / mp.sqrt(x * x + d * d)
            return u0m * _mp_shell(g, eps, om) - 1
        d0 = delta_of_coupling(t, u0, eps, om)
        return float(mp.findroot(f, (mp.mpf(d0) * (1 - 1e-7), mp.mpf(d0) * (1 + 1e-7)),
                                 solver="secant", tol=mp.mpf(10) ** -40))


def psi_constant(t: float, phys: dict) -> float:
    """Condensation potential of a constant kernel from the BCS pair sum:
    per shell state (both sides, spin 2) (xi - E) + Delta^2/(2E) tanh(E/2T)
    - 2T ln[(1 + e^(-E/T)) / (1 + e^(-xi/T))]."""
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    d = delta_of_coupling(t, phys["u0"], eps, om)

    def f(x):
        e = math.hypot(x, d)
        de = d * d / (e + x)  # E - xi without cancellation
        if t == 0.0:
            return -2.0 * de + d * d / e
        b = math.exp(-x / t)
        return (-2.0 * de + d * d / e * math.tanh(e / (2 * t))
                - 4.0 * t * math.log1p(math.expm1(-de / t) * b / (1.0 + b)))
    pts = _shell_pieces(eps, om)
    return phys["n0"] * sum(integrate.quad(f, a, b, epsabs=0, epsrel=1e-12, limit=400)[0]
                            for a, b in zip(pts[:-1], pts[1:]))


def dos_value(xi: float, phys: dict) -> float:
    """Density of states: n0 on the shell, sqrt band off it (or flat)."""
    n0, eps, om, mu = phys["n0"], phys["epsilon"], phys["hbar_omega_d"], phys["mu"]
    if phys["dos"] == "flat_shell" or eps <= xi <= om:
        return n0
    if xi < eps:
        return n0 * math.sqrt((xi + mu) / (eps + mu))
    return n0 * math.sqrt((xi + mu) / (om + mu))


def cv_normal(t: float, phys: dict) -> float:
    """C_V^N(T): spin 2, the shell on both sides of the Fermi level at n0,
    [-mu, -om] and [om, inf) weighted by the density of states."""
    eps, om, mu, n0 = phys["epsilon"], phys["hbar_omega_d"], phys["mu"], phys["n0"]

    def w(x):  # x^2 sech^2(x / 2T), overflow-free
        e = math.exp(-abs(x) / t)
        return 4.0 * x * x * e / (1.0 + e) ** 2

    shell = 2 * n0 * integrate.quad(w, eps, om, epsabs=0, epsrel=1e-12, limit=400)[0]
    below = integrate.quad(lambda x: dos_value(x, phys) * w(x), -mu, -om,
                           epsabs=0, epsrel=1e-12, limit=400)[0]
    above = integrate.quad(lambda x: dos_value(x, phys) * w(x), om, om + 80 * t,
                           epsabs=0, epsrel=1e-12, limit=400)[0]
    return (shell + below + above) / (2 * t * t)


@functools.lru_cache(maxsize=None)
def _ratio_constant(u0, eps, om, mu, n0, dos):
    phys = {"epsilon": eps, "hbar_omega_d": om, "mu": mu, "n0": n0, "dos": dos}
    tc = tc_constant_mp(u0, eps, om)
    with mp.workdps(25):
        t = mp.mpf(tc)
        sech2 = lambda x: 1 / mp.cosh(x / (2 * t)) ** 2
        # F(s, T) = u0 int tanh(E/2T)/E - 1 with E^2 = xi^2 + s; at s = 0:
        # dF/ds = u0 int (d/dE [tanh(E/2T)/E]) / (2 xi), dF/dT = -u0 int sech^2 / (2T^2)
        dfds = _mp_shell(lambda x: (sech2(x) / (2 * t * x) - mp.tanh(x / (2 * t)) / x ** 2)
                         / (2 * x), eps, om)
        dfdt = -_mp_shell(sech2, eps, om) / (2 * t * t)
        v = dfdt / dfds  # v = -ds/dT
        dcv = v * n0 / (2 * t) * _mp_shell(sech2, eps, om)
    return float(dcv), cv_normal(tc, phys)


# ------------------------------------------------------- general kernels

def _hat(x: np.ndarray, nodes) -> np.ndarray:
    """Linear-interpolation weights of x on nodes, clamped at the ends."""
    nodes = np.asarray(nodes, float)
    return np.stack([np.interp(x, nodes, e) for e in np.eye(nodes.size)], axis=1)


def _factors(phys: dict, x: np.ndarray):
    """(F(x), C) with U(x, xi) = F(x) C F(xi)^T for the documented kernels.

    Constant: F = 1, C = u0.  Separable: F = f (linear between samples),
    C = 1.  Tabulated: F = hat functions of the table nodes, C = the table
    (bilinear interpolation, clamped).
    """
    kind = phys["kernel"]
    if kind == "constant":
        return np.ones((x.size, 1)), np.array([[phys["u0"]]])
    if kind == "separable":
        return np.interp(x, phys["f_nodes"], phys["f_values"])[:, None], np.ones((1, 1))
    return _hat(x, phys["nodes"]), np.asarray(phys["values"], float)


def _panels(breaks: np.ndarray):
    """Gauss-Legendre nodes and weights, 24 per interval of ``breaks``."""
    a, b = breaks[:-1], breaks[1:]
    h = 0.5 * (b - a)
    nodes = (a + h)[:, None] + h[:, None] * _GL_X[None, :]
    return nodes.ravel(), (h[:, None] * _GL_W[None, :]).ravel()


def _breaks(phys: dict, grid=()) -> np.ndarray:
    """Quadrature breaks: every kink of the kernel and of the interpolant,
    plus a geometric ladder for the 1/xi behaviour near the cutoff."""
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    pts = list(np.geomspace(eps, om, 41)) + list(grid)
    pts += list(phys.get("f_nodes", ())) + list(phys.get("nodes", ()))
    return np.unique(np.clip(pts, eps, om))


def perron_at_zero(t: float, phys: dict) -> float:
    """Perron eigenvalue of the continuum gap operator linearised at u = 0.

    With U = F C F^T the nonzero spectrum is that of C M, where
    M = int F(xi)^T F(xi) tanh(xi/2T)/xi dxi.
    """
    q, w = _panels(_breaks(phys))
    f, c = _factors(phys, q)
    m = f.T @ (f * (w * np.tanh(q / (2 * t)) / q)[:, None])
    return float(np.max(np.real(np.linalg.eigvals(c @ m))))


def tc_continuum(phys: dict) -> float:
    """Temperature where the continuum Perron eigenvalue crosses 1."""
    lo = tau_of_coupling(phys["u1"], phys["epsilon"], phys["hbar_omega_d"])
    hi = tau_of_coupling(phys["u2"], phys["epsilon"], phys["hbar_omega_d"])
    return optimize.brentq(lambda t: perron_at_zero(t, phys) - 1.0, lo, hi,
                           xtol=1e-13, rtol=1e-12)


def gap_residual(t: float, x: np.ndarray, u: np.ndarray, phys: dict) -> float:
    """sup_i |u_i - int U(x_i, xi) u(xi)/E tanh(E/2T) dxi|, scipy PCHIP for u(xi)."""
    q, w = _panels(_breaks(phys, x))
    uq = interpolate.PchipInterpolator(x, u)(q)
    e = np.hypot(q, uq)
    phi = uq / e if t == 0.0 else uq / e * np.tanh(e / (2 * t))
    fq, c = _factors(phys, q)
    fx, _ = _factors(phys, np.asarray(x, float))
    image = fx @ (c @ (fq.T @ (w * phi)))
    return float(np.max(np.abs(image - u)))


# ------------------------------------------------------- file readers

def read_kv(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            k, _, v = line.partition(" = ")
            out[k.strip()] = v.strip()
    return out


def read_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in fh if line.strip()])
    return {h: data[:, i] for i, h in enumerate(header)}


def _f(d: dict, key: str) -> float:
    return float(d[key])


# ------------------------------------------------------- per-command checks

def _envelope_taus(phys):
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    return tau_of_coupling(phys["u1"], eps, om), tau_of_coupling(phys["u2"], eps, om)


def check_tc(tc: float, phys: dict) -> None:
    tau1, tau2 = _envelope_taus(phys)
    _require(tau1 <= tc <= tau2, f"T_c {tc!r} outside [tau_1, tau_2] = [{tau1!r}, {tau2!r}]")
    if phys["kernel"] == "constant":
        # bisection stops within t_tol (README default 1e-8 * tau_2)
        t_tol = phys["t_tol"] if phys["t_tol"] is not None else 1e-8 * tau2
        want = tc_constant_mp(phys["u0"], phys["epsilon"], phys["hbar_omega_d"])
        _close(tc, want, 0.0, "constant-kernel T_c vs mpmath", 2.0 * t_tol + 1e-12 * tau2)
    else:
        # continuum Perron threshold; the 129-node threshold sits within a few
        # 1e-6 of it, and correcting the solver's linearisation moves it ~2e-5
        _close(tc, tc_continuum(phys), 1e-4, "T_c vs continuum Perron threshold")


def check_meta(meta: dict, phys: dict) -> None:
    """Derived scales echoed in every sidecar."""
    tau1, tau2 = _envelope_taus(phys)
    _close(_f(meta, "derived.tau1"), tau1, 1e-9, "derived.tau1")
    _close(_f(meta, "derived.tau2"), tau2, 1e-9, "derived.tau2")
    _require(_f(meta, "config.grids.energy_points") == phys["energy_points"],
             "sidecar energy_points does not echo the config")


def check_gap(out_dir: str, phys: dict) -> None:
    csv = read_csv(f"{out_dir}/gap.csv")
    meta = read_kv(f"{out_dir}/gap.csv.meta")
    check_meta(meta, phys)
    t = phys["t"]
    _close(_f(meta, "T"), t, 0.0, "slice temperature")
    x, u = csv["x"], csv["u"]
    _require(x.size == phys["energy_points"], "slice has the wrong node count")
    check_slice(t, x, u, phys, _f(meta, "derived.solver_tol"))


def check_slice(t: float, x, u, phys: dict, solver_tol: float) -> None:
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    d1 = delta_of_coupling(t, phys["u1"], eps, om)
    d2 = delta_of_coupling(t, phys["u2"], eps, om)
    slack = 1e-9 * d2
    _require(bool(np.all(u >= d1 - slack) and np.all(u <= d2 + slack)),
             f"sandwich Delta_1 <= u <= Delta_2 violated at T={t!r}: "
             f"u in [{u.min()!r}, {u.max()!r}], envelopes [{d1!r}, {d2!r}]")
    # The solver's 7-point panels are exact for the interpolant but not across
    # kernel kinks inside a grid interval; its continuum residual for separable
    # and tabulated kernels is up to about 2e-7 * Delta_2 at 65 nodes.
    rel = 1e-10 if phys["kernel"] == "constant" else 1e-6
    res = gap_residual(t, x, u, phys)
    _require(res <= 100.0 * solver_tol + rel * d2,
             f"gap-equation residual {res:.3g} at T={t!r} exceeds "
             f"100 * solver_tol + {rel:g} * Delta_2 ({solver_tol:.3g}, {d2:.3g})")
    if phys["kernel"] == "constant" and u.max() > 0:
        want = gap_constant_mp(t, phys["u0"], eps, om)
        _close(float(np.max(u)), want, 1e-8, "constant-kernel Delta(T) vs mpmath")
        _require(float(np.ptp(u)) <= 1e-12 * want, "constant-kernel slice is not flat")


def check_tc_request(out_dir: str, stdout: str, phys: dict) -> None:
    meta = read_kv(f"{out_dir}/tc.meta")
    check_meta(meta, phys)
    tc = _f(meta, "Tc")
    _require(float(stdout.strip().splitlines()[-1]) == tc, "printed T_c differs from tc.meta")
    check_tc(tc, phys)


def check_simple_gap(out_dir: str, phys: dict) -> None:
    csv = read_csv(f"{out_dir}/simple_gap.csv")
    meta = read_kv(f"{out_dir}/simple_gap.csv.meta")
    check_meta(meta, phys)
    u = phys[phys["coupling"]]
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    tau = tau_of_coupling(u, eps, om)
    _close(_f(meta, "tau"), tau, 1e-9, "simple-gap tau")
    _require(csv["T"].size == phys["t_points"], "simple-gap row count")
    for t, d in zip(csv["T"], csv["delta"]):
        if t >= tau * (1 + 1e-9):
            _require(d == 0.0, f"simple gap nonzero above tau at T={t!r}")
        elif t <= tau * (1 - 1e-6):
            res = constant_gap_equation(float(t), d, u, eps, om)
            _require(abs(res) <= 1e-9, f"simple gap at T={t!r}: gap-equation residual {res:.3g}")


def check_ratio(out_dir: str, phys: dict) -> None:
    rep = read_kv(f"{out_dir}/ratio.txt")
    check_meta(rep, phys)
    tc = _f(rep, "Tc")
    check_tc(tc, phys)
    _close(_f(rep, "universal_constant"), UNIVERSAL_JUMP_RATIO, 1e-10,
           "universal constant vs 12/(7 zeta(3))")
    _close(_f(rep, "cv_normal_tc"), cv_normal(tc, phys), 1e-8, "C_V^N(T_c)")
    dcv, ratio = _f(rep, "delta_cv"), _f(rep, "ratio")
    _require(dcv > 0, "specific-heat jump must be positive")
    _close(ratio, dcv / _f(rep, "cv_normal_tc"), 1e-7, "ratio = delta_cv / cv_normal_tc")
    if phys["kernel"] == "constant":
        want_dcv, want_cvn = _ratio_constant(
            phys["u0"], phys["epsilon"], phys["hbar_omega_d"], phys["mu"], phys["n0"], phys["dos"])
        _close(dcv, want_dcv, 1e-4, "constant-kernel jump Delta C_V vs mpmath")
        _close(ratio, want_dcv / want_cvn, 1e-4, "constant-kernel jump ratio vs mpmath")


def check_hc(out_dir: str, phys: dict) -> None:
    csv = read_csv(f"{out_dir}/hc.csv")
    meta = read_kv(f"{out_dir}/hc.csv.meta")
    check_meta(meta, phys)
    tc = _f(meta, "Tc")
    check_tc(tc, phys)
    t, h = csv["T"], csv["hc"]
    _require(bool(np.all(np.diff(t) > 0)) and t[0] == 0.0 and abs(t[-1] - tc) <= 1e-15,
             "hc temperatures must ascend from 0 to T_c")
    _require(bool(np.all(np.diff(h) <= 1e-12 * h[0])) and h[-1] == 0.0,
             "H_c must fall monotonically to 0 at T_c")
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    if phys["kernel"] == "constant":
        # H_c(0)^2 = 8 pi n0 int (E - xi)^2 / E dxi at the T = 0 gap
        d0 = gap_constant_mp(0.0, phys["u0"], eps, om)
        with mp.workdps(25):
            val = _mp_shell(lambda x: (mp.sqrt(x * x + d0 * d0) - x) ** 2
                            / mp.sqrt(x * x + d0 * d0), eps, om)
            hc0 = float(mp.sqrt(8 * mp.pi * phys["n0"] * val))
        _close(_f(meta, "hc0"), hc0, 1e-8, "H_c(0) vs mpmath")
        _close(h[0], hc0, 1e-8, "H_c at T = 0 vs mpmath")
        # near-T_c slope from the jump: dH_c/dT = -sqrt(4 pi Delta C_V / T_c)
        dcv, _ = _ratio_constant(phys["u0"], eps, om, phys["mu"], phys["n0"], phys["dos"])
        _close(_f(meta, "slope_at_Tc"), -math.sqrt(4 * math.pi * dcv / tc), 1e-4,
               "dH_c/dT at T_c vs mpmath jump")


def check_thermo(out_dir: str, phys: dict) -> None:
    csv = read_csv(f"{out_dir}/thermo.csv")
    meta = read_kv(f"{out_dir}/thermo.csv.meta")
    check_meta(meta, phys)
    tc = _f(meta, "Tc")
    check_tc(tc, phys)
    t = csv["T"]
    _, tau2 = _envelope_taus(phys)
    _require(t.size == 33 and t[0] == 0.0 and abs(t[-1] - tau2) <= 1e-12 * tau2,
             "thermo grid must span [0, tau_2] with 33 points")
    for i in np.linspace(1, t.size - 1, 6).astype(int):
        _close(csv["cv_normal"][i], cv_normal(float(t[i]), phys), 1e-8,
               f"C_V^N at T={t[i]!r}", 10 * phys["quad_tol"])
    above = t > tc
    _require(bool(np.all(csv["psi"][above] == 0.0)), "Psi must vanish above T_c")
    _require(bool(np.all(csv["psi"][~above] <= 0.0)), "Psi must be nonpositive below T_c")
    if phys["kernel"] == "constant":
        for i in np.linspace(0, int(np.sum(~above)) - 2, 4).astype(int):
            want = psi_constant(float(t[i]), phys)
            _close(csv["psi"][i], want, 1e-8, f"constant-kernel Psi at T={t[i]!r}")


def check_diagnose(out_dir: str, phys: dict) -> None:
    rep = read_kv(f"{out_dir}/diagnose.txt")
    check_meta(rep, phys)
    tc = _f(rep, "Tc")
    check_tc(tc, phys)
    _close(_f(rep, "tau"), phys["tau"], 0.0, "diagnose tau")
    # tau_0: Delta_1(tau_0) = 2 z0 tau_0 with z0 the root of 2/z = tanh z
    eps, om = phys["epsilon"], phys["hbar_omega_d"]
    z0 = optimize.brentq(lambda z: 2.0 / z - math.tanh(z), 1.5, 2.5, xtol=1e-15)
    tau1 = tau_of_coupling(phys["u1"], eps, om)
    tau0 = optimize.brentq(lambda t: delta_of_coupling(t, phys["u1"], eps, om) - 2 * z0 * t,
                           1e-6 * tau1, tau1 * (1 - 1e-9), xtol=1e-16, rtol=1e-12)
    _close(_f(rep, "derived.tau0"), tau0, 1e-9, "tau_0")
    _close(_f(rep, "tau3"), 0.5 * tau0, 1e-9, "tau_3 = tau_0 / 2")
    for key in ("a", "b", "alpha"):
        _require(math.isfinite(_f(rep, key)) and _f(rep, key) > 0, f"diagnose {key} not positive")


def check(req, out_dir: str, stdout: str) -> None:
    """Raise CheckFailed unless the request's outputs satisfy their oracles."""
    cmd, phys = req.command, req.physics
    if cmd == "tc":
        check_tc_request(out_dir, stdout, phys)
    elif cmd == "gap":
        check_gap(out_dir, phys)
    elif cmd == "simple-gap":
        check_simple_gap(out_dir, phys)
    elif cmd == "ratio":
        check_ratio(out_dir, phys)
    elif cmd == "hc":
        check_hc(out_dir, phys)
    elif cmd == "thermo":
        check_thermo(out_dir, phys)
    elif cmd == "diagnose":
        check_diagnose(out_dir, phys)
    else:
        raise CheckFailed(f"no oracle for subcommand {cmd!r}")
