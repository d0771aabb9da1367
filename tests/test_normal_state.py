"""Normal-state integrals against 20-digit mpmath, and the fixed-rule path.

Omega_N is checked in the program's five-integral form, C_V^N in the
substituted eta = x/2T form that enters the jump ratio (C_V^N = 4 T J(T)),
so the two oracles share no substitution with the fixed rules they test.
"""
import sys

import mpmath as mp
import pytest

from bcsgap import (FlatShellDos, PhysicalParams, SqrtBandDos, cli,
                    cv_normal, omega_normal, quadrature,
                    universal_constant, validate_params)

EPS, OM, N0 = 1e-3, 1.0, 1.0
MUS = (1.05, 1.3, 20.0)
DOS_MODELS = ("sqrt_band", "flat_shell")


def _params(mu):
    return validate_params(PhysicalParams(EPS, OM, mu, N0, 0.25, 0.35))


# tau_2 = solve_tau(0.35, _params(20.0)): the discrete equation is exactly
# satisfied on two adjacent doubles here, and the literal keeps the test ids
TAU2 = 0.06461895497392904
TEMPS = (EPS / 2.0, 0.02, TAU2, 0.3)


def _dos(kind, p):
    return (SqrtBandDos if kind == "sqrt_band" else FlatShellDos)(p)


def _mp_dos(kind, mu):
    eps, om, mu = mp.mpf(EPS), mp.mpf(OM), mp.mpf(mu)

    def n(x):
        if kind == "flat_shell" or eps <= x <= om:
            return mp.mpf(N0)
        edge = eps if x < eps else om
        return N0 * mp.sqrt(max(x + mu, 0) / (edge + mu))
    return n


def _quad(f, lo, hi, edge, scale):
    """mpmath quad on [lo, hi], split geometrically away from ``edge``."""
    sign = 1 if edge == lo else -1
    pts = [edge + sign * scale * 4 ** k for k in range(-1, 6)]
    pts = sorted({lo, hi, *(q for q in pts if lo < q < hi)})
    return mp.quad(f, pts)


def _omega_oracle(kind, mu, t):
    n = _mp_dos(kind, mu)
    eps, om, mu = mp.mpf(EPS), mp.mpf(OM), mp.mpf(mu)
    val = -N0 * (om ** 2 - eps ** 2) + 2 * mp.quad(lambda x: x * n(x), [-mu, -om])
    if t == 0:
        return val
    t = mp.mpf(t)
    val -= 4 * N0 * t * _quad(lambda x: mp.log1p(mp.exp(-x / t)), eps, om, eps, t)
    val -= 2 * t * _quad(lambda x: n(x) * mp.log1p(mp.exp(x / t)), -mu, -om, -om, t)
    val -= 2 * t * _quad(lambda x: n(x) * mp.log1p(mp.exp(-x / t)),
                         om, om + 200 * t, om, t)
    return val


def _j_oracle(kind, mu, t):
    n = _mp_dos(kind, mu)
    t = mp.mpf(t)
    ehat, b, mhat = EPS / (2 * t), OM / (2 * t), mu / (2 * t)

    def w(e):
        return e * e * mp.sech(e) ** 2
    return (2 * N0 * _quad(w, ehat, b, ehat, 0.5)
            + _quad(lambda e: n(-2 * t * e) * w(e), b, mhat, b, 0.5)
            + _quad(lambda e: n(2 * t * e) * w(e), b, b + 100, b, 0.5))


@pytest.mark.parametrize("kind", DOS_MODELS)
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("t", (0.0,) + TEMPS)
def test_omega_normal_mpmath_oracle(kind, mu, t):
    p = _params(mu)
    with mp.workdps(20):
        ref = float(_omega_oracle(kind, mu, t))
    assert omega_normal(t, _dos(kind, p)) == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("kind", DOS_MODELS)
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("t", TEMPS)
def test_cv_normal_mpmath_oracle(kind, mu, t):
    # C_V^N(T) = 4 T J(T), J the shell plus off-shell eta^2 sech^2 integrals
    p = _params(mu)
    with mp.workdps(20):
        ref = float(4 * t * _j_oracle(kind, mu, t))
    assert cv_normal(t, _dos(kind, p)) == pytest.approx(ref, rel=1e-13, abs=0)


def test_universal_constant_mpmath_oracle():
    with mp.workdps(20):
        ref = float(12 / (7 * mp.zeta(3)))
    assert universal_constant() == pytest.approx(ref, rel=0, abs=1e-14)


def test_thermo_ratio_universal_run_no_adaptive_quadrature(tmp_path, monkeypatch):
    # patch every bcsgap module that holds the functions, as bench/tracing.py does
    calls = []
    for name in ("integrate", "integrate_tail"):
        original = getattr(quadrature, name)

        def counted(*args, _f=original, **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)
        for mod in list(sys.modules.values()):
            if (mod.__name__.startswith("bcsgap")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grids.energy_points = 33\ngrids.t_points = 9\n")
    for sub in ("thermo", "ratio", "universal"):
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "--quiet", sub]) == 0
    assert (tmp_path / "thermo.csv").exists() and (tmp_path / "ratio.txt").exists()
    assert calls == []
