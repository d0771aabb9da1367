import numpy as np
import pytest

from bcsgap import (ConfigError, ConstantPotential, FlatShellDos,
                    PhysicalParams, SeparablePotential, SqrtBandDos,
                    TabulatedPotential, eval_dos, validate_params)

P = PhysicalParams(epsilon=1e-3, hbar_omega_d=1.0, mu=20.0, n0=1.0,
                   u1=0.25, u2=0.35)


def eval_kernel(spec, x, xi):
    """U(x, xi) from the kernel's factors, broadcast over x and xi."""
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    f, g = spec.factors(x.ravel(), xi.ravel())
    out = np.sum(f * g, axis=1).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def test_validate_accepts_default_set():
    assert validate_params(P) is P


@pytest.mark.parametrize("bad,match", [
    (PhysicalParams(0.0, 1.0, 20.0, 1.0, 0.25, 0.35), "cutoff must be positive"),
    (PhysicalParams(-1e-3, 1.0, 20.0, 1.0, 0.25, 0.35), "cutoff must be positive"),
    (PhysicalParams(2.0, 1.0, 20.0, 1.0, 0.25, 0.35), "epsilon < hbar_omega_d"),
    (PhysicalParams(1e-3, 25.0, 20.0, 1.0, 0.25, 0.35), "hbar_omega_d < mu"),
    (PhysicalParams(1e-3, 1.0, 20.0, -1.0, 0.25, 0.35), "N0 must be positive"),
    (PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.4, 0.3), "U1 < U2"),
    (PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.0, 0.3), "U1 must be positive"),
])
def test_validate_reports_first_violation(bad, match):
    with pytest.raises(ConfigError, match=match):
        validate_params(bad)


def test_constant_kernel_value():
    k = ConstantPotential(0.3, P)
    assert eval_kernel(k, 0.5, 0.7) == 0.3
    assert eval_kernel(k, P.epsilon, P.hbar_omega_d) == 0.3


def test_constant_kernel_outside_bounds_rejected():
    with pytest.raises(ConfigError, match="strictly between"):
        ConstantPotential(0.25, P)
    with pytest.raises(ConfigError, match="strictly between"):
        ConstantPotential(0.4, P)


def test_separable_constant_factor_reproduces_constant():
    f = np.full(5, np.sqrt(0.3))
    k = SeparablePotential(np.linspace(P.epsilon, 1.0, 5), f, P)
    x = np.array([0.01, 0.3, 0.99])
    assert np.allclose(eval_kernel(k, x, x[::-1]), 0.3, rtol=0, atol=1e-15)


def test_separable_symmetry_exact():
    fn = np.linspace(P.epsilon, 1.0, 9)
    fv = np.sqrt(np.linspace(0.27, 0.33, 9))
    k = SeparablePotential(fn, fv, P)
    rng = np.random.RandomState(7)
    x = rng.uniform(P.epsilon, 1.0, 200)
    y = rng.uniform(P.epsilon, 1.0, 200)
    assert np.array_equal(eval_kernel(k, x, y), eval_kernel(k, y, x))


def test_tabulated_cell_center_is_corner_mean():
    # bilinear value at the center of a cell is the arithmetic mean of its
    # four corners; worked by hand for a single 2x2 table
    nodes = np.array([P.epsilon, 1.0])
    vals = np.array([[0.26, 0.30], [0.28, 0.34]])
    k = TabulatedPotential(nodes, vals, P)
    center = 0.5 * (P.epsilon + 1.0)
    assert eval_kernel(k, center, center) == pytest.approx(np.mean(vals), abs=1e-15)


def test_tabulated_clamps_at_edges():
    nodes = np.linspace(P.epsilon, 1.0, 4)
    rng = np.random.RandomState(3)
    vals = rng.uniform(0.27, 0.33, (4, 4))
    k = TabulatedPotential(nodes, vals, P)
    assert eval_kernel(k, P.epsilon, P.epsilon) == pytest.approx(vals[0, 0])
    assert eval_kernel(k, 1.0, 1.0) == pytest.approx(vals[-1, -1])


def test_tabulated_matches_bilinear_reference(bilinear):
    # table nodes inside the shell, so random points also hit the clamping
    nodes = np.linspace(0.1, 0.9, 5)
    vals = np.random.RandomState(13).uniform(0.26, 0.34, (5, 5))
    k = TabulatedPotential(nodes, vals, P)
    rng = np.random.RandomState(17)
    x = rng.uniform(P.epsilon, 1.0, 1000)
    y = rng.uniform(P.epsilon, 1.0, 1000)
    assert np.allclose(eval_kernel(k, x, y), bilinear(nodes, vals, x, y),
                       rtol=1e-13, atol=0)


@pytest.mark.parametrize("make", [
    lambda: ConstantPotential(0.3, P),
    lambda: SeparablePotential(np.linspace(P.epsilon, 1.0, 9),
                               np.sqrt(np.linspace(0.26, 0.34, 9)), P),
    lambda: TabulatedPotential(np.linspace(P.epsilon, 1.0, 5),
                               np.random.RandomState(11).uniform(0.26, 0.34, (5, 5)), P),
])
def test_kernel_bounds_hold_everywhere(make):
    k = make()
    rng = np.random.RandomState(42)
    x = rng.uniform(P.epsilon, 1.0, 1000)
    y = rng.uniform(P.epsilon, 1.0, 1000)
    vals = eval_kernel(k, x, y)
    assert np.all(vals > P.u1) and np.all(vals < P.u2)


def test_flat_shell_value_on_shell():
    d = FlatShellDos(P)
    assert eval_dos(d, 0.5) == 1.0
    assert eval_dos(d, -P.mu) == 1.0


def test_sqrt_band_values():
    d = SqrtBandDos(P)
    assert eval_dos(d, 0.5) == 1.0                    # on the shell
    # just below the shell the anchored form is within 2.5e-5 of n0
    assert eval_dos(d, 0.0) == pytest.approx(1.0, abs=1e-4)
    # far above the shell: sqrt growth anchored at the Debye edge
    expected = 2.0 * np.sqrt(P.mu / (P.mu + P.hbar_omega_d))
    assert eval_dos(d, 3.0 * P.mu) == pytest.approx(expected, rel=1e-12)
    assert eval_dos(d, -P.mu) == 0.0


@pytest.mark.parametrize("model", [FlatShellDos(P), SqrtBandDos(P)])
def test_dos_continuity(model):
    # |N(xi+h) - N(xi)| -> 0 as h -> 0, with points straddling the shell
    # edges; near xi = -mu the modulus is only sqrt(h), so check the decay
    def max_jump(h):
        pts = np.concatenate([
            np.linspace(-P.mu + h, 3.0, 96),
            [P.epsilon - h / 2, P.epsilon + h / 2,
             P.hbar_omega_d - h / 2, P.hbar_omega_d + h / 2],
        ])
        return np.max(np.abs(eval_dos(model, pts + h) - eval_dos(model, pts)))

    h = 1e-6 * P.mu
    assert max_jump(h) < 1e-3
    assert max_jump(h / 100.0) <= max(max_jump(h) / 5.0, 1e-15)


@pytest.mark.parametrize("model", [FlatShellDos(P), SqrtBandDos(P)])
def test_dos_nonnegative_and_shell_value(model):
    xs = np.linspace(-P.mu, 50.0, 500)
    vals = eval_dos(model, xs)
    assert np.all(vals >= 0)
    shell = np.linspace(P.epsilon, P.hbar_omega_d, 50)
    assert np.allclose(eval_dos(model, shell), 1.0, rtol=0, atol=0)


def test_dos_rejects_below_minus_mu():
    with pytest.raises(ConfigError, match="below -mu"):
        eval_dos(FlatShellDos(P), -P.mu - 1.0)
