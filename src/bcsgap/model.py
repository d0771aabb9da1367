"""Physical parameters, interaction kernels and the density of states.

Everything here is immutable after construction.  Energies are in units
where the Boltzmann constant is 1; the natural choice is to measure all
energies in units of the Debye energy.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .interpolate import hat_basis


class PhysicalParams(NamedTuple):
    """Cutoff, Debye energy, chemical potential, DOS level and coupling bounds."""

    epsilon: float
    hbar_omega_d: float
    mu: float
    n0: float
    u1: float
    u2: float


def validate_params(raw: PhysicalParams) -> PhysicalParams:
    """Return ``raw`` unchanged if all orderings hold, else raise ConfigError.

    The first violated condition is reported by name.
    """
    if not np.all(np.isfinite(raw)):
        raise ConfigError("physical parameters must be finite numbers")
    if not raw.epsilon > 0:
        raise ConfigError("cutoff must be positive")
    if not raw.epsilon < raw.hbar_omega_d:
        raise ConfigError("epsilon < hbar_omega_d violated")
    if not raw.hbar_omega_d < raw.mu:
        raise ConfigError("hbar_omega_d < mu violated")
    if not raw.n0 > 0:
        raise ConfigError("N0 must be positive")
    if not raw.u1 > 0:
        raise ConfigError("U1 must be positive")
    if not raw.u1 < raw.u2:
        raise ConfigError("U1 < U2 violated")
    return raw


class SolverOpts(NamedTuple):
    """Solver tolerances; None selects the default scaled to the problem."""
    tol: float | None = None
    t_tol: float | None = None

    def resolved_tol(self, delta2_zero: float) -> float:
        return self.tol if self.tol is not None else 1e-10 * delta2_zero

    def resolved_t_tol(self, tau2: float) -> float:
        return self.t_tol if self.t_tol is not None else 1e-15 * tau2


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class PotentialSpec:
    """Interaction kernel U(x, xi) on [epsilon, hbar_omega_d]^2.

    Every kernel is an exact finite-rank product: ``factors(x, xi)`` returns
    F (len(x) by r) and G (len(xi) by r) with U(x_i, xi_j) = (F G^T)_ij, of
    rank 1 for constant and separable kernels and of the table size for
    tabulated ones; it is the kernel's one source of values.  Construction
    checks that the kernel range lies strictly inside (u1, u2).
    """
    is_constant = False
    is_separable = False

    def __init__(self, params: PhysicalParams):
        self.params = params

    def _check_range(self, lo: float, hi: float) -> None:
        u1, u2 = self.params.u1, self.params.u2
        if not (u1 < lo and hi < u2):
            raise ConfigError(
                "kernel values must lie strictly between u1 and u2 "
                f"(range [{lo:g}, {hi:g}] vs ({u1:g}, {u2:g}))"
            )

    def factors(self, x: np.ndarray, xi: np.ndarray):
        """(F, G) with U(x_i, xi_j) = (F G^T)_ij for 1-d arrays x and xi."""
        raise NotImplementedError


class ConstantPotential(PotentialSpec):
    is_constant = True

    def __init__(self, u0: float, params: PhysicalParams):
        super().__init__(params)
        self.u0 = float(u0)
        self._check_range(self.u0, self.u0)

    def factors(self, x, xi):
        return np.full((x.size, 1), self.u0), np.ones((xi.size, 1))


class SeparablePotential(PotentialSpec):
    """U(x, xi) = f(x) f(xi) with f > 0 piecewise linear between its samples.

    Linear interpolation keeps every kernel value inside
    [min(f)^2, max(f)^2], so the (u1, u2) bounds are checked once here.
    """
    is_separable = True

    def __init__(self, f_nodes, f_values, params: PhysicalParams):
        super().__init__(params)
        self.f_nodes = _readonly(f_nodes)
        self.f_values = _readonly(f_values)
        if self.f_nodes.ndim != 1 or self.f_nodes.shape != self.f_values.shape:
            raise ConfigError("separable kernel needs matching 1-d node/value arrays")
        if np.any(np.diff(self.f_nodes) <= 0):
            raise ConfigError("separable kernel nodes must be strictly ascending")
        if np.any(self.f_values <= 0):
            raise ConfigError("separable kernel factor must be positive")
        lo, hi = self.f_values.min(), self.f_values.max()
        self._check_range(lo * lo, hi * hi)

    def factors(self, x, xi):
        return (np.interp(x, self.f_nodes, self.f_values)[:, None],
                np.interp(xi, self.f_nodes, self.f_values)[:, None])


class TabulatedPotential(PotentialSpec):
    """Kernel tabulated on a node grid, bilinear in between, clamped at edges.

    With H the clamped hat basis on the table nodes, U = H(x) V H(xi)^T.
    """

    def __init__(self, nodes, values, params: PhysicalParams):
        super().__init__(params)
        self.nodes = _readonly(nodes)
        self.values = _readonly(values)
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ConfigError("tabulated kernel needs at least 2 nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ConfigError("tabulated kernel nodes must be strictly ascending")
        n = self.nodes.size
        if self.values.shape != (n, n):
            raise ConfigError("tabulated kernel values must be an n-by-n table")
        self._check_range(self.values.min(), self.values.max())

    def factors(self, x, xi):
        return hat_basis(self.nodes, x) @ self.values, hat_basis(self.nodes, xi)


class DosModel:
    """Density of states N(xi) on [-mu, inf), equal to params.n0 on the shell."""

    def __init__(self, params: PhysicalParams):
        self.params = params

    def _eval(self, xi):
        raise NotImplementedError


class FlatShellDos(DosModel):
    def _eval(self, xi):
        return np.full_like(xi, self.params.n0)


class SqrtBandDos(DosModel):
    """Free-electron-like sqrt growth off the shell, anchored for continuity.

    Below the shell N = n0*sqrt((xi+mu)/(epsilon+mu)), above it
    N = n0*sqrt((xi+mu)/(hbar_omega_d+mu)); both equal n0 at the shell edges,
    vanish at xi = -mu and grow like sqrt(xi) at large xi.
    """

    def _eval(self, xi):
        p = self.params
        out = np.full_like(xi, p.n0)
        below = xi < p.epsilon
        above = xi > p.hbar_omega_d
        out[below] = p.n0 * np.sqrt((xi[below] + p.mu) / (p.epsilon + p.mu))
        out[above] = p.n0 * np.sqrt((xi[above] + p.mu) / (p.hbar_omega_d + p.mu))
        return out


def eval_dos(model: DosModel, xi):
    """Evaluate N(xi); xi must satisfy xi >= -mu."""
    xi = np.asarray(xi, float)
    if np.any(xi < -model.params.mu):
        raise ConfigError("density of states argument below -mu")
    out = model._eval(np.atleast_1d(xi).astype(float))
    return float(out[0]) if xi.ndim == 0 else out
