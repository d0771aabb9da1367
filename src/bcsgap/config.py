"""Run configuration: flat key=value files with dotted keys, strict schema.

Unknown keys are errors; silent typos in physics parameters are the costliest
failure mode.  Every default that fills a missing key is recorded so output
metadata can echo the fully resolved configuration.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .model import (ConstantPotential, DosModel, FlatShellDos, PhysicalParams,
                    PotentialSpec, SeparablePotential, SolverOpts, SqrtBandDos,
                    TabulatedPotential, validate_params)
from .simple_gap import delta_at_zero

KNOWN_KEYS = {
    "epsilon", "hbar_omega_d", "mu", "n0", "u1", "u2",
    "potential.type", "potential.u0",
    "potential.f_nodes", "potential.f_values",
    "potential.nodes", "potential.values",
    "dos.type", "grids.energy_points", "grids.t_points",
    "tolerances.quad_tol", "tolerances.solver_tol", "tolerances.t_tol",
}
MIN_T_POINTS = 8
MAX_T_POINTS = 100_000
MAX_ENERGY_POINTS = 100_000


class RunConfig(NamedTuple):
    """A loaded configuration: the model a request solves, and the resolved
    values and applied defaults that every output's record echoes."""
    params: PhysicalParams
    potential: PotentialSpec
    dos: DosModel
    energy_points: int
    t_points: int
    opts: SolverOpts
    resolved: dict
    defaults_applied: dict


def _parse_items(text: str, origin: str) -> dict:
    items = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}'")
        if key in items:
            raise ConfigError(f"{origin}:{lineno}: duplicate key '{key}'")
        items[key] = value
    return items


def _floats(text: str) -> np.ndarray:
    values = np.array([float(s) for s in text.split(",") if s.strip() != ""])
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError(f"not a list of finite numbers: {text}")
    return values


def tolerance(text: str) -> float:
    """A finite, positive tolerance; anything else raises ValueError."""
    if not 0.0 < float(text) < np.inf:
        raise ValueError(f"not a finite positive number: {text}")
    return float(text)


def temperature(text: str) -> float:
    """A finite, nonnegative temperature; anything else raises ValueError."""
    if not 0.0 <= float(text) < np.inf:
        raise ValueError(f"not a finite nonnegative number: {text}")
    return float(text)


def temperature_count(text: str) -> int:
    """A temperature-grid size in [MIN_T_POINTS, MAX_T_POINTS], as grids.t_points."""
    if not MIN_T_POINTS <= int(text) <= MAX_T_POINTS:
        raise ValueError(f"not {MIN_T_POINTS} to {MAX_T_POINTS} temperatures: {text}")
    return int(text)


def _auto_tolerance(text: str) -> float | None:
    """A tolerance value; 'auto' selects the solver's default (None)."""
    return None if text == "auto" else tolerance(text)


def load_config(path: str | None) -> RunConfig:
    """Load and validate a configuration file; None gives pure defaults."""
    if path is None:
        items = {}
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        items = _parse_items(text, path)

    resolved: dict = {}
    defaults: dict = {}

    def get(key, default, cast=float):
        """items[key] cast, or default: echoed in resolved (None as 'auto'),
        and recorded as applied when it is a default other than None."""
        if key in items:
            try:
                value = cast(items[key])
            except ValueError as exc:
                raise ConfigError(f"invalid value for '{key}': {items[key]}") from exc
        else:
            value = default
            if default is not None:
                defaults[key] = default
        resolved[key] = "auto" if value is None else value
        return value

    om = get("hbar_omega_d", 1.0)
    eps = get("epsilon", 1e-3 * om)
    mu = get("mu", 20.0 * om)
    n0 = get("n0", 1.0)
    u1 = get("u1", 0.25)
    u2 = get("u2", 0.35)
    params = validate_params(PhysicalParams(eps, om, mu, n0, u1, u2))

    ptype = get("potential.type", "constant", str)
    if ptype == "constant":
        potential: PotentialSpec = ConstantPotential(get("potential.u0", 0.3), params)
    elif ptype == "separable":
        if "potential.f_values" not in items:
            raise ConfigError("separable potential needs potential.f_values")
        fv = get("potential.f_values", None, _floats)
        if "potential.f_nodes" in items:
            fn = get("potential.f_nodes", None, _floats)
        else:
            fn = resolved["potential.f_nodes"] = np.linspace(eps, om, fv.size)
            defaults["potential.f_nodes"] = "uniform on [epsilon, hbar_omega_d]"
        potential = SeparablePotential(fn, fv, params)
    elif ptype == "tabulated":
        if "potential.nodes" not in items or "potential.values" not in items:
            raise ConfigError("tabulated potential needs potential.nodes and potential.values")
        nodes = get("potential.nodes", None, _floats)
        vals = get("potential.values", None, _floats)
        n = nodes.size
        if vals.size != n * n:
            raise ConfigError("potential.values must hold n*n entries (row major)")
        potential = TabulatedPotential(nodes, vals.reshape(n, n), params)
    else:
        raise ConfigError(f"unknown potential.type '{ptype}'")

    dtype = get("dos.type", "sqrt_band", str)
    if dtype == "flat_shell":
        dos: DosModel = FlatShellDos(params)
    elif dtype == "sqrt_band":
        dos = SqrtBandDos(params)
    else:
        raise ConfigError(f"unknown dos.type '{dtype}'")

    energy_points = get("grids.energy_points", 129, int)
    t_points = get("grids.t_points", 33, int)
    if not 16 <= energy_points <= MAX_ENERGY_POINTS:
        raise ConfigError("grids.energy_points must be at least 16 "
                          f"and at most {MAX_ENERGY_POINTS}")
    if not MIN_T_POINTS <= t_points <= MAX_T_POINTS:
        raise ConfigError(f"grids.t_points must be at least {MIN_T_POINTS} "
                          f"and at most {MAX_T_POINTS}")

    get("tolerances.quad_tol", 1e-10, tolerance)
    # absent and 'auto' both resolve to the solver default, echoed as 'auto'
    solver_tol = get("tolerances.solver_tol", None, _auto_tolerance)
    t_tol = get("tolerances.t_tol", None, _auto_tolerance)
    # no residual of gap values of size Delta_2(0) gets below one ulp of it,
    # and for some kernels the map's roundoff holds it above one ulp
    if solver_tol is not None:
        try:
            floor = 2 * math.ulp(delta_at_zero(u2, params))
        except (ConfigError, OverflowError):  # no transition: the solves say so
            floor = 0.0
        if solver_tol < floor:
            raise ConfigError(f"tolerances.solver_tol {solver_tol!r} is below "
                              f"two ulp of Delta_2(0), {floor!r}")
    return RunConfig(params, potential, dos, energy_points, t_points,
                     SolverOpts(solver_tol, t_tol), resolved, defaults)
