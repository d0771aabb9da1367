"""Command-line interface: subcommand dispatch, CSV and report emission.

Every run is deterministic for a fixed configuration; CSV numbers are written
with 17 significant digits so files round-trip doubles and diff cleanly.
Each CSV gets a .meta sidecar echoing the resolved configuration, kernel
arrays included, together with the derived temperatures and the solver
tolerance, so every number in a summary is recomputable from the sidecar alone.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, load_config, temperature, temperature_count
from .errors import ConfigError, NumericalError
from .simple_gap import (build_simple_gap_curve, delta_at_zero, solve_tau,
                         solve_tau0, tau3)

# at exit, spare the interpreter's final collections the import-time heap
atexit.register(gc.freeze)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, np.ndarray):
        return ", ".join(map(_fmt, x.tolist()))
    return str(x)


def _disc(cfg: RunConfig):
    """The request's one discretization of the configured kernel."""
    from .gap_solver import Discretization, build_grid
    return Discretization(cfg.potential, build_grid(cfg.params, cfg.energy_points))


def _stages(cfg: RunConfig):
    """The discretization and T_c of a request."""
    from .gap_solver import find_Tc
    disc = _disc(cfg)
    return disc, find_Tc(cfg.potential, disc.grid, cfg.opts)


def _write(args, cfg: RunConfig, name: str, extra: dict,
           columns: dict | None = None) -> str:
    """Write the output `name` under --out and return its path.

    Every output carries one record: cfg's resolved values and defaults, the
    derived temperatures and solver tolerance, then extra.  With columns
    (header -> array), `name` is their CSV and the record its .meta sidecar;
    without, `name` is the record.
    """
    os.makedirs(args.out, exist_ok=True)
    path = record = os.path.join(args.out, name)
    if columns:
        record += ".meta"
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            fh.writelines(line % row for row in
                          zip(*(c.tolist() for c in columns.values())))
    p = cfg.params
    data = {
        "tool_version": __version__,
        **{f"config.{k}": v for k, v in sorted(cfg.resolved.items())},
        **{f"defaulted.{k}": v for k, v in sorted(cfg.defaults_applied.items())},
        "derived.tau1": solve_tau(p.u1, p), "derived.tau2": solve_tau(p.u2, p),
        "derived.tau0": solve_tau0(p), "derived.tau3": tau3(p),
        "derived.solver_tol": cfg.opts.resolved_tol(delta_at_zero(p.u2, p)),
        **extra}
    with open(record, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{k} = {_fmt(v)}\n" for k, v in data.items())
    return path


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _temperatures(args, cfg: RunConfig, upper: float) -> np.ndarray:
    return np.linspace(args.t_min, upper if args.t_max is None else args.t_max,
                       args.t_points or cfg.t_points)


def cmd_simple_gap(args, cfg: RunConfig) -> int:
    u = getattr(cfg.params, args.coupling)
    curve = build_simple_gap_curve(u, cfg.params, args.t_points or cfg.t_points)
    path = _write(args, cfg, "simple_gap.csv", {"coupling": u, "tau": curve.tau},
                  {"T": curve.t, "delta": curve.delta, "residual": curve.residual})
    _say(args, f"wrote {path} (tau = {_fmt(curve.tau)})")
    return 0


def cmd_gap(args, cfg: RunConfig) -> int:
    from .gap_solver import solve_at_T
    disc = _disc(cfg)
    sl = solve_at_T(args.t, disc, cfg.opts)
    path = _write(args, cfg, "gap.csv", {
        "T": sl.T, "iterations": sl.iterations, "final_residual": sl.final_residual},
        {"x": disc.grid.nodes, "u": disc.F @ sl.coef})
    _say(args, f"wrote {path} (iterations = {sl.iterations}, residual = {_fmt(sl.final_residual)})")
    return 0


def cmd_sweep(args, cfg: RunConfig) -> int:
    from .gap_solver import sweep
    disc, tc = _stages(cfg)
    ts = _temperatures(args, cfg, solve_tau(cfg.params.u2, cfg.params))
    slices = sweep(ts, disc, cfg.opts)
    n = disc.grid.nodes.size
    path = _write(args, cfg, "sweep.csv", {"Tc": tc}, {
        "T": np.repeat(ts, n), "x": np.tile(disc.grid.nodes, ts.size),
        "u": np.concatenate([disc.F @ sl.coef for sl in slices]),
        "residual": np.repeat([sl.final_residual for sl in slices], n),
        "iterations": np.repeat([float(sl.iterations) for sl in slices], n)})
    _say(args, f"wrote {path} (Tc = {_fmt(tc)})")
    return 0


def cmd_tc(args, cfg: RunConfig) -> int:
    from .gap_solver import build_grid, find_Tc
    tc = find_Tc(cfg.potential, build_grid(cfg.params, cfg.energy_points), cfg.opts)
    _write(args, cfg, "tc.meta", {"Tc": tc})
    _say(args, _fmt(tc))
    return 0


def cmd_diagnose(args, cfg: RunConfig) -> int:
    from .gap_solver import contraction_diagnostics
    disc, tc = _stages(cfg)
    rep = contraction_diagnostics(disc, args.tau, tc)
    path = _write(args, cfg, "diagnose.txt", {
        "tau": args.tau, "a": rep.a, "b": rep.b, "gamma": rep.gamma,
        "alpha": rep.alpha, "gamma_feasible": rep.gamma_feasible,
        "alpha_feasible": rep.alpha_feasible, "tau0": solve_tau0(cfg.params),
        "tau3": tau3(cfg.params), "Tc": tc,
        "alpha_argmax_T": rep.alpha_argmax[0],
        "alpha_argmax_x": rep.alpha_argmax[1]})
    _say(args, f"wrote {path} (alpha = {_fmt(rep.alpha)}, "
               f"feasible = {rep.alpha_feasible})")
    return 0


def cmd_thermo(args, cfg: RunConfig) -> int:
    from .gap_solver import sweep
    from .thermo import build_thermo_curve
    disc, tc = _stages(cfg)
    slices = sweep(_temperatures(args, cfg, solve_tau(cfg.params.u2, cfg.params)), disc, cfg.opts)
    curve = build_thermo_curve(slices, disc, cfg.dos)
    path = _write(args, cfg, "thermo.csv", {"Tc": tc}, {
        "T": curve.t, "omega_n": curve.omega_n, "psi": curve.psi,
        "dpsi_dT": curve.dpsi_dT, "cv_normal": curve.cv_normal,
        "cv_super": curve.cv_super})
    _say(args, f"wrote {path}")
    return 0


def cmd_ratio(args, cfg: RunConfig) -> int:
    from .thermo import cv_normal, extract_v, universal_constant
    disc, tc = _stages(cfg)
    dcv = extract_v(disc, tc).jump
    cvn = cv_normal(tc, cfg.dos)
    ratio, uni = dcv / cvn, universal_constant()
    _write(args, cfg, "ratio.txt", {
        "Tc": tc, "delta_cv": dcv, "cv_normal_tc": cvn, "ratio": ratio,
        "universal_constant": uni, "ratio_minus_universal": ratio - uni})
    _say(args, f"ratio = {_fmt(ratio)} (universal constant {_fmt(uni)}, "
               f"difference {_fmt(ratio - uni)})")
    return 0


def cmd_vfun(args, cfg: RunConfig) -> int:
    from .thermo import extract_v
    disc, tc = _stages(cfg)
    v = extract_v(disc, tc)
    path = _write(args, cfg, "vfun.csv", {"Tc": tc},
                  {"x": disc.grid.nodes, "v": v.values, "fit_residual": v.fit_residual})
    _say(args, f"wrote {path}")
    return 0


def cmd_hc(args, cfg: RunConfig) -> int:
    from .critical_field import build_hc_curve, hc_temperatures, linear_law_check
    from .gap_solver import sweep
    from .thermo import HC_SLOPE_RATIO_WIDE_SHELL, extract_v
    disc, tc = _stages(cfg)
    v = extract_v(disc, tc)
    slices = sweep(hc_temperatures(_temperatures(args, cfg, tc), tc), disc, cfg.opts)
    curve = build_hc_curve(slices, v, disc, cfg.opts)
    law = linear_law_check(curve)
    ratio = law.fitted_coefficient / curve.hc0
    path = _write(args, cfg, "hc.csv", {
        "Tc": tc, "hc0": curve.hc0, "slope_at_Tc": curve.slope_at_tc,
        "fitted_linear_coefficient": law.fitted_coefficient,
        "predicted_linear_coefficient": law.predicted_coefficient,
        "coeff_over_hc0": ratio,
        "coeff_over_hc0_minus_limit": ratio - HC_SLOPE_RATIO_WIDE_SHELL},
        {"T": curve.t, "hc": curve.hc, "dhc_dT": curve.dhc_dT})
    _say(args, f"wrote {path} (hc0 = {_fmt(curve.hc0)}, "
               f"slope at Tc = {_fmt(curve.slope_at_tc)})")
    return 0


def cmd_universal(args, cfg: RunConfig) -> int:
    from .thermo import JUMP_RATIO_WIDE_SHELL, universal_constant
    val = universal_constant()
    _say(args, f"{_fmt(val)}  |value - 12/(7 zeta(3))| = "
               f"{_fmt(abs(val - JUMP_RATIO_WIDE_SHELL))}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bcsgap",
        description="Cutoff BCS-Bogoliubov gap equation solver and "
                    "superconducting thermodynamics")
    p.add_argument("--config", default=None, help="key=value configuration file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sg = sub.add_parser("simple-gap", help="constant-coupling envelope curve")
    sg.add_argument("--coupling", choices=["u1", "u2"], required=True)
    sg.add_argument("--t-points", type=temperature_count, default=None)
    sg.set_defaults(fn=cmd_simple_gap)

    g = sub.add_parser("gap", help="solve the gap equation at one temperature")
    g.add_argument("--t", type=temperature, required=True)
    g.set_defaults(fn=cmd_gap)

    for name, fn, helptext in [
            ("sweep", cmd_sweep, "solve over a temperature grid"),
            ("thermo", cmd_thermo, "thermodynamic curve over a temperature grid"),
            ("hc", cmd_hc, "critical-field curve over a temperature grid")]:
        s = sub.add_parser(name, help=helptext)
        s.add_argument("--t-min", type=temperature, default=0.0)
        s.add_argument("--t-max", type=temperature, default=None)
        s.add_argument("--t-points", type=temperature_count, default=None)
        s.set_defaults(fn=fn)

    t = sub.add_parser("tc", help="transition temperature")
    t.set_defaults(fn=cmd_tc)

    d = sub.add_parser("diagnose", help="contraction diagnostics")
    d.add_argument("--tau", type=float, required=True)
    d.set_defaults(fn=cmd_diagnose)

    for name, fn, helptext in [
            ("ratio", cmd_ratio, "specific-heat jump ratio pipeline"),
            ("vfun", cmd_vfun, "near-transition limit function v(x)"),
            ("universal", cmd_universal, "wide-shell universal jump ratio")]:
        sub.add_parser(name, help=helptext).set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args, load_config(args.config))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
