"""Seeded request generator for the bcsgap CLI benchmark.

A workload is a fixed list of requests.  Each request is one CLI invocation:
a generated config file, an argv list, the exit code the README promises for
it, and a description of what its outputs must satisfy (used by oracles.py).
The same seed always gives the same list.

The seed varies the physics inputs but never the mix: every workload is a
fixed set of cells (subcommand, kernel type, grid size) and the seed draws the
parameters inside each cell and the order of the list.  This keeps the cost
of a list nearly seed-independent, so run-to-run spread measures the program
rather than the draw.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import oracles

# README defaults; the generator only writes keys it sets explicitly.
DEFAULT_EPS, DEFAULT_OM, DEFAULT_U1, DEFAULT_U2 = 1e-3, 1.0, 0.25, 0.35


@dataclass
class Request:
    """One CLI request and what its outputs must satisfy."""

    name: str
    argv: list
    config: dict
    expect_exit: int = 0
    # physics the checker needs, in plain numbers (no bcsgap objects)
    physics: dict = field(default_factory=dict)
    # cause of a known defect that makes this README-valid request fail today
    known_defect: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(xs) -> str:
    return ", ".join(_fmt(x) for x in xs)


# ---------------------------------------------------------------- kernels

def _kernel(kind, rng, eps, om, center, jitter, amp, explicit_nodes=False):
    """A kernel whose mean level is center +- jitter and whose shape deviates
    from it by at most amp; the caller keeps center +- (jitter + amp) inside
    (u1, u2).  Returns (config keys, physics for the checker)."""
    c = center + rng.uniform(-jitter, jitter)
    if kind == "constant":
        return {"potential.type": "constant", "potential.u0": _fmt(c)}, \
            {"kernel": "constant", "u0": c}
    nodes = [eps + (om - eps) * i / 8 for i in range(9)]
    s = [(x - eps) / (om - eps) for x in nodes]
    if kind == "separable":
        # f = sqrt(c + a sin(b s + ph)), linear between 9 uniform samples
        a, b, ph = amp * rng.uniform(0.8, 1.0), rng.uniform(4.5, 5.5), rng.uniform(0.0, 0.5)
        vals = [math.sqrt(c + a * math.sin(b * si + ph)) for si in s]
        cfg = {"potential.type": "separable", "potential.f_values": _fmt_list(vals)}
        if explicit_nodes:
            cfg["potential.f_nodes"] = _fmt_list(nodes)
        return cfg, {"kernel": "separable", "f_nodes": nodes, "f_values": vals}
    # symmetric smooth 9 x 9 table, bilinear in between
    a, p, b = amp * rng.uniform(0.7, 0.85), amp * rng.uniform(0.0, 0.15), rng.uniform(2.5, 3.5)
    table = [[c + a * 0.5 * (math.cos(b * si) + math.cos(b * sj))
              + p * math.sin(3 * si) * math.sin(3 * sj) for sj in s] for si in s]
    cfg = {"potential.type": "tabulated", "potential.nodes": _fmt_list(nodes),
           "potential.values": _fmt_list(v for row in table for v in row)}
    return cfg, {"kernel": "tabulated", "nodes": nodes, "values": table}


def _default_kernel(kind, rng):
    """Near the README example: level 0.3 +- 0.003, shape amplitude 0.03."""
    return _kernel(kind, rng, DEFAULT_EPS, DEFAULT_OM, 0.3, 0.003, 0.03)


def _physics(eps=DEFAULT_EPS, om=DEFAULT_OM, mu=20.0, n0=1.0, u1=DEFAULT_U1,
             u2=DEFAULT_U2, dos="sqrt_band", energy_points=129, t_points=33,
             quad_tol=1e-10, solver_tol=None, t_tol=None) -> dict:
    return {"epsilon": eps, "hbar_omega_d": om, "mu": mu, "n0": n0, "u1": u1,
            "u2": u2, "dos": dos, "energy_points": energy_points,
            "t_points": t_points, "quad_tol": quad_tol,
            "solver_tol": solver_tol, "t_tol": t_tol}


# ---------------------------------------------------------------- workloads

def transition(seed: int) -> list:
    """Near-T_c ladders: ratio for each kernel type and hc for a constant kernel.

    Only the kernel varies with the seed, and only slightly; the default
    shell, coupling window and 129-node grid are kept so every request runs
    the same dyadic ladder down to T_c (1 - 2^-10).
    """
    rng = random.Random(f"transition:{seed}")
    reqs = []
    for kind in ("constant", "separable", "tabulated"):
        kcfg, kphys = _default_kernel(kind, rng)
        reqs.append(Request(f"ratio-{kind}", ["ratio"], kcfg,
                            physics={**_physics(), **kphys}))
    kcfg, kphys = _default_kernel("constant", rng)
    reqs.append(Request("hc-constant", ["hc", "--t-points", "33"], kcfg,
                        physics={**_physics(), **kphys}))
    rng.shuffle(reqs)
    return reqs


def curves(seed: int) -> list:
    """Thermodynamic curves far from T_c plus the contraction diagnostics.

    `thermo` solves at 33 temperatures evenly spaced on [0, tau_2]; Picard
    slows like 1 / |T - T_c|, so a kernel is redrawn until its T_c lies
    0.4 to 0.6 grid steps above a grid temperature.  Otherwise one request in
    a few would cost twice as much, depending only on the seed.
    """
    rng = random.Random(f"curves:{seed}")
    tau2 = oracles.tau_of_coupling(DEFAULT_U2, DEFAULT_EPS, DEFAULT_OM)
    step = tau2 / 32
    reqs = []
    for kind in ("constant", "separable", "tabulated"):
        while True:
            kcfg, kphys = _default_kernel(kind, rng)
            phys = {**_physics(), **kphys}
            offset = oracles.tc_continuum(phys) / step % 1.0
            if 0.4 <= offset <= 0.6:
                break
        reqs.append(Request(f"thermo-{kind}", ["thermo", "--t-points", "33"], kcfg,
                            physics=phys))
    kcfg, kphys = _default_kernel("constant", rng)
    tau1 = oracles.tau_of_coupling(DEFAULT_U1, DEFAULT_EPS, DEFAULT_OM)
    tau = rng.uniform(0.5, 0.9) * tau1
    reqs.append(Request("diagnose-constant", ["diagnose", "--tau", _fmt(tau)], kcfg,
                        physics={**_physics(), **kphys, "tau": tau}))
    rng.shuffle(reqs)
    return reqs


# Cells of one config_stream list: (subcommand, kernel, energy points,
# t_points or an explicit README-documented `auto` tolerance).  41 requests,
# so one pass has a p75 with 10 requests beyond it.  `tc` gets three draws per
# (kernel, grid) cell and `gap` one, so both the median and the tail rank fall
# inside the dense `tc` cluster instead of on the gap between the `gap` and
# `tc` latency clusters, where the seed would decide which side they land on.
_STREAM_CELLS = (
    3 * [("tc", k, n, None) for k in ("constant", "separable", "tabulated")
         for n in (65, 129, 257)]
    + [("gap", k, n, None) for k in ("constant", "separable", "tabulated")
       for n in (65, 129, 257)]
    + [("simple-gap", "constant", 129, tp) for tp in (17, 33, 65)]
    + [("tc", "constant", 65, "auto:t_tol"),
       ("simple-gap", "separable", 65, "auto:solver_tol")]
)

AUTO_DEFECT = ("tolerances.*_tol = auto is documented in the README but "
               "load_config calls float('auto'): ValueError traceback, exit 1")


def config_stream(seed: int) -> list:
    """Many short requests, each on its own config drawn from the README key space.

    Every documented key is drawn, but the ranges stay near the defaults
    (tolerances within a factor of about 3) so that the cost of a cell, and
    with it the latency percentiles, barely depends on the seed.
    """
    rng = random.Random(f"config_stream:{seed}")
    reqs = []
    for i, (cmd, kind, n, extra) in enumerate(_STREAM_CELLS):
        eps = rng.uniform(7e-4, 1.4e-3)
        om = rng.uniform(0.9, 1.1)
        u1 = rng.uniform(0.235, 0.265)
        u2 = rng.uniform(0.335, 0.365)
        cfg = {"epsilon": _fmt(eps), "u1": _fmt(u1), "u2": _fmt(u2)}
        if om != DEFAULT_OM:
            cfg["hbar_omega_d"] = _fmt(om)
        mu = 20.0
        if rng.random() < 0.5:
            mu = rng.uniform(10.0, 40.0)
            cfg["mu"] = _fmt(mu)
        n0 = 1.0
        if rng.random() < 0.5:
            n0 = rng.uniform(0.5, 2.0)
            cfg["n0"] = _fmt(n0)
        dos = rng.choice(["sqrt_band", "flat_shell"])
        cfg["dos.type"] = dos
        # level within 0.15 (u2 - u1) of the middle, shape within another 0.15
        kcfg, kphys = _kernel(kind, rng, eps, om, 0.5 * (u1 + u2), 0.15 * (u2 - u1),
                              0.15 * (u2 - u1), explicit_nodes=rng.random() < 0.5)
        cfg.update(kcfg)
        cfg["grids.energy_points"] = str(n)
        t_points = 33
        if isinstance(extra, int):
            t_points = extra
            cfg["grids.t_points"] = str(t_points)
        quad_tol = 1e-10
        if rng.random() < 0.5:
            quad_tol = rng.choice([3e-11, 1e-10, 3e-10])
            cfg["tolerances.quad_tol"] = _fmt(quad_tol)
        solver_tol = t_tol = None
        if rng.random() < 0.3:
            solver_tol = rng.uniform(5e-12, 2e-11)
            cfg["tolerances.solver_tol"] = _fmt(solver_tol)
        if rng.random() < 0.3:
            t_tol = rng.uniform(4e-10, 8e-10)
            cfg["tolerances.t_tol"] = _fmt(t_tol)
        defect = None
        if isinstance(extra, str):
            cfg[f"tolerances.{extra.split(':')[1]}"] = "auto"
            defect = AUTO_DEFECT
        phys = {**_physics(eps, om, mu, n0, u1, u2, dos, n, t_points, quad_tol,
                           solver_tol, t_tol), **kphys}
        if cmd == "tc":
            argv = ["tc"]
        elif cmd == "gap":
            tau1 = oracles.tau_of_coupling(u1, eps, om)
            t = rng.uniform(0.05, 0.9) * tau1
            phys["t"] = t
            argv = ["gap", "--t", _fmt(t)]
        else:
            coupling = rng.choice(["u1", "u2"])
            phys["coupling"] = coupling
            argv = ["simple-gap", "--coupling", coupling]
        reqs.append(Request(f"{cmd}-{kind}-{n}-{i}", argv, cfg, physics=phys,
                            known_defect=defect))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"transition": transition, "curves": curves, "config_stream": config_stream}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
