"""The benchmark's span tracer still finds everything it patches in bcsgap.

bench/tracing.py wraps bcsgap functions by module and attribute name and
classifies kernels by type, so a renamed function or kernel property would
only surface as a failed traced benchmark run.
"""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from bcsgap import (ConstantPotential, PhysicalParams, SeparablePotential,
                    TabulatedPotential, cli, validate_params)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
P = validate_params(PhysicalParams(1e-3, 1.0, 20.0, 1.0, 0.25, 0.35))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, attr):
    owner = importlib.import_module(f"bcsgap.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_targets_resolve_and_restore():
    tracing = _load_tracing()
    originals = {(m, a): _resolve(m, a) for m, a, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (m, a), fn in originals.items():
            assert getattr(_resolve(m, a), "__wrapped__", None) is fn, f"{m}.{a}"
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert _resolve(m, a) is fn, f"{m}.{a}"


def test_tracer_classifies_every_kernel_type():
    tracing = _load_tracing()
    nodes = np.linspace(P.epsilon, P.hbar_omega_d, 5)
    kernels = {
        "constant": ConstantPotential(0.3, P),
        "separable": SeparablePotential(nodes, np.full(5, np.sqrt(0.3)), P),
        "tabulated": TabulatedPotential(nodes, np.full((5, 5), 0.3), P),
    }
    for name, kernel in kernels.items():
        assert tracing._kernel_type(kernel) == name


def test_tracer_names_find_tc_spans_by_kernel_type(tmp_path):
    # the tracer reads the kernel from find_Tc's first argument
    tracing = _load_tracing()
    kernels = {
        "constant": "potential.type = constant\npotential.u0 = 0.3\n",
        "separable": "potential.type = separable\n"
                     "potential.f_values = 0.52, 0.547, 0.57, 0.55, 0.53\n",
        "tabulated": "potential.type = tabulated\n"
                     "potential.nodes = 0.001, 0.5, 1.0\n"
                     "potential.values = 0.28,0.29,0.30, 0.29,0.31,0.32, "
                     "0.30,0.32,0.33\n",
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, text in kernels.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + "grids.energy_points = 33\n")
            assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                             "--quiet", "tc"]) == 0
    finally:
        tracer.uninstall()
    for name in kernels:
        assert f"gap_solver.find_Tc.{name}" in tracer.names


def test_tracer_wraps_and_restores_modules_loaded_during_install(tmp_path):
    # a fresh interpreter, as in a benchmark request: importing the CLI leaves
    # thermo unexecuted, and install() loads it before wrapping anything
    cfg = tmp_path / "c.cfg"
    cfg.write_text("potential.u0 = 0.3\ngrids.energy_points = 33\n")
    script = f"""
import importlib.util, sys, types
import bcsgap.cli as cli
assert type(sys.modules["bcsgap.thermo"]) is not types.ModuleType
spec = importlib.util.spec_from_file_location("bench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

def resolve(module, attr):
    owner = sys.modules["bcsgap." + module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner

tracer = tracing.Tracer()
tracer.install()
originals = {{(m, a): resolve(m, a).__wrapped__ for m, a, _ in tracing.TARGETS}}
top = {{a for _, a, _ in tracing.TARGETS if "." not in a}}
mods = {{k: v for k, v in sys.modules.items() if k.startswith("bcsgap.")}}
held = {{(k, a): getattr(m, a).__wrapped__ for k, m in mods.items() for a in top
         if hasattr(getattr(m, a, None), "__wrapped__")}}
assert cli.main(["--quiet", "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r},
                 "ratio"]) == 0
tracer.uninstall()
spans = {{tracer.names[i] for i in tracer.name}}
assert {{"thermo.extract_v", "gap_solver.find_Tc.constant"}} <= spans, spans
for (m, a), fn in originals.items():
    assert resolve(m, a) is fn, (m, a)
for (k, a), fn in held.items():
    assert getattr(mods[k], a) is fn, (k, a)
print(" ".join(sorted({{k for k, _ in held}})))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {"bcsgap.thermo", "bcsgap.critical_field"} <= set(proc.stdout.split())
