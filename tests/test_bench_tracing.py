"""The benchmark's span tracer still finds everything it patches in bcsgap.

bench/tracing.py wraps bcsgap functions by module and attribute name and
classifies kernels by type, so a renamed function or kernel property would
only surface as a failed traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from bcsgap import (ConstantPotential, PhysicalParams, SeparablePotential,
                    TabulatedPotential, validate_params)

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
