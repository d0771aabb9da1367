"""Cutoff BCS-Bogoliubov gap equation and superconducting thermodynamics."""
import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names it defines, in __all__ order
_MODULES = {
    "errors": "ConfigError NumericalError",
    "model": "PhysicalParams validate_params PotentialSpec ConstantPotential "
             "SeparablePotential TabulatedPotential "
             "DosModel FlatShellDos SqrtBandDos eval_dos SolverOpts",
    "quadrature": "QuadResult integrate integrate_tail",
    "simple_gap": "SimpleGapCurve build_simple_gap_curve delta_at_zero gap_rhs "
                  "solve_simple_gap solve_tau solve_tau0 solve_z0 tau3",
    "gap_solver": "Discretization EnergyGrid GapSlice ContractionReport "
                  "build_grid contraction_diagnostics du_dT_at_fixed_point "
                  "find_Tc solve_at_T sweep",
    "thermo": "ThermoCurve VFunction build_thermo_curve condensation "
              "cv_normal extract_v g_weight omega_normal psi universal_constant",
    "critical_field": "HcCurve LinearLawReport build_hc_curve hc hc_slope "
                      "linear_law_check slope_at_tc",
    "config": "RunConfig load_config",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = ["__version__", *_HOME]

# each submodule runs on its first attribute access; cli, the entry point, is
# left to the import system so that `python -m bcsgap.cli` runs it only once
for _module in (*_MODULES, "interpolate", "rootfind", "special"):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*globals(), *_HOME]
