"""Cutoff BCS-Bogoliubov gap equation and superconducting thermodynamics."""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError
from .model import (ConstantPotential, DosModel, FlatShellDos, PhysicalParams,
                    PotentialSpec, SeparablePotential, SqrtBandDos,
                    TabulatedPotential, eval_dos, validate_params)
from .quadrature import QuadResult, integrate, integrate_tail
from .simple_gap import (SimpleGapCurve, build_simple_gap_curve, delta_at_zero,
                         gap_rhs, solve_simple_gap, solve_tau, solve_tau0,
                         solve_z0, tau3)
from .gap_solver import (ContractionReport, Discretization, EnergyGrid,
                         GapSlice, GapSurface, SolverOpts, build_grid,
                         contraction_diagnostics, du_dT_at_fixed_point,
                         find_Tc, solve_at_T, sweep)
from .thermo import (ThermoCurve, VFunction, build_thermo_curve, condensation,
                     cv_normal, extract_v, g_weight, omega_normal, psi,
                     universal_constant)
from .critical_field import (HcCurve, LinearLawReport, build_hc_curve, hc,
                             hc_slope, linear_law_check, slope_at_tc)
from .config import RunConfig, load_config

__all__ = [
    "__version__",
    "ConfigError", "NumericalError",
    "PhysicalParams", "validate_params", "PotentialSpec", "ConstantPotential",
    "SeparablePotential", "TabulatedPotential",
    "DosModel", "FlatShellDos", "SqrtBandDos", "eval_dos",
    "QuadResult", "integrate", "integrate_tail",
    "SimpleGapCurve", "build_simple_gap_curve", "delta_at_zero", "gap_rhs",
    "solve_simple_gap", "solve_tau", "solve_tau0", "solve_z0", "tau3",
    "Discretization", "EnergyGrid", "GapSlice", "GapSurface",
    "ContractionReport", "SolverOpts",
    "build_grid", "contraction_diagnostics",
    "du_dT_at_fixed_point", "find_Tc", "solve_at_T", "sweep",
    "ThermoCurve", "VFunction", "build_thermo_curve", "condensation",
    "cv_normal", "extract_v", "g_weight", "omega_normal", "psi",
    "universal_constant",
    "HcCurve", "LinearLawReport", "build_hc_curve", "hc", "hc_slope",
    "linear_law_check", "slope_at_tc",
    "RunConfig", "load_config",
]
