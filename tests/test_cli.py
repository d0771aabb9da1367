import gc
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap import (ConfigError, Discretization, SolverOpts, build_grid, cli,
                    load_config, solve_at_T, solve_tau, sweep)
import bcsgap.gap_solver as gap_solver
import bcsgap.thermo as thermo
from bcsgap.interpolate import MonotoneCubic
from bcsgap.thermo import HC_SLOPE_RATIO_WIDE_SHELL, JUMP_RATIO_WIDE_SHELL


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "bcsgap", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


FAST_CFG = (
    "potential.type = constant\n"
    "potential.u0 = 0.3\n"
    "grids.energy_points = 49\n"
    "grids.t_points = 9\n"
)
TABULATED_CFG = (
    "potential.type = tabulated\n"
    "potential.nodes = 0.001, 0.5, 1.0\n"
    "potential.values = 0.28,0.29,0.30, 0.29,0.31,0.32, 0.30,0.32,0.33\n"
    "grids.energy_points = 33\ngrids.t_points = 9\n"
)
SEPARABLE_CFG = (
    "potential.type = separable\n"
    "potential.f_values = 0.52, 0.547, 0.57, 0.55, 0.53\n"
    "grids.energy_points = 33\ngrids.t_points = 9\n"
)


def test_load_config_minimal_defaults(tmp_path):
    cfg = load_config(write(tmp_path / "c.cfg",
                            "potential.type = constant\npotential.u0 = 0.3\n"))
    assert cfg.params.epsilon == pytest.approx(1e-3)
    assert "epsilon" in cfg.defaults_applied
    assert cfg.defaults_applied["epsilon"] == pytest.approx(1e-3)
    assert cfg.resolved["dos.type"] == "sqrt_band"
    assert cfg.energy_points == 129 and cfg.t_points == 33


def test_load_config_none_is_all_defaults():
    cfg = load_config(None)
    assert cfg.resolved["potential.type"] == "constant"
    assert cfg.params.u1 == 0.25 and cfg.params.u2 == 0.35


def test_load_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(write(tmp_path / "c.cfg", "coupling_storng = 1\n"))


def test_load_config_rejects_u0_outside_bounds(tmp_path):
    with pytest.raises(ConfigError, match="strictly between"):
        load_config(write(tmp_path / "c.cfg",
                          "potential.type = constant\npotential.u0 = 0.4\n"))


def test_load_config_rejects_small_grids(tmp_path):
    with pytest.raises(ConfigError, match="at least 16"):
        load_config(write(tmp_path / "c.cfg", "grids.energy_points = 8\n"))
    with pytest.raises(ConfigError, match="at least 8"):
        load_config(write(tmp_path / "c.cfg", "grids.t_points = 4\n"))
    with pytest.raises(ConfigError, match="at most 100000"):
        load_config(write(tmp_path / "c.cfg", "grids.t_points = 100000000000\n"))


def test_load_config_bounds_energy_grids_before_any_allocation(tmp_path, capsys):
    # a billion nodes would be 4 GB of geomspace before any solve; the bound
    # is checked at load, where nothing has been allocated
    cfg = write(tmp_path / "c.cfg", "grids.energy_points = 1000000000\n")
    with pytest.raises(ConfigError, match="at most 100000"):
        load_config(cfg)
    assert load_config(write(tmp_path / "m.cfg", "grids.energy_points = 100000\n")
                       ).energy_points == 100_000
    assert cli.main(["--config", cfg, "--out", str(tmp_path), "tc"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: grids.energy_points")


def test_load_config_separable_and_tabulated(tmp_path):
    cfg = load_config(write(tmp_path / "s.cfg",
                            "potential.type = separable\n"
                            "potential.f_values = 0.52, 0.547, 0.57, 0.55, 0.53\n"))
    assert cfg.potential.is_separable
    cfg = load_config(write(tmp_path / "t.cfg",
                            "potential.type = tabulated\n"
                            "potential.nodes = 0.001, 0.5, 1.0\n"
                            "potential.values = 0.28,0.29,0.30, 0.29,0.31,0.32, 0.30,0.32,0.33\n"))
    assert not cfg.potential.is_constant


def test_load_config_auto_tolerances_are_defaults(tmp_path):
    cfg = load_config(write(tmp_path / "c.cfg",
                            "tolerances.solver_tol = auto\n"
                            "tolerances.t_tol = auto\n"))
    assert cfg.opts.tol is None and cfg.opts.t_tol is None
    assert cfg.resolved["tolerances.solver_tol"] == "auto"
    assert cfg.resolved["tolerances.t_tol"] == "auto"


def test_numeric_tolerances_reach_solver_and_record(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG + "tolerances.solver_tol = 3e-12\n"
                "tolerances.t_tol = 5e-10\n")
    assert load_config(cfg).opts == SolverOpts(3e-12, 5e-10)
    assert cli.main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                     "gap", "--t", "0.02"]) == 0
    meta = (tmp_path / "gap.csv.meta").read_text().splitlines()
    vals = dict(line.split(" = ") for line in meta)
    assert float(vals["derived.solver_tol"]) == 3e-12


@pytest.mark.parametrize("line", [
    "tolerances.solver_tol = abc",
    "tolerances.t_tol = 1e-8x",
    "potential.type = separable\npotential.f_values = 0.5, abc",
    "potential.type = separable\npotential.f_values = 0.3, 0.31\n"
    "potential.f_nodes = 0.001, one",
    "potential.type = tabulated\npotential.nodes = 0.001, 1.0\n"
    "potential.values = 0.3, 0.3, 0.3, x",
])
def test_load_config_rejects_unparseable_numbers(tmp_path, line):
    path = write(tmp_path / "c.cfg", line + "\n")
    with pytest.raises(ConfigError, match="invalid value"):
        load_config(path)
    cp = run_cli("--config", path, "universal")
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("line, args", [
    ("tolerances.quad_tol = 0", ("ratio",)),
    ("tolerances.solver_tol = -1", ("tc",)),
    ("tolerances.t_tol = nan", ("tc",)),
    ("tolerances.t_tol = inf", ("tc",)),
    # one ulp of Delta_2(0) at this config: below the floor of two
    ("tolerances.solver_tol = 1.3877787807814457e-17", ("sweep",)),
    ("tolerances.solver_tol = 1.2e-17", ("sweep",)),
])
def test_cli_rejects_bad_tolerances(tmp_path, line, args):
    # each once ended in a traceback, a hang or T_c = tau_2 with exit 0
    cfg = write(tmp_path / "c.cfg", FAST_CFG + line + "\n")
    cp = run_cli("--config", cfg, "--out", str(tmp_path), *args, timeout=60)
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert "tol" in cp.stderr


@pytest.mark.parametrize("line, args", [
    ("mu = inf", ("thermo", "--t-points", "9")),
    ("u2 = inf", ("tc",)),
    ("n0 = inf", ("thermo", "--t-points", "9")),
])
def test_cli_rejects_non_finite_physics(tmp_path, line, args):
    # each once loaded and then failed as a numerical error (exit 3)
    cfg = write(tmp_path / "c.cfg", FAST_CFG + line + "\n")
    cp = run_cli("--config", cfg, "--out", str(tmp_path), *args, timeout=60)
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert "finite" in cp.stderr


@pytest.mark.parametrize("args", [
    ("gap", "--t", "nan"),
    ("thermo", "--t-min", "nan"),
    ("gap", "--t", "inf"),
    ("sweep", "--t-points", "0"),
    ("simple-gap", "--coupling", "u1", "--t-points", "-3"),
    ("thermo", "--t-points", "2"),
    ("thermo", "--t-points", "100000000000"),
], ids="_".join)
def test_cli_rejects_bad_temperature_flags(tmp_path, args):
    # each once ended in a traceback, or exited 0 with T = inf or a nan C_V
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), *args, timeout=60)
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert f"argument {args[-2]}:" in cp.stderr


@pytest.mark.parametrize("args", [
    ("thermo", "--t-min", "0", "--t-max", "1e-320", "--t-points", "8"),
    ("thermo", "--t-min", "0", "--t-max", "3e-308", "--t-points", "8"),
    ("gap", "--t", "5e-324"),
    ("diagnose", "--tau", "5e-324"),
], ids="_".join)
def test_cli_rejects_subnormal_temperatures(tmp_path, args):
    # each once exited 0, with nan in dpsi_dT or after overflow warnings; in
    # the second only the grid step is subnormal
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), *args, timeout=60)
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr
    assert "configuration error: temperature" in cp.stderr


@pytest.mark.parametrize("args", [
    ("tc",), ("gap", "--t", "0.02"), ("ratio",), ("vfun",),
    ("thermo", "--t-points", "9"), ("hc", "--t-points", "9"),
    ("diagnose", "--tau", "0.02"),
], ids=lambda v: v[0])
def test_cli_rejects_cutoff_whose_grid_spacing_squares_to_zero(tmp_path, args):
    # at epsilon = 1e-300 the square of the first grid spacing underflowed to
    # 0 in the interpolant: a divide warning, then a Perron failure (exit 3)
    cfg = write(tmp_path / "c.cfg", FAST_CFG + "epsilon = 1e-300\n")
    cmd = [sys.executable, "-W", "error", "-m", "bcsgap", "--config", cfg,
           "--out", str(tmp_path), *args]
    cp = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert cp.returncode == 2
    assert cp.stderr.startswith("configuration error:")
    assert "epsilon" in cp.stderr and "Traceback" not in cp.stderr


GRID_SUBCOMMANDS = [("tc",), ("gap", "--t", "0.02"), ("sweep",), ("thermo",),
                    ("ratio",), ("vfun",), ("hc",), ("diagnose", "--tau", "1e100")]


@pytest.mark.parametrize("args", GRID_SUBCOMMANDS, ids=lambda v: v[0])
def test_cli_rejects_energy_scale_whose_cube_overflows(tmp_path, capsys, args):
    # at hbar_omega_d = 1e110 every check on the parameters holds, but the
    # cube of the largest grid node is inf: ratio, vfun and hc raised
    # OverflowError at tc ** 3 (exit 1), and sweep and thermo ran out of Newton
    # steps with dphi/du at 0 (exit 3)
    cfg = write(tmp_path / "c.cfg",
                FAST_CFG + "hbar_omega_d = 1e110\nepsilon = 1e107\nmu = 2e111\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", cfg, "--out", str(tmp_path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "hbar_omega_d" in err


@pytest.mark.parametrize("args", [*GRID_SUBCOMMANDS, ("simple-gap", "--coupling", "u1"),
                                  ("universal",)], ids=lambda v: v[0])
def test_cli_runs_at_energy_scale_below_the_cube_limit(tmp_path, capsys, args):
    # 5e102 cubes to 1.25e308, inside the doubles: every subcommand runs,
    # with no warning
    cfg = write(tmp_path / "c.cfg",
                FAST_CFG + "hbar_omega_d = 5e102\nepsilon = 5e99\nmu = 1e104\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", cfg, "--out", str(tmp_path), "--quiet", *args]) == 0
    assert capsys.readouterr().err == ""


# registered before bcsgap.cli is imported, so atexit (last in, first out)
# runs it after the CLI's own exit hook
EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('freeze_count', gc.get_freeze_count()))\n"
    "import bcsgap.cli as cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def run_exit_probe(*args: str) -> tuple[subprocess.CompletedProcess, list, int]:
    """Run the CLI in a fresh interpreter with block-buffered stdout; returns
    the process, its stdout lines before the probe's, and the freeze count."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    cp = subprocess.run([sys.executable, "-c", EXIT_PROBE, *args],
                        capture_output=True, text=True, env=env, timeout=60)
    *lines, probe = cp.stdout.splitlines()
    name, count = probe.split()
    assert name == "freeze_count"
    return cp, lines, int(count)


def test_cli_process_freezes_heap_at_exit(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp, lines, frozen = run_exit_probe("--config", cfg,
                                       "--out", str(tmp_path / "child"), "tc")
    assert cp.returncode == 0, cp.stderr
    assert frozen > 0
    # in process the caller keeps collecting: main itself freezes nothing
    before = gc.get_freeze_count()
    assert cli.main(["--config", cfg, "--out", str(tmp_path / "here"),
                     "--quiet", "tc"]) == 0
    assert gc.get_freeze_count() == before
    meta = (tmp_path / "here" / "tc.meta").read_text()
    assert (tmp_path / "child" / "tc.meta").read_text() == meta
    assert len(lines) == 1 and f"Tc = {lines[0]}" in meta.splitlines()


def test_cli_process_freezes_heap_after_config_error(tmp_path):
    bad = write(tmp_path / "bad.cfg", "not_a_key = 3\n")
    cp, lines, frozen = run_exit_probe("--config", bad, "tc")
    assert cp.returncode == 2
    assert frozen > 0 and lines == []
    assert cp.stderr.startswith("configuration error:")


@pytest.mark.parametrize("args", [
    ("--tol", "1e-9", "tc"),
    ("simple-gap", "--coupling", "u1", "--csv", "x.csv"),
])
def test_cli_removed_flags_are_usage_errors(tmp_path, args):
    # --tol changed no result and --out already places simple_gap.csv
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), *args, timeout=60)
    assert cp.returncode == 2
    assert "Traceback" not in cp.stderr


def test_cli_universal_reports_difference(tmp_path):
    cp = run_cli("--out", str(tmp_path), "universal")
    assert cp.returncode == 0, cp.stderr
    value, rest = cp.stdout.split(None, 1)
    assert float(value) == pytest.approx(JUMP_RATIO_WIDE_SHELL, abs=1e-6)
    assert float(rest.rsplit("=", 1)[1]) < 1e-6


def test_cli_exit_codes(tmp_path):
    bad = write(tmp_path / "bad.cfg", "not_a_key = 3\n")
    assert run_cli("--config", bad, "universal").returncode == 2
    weak = write(tmp_path / "weak.cfg",
                 "u1 = 0.05\nu2 = 0.06\npotential.u0 = 0.055\n"
                 "epsilon = 0.2\ngrids.energy_points = 33\n")
    cp = run_cli("--config", weak, "--out", str(tmp_path), "tc")
    assert cp.returncode == 3
    assert "no transition" in cp.stderr


def test_cli_simple_gap_csv(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet",
                 "simple-gap", "--coupling", "u1", "--t-points", "9")
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "simple_gap.csv").read_text().splitlines()
    assert lines[0] == "T,delta,residual"
    assert len(lines) == 10
    meta = (tmp_path / "simple_gap.csv.meta").read_text()
    assert "derived.tau3" in meta and "config.epsilon" in meta
    assert "derived.solver_tol" in meta


def test_cli_sweep_deterministic(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        cp = run_cli("--config", cfg, "--out", str(out), "--quiet",
                     "sweep", "--t-points", "9")
        assert cp.returncode == 0, cp.stderr
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert header == "T,x,u,residual,iterations"


def test_cli_gap_and_tc(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "gap", "--t", "0.02")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "gap.csv").read_text().splitlines()[0] == "x,u"
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "tc")
    assert cp.returncode == 0, cp.stderr
    tc = float(cp.stdout.strip())
    assert 0.02 < tc < 0.065


@pytest.mark.parametrize("text", [
    "potential.type = separable\n"
    "potential.f_values = 0.52, 0.547, 0.57, 0.55, 0.53\ngrids.energy_points = 33\n",
    TABULATED_CFG], ids=["separable", "tabulated"])
def test_cli_record_reproduces_the_gap_it_echoes(tmp_path, text):
    # the config.* lines of a record, stripped of "config.", are a config file
    # that solves the same kernel: gap.csv comes back byte for byte
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["--config", write(tmp_path / "c.cfg", text), "--out", str(first),
                     "--quiet", "gap", "--t", "0.02"]) == 0
    echoed = [line[len("config."):] for line in
              (first / "gap.csv.meta").read_text().splitlines() if line.startswith("config.")]
    assert cli.main(["--config", write(tmp_path / "echo.cfg", "\n".join(echoed) + "\n"),
                     "--out", str(again), "--quiet", "gap", "--t", "0.02"]) == 0
    assert (again / "gap.csv").read_bytes() == (first / "gap.csv").read_bytes()


def test_cli_temperatures_below_underflow_are_zero_temperature(tmp_path):
    # T^2 and 1/T^2 * sech^2 once underflowed: a ZeroDivisionError traceback
    # from thermo, and RuntimeWarnings from gap
    cfg = write(tmp_path / "c.cfg", FAST_CFG)

    def run(out, *args):
        cmd = [sys.executable, "-W", "error", "-m", "bcsgap", "--quiet",
               "--config", cfg, "--out", str(tmp_path / out), *args]
        cp = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert cp.returncode == 0 and cp.stderr == "", cp.stderr
        return np.loadtxt(tmp_path / out / f"{args[0]}.csv", delimiter=",",
                          skiprows=1)

    rows = run("thermo", "thermo", "--t-min", "0", "--t-max", "1e-300")
    assert np.all(rows[:, 1:] == rows[0, 1:])
    assert np.array_equal(run("tiny", "gap", "--t", "1e-300"),
                          run("zero", "gap", "--t", "0"))


def test_cli_diagnose_report(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet",
                 "diagnose", "--tau", "0.035")
    assert cp.returncode == 0, cp.stderr
    text = (tmp_path / "diagnose.txt").read_text()
    for key in ("a = ", "b = ", "gamma = ", "alpha = ", "alpha_feasible"):
        assert key in text


def test_cli_thermo_and_ratio(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet",
                 "thermo", "--t-points", "9")
    assert cp.returncode == 0, cp.stderr
    header = (tmp_path / "thermo.csv").read_text().splitlines()[0]
    assert header == "T,omega_n,psi,dpsi_dT,cv_normal,cv_super"

    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet", "ratio")
    assert cp.returncode == 0, cp.stderr
    text = (tmp_path / "ratio.txt").read_text()
    vals = dict(line.split(" = ") for line in text.splitlines())
    ratio = float(vals["ratio"])
    # at the default cutoff the band is documented as 2 percent
    assert abs(ratio - JUMP_RATIO_WIDE_SHELL) <= 0.02 * JUMP_RATIO_WIDE_SHELL
    assert float(vals["ratio_minus_universal"]) == pytest.approx(
        ratio - float(vals["universal_constant"]), abs=1e-15)


def test_cli_vfun_and_hc(tmp_path):
    cfg = write(tmp_path / "c.cfg", FAST_CFG)
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet", "vfun")
    assert cp.returncode == 0, cp.stderr
    lines = (tmp_path / "vfun.csv").read_text().splitlines()
    assert lines[0] == "x,v,fit_residual"
    v = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(v > 0)

    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet",
                 "hc", "--t-points", "9")
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "hc.csv").read_text().splitlines()[0] == "T,hc,dhc_dT"
    meta = (tmp_path / "hc.csv.meta").read_text().splitlines()
    vals = dict(line.split(" = ") for line in meta)
    for key in ("hc0", "slope_at_Tc", "coeff_over_hc0", "coeff_over_hc0_minus_limit"):
        assert np.isfinite(float(vals[key])), key


@pytest.mark.parametrize("text", [SEPARABLE_CFG, TABULATED_CFG],
                         ids=["separable", "tabulated"])
def test_cli_hc_records_slope_ratio_for_every_kernel(tmp_path, text):
    assert cli.main(["--config", write(tmp_path / "c.cfg", text), "--out",
                     str(tmp_path), "--quiet", "hc"]) == 0
    meta = (tmp_path / "hc.csv.meta").read_text().splitlines()
    vals = dict(line.split(" = ") for line in meta)
    assert float(vals["coeff_over_hc0_minus_limit"]) == pytest.approx(
        float(vals["coeff_over_hc0"]) - HC_SLOPE_RATIO_WIDE_SHELL, abs=1e-15)


def test_cli_hc_rows_are_distinct_temperatures(tmp_path):
    # T_c(1 - 2^-3) = 21/24 T_c of the user grid up to a rounding error: the
    # ladder point once became a second row one ulp away from the grid point
    cfg = write(tmp_path / "c.cfg", "potential.u0 = 0.32\n")
    cp = run_cli("--config", cfg, "--out", str(tmp_path), "--quiet",
                 "hc", "--t-points", "25")
    assert cp.returncode == 0, cp.stderr
    rows = np.loadtxt(tmp_path / "hc.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 32
    assert np.all(np.diff(rows[:, 1]) < 0.0)


def test_cli_requests_load_no_lazy_modules(tmp_path):
    # every subcommand in one fresh interpreter: no record generates code at
    # import (dataclasses), and no request reaches numpy.ma (np.unique) or
    # numpy.polynomial (polyfit), which NumPy imports only on first use.  No
    # request calls LAPACK (its general eigensolver, SVD, QR, LU solve or
    # inverse) or NumPy's sort kernels either; the tabulated config gives
    # them r-by-r matrices with r > 1 to work on
    cfgs = [write(tmp_path / "c.cfg", FAST_CFG),
            write(tmp_path / "t.cfg", TABULATED_CFG)]
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import bcsgap.cli as cli\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('LAPACK eigensolver, SVD, QR, solve or inv, "
        "or np.sort called')\n"
        "np.linalg.eig = np.linalg.eigvals = np.linalg.lstsq = refuse\n"
        "np.linalg.qr = np.linalg.solve = np.linalg.inv = np.sort = refuse\n"
        f"for cfg in {cfgs!r}:\n"
        f"    base = ['--quiet', '--config', cfg, '--out', {str(tmp_path)!r}]\n"
        "    for argv in (['tc'], ['gap', '--t', '0.02'],\n"
        "                 ['simple-gap', '--coupling', 'u1'], ['sweep'], ['thermo'],\n"
        "                 ['ratio'], ['vfun'], ['hc'], ['diagnose', '--tau', '0.02']):\n"
        "        assert cli.main(base + argv) == 0, (cfg, argv)\n"
        "print(' '.join(m for m in ('dataclasses', 'numpy.ma', 'numpy.polynomial')\n"
        "               if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
    assert (tmp_path / "hc.csv").exists() and (tmp_path / "diagnose.txt").exists()


SUBCOMMAND_MODULES = [
    ("tc", [], "gap_solver"), ("gap", ["--t", "0.02"], "gap_solver"),
    ("simple-gap", ["--coupling", "u1"], ""), ("sweep", [], "gap_solver"),
    ("diagnose", ["--tau", "0.02"], "gap_solver"),
    ("thermo", [], "gap_solver thermo"), ("ratio", [], "gap_solver thermo"),
    ("vfun", [], "gap_solver thermo"), ("universal", [], "gap_solver thermo"),
    ("hc", [], "gap_solver thermo critical_field"),
]


@pytest.mark.parametrize("sub, extra, executed", SUBCOMMAND_MODULES,
                         ids=[case[0] for case in SUBCOMMAND_MODULES])
def test_cli_subcommand_executes_only_the_modules_it_runs(tmp_path, sub, extra,
                                                          executed):
    # one fresh interpreter per subcommand: the package registers every
    # submodule unexecuted, and type() reads a registered module without
    # executing it; it is a plain module only once its code has run
    cfgs = [write(tmp_path / "c.cfg", FAST_CFG),
            write(tmp_path / "t.cfg", TABULATED_CFG)]
    argv = [sub, *extra]
    script = (
        "import sys, types\n"
        "import bcsgap.cli as cli\n"
        f"for cfg in {cfgs!r}:\n"
        f"    base = ['--quiet', '--config', cfg, '--out', {str(tmp_path)!r}]\n"
        f"    assert cli.main(base + {argv!r}) == 0, cfg\n"
        "print(' '.join(m for m in ('gap_solver', 'thermo', 'critical_field')\n"
        "               if type(sys.modules['bcsgap.' + m]) is types.ModuleType))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == executed


def test_public_names_resolve_to_their_defining_module():
    assert bcsgap.__all__[0] == "__version__"
    assert set(bcsgap.__all__) <= set(dir(bcsgap))
    for name in bcsgap.__all__[1:]:
        obj = getattr(bcsgap, name)
        assert obj.__module__.startswith("bcsgap."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        bcsgap.no_such_name


@pytest.mark.parametrize("text", [FAST_CFG, TABULATED_CFG], ids=["constant", "tabulated"])
def test_cli_grid_columns_are_the_solvers_product(tmp_path, text):
    # %.17g round-trips every double: the x and u columns of gap.csv and of
    # each T-block of sweep.csv read back as the grid nodes and F @ coef of
    # the slices solve_at_T and sweep return on the same config, bit for bit
    path = write(tmp_path / "c.cfg", text)
    for argv in (["gap", "--t", "0.02"], ["sweep"], ["vfun"]):
        assert cli.main(["--quiet", "--config", path, "--out", str(tmp_path), *argv]) == 0
    cfg = load_config(path)
    disc = Discretization(cfg.potential, build_grid(cfg.params, cfg.energy_points))
    nodes, n = disc.grid.nodes, disc.grid.nodes.size

    def columns(name):
        head, *rows = (tmp_path / name).read_text().splitlines()
        cols = zip(*([float(v) for v in row.split(",")] for row in rows))
        return dict(zip(head.split(","), map(np.array, cols)))

    gap = columns("gap.csv")
    assert np.array_equal(gap["x"], nodes)
    assert np.array_equal(gap["u"], disc.F @ solve_at_T(0.02, disc, cfg.opts).coef)
    swept = columns("sweep.csv")
    slices = sweep(np.linspace(0.0, solve_tau(cfg.params.u2, cfg.params), cfg.t_points),
                   disc, cfg.opts)
    assert swept["T"].size == n * len(slices)
    for i, sl in enumerate(slices):
        block = slice(i * n, (i + 1) * n)
        assert np.all(swept["T"][block] == sl.T)
        assert np.array_equal(swept["x"][block], nodes)
        assert np.array_equal(swept["u"][block], disc.F @ sl.coef)
    assert np.array_equal(columns("vfun.csv")["x"], nodes)


def test_cli_hc_solves_each_temperature_once(tmp_path, monkeypatch):
    # v comes from the bifurcation at T_c, not from solves of its own, so the
    # sweep is the only caller and no temperature is solved twice
    seen = []
    solve = gap_solver.solve_at_T

    def recorded(t, *args, **kwargs):
        seen.append(t)
        return solve(t, *args, **kwargs)

    monkeypatch.setattr(gap_solver, "solve_at_T", recorded)
    monkeypatch.setattr(thermo, "solve_at_T", recorded, raising=False)
    cfg = write(tmp_path / "c.cfg", "potential.type = constant\n"
                "potential.u0 = 0.3\ngrids.energy_points = 33\n")
    assert cli.main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                     "hc", "--t-points", "9"]) == 0
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("args, most", [
    (("tc",), 1), (("gap", "--t", "0.02"), 1),
    (("sweep", "--t-points", "9"), 2), (("ratio",), 2), (("vfun",), 2),
    (("diagnose", "--tau", "0.035"), 2),
    (("thermo", "--t-points", "9"), 2), (("hc", "--t-points", "9"), 2),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_cli_builds_one_discretization_per_request(tmp_path, monkeypatch,
                                                   args, most):
    # the request's own discretization, plus the one find_Tc builds
    builds = []
    init = Discretization.__init__

    def counted(self, kernel, grid):
        builds.append(grid.nodes.size)
        init(self, kernel, grid)

    monkeypatch.setattr(Discretization, "__init__", counted)
    cfg = write(tmp_path / "c.cfg", "potential.type = constant\n"
                "potential.u0 = 0.3\ngrids.energy_points = 33\n")
    assert cli.main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                     *args]) == 0
    assert 1 <= len(builds) <= most


@pytest.mark.parametrize("text", [FAST_CFG, TABULATED_CFG],
                         ids=["constant", "tabulated"])
@pytest.mark.parametrize("args", [("ratio",), ("hc", "--t-points", "9")],
                         ids=lambda v: v[0])
def test_cli_builds_monotone_cubics_only_in_discretization(tmp_path, monkeypatch,
                                                           args, text):
    # the jump is integrated on v at the quadrature nodes, so the columns of
    # each Discretization's Ft, r per build, are the only monotone cubics
    depth, builds, ranks = [0], [], []
    disc_init, cubic_init = Discretization.__init__, MonotoneCubic.__init__

    def disc_counted(self, kernel, grid):
        depth[0] += 1
        try:
            disc_init(self, kernel, grid)
        finally:
            depth[0] -= 1
        ranks.append(self.F.shape[1])

    def cubic_counted(self, *a, **kw):
        builds.append(depth[0])
        cubic_init(self, *a, **kw)

    monkeypatch.setattr(Discretization, "__init__", disc_counted)
    monkeypatch.setattr(MonotoneCubic, "__init__", cubic_counted)
    cfg = write(tmp_path / "c.cfg", text)
    assert cli.main(["--config", cfg, "--out", str(tmp_path), "--quiet",
                     *args]) == 0
    assert ranks and builds == [1] * sum(ranks)
