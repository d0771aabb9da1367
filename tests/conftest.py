import os
from pathlib import Path

import numpy as np
import pytest

import bcsgap
from bcsgap import NumericalError, SolverOpts, delta_at_zero
from bcsgap.gap_solver import GapSlice, _gap_terms

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # a fixed example sequence keeps the suite's outcome the same on every run
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Let child processes import the bcsgap under test.

    pytest's `pythonpath` setting reaches only the pytest process, so the
    directory holding the imported package goes first on PYTHONPATH; the
    CLI subprocess tests then run without an installed package.
    """
    root = str(Path(bcsgap.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def picard():
    """The paper's plain iteration c -> Gw^T phi_T(Ft c), as a reference.

    picard(t, disc, opts=None, seed=None, max_iter=400_000) iterates the
    package's own operator at 0 <= t < T_c from the image of the constant
    level seed (default Delta_2(0)), at most max_iter times, and returns the
    converged GapSlice and the residual of every iterate.  With measured
    residual ratio q (the largest of the last five) the distance to the
    fixed point is about residual * q / (1 - q); the iteration stops only
    when that estimate is inside half the tolerance, so a slow contraction
    cannot stop on a deceptively small residual.  A
    residual inside tol that stops falling is at the roundoff floor, where
    ratios measure noise, not the contraction: from there no ratio is kept.
    """
    def iterate(t, disc, opts=None, seed=None, max_iter=400_000):
        opts = opts or SolverOpts()
        d20 = delta_at_zero(disc.kernel.params.u2, disc.kernel.params)
        tol = opts.resolved_tol(d20)
        level = d20 if seed is None else float(seed)
        c = disc.Gw.T @ _gap_terms(disc, np.full_like(disc.qn, level), t)[0]
        history, ratios, res_prev, at_floor = [], [], np.inf, False
        for it in range(1, max_iter + 1):
            g = disc.Gw.T @ _gap_terms(disc, disc.Ft @ c, t)[0]
            res = float(np.abs(disc.F @ (c - g)).max())
            history.append(res)
            at_floor = at_floor or res_prev <= res <= tol
            if res_prev > 0 and np.isfinite(res_prev) and not at_floor:
                ratios = (ratios + [res / res_prev])[-5:]
            res_prev = res
            q = max(ratios) if ratios else 0.0
            if res <= tol and q < 1.0 and res * q / (1.0 - q) <= 0.5 * tol:
                return GapSlice(t, g, it, res), history
            c = g
        raise NumericalError(f"Picard budget exhausted at T={t:g} (residual {res:g})")

    return iterate


@pytest.fixture
def bilinear():
    """Four-corner bilinear table lookup, clamped at the table edges.

    A reference written out independently of the library's hat basis.
    """
    def cell(nodes, q):
        i = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
        w = (np.clip(q, nodes[0], nodes[-1]) - nodes[i]) / (nodes[i + 1] - nodes[i])
        return i, w

    def lookup(nodes, values, x, xi):
        x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
        i, s = cell(nodes, x)
        j, t = cell(nodes, xi)
        v = values
        return ((1 - s) * (1 - t) * v[i, j] + s * (1 - t) * v[i + 1, j]
                + (1 - s) * t * v[i, j + 1] + s * t * v[i + 1, j + 1])

    return lookup
