import os
from pathlib import Path

import numpy as np
import pytest

import bcsgap

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
