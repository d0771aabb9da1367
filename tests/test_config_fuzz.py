"""Property test: every key = value file loads or raises ConfigError."""
import math

import numpy as np
import pytest

from bcsgap import ConfigError, RunConfig, load_config
from bcsgap.config import KNOWN_KEYS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-4, 1.0).map(repr),
    st.integers(-10, 300).map(str),
)
_VALUE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, max_size=5).map(", ".join),
    st.sampled_from(["auto", "constant", "separable", "tabulated",
                     "flat_shell", "sqrt_band", "", ",", "1e999", "-0"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
# a file that loads, with up to three keys set to fuzzed values
_BASE = st.sampled_from([
    {"potential.type": "constant"},
    {"potential.type": "separable", "potential.f_values": "0.55, 0.56"},
    {"potential.type": "tabulated", "potential.nodes": "0.1, 0.9",
     "potential.values": "0.3, 0.3, 0.3, 0.3"},
])
_FILE = st.tuples(
    _BASE, st.dictionaries(st.sampled_from(sorted(KNOWN_KEYS)), _VALUE, max_size=3),
).map(lambda t: {**t[0], **t[1]})


def eval_kernel(spec, x, xi):
    """U(x, xi) from the kernel's factors, broadcast over x and xi."""
    x, xi = np.broadcast_arrays(np.asarray(x, float), np.asarray(xi, float))
    f, g = spec.factors(x.ravel(), xi.ravel())
    out = np.sum(f * g, axis=1).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


@hypothesis.settings(max_examples=300)
@hypothesis.given(items=_FILE)
def test_load_config_ends_in_run_config_or_config_error(tmp_path_factory, items):
    path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()),
                    encoding="utf-8")
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert all(math.isfinite(getattr(cfg.params, name))
               for name in cfg.params._fields)
    lo, hi = cfg.params.epsilon, cfg.params.hbar_omega_d
    x = np.linspace(lo, hi, 5)
    assert np.all(np.isfinite(eval_kernel(cfg.potential, x[:, None], x[None, :])))
    assert 0.0 < cfg.resolved["tolerances.quad_tol"] < math.inf
    for tol in (cfg.opts.tol, cfg.opts.t_tol):
        assert tol is None or 0.0 < tol < math.inf
