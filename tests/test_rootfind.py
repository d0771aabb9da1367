import math

import numpy as np
import pytest

from bcsgap.errors import NumericalError
from bcsgap.rootfind import solve_bracketed


def test_cosine_root():
    r = solve_bracketed(math.cos, 0.0, 2.0)
    assert r == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_hard_flat_function():
    f = lambda x: x ** 9
    r = solve_bracketed(f, -1.0, 1.1, atol=1e-13)
    assert abs(r) < 1e-9


def test_endpoint_roots_returned():
    assert solve_bracketed(lambda x: x, 0.0, 1.0) == 0.0
    assert solve_bracketed(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_invalid_bracket_raises():
    with pytest.raises(NumericalError, match="bracket"):
        solve_bracketed(lambda x: 1.0 + x * x, 0.0, 1.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_returns_the_end_with_the_sign_of_f_hi(sign):
    # a step has no zero, so the answer must be the end on hi's side of it
    c = 1.0 / 3.0
    r = solve_bracketed(lambda x: sign * (1.0 if x > c else -1.0), 0.0, 1.0)
    assert c < r <= c + 4e-16

    def f(x):
        return sign * (x * x - 2.0)
    r = solve_bracketed(f, 0.0, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert f(r) * f(2.0) > 0


def test_transcendental_against_numpy_refine():
    f = lambda z: 2.0 / z - np.tanh(z)
    r = solve_bracketed(f, 1.0, 3.0)
    assert abs(f(r)) < 1e-14
