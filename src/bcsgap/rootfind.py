"""Bracketed scalar root finding: Illinois regula falsi with a bisection guard."""
from __future__ import annotations

from .errors import NumericalError

# relative width of the final bracket: two ulps of its larger end
_RTOL = 4e-16


def solve_bracketed(f, lo: float, hi: float, *, atol: float = 0.0) -> float:
    """Root of f in [lo, hi], lo < hi; f(lo) and f(hi) must have opposite signs.

    Each step takes the regula falsi point of the bracket, halving the f value
    kept at an end that survives twice in a row (Illinois); after three steps
    in a row that fail to halve the bracket, it bisects.  It stops once the
    bracket is at most 4e-16 * max(|a|, |b|) + atol wide, and returns the end
    of that bracket where f has the sign of f(hi) (or a point where f is
    exactly 0).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NumericalError("root bracket invalid: same sign at both ends")

    # b always has the sign of f(hi); kept is the end the last step kept.
    # Every step shrinks the bracket strictly, so the loop ends.
    a, b, fa, fb = lo, hi, flo, fhi
    kept, slow = None, 0
    while True:
        width = b - a
        if width <= _RTOL * max(abs(a), abs(b)) + atol:
            return b
        s = b - fb * (b - a) / (fb - fa)
        if slow >= 3 or not a < s < b:
            s = 0.5 * (a + b)
            if s in (a, b):
                return b  # a and b are adjacent doubles
        fs = f(s)
        if fs == 0.0:
            return s
        if (fs > 0) == (fb > 0):
            b, fb = s, fs
            if kept == "a":
                fa *= 0.5
            kept = "a"
        else:
            a, fa = s, fs
            if kept == "b":
                fb *= 0.5
            kept = "b"
        slow = 0 if b - a <= 0.5 * width else slow + 1
