"""The kernel constants against mpmath quadrature at 40 digits.

Each constant the bounds use is an integral of |m(t)|^p w(t) over one half
of [0, 1], where m is the Simpson kernel (t - 1/6 on [0, 1/2), t - 5/6 on
[1/2, 1]) and w is 1, 1 - t or t.  mpmath integrates each half in two
pieces, from the kernel's zero to each end of the half, where |m| is
linear, so the oracle shares no formula with ``kernel.py``.  Every
program value must lie within ULPS units in the last place of it.
"""

import math
from fractions import Fraction

import pytest

from simpvex import bounds, kernel

mp = pytest.importorskip("mpmath")

DPS = 40
ULPS = 4
WEIGHTS = {"1": lambda t: 1, "1-t": lambda t: 1 - t, "t": lambda t: t}
# p = q/(q - 1) for the q of T3.2, T3.3, T4.2 and T4.3; p = 60 and 644 take
# _moment_root's log route
P_VALUES = [1.0, 1.5, 2.0, 3.0] + [q / (q - 1.0) for q in (1.1, 1.5, 2.0, 3.0, 4.0)] + [
    60.0, 644.0]


def _integral(p, weight, right):
    """The integral of |m(t)|^p w(t) over the left or the right half of [0, 1]."""
    w = WEIGHTS[weight]
    with mp.workdps(DPS):
        zero = mp.mpf(5 if right else 1) / 6
        total = mp.mpf(0)
        for end in ((mp.mpf(1) / 2, mp.mpf(1)) if right else (mp.mpf(0), mp.mpf(1) / 2)):
            # |m| rises from 0 at the zero to L at the end; the integrand is scaled
            # by L^-p, since mpmath's tolerance is absolute
            L = abs(end - zero)
            piece = mp.quad(lambda t: (abs(t - zero) / L) ** p * w(t), [zero, end])
            total += L ** p * abs(piece)
        return total


def _ulps(got: float, want) -> float:
    """|got - want| in units in the last place of want rounded to a float."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(got) - want) / math.ulp(float(want)))


@pytest.mark.parametrize("name, value, p, weight, right, exact", [
    ("_M1", bounds._M1, 1, "1", False, Fraction(5, 72)),
    ("_M1", bounds._M1, 1, "1", True, Fraction(5, 72)),
    ("_W_END", bounds._W_END, 1, "1-t", False, Fraction(61, 1296)),
    ("_W_FAR", bounds._W_FAR, 1, "t", False, Fraction(29, 1296)),
    ("_W_END", bounds._W_END, 1, "t", True, Fraction(61, 1296)),
    ("_W_FAR", bounds._W_FAR, 1, "1-t", True, Fraction(29, 1296)),
    ("_HALF_NEAR", bounds._HALF_NEAR, 0, "1-t", False, Fraction(3, 8)),
    ("_HALF_FAR", bounds._HALF_FAR, 0, "t", False, Fraction(1, 8)),
    ("_HALF_NEAR", bounds._HALF_NEAR, 0, "t", True, Fraction(3, 8)),
    ("_HALF_FAR", bounds._HALF_FAR, 0, "1-t", True, Fraction(1, 8)),
])
def test_each_rational_constant_is_its_kernel_integral(name, value, p, weight, right, exact):
    want = _integral(p, weight, right)
    with mp.workdps(DPS):
        assert abs(want - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(10) ** -35
    assert _ulps(value, want) <= ULPS, name


@pytest.mark.parametrize("p", P_VALUES)
def test_moment_p_is_the_kernel_integral_over_each_half(p):
    for right in (False, True):
        assert _ulps(kernel.moment_p(p), _integral(p, "1", right)) <= ULPS


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("p", P_VALUES)
def test_moment_root_is_the_pth_root_of_the_scaled_integral(p, scale):
    with mp.workdps(DPS):
        want = (scale * _integral(p, "1", False)) ** (1 / mp.mpf(p))
    assert _ulps(bounds._moment_root(p, scale), want) <= ULPS
