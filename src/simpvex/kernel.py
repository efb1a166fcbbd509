"""Piecewise Simpson weight kernel and its absolute moments.

The kernel behind the 1-4-1 Simpson combination on a unit interval:

    m(t) = t - 1/6  for t in [0, 1/2)
    m(t) = t - 5/6  for t in [1/2, 1]

Its p-th absolute moment over either half has the closed form

    integral_0^{1/2} |t - 1/6|^p dt = (1 + 2^(p+1)) / (6^(p+1) (p + 1))

and by the symmetry t -> 1 - t the right half gives the same value.
moment_p(1) = 5/72 is the constant in the endpoint-mean bound, and the
(1-t)/t-weighted first moments 61/1296 and 29/1296 drive the power-mean
bound.  Integral p is computed in exact rational arithmetic; the floats
are produced only at the boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

__all__ = [
    "eval_m",
    "moment_p",
    "moment_p_exact",
    "log_moment_p",
    "weighted_moments",
    "half_weights",
]

def eval_m(t: float) -> float:
    """Evaluate the kernel at ``t`` in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"kernel argument {t!r} outside [0, 1]")
    if t < 0.5:
        return t - 1.0 / 6.0
    return t - 5.0 / 6.0


def moment_p_exact(p: int) -> Fraction:
    """Exact value of integral_0^{1/2} |t - 1/6|^p dt for integer p >= 1."""
    if p < 1:
        raise ValueError("moment order must be >= 1")
    return Fraction(1 + 2 ** (p + 1), 6 ** (p + 1) * (p + 1))


def log_moment_p(p: float) -> float:
    """Natural log of the p-th moment, computed without forming 6^(p+1).

    Needed both by moment_p for p > 50 and by bound evaluators that take
    p-th roots of the moment when p is huge (q close to 1), where the
    moment itself underflows to zero.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"moment order must be finite and >= 1, got {p!r}")
    log_num = (p + 1.0) * math.log(2.0) + math.log1p(2.0 ** (-(p + 1.0)))
    log_den = (p + 1.0) * math.log(6.0) + math.log(p + 1.0)
    return log_num - log_den


_EXACT_MAX = 1000.0


def moment_p(p: float) -> float:
    """p-th absolute moment of the kernel over a half interval, p >= 1.

    Uses exact rationals when p is integral, up to _EXACT_MAX, and
    switches to log space for p > 50, where 6^(p+1) would otherwise
    overflow long before the value itself underflows.  Past p = 671 both
    routes give 0.0, and the exact one costs time quadratic in p.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"moment order must be finite and >= 1, got {p!r}")
    if p == math.floor(p) and p <= _EXACT_MAX:
        return float(moment_p_exact(int(p)))
    if p > 50.0:
        return math.exp(log_moment_p(p))
    return (1.0 + 2.0 ** (p + 1.0)) / (6.0 ** (p + 1.0) * (p + 1.0))


def weighted_moments() -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(1-t)- and t-weighted first moments of |m| on each half.

    Returns (w_left_end, w_left_far, w_right_end, w_right_far):

        w_left_end  = integral_0^{1/2} |t - 1/6| (1 - t) dt = 61/1296
        w_left_far  = integral_0^{1/2} |t - 1/6| t       dt = 29/1296
        w_right_end = integral_{1/2}^1 |t - 5/6| (1 - t) dt = 29/1296
        w_right_far = integral_{1/2}^1 |t - 5/6| t       dt = 61/1296

    Each pair sums to moment_p(1) = 5/72.
    """
    return (
        Fraction(61, 1296),
        Fraction(29, 1296),
        Fraction(29, 1296),
        Fraction(61, 1296),
    )


def half_weights() -> Tuple[Fraction, Fraction]:
    """Plain (1-t, t) weights over the left half interval.

    integral_0^{1/2} (1 - t) dt = 3/8 and integral_0^{1/2} t dt = 1/8;
    the right half gives the mirrored pair (1/8, 3/8).
    """
    return (Fraction(3, 8), Fraction(1, 8))
