"""Deterministic adaptive quadrature used as the numeric oracle.

Adaptive Simpson panels with Richardson extrapolation.  Each panel is
split until the classical |S2 - S1|/15 estimate fits the panel's share
of the absolute tolerance, so the accumulated error estimate of a
successful run never exceeds the requested tolerance.  That estimate is
a heuristic, not a bound: an integrand can fool it, and the true error
may exceed it (Gander & Gautschi, "Adaptive quadrature - revisited",
BIT 40, 2000).  An interval under 4 ulps wide has no room for the two
half panels: it is one Simpson panel, estimated (b - a) * max(|f(a) -
f(m)|, |f(b) - f(m)|), a heuristic as well, and accepted when that fits
the tolerance.  Bound slacks account for the estimate; certified
verdicts are an open roadmap item.  Panels are
processed strictly left to right, sums are accumulated in that fixed
order, and the budget is counted in integrand evaluations, which makes
results bit-for-bit reproducible.  The budget is tested once per panel
and finiteness only where a panel's estimate is not finite; either way
the error raised is the one a check of each evaluation would raise.
``integrate`` checks the interval and calls the one Simpson loop,
``_integrate_unchecked``, which a caller that has checked it calls too.
This module holds numerics only.

Simpson panels integrate cubics exactly, so polynomial integrands of
degree <= 3 converge on the first panel up to rounding.
"""

from __future__ import annotations

import math

from .errors import BudgetExhausted, NonFiniteIntegrand, QuadratureError
from .record import Record

__all__ = [
    "QuadratureResult",
    "integrate",
    "DEFAULT_ABS_TOL",
    "DEFAULT_MAX_EVALS",
]

DEFAULT_ABS_TOL = 1e-11
DEFAULT_MAX_EVALS = 10 ** 6


class QuadratureResult(Record):
    """Integral value with its computed error estimate and cost."""

    value: float
    error_estimate: float
    evaluations: int


def _integrate_unchecked(g, lo, hi, abs_tol, max_evals=DEFAULT_MAX_EVALS):
    """``integrate(g, lo, hi, abs_tol, max_evals)`` as (value, error estimate, evaluations),
    for lo <= hi both finite: no interval check, no QuadratureResult.  Sums start at 0.0.

    An interval too narrow to split once (under 4 ulps wide) is one
    Simpson panel of g at lo, mid and hi, kept if its estimate fits
    ``abs_tol``; otherwise, as where a deeper panel cannot split,
    QuadratureError.  A panel evaluates g at lm and rm after one budget
    test, and checks finiteness, lm first, only if its estimate is NaN or
    inf, as any non-finite value makes it: what it raises is what checking
    each evaluation in turn raised, a non-finite g(lm) before g(rm)'s error.
    """
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    if lo == hi:
        return 0.0, 0.0, 0
    isfinite = math.isfinite
    inf = math.inf
    m = 0.5 * (lo + hi)
    used = 0
    fs = []
    for x in (lo, m, hi):
        if used >= max_evals:
            raise BudgetExhausted(used)
        used += 1
        y = g(x)
        if not isfinite(y):
            raise NonFiniteIntegrand(x, y)
        fs.append(y)
    a, b = lo, hi
    fa, fm, fb = fs
    s_whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if not (a < lm < m and m < rm < b):
        # under 4 ulps wide, no two halves fit: the one panel's Simpson value,
        # with a heuristic estimate of the spread of f over the interval
        est = (b - a) * max(abs(fa - fm), abs(fb - fm))
        if est <= abs_tol:
            return 0.0 + s_whole, est, used
    tol = abs_tol
    total = 0.0
    total_err = 0.0
    # panels are finished left to right: a split panel goes on with its
    # left half and stacks its right half, so the sums run in ascending x
    stack = []
    while True:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        if not (a < lm < m and m < rm < b):
            raise QuadratureError.unrefinable(a, b)
        if used >= max_evals - 1:
            # room for at most one evaluation: what checking it, then one more, raises
            if used < max_evals:
                used += 1
                flm = g(lm)
                if not isfinite(flm):
                    raise NonFiniteIntegrand(lm, flm)
            raise BudgetExhausted(used)
        used += 2
        flm = g(lm)
        try:
            frm = g(rm)
        except Exception:
            if not isfinite(flm):
                raise NonFiniteIntegrand(lm, flm) from None
            raise
        s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        s_halves = s_left + s_right
        diff = s_halves - s_whole
        est = abs(diff) / 15.0
        if not est < inf:  # a non-finite f value, or a finite one that overflows
            for x, y in ((lm, flm), (rm, frm)):
                if not isfinite(y):
                    raise NonFiniteIntegrand(x, y)
        if est <= tol:
            total += s_halves + diff / 15.0
            total_err += est
            if not stack:
                return total, total_err, used
            a, m, b, fa, fm, fb, s_whole, tol = stack.pop()
        else:
            tol = 0.5 * tol
            stack.append((m, rm, b, fm, frm, fb, s_right, tol))
            m, b, fm, fb, s_whole = lm, m, flm, fm, s_left


def integrate(g, lo: float, hi: float, abs_tol: float = DEFAULT_ABS_TOL,
              max_evals: int = DEFAULT_MAX_EVALS) -> QuadratureResult:
    """Integrate the function ``g`` of one float over [lo, hi] to absolute
    tolerance ``abs_tol``.

    Raises BudgetExhausted when ``max_evals`` integrand calls are not
    enough, and NonFiniteIntegrand (carrying the offending abscissa) as
    soon as ``g`` returns NaN or an infinity.  Where ``g`` kinks or
    jumps, integrate each smooth piece with its own call.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bad integration interval [{lo!r}, {hi!r}]")
    return QuadratureResult(*_integrate_unchecked(g, lo, hi, abs_tol, max_evals))
