"""Deterministic adaptive quadrature used as the numeric oracle.

Adaptive Simpson panels with Richardson extrapolation.  Each panel is
split until the classical |S2 - S1|/15 estimate fits the panel's share
of the absolute tolerance, so the accumulated error estimate of a
successful run never exceeds the requested tolerance.  That estimate is
a heuristic, not a bound: an integrand can fool it, and the true error
may exceed it (Gander & Gautschi, "Adaptive quadrature - revisited",
BIT 40, 2000).  Bound slacks account for the estimate; certified
verdicts are an open roadmap item.  Panels are
processed strictly left to right, sums are accumulated in that fixed
order, and the budget is counted in integrand evaluations, which makes
results bit-for-bit reproducible.

Simpson panels integrate cubics exactly, so polynomial integrands of
degree <= 3 converge on the first panel up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BudgetExhausted, NonFiniteIntegrand, QuadratureError

__all__ = [
    "QuadratureResult",
    "integrate",
    "integrate_with_breakpoints",
    "DEFAULT_ABS_TOL",
    "DEFAULT_MAX_EVALS",
]

DEFAULT_ABS_TOL = 1e-11
DEFAULT_MAX_EVALS = 10 ** 6


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with its computed error estimate and cost."""

    value: float
    error_estimate: float
    evaluations: int


def _integrate_core(g, lo, hi, abs_tol, used, limit):
    """(integral, error estimate, evaluations so far) of ``g`` on [lo, hi].

    ``used`` evaluations were already spent of the budget ``limit``.  The
    budget and finiteness checks and the Simpson sums are written out
    inline, as this loop runs once per two integrand evaluations.
    """
    isfinite = math.isfinite
    m = 0.5 * (lo + hi)
    fs = []
    for x in (lo, m, hi):
        if used >= limit:
            raise BudgetExhausted(used)
        used += 1
        y = g(x)
        if not isfinite(y):
            raise NonFiniteIntegrand(x, y)
        fs.append(y)
    a, b = lo, hi
    fa, fm, fb = fs
    s_whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
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
            raise QuadratureError(
                f"cannot refine interval [{a!r}, {b!r}] further; tolerance unreachable"
            )
        if used >= limit:
            raise BudgetExhausted(used)
        used += 1
        flm = g(lm)
        if not isfinite(flm):
            raise NonFiniteIntegrand(lm, flm)
        if used >= limit:
            raise BudgetExhausted(used)
        used += 1
        frm = g(rm)
        if not isfinite(frm):
            raise NonFiniteIntegrand(rm, frm)
        s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        s_halves = s_left + s_right
        diff = s_halves - s_whole
        est = abs(diff) / 15.0
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


def integrate(g: Callable[[float], float], lo: float, hi: float,
              abs_tol: float = DEFAULT_ABS_TOL,
              max_evals: int = DEFAULT_MAX_EVALS) -> QuadratureResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``abs_tol``.

    Raises BudgetExhausted when ``max_evals`` integrand calls are not
    enough, and NonFiniteIntegrand (carrying the offending abscissa) as
    soon as ``g`` returns NaN or an infinity.
    """
    return integrate_with_breakpoints(g, lo, hi, (), abs_tol, max_evals)


def integrate_with_breakpoints(g: Callable[[float], float], lo: float, hi: float,
                               breakpoints: Sequence[float],
                               abs_tol: float = DEFAULT_ABS_TOL,
                               max_evals: int = DEFAULT_MAX_EVALS) -> QuadratureResult:
    """Integrate piecewise-smooth ``g``, splitting at known breakpoints.

    ``breakpoints`` must be sorted strictly inside (lo, hi).  Each piece
    receives an equal share of ``abs_tol`` and the budget is shared, so
    the combined error estimate and evaluation count obey the same
    contracts as ``integrate``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bad integration interval [{lo!r}, {hi!r}]")
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    pts = [lo, *breakpoints, hi]
    if lo == hi:
        if len(pts) > 2:
            raise ValueError(f"breakpoints must be sorted strictly inside ({lo!r}, {hi!r})")
        return QuadratureResult(0.0, 0.0, 0)
    for left, right in zip(pts, pts[1:]):
        if not left < right:
            raise ValueError(f"breakpoints must be sorted strictly inside ({lo!r}, {hi!r})")
    piece_tol = abs_tol / (len(pts) - 1)
    total = 0.0
    total_err = 0.0
    used = 0
    for left, right in zip(pts, pts[1:]):
        value, err, used = _integrate_core(g, left, right, piece_tol, used, max_evals)
        total += value
        total_err += err
    return QuadratureResult(total, total_err, used)
