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

The loop is written once, as the source ``_LOOP``.  ``_integrate_unchecked``
is that source compiled as it stands; ``inline_loop`` compiles it again for
one integrand, each call ``g(x)`` replaced by the integrand's own
expression (``expr.simpson_loop`` gives this inlined loop of a compiled
one-variable function).  The inlined loop makes the same float operations
in the same order, with no call per evaluation, and returns None wherever
the expression raises or the loop would raise; its caller then runs
``_integrate_unchecked`` from scratch, so every value, error and
evaluation count is the generic loop's.  Only ``runner.tightness_scan``,
which integrates one f thousands of times, uses one.

Simpson panels integrate cubics exactly, so polynomial integrands of
degree <= 3 converge on the first panel up to rounding.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Mapping

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


# The one Simpson loop.  g is called only as g(name), name a local, which
# inline_loop relies on; no local or global name of the loop starts with
# "_", so none meets an inlined expression's.
_LOOP = '''
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
            raise QuadratureError(
                f"cannot refine interval [{a!r}, {b!r}] further; tolerance unreachable"
            )
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
'''
_FILENAME = "<simpvex Simpson loop>"
# the globals the loop reads besides builtins, and its functions' module
_GLOBALS = {"__name__": __name__, "math": math, "DEFAULT_MAX_EVALS": DEFAULT_MAX_EVALS,
            "BudgetExhausted": BudgetExhausted, "NonFiniteIntegrand": NonFiniteIntegrand,
            "QuadratureError": QuadratureError}


def _define(tree: ast.Module, namespace: dict):
    """The function the one ``def`` of ``tree`` makes, with globals ``namespace``."""
    made = {}
    exec(compile(tree, _FILENAME, "exec"), namespace, made)
    (fn,) = made.values()
    return fn


_integrate_unchecked = _define(ast.parse(_LOOP, _FILENAME), dict(_GLOBALS))


class _Inline(ast.NodeTransformer):
    """Replace each call ``g(name)`` by ``inline(name)``."""

    def __init__(self, inline):
        self.inline = inline

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "g":
            (arg,) = node.args
            return self.inline(arg.id)
        return self.generic_visit(node)


def inline_loop(inline: Callable[[str], ast.expr], names: Mapping[str, object]):
    """The Simpson loop with one integrand inlined: ``loop(lo, hi, abs_tol,
    max_evals=DEFAULT_MAX_EVALS)`` gives ``_integrate_unchecked(g, lo, hi,
    abs_tol, max_evals)``'s (value, error estimate, evaluations), or None
    where that raises or an inlined expression raises.

    ``inline(name)`` is a new ``ast`` expression of g at the local ``name``,
    whose names are ``name``, locals starting with "_" and the globals
    ``names``.  Each call is compiled into the loop in its place, so the
    float operations and their order are the loop's.  The caller of the
    result reruns ``_integrate_unchecked`` where it returns None, for the
    generic loop's error.  RecursionError for an expression too deep to
    compile.
    """
    tree = ast.parse(_LOOP, _FILENAME)
    (loop,) = tree.body
    _Inline(inline).visit(loop)
    del loop.args.args[0]  # g
    at = {"lineno": loop.lineno, "col_offset": 0}
    give_up = ast.ExceptHandler(ast.Name("Exception", ast.Load(), **at), None,
                                [ast.Return(ast.Constant(None, **at), **at)], **at)
    loop.body = [ast.Try(loop.body, [give_up], [], [], **at)]
    return _define(tree, dict(_GLOBALS, **names))


def integrate(g: Callable[[float], float], lo: float, hi: float,
              abs_tol: float = DEFAULT_ABS_TOL,
              max_evals: int = DEFAULT_MAX_EVALS) -> QuadratureResult:
    """Integrate ``g`` over [lo, hi] to absolute tolerance ``abs_tol``.

    Raises BudgetExhausted when ``max_evals`` integrand calls are not
    enough, and NonFiniteIntegrand (carrying the offending abscissa) as
    soon as ``g`` returns NaN or an infinity.  Where ``g`` kinks or
    jumps, integrate each smooth piece with its own call.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise ValueError(f"bad integration interval [{lo!r}, {hi!r}]")
    return QuadratureResult(*_integrate_unchecked(g, lo, hi, abs_tol, max_evals))
