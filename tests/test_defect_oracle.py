"""The corpus report's defect identity against mpmath at 40 digits.

For each bundled case, on [a, end] with end = a + eta as the program
rounds it, the oracle computes, sharing no code with ``bounds`` or
``quadrature``:

* the mean of f, by mpmath quadrature split at x = 0 where that lies
  inside (the kink of the abs cases' -abs(x) and of their f');
* the Simpson value at the float points the program uses
  (a, a + 0.5*eta, end), and the defect, that value less the mean;
* eta times the integral of m(t) f'(a + t*eta) over [0, 1], split at
  t = 1/6, 1/2 and 5/6, where the kernel m changes sign or jumps.

f and f' are evaluated from the case's expression trees in mpmath, each
literal as the float the program reads.  Each printed ``mean_integral``,
``defect`` and ``lemma_value`` must lie within its stated error
(``quadrature_error`` for the first two, ``lemma_error_estimate`` for the
lemma) plus the rounding floor below.  The stated error alone does not
cover them yet (ROADMAP item 3): the strict xfails hold that, so the
mend that adds a rounding term to the estimates must drop them.
"""

import json
from functools import lru_cache

import pytest

from simpvex import expr, runner
from simpvex.expr import Bin, Call, If, Neg, Num, Var

mp = pytest.importorskip("mpmath")

DPS = 40
CASES = sorted(path.stem for path in runner._corpus_dir().glob("*.json"))
# The rounding floor, stated once: ROUNDING units of roundoff (2^-53) of the magnitude
# of the terms a printed number adds.  Each number is a short float formula: F at two
# points, a difference and a quotient for the mean (every corpus case has F); the
# Simpson sum's three values less the mean for the defect; for the lemma, a few
# Simpson panels of (t - 1/6) f'(a + t*eta), the panels being exact where the estimate
# is small.  A sum of n terms, each within c units of roundoff of its exact value, is
# within (n + c) units of the sum of their magnitudes (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., section 4.2), and n + c stays below 16 here.
ROUNDING = 16 * 2.0 ** -53
_MP_OPS = {"+": lambda l, r: l + r, "-": lambda l, r: l - r, "*": lambda l, r: l * r,
           "/": lambda l, r: l / r, "^": lambda l, r: l ** r,
           "<": lambda l, r: int(l < r), "<=": lambda l, r: int(l <= r),
           ">": lambda l, r: int(l > r), ">=": lambda l, r: int(l >= r),
           "==": lambda l, r: int(l == r)}


def _value(e, x):
    """The expression tree ``e`` at x, in mpmath; only the taken branch of if runs."""
    if isinstance(e, Num):
        return mp.mpf(e.value)
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_value(e.operand, x)
    if isinstance(e, Call):
        return getattr(mp, "fabs" if e.name == "abs" else e.name)(_value(e.arg, x))
    if isinstance(e, If):
        return _value(e.then if _value(e.cond, x) != 0 else e.other, x)
    assert isinstance(e, Bin) and e.op not in ("and", "or"), e
    return _MP_OPS[e.op](_value(e.left, x), _value(e.right, x))


@lru_cache(maxsize=None)
def _exact(name):
    """{quantity: (exact value, rounding scale)} of the corpus case ``name``."""
    config = json.loads((runner._corpus_dir() / f"{name}.json").read_text(encoding="utf-8"))
    case = runner.load_case(config)
    f, df, F = (expr.parse(config[key], {"x"}) for key in ("f", "df", "F"))
    a = case.a
    step = case.eta(case.b, a)
    mid, end = a + 0.5 * step, a + step
    with mp.workdps(DPS):
        A, M, E, eta = mp.mpf(a), mp.mpf(mid), mp.mpf(end), mp.mpf(step)
        cuts = [A] + [mp.mpf(0)] * (a < 0.0 < end) + [E]
        mean = mp.quad(lambda x: _value(f, x), cuts) / (E - A)
        mean_scale = (abs(_value(F, A)) + abs(_value(F, E))) / eta
        ends = (_value(f, A), _value(f, M), _value(f, E))
        simpson = (ends[0] + 4 * ends[1] + ends[2]) / 6
        simpson_scale = (abs(ends[0]) + 4 * abs(ends[1]) + abs(ends[2])) / 6

        def kernel_term(t):
            m = t - mp.mpf(1) / 6 if t < mp.mpf(1) / 2 else t - mp.mpf(5) / 6
            return m * _value(df, A + t * eta)

        ts = [mp.mpf(k) / 6 for k in (0, 1, 3, 5, 6)]
        lemma = eta * mp.quad(kernel_term, ts)
        lemma_scale = eta * mp.quad(lambda t: abs(kernel_term(t)), ts)
        return {"mean_integral": (mean, mean_scale),
                "defect": (simpson - mean, simpson_scale + mean_scale),
                "lemma_value": (lemma, lemma_scale)}


STATED = {"mean_integral": "quadrature_error", "defect": "quadrature_error",
          "lemma_value": "lemma_error_estimate"}


def _misses(report, quantity, floor):
    """(case, |printed - exact|, allowed) of each case whose printed ``quantity``
    lies further from the exact value than its stated error plus ``floor`` times
    its rounding scale."""
    printed = {result.name: result.to_dict() for result in report.results}
    found = []
    with mp.workdps(DPS):
        for name in CASES:
            row = printed[name]
            want, scale = _exact(name)[quantity]
            err = abs(mp.mpf(row[quantity]) - want)
            allowed = row[STATED[quantity]] + floor * scale
            if err > allowed:
                found.append((name, float(err), float(allowed)))
    return found


@pytest.mark.parametrize("quantity", list(STATED))
def test_each_printed_number_lies_within_its_stated_error_and_the_rounding_floor(
        corpus_report, quantity):
    assert _misses(corpus_report, quantity, ROUNDING) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@pytest.mark.parametrize("quantity", list(STATED))
def test_the_stated_error_alone_covers_each_printed_number(corpus_report, quantity):
    # the error estimates leave rounding out: every case has F, so quadrature_error is 0,
    # yet 10 of 15 printed means differ from the exact mean (shifted_parabola by 2.2e-16),
    # and 6 of 15 lemma values miss by more than lemma_error_estimate (poly_x3 by 3.1e-17
    # against 2.3e-19)
    assert _misses(corpus_report, quantity, 0.0) == []
