import importlib.util
import math
import random
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from simpvex import quadrature
from simpvex.bounds import FunctionModel, lemma_rhs
from simpvex.errors import BudgetExhausted, NonFiniteIntegrand, QuadratureError
from simpvex.expr import FUNCTIONS, compile_expr, parse
from simpvex.kernel import eval_m
from simpvex.quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_MAX_EVALS,
    QuadratureResult,
    _integrate_unchecked,
    integrate,
)


def test_cubics_are_exact_up_to_rounding():
    rng = random.Random(20817)
    for _ in range(50):
        c = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        lo = rng.uniform(-3.0, 0.0)
        hi = lo + rng.uniform(0.1, 3.0)
        g = lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        exact = sum(c[k] * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(4))
        qr = integrate(g, lo, hi, 1e-12)
        assert abs(qr.value - exact) <= 1e-12


def test_golden_integrals():
    assert integrate(math.exp, 0.0, 1.0).value == pytest.approx(math.e - 1.0, abs=1e-10)
    assert integrate(math.sin, 0.0, math.pi).value == pytest.approx(2.0, abs=1e-10)
    assert integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0).value == pytest.approx(
        math.pi / 4.0, abs=1e-10)


def test_error_estimate_bounded_by_tolerance():
    for tol in (1e-5, 1e-8, 1e-11):
        qr = integrate(math.exp, 0.0, 1.0, tol)
        assert qr.error_estimate <= tol
        assert abs(qr.value - (math.e - 1.0)) <= 10.0 * tol


def test_tighter_tolerance_costs_more_and_converges():
    loose = integrate(math.exp, 0.0, 1.0, 1e-6)
    tight = integrate(math.exp, 0.0, 1.0, 1e-12)
    assert tight.evaluations > loose.evaluations
    assert abs(tight.value - (math.e - 1.0)) < abs(loose.value - (math.e - 1.0)) + 1e-12


def test_results_are_deterministic():
    a = integrate(lambda x: math.sin(3.0 * x) * math.exp(x), 0.0, 2.0, 1e-11)
    b = integrate(lambda x: math.sin(3.0 * x) * math.exp(x), 0.0, 2.0, 1e-11)
    assert a == b


def test_degenerate_interval():
    assert integrate(math.exp, 2.0, 2.0) == QuadratureResult(0.0, 0.0, 0)
    assert _integrate_unchecked(math.exp, 2.0, 2.0, DEFAULT_ABS_TOL) == (0.0, 0.0, 0)


def test_interval_validation():
    with pytest.raises(ValueError):
        integrate(math.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(math.exp, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(math.exp, 0.0, 1.0, abs_tol=0.0)


def _pieces(g, points, abs_tol):
    """One integrate call per piece between consecutive ``points``, each at ``abs_tol``."""
    return [integrate(g, lo, hi, abs_tol) for lo, hi in zip(points, points[1:])]


def test_kinked_integrand_with_and_without_a_split_at_the_kink():
    g = lambda t: abs(t - 0.3)
    want = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    plain = integrate(g, 0.0, 1.0, 1e-11)
    split = _pieces(g, [0.0, 0.3, 1.0], 5e-12)
    assert plain.value == pytest.approx(want, abs=1e-10)
    assert sum(qr.value for qr in split) == pytest.approx(want, abs=1e-10)
    # splitting at the kink spares the adaptive refinement around it
    assert sum(qr.evaluations for qr in split) < plain.evaluations


def test_half_moment_value():
    left, right = _pieces(lambda t: abs(t - 1.0 / 6.0), [0.0, 1.0 / 6.0, 0.5], 5e-12)
    assert left.value + right.value == pytest.approx(5.0 / 72.0, abs=1e-12)


def test_abs_kernel_integral():
    # |m| kinks at 1/6, 1/2 and 5/6
    split = _pieces(lambda t: abs(eval_m(t)), [0.0, 1.0 / 6.0, 0.5, 5.0 / 6.0, 1.0], 2.5e-13)
    assert sum(qr.value for qr in split) == pytest.approx(5.0 / 36.0, abs=1e-11)


def test_signed_kernel_halves_cancel():
    left = integrate(lambda t: t - 1.0 / 6.0, 0.0, 0.5, 1e-13)
    right = integrate(lambda t: t - 5.0 / 6.0, 0.5, 1.0, 1e-13)
    assert left.value == pytest.approx(1.0 / 24.0, abs=1e-14)
    assert right.value == pytest.approx(-1.0 / 24.0, abs=1e-14)
    assert left.value + right.value == pytest.approx(0.0, abs=1e-14)


def test_budget_exhaustion():
    with pytest.raises(BudgetExhausted) as info:
        integrate(math.exp, 0.0, 1.0, 1e-11, max_evals=4)
    assert info.value.evaluations == 4


def test_budget_respected_on_success():
    qr = integrate(math.exp, 0.0, 1.0, 1e-11, max_evals=DEFAULT_MAX_EVALS)
    assert qr.evaluations <= DEFAULT_MAX_EVALS
    assert qr.evaluations >= 5


def test_non_finite_integrand_reports_abscissa():
    def g(x):
        return float("nan") if x > 0.7 else 1.0
    with pytest.raises(NonFiniteIntegrand) as info:
        integrate(g, 0.0, 1.0)
    assert info.value.abscissa > 0.7
    assert math.isnan(info.value.value)


def test_endpoint_jump_is_unreachable():
    # eval_m takes the right-branch value at exactly 1/2, so integrating
    # the left piece up to 1/2 exposes an endpoint discontinuity
    with pytest.raises(QuadratureError) as info:
        integrate(eval_m, 1.0 / 6.0, 0.5, 1e-11)
    assert "tolerance unreachable" in str(info.value)


def test_interior_jump_is_unreachable():
    step = lambda x: 0.0 if x < 1.0 / 3.0 else 1.0
    with pytest.raises(QuadratureError):
        integrate(step, 0.0, 1.0, 1e-9)


def _ulps_above(x, ulps):
    for _ in range(ulps):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("x", [0.5, 1.767, 1e-300])
@pytest.mark.parametrize("ulps", [1, 2, 3])
def test_interval_under_four_ulps_is_one_simpson_panel(x, ulps):
    hi = _ulps_above(x, ulps)
    fa, fm, fb = math.log1p(x), math.log1p(0.5 * (x + hi)), math.log1p(hi)
    qr = integrate(math.log1p, x, hi)
    assert qr.value == (hi - x) * (fa + 4.0 * fm + fb) / 6.0
    assert qr.value == pytest.approx((hi - x) * math.log1p(x), rel=1e-14)
    assert qr.error_estimate == (hi - x) * max(abs(fa - fm), abs(fb - fm))
    assert qr.error_estimate <= DEFAULT_ABS_TOL
    assert qr.evaluations == 3
    # from 4 ulps on, the first panel splits as on any interval
    assert integrate(math.log1p, x, _ulps_above(x, 4)).evaluations == 5


def test_interval_under_four_ulps_over_a_jump_is_unreachable():
    hi = _ulps_above(1.0, 2)
    with pytest.raises(QuadratureError, match="tolerance unreachable"):
        integrate(lambda x: 0.0 if x < hi else 1e300, 1.0, hi)


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: -0.1, 0.0, 5e-324),
    (lambda x: -0.0, 1.0, 1.0000000000000002),
])
def test_one_panel_sums_start_at_zero_in_both_entries(g, lo, hi):
    # the one panel's Simpson value is -0.0 on these; sums start at 0.0
    simpson = (hi - lo) * (g(lo) + 4.0 * g(0.5 * (lo + hi)) + g(hi)) / 6.0
    assert simpson.hex() == "-0x0.0p+0"
    qr = integrate(g, lo, hi)
    assert (qr.value.hex(), qr.error_estimate.hex(), qr.evaluations) == ("0x0.0p+0", "0x0.0p+0", 3)
    value, err, evaluations = _integrate_unchecked(g, lo, hi, DEFAULT_ABS_TOL)
    assert (value.hex(), err.hex(), evaluations) == ("0x0.0p+0", "0x0.0p+0", 3)


def test_default_tolerance_is_tight():
    assert DEFAULT_ABS_TOL <= 1e-10


# The quadrature loop before it was flattened: a budget object whose call
# checks the budget and finiteness, and a Simpson helper.  The flat loop
# must give the same floats, evaluation counts and errors.

class _ReferenceBudget:
    def __init__(self, limit):
        self.used = 0
        self.limit = limit

    def call(self, g, x):
        if self.used >= self.limit:
            raise BudgetExhausted(self.used)
        self.used += 1
        y = g(x)
        if not math.isfinite(y):
            raise NonFiniteIntegrand(x, y)
        return y


def _reference_simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def _reference_core(g, lo, hi, abs_tol, budget):
    fa = budget.call(g, lo)
    mid = 0.5 * (lo + hi)
    fm = budget.call(g, mid)
    fb = budget.call(g, hi)
    whole = _reference_simpson(fa, fm, fb, hi - lo)
    if not (lo < 0.5 * (lo + mid) < mid < 0.5 * (mid + hi) < hi):  # under 4 ulps wide
        est = (hi - lo) * max(abs(fa - fm), abs(fb - fm))
        if est <= abs_tol:
            return whole, est
    total = 0.0
    total_err = 0.0
    stack = [(lo, mid, hi, fa, fm, fb, whole, abs_tol)]
    while stack:
        a, m, b, fa, fm, fb, s_whole, tol = stack.pop()
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        if not (a < lm < m and m < rm < b):
            raise QuadratureError(
                f"cannot refine interval [{a!r}, {b!r}] further; tolerance unreachable"
            )
        flm = budget.call(g, lm)
        frm = budget.call(g, rm)
        s_left = _reference_simpson(fa, flm, fm, m - a)
        s_right = _reference_simpson(fm, frm, fb, b - m)
        s_halves = s_left + s_right
        est = abs(s_halves - s_whole) / 15.0
        if est <= tol:
            total += s_halves + (s_halves - s_whole) / 15.0
            total_err += est
        else:
            stack.append((m, rm, b, fm, frm, fb, s_right, 0.5 * tol))
            stack.append((a, lm, m, fa, flm, fm, s_left, 0.5 * tol))
    return total, total_err


def _reference_integrate(g, lo, hi, abs_tol=DEFAULT_ABS_TOL, max_evals=DEFAULT_MAX_EVALS):
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0)
    budget = _ReferenceBudget(max_evals)
    value, err = _reference_core(g, lo, hi, abs_tol, budget)
    # sums start at 0.0, so a one-panel -0.0 comes out 0.0
    return QuadratureResult(0.0 + value, 0.0 + err, budget.used)


def _unchecked(g, lo, hi, abs_tol, max_evals):
    return QuadratureResult(*_integrate_unchecked(g, lo, hi, abs_tol, max_evals))


def _outcome(fn, *args):
    """Bit patterns of a result, or the error's type, text and payload."""
    try:
        r = fn(*args)
    except (QuadratureError, _Band) as exc:
        payload = [getattr(exc, k, None) for k in ("evaluations", "abscissa", "value")]
        return type(exc).__name__, str(exc), repr(payload)
    return r.value.hex(), r.error_estimate.hex(), r.evaluations


class _Band(Exception):
    """What an integrand raises where it is undefined."""


def _raise_band(x):
    raise _Band(f"undefined at {x!r}")


_STRIPES = "fnfrfnfn"  # stripes 0.05 wide: finite, NaN, raising


def _striped(c):
    """cos(x), but NaN on the n stripes of _STRIPES and raising on its r stripe, from x = c.

    A panel 0.2 wide can meet g(lm) NaN and g(rm) raising, or both NaN,
    with g(m) finite between them.
    """
    def g(x):
        stripe = _STRIPES[math.floor((x - c) / 0.05) % len(_STRIPES)]
        if stripe == "r":
            _raise_band(x)
        return math.nan if stripe == "n" else math.cos(x)

    return g


def _integrand(kind, c):
    """Smooth, kinked, jumping, non-finite, raising and constant integrands."""
    if kind == "exp":
        return lambda x: math.exp(c * x)
    if kind == "sin":
        return lambda x: math.sin(7.0 * c * x)
    if kind == "kink":
        return lambda x: abs(x - c)
    if kind == "jump":
        return lambda x: 0.0 if x < c else 1.0
    if kind == "nan":
        return lambda x: math.nan if c < x < c + 0.4 else x * x
    if kind == "inf":
        return lambda x: -math.inf if abs(x - c) < 0.1 else 1.0 / (1.0 + x * x)
    if kind == "sqrt":
        return lambda x: math.sqrt(abs(x - c))
    if kind == "raise":
        return lambda x: _raise_band(x) if c < x < c + 0.3 else math.cos(x)
    if kind == "nan_raise":
        return _striped(c)
    return lambda x: c


_INTEGRANDS = st.builds(_integrand, st.sampled_from(
    ("exp", "sin", "kink", "jump", "nan", "inf", "sqrt", "raise", "nan_raise", "const")),
    st.floats(-2.0, 2.0, allow_nan=False))
_ENDS = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_TOLS = st.sampled_from((1e-3, 1e-8, 1e-11, 1e-14))
_BUDGETS = st.one_of(st.integers(0, 60), st.sampled_from((200, 2000, DEFAULT_MAX_EVALS)))


@given(_INTEGRANDS, _ENDS, _ENDS, _TOLS, _BUDGETS)
@settings(max_examples=300)
# the first panel meets g(0.06) NaN with g(0.16) raising, then g(0.26) and g(0.36) NaN
@example(_striped(0.0), 0.01, 0.21, 1e-8, DEFAULT_MAX_EVALS)
@example(_striped(0.0), 0.21, 0.41, 1e-8, DEFAULT_MAX_EVALS)
# room for exactly one panel evaluation after lo, mid and hi: g(0.25) NaN, and a
# finite g(0.25) with no room for g(0.75)
@example(_integrand("nan", 0.1), 0.0, 1.0, 1e-8, 4)
@example(_integrand("exp", 1.0), 0.0, 1.0, 1e-8, 4)
def test_flat_loop_matches_budget_reference(g, x, y, tol, max_evals):
    lo, hi = min(x, y), max(x, y)
    calls = []

    def counted(x):
        calls.append(x)
        return g(x)

    want = _outcome(_reference_integrate, counted, lo, hi, tol, max_evals)
    assert _outcome(integrate, g, lo, hi, tol, max_evals) == want
    assert _outcome(_unchecked, g, lo, hi, tol, max_evals) == want
    # budgets that end just before, and at, the reference's last evaluation
    limit = len(calls)
    for budget in (max(limit - 1, 0), limit):
        assert (_outcome(integrate, g, lo, hi, tol, budget)
                == _outcome(_reference_integrate, g, lo, hi, tol, budget))


@given(st.sampled_from(("exp(x)", "x^4-2*x^2", "sqrt(x+1.5)", "abs(x-0.3)")),
       st.floats(-1.0, 0.5), st.floats(0.1, 1.0), _TOLS, st.integers(0, 400))
@settings(max_examples=150)
def test_lemma_budget_hand_off_matches_reference(f, a, step, tol, max_evals):
    # lemma_rhs gives its right half the budget its left half left over
    model = FunctionModel.from_config({"name": "m", "f": f, "df": f, "K": [-2, 2]})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "DEFAULT_MAX_EVALS", max_evals)
        got = _outcome(lemma_rhs, model, a, step, tol)
        mp.setattr(quadrature, "integrate", _reference_integrate)
        want = _outcome(lemma_rhs, model, a, step, tol)
    assert got == want
    # a result's evaluations (a count; an error's payload is text) fit in the one budget
    assert isinstance(got[2], str) or got[2] <= max_evals


# Compiled models, whose evaluation can raise EvalDomainError, in the one
# Simpson loop against the reference above: the same floats and evaluation
# counts, or the same error type and text.

def _load_inputs():
    """perfbench/inputs.py, the benchmark's model generator, without touching sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _load_inputs()


def _compiled(source):
    return compile_expr(parse(source, {"x"}), ("x",))


def _repr_or_error(run):
    try:
        return repr(run())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _loop_matches_reference(fn, lo, hi, tol, max_evals=DEFAULT_MAX_EVALS):
    """Assert that the loop and the reference agree; the outcome's type name,
    "value" where the loop returned one."""
    got = _repr_or_error(lambda: _unchecked(fn, lo, hi, tol, max_evals))
    want = _repr_or_error(lambda: _reference_integrate(fn, lo, hi, tol, max_evals))
    assert got == want, (lo, hi, tol, max_evals)
    return "value" if isinstance(got, str) else got[0]


def _random_runs(fn, rng, K, count):
    """``count`` random intervals around K, tolerances and budgets; how many gave a value."""
    lo, hi = K
    span = hi - lo
    finished = 0
    for _ in range(count):
        x, y = (rng.uniform(lo - 0.1 * span, hi + 0.1 * span) for _ in range(2))
        tol = 10.0 ** rng.uniform(-13.0, -3.0)
        budget = rng.choice((DEFAULT_MAX_EVALS, DEFAULT_MAX_EVALS, 4000, rng.randint(0, 40)))
        finished += _loop_matches_reference(fn, min(x, y), max(x, y), tol, budget) == "value"
    return finished


def test_loop_matches_the_reference_on_every_pool_family():
    # the scan pool's model of each family, then one generated batch, 4 of each
    rng = random.Random(3203)
    configs = INPUTS.scan_pool() + INPUTS.fresh_cases(32, 0, 28)[0]
    assert {re.sub(r".*_\d{5}_", "", cfg["name"]) for cfg in configs} == set(INPUTS.FAMILIES)
    for cfg in configs:
        finished = _random_runs(_compiled(cfg["f"]), rng, cfg["K"], 25)
        assert finished > 0, cfg["name"]  # values are compared, not only errors


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 27))
@settings(max_examples=40)
def test_loop_matches_the_reference_on_generated_models(seed, index):
    rng = random.Random(seed)
    cfg = INPUTS.generate_case(rng, index, "drawn", False, [1.0])
    _random_runs(_compiled(cfg["f"]), rng, cfg["K"], 5)


_LEAVES = st.sampled_from(("x", "x", "0.5", "3.0", "1e300", "(-1.5)"))


def _grow(children):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), children),
        st.builds("({}{}{})".format, children, st.sampled_from("+-*/^"), children),
        st.builds("if({} < {}, {}, {})".format, children, children, children, children),
    )


@given(st.recursive(_LEAVES, _grow, max_leaves=8),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.sampled_from((1e-3, 1e-8, 1e-11, 1e-13)),
       st.sampled_from((0, 3, 5, 6, 40, 4000)))
@settings(max_examples=300)
def test_loop_matches_the_reference_on_drawn_expressions(source, x, y, tol, budget):
    _loop_matches_reference(_compiled(source), min(x, y), max(x, y), tol, budget)


def _ulps(x, n):
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("source, lo, hi, tol, budget, outcome", [
    ("exp(800*x)", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS, "EvalDomainError"),  # exp overflows
    ("1/x", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS, "EvalDomainError"),  # division by zero at 0
    ("1/x", -1.0, 1.0, 1e-11, DEFAULT_MAX_EVALS, "EvalDomainError"),  # ... at the midpoint
    ("x^(-0.5)", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS,
     "EvalDomainError"),  # zero to a negative power
    ("sqrt(x)", 0.0, 1.0, 1e-9, DEFAULT_MAX_EVALS, "value"),  # defined at its domain edge
    ("sqrt(x)", -1e-300, 1.0, 1e-9, DEFAULT_MAX_EVALS, "EvalDomainError"),  # ... and just past it
    ("log(x)", 0.0, 1.0, 1e-9, DEFAULT_MAX_EVALS, "EvalDomainError"),  # log of 0
    ("log(x)", 5e-324, 1.0, 1e-6, DEFAULT_MAX_EVALS, "value"),  # log of the least float
    ("if(x < 0.3, x, 0.6 - x)", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS, "value"),  # kink
    ("if(x < 1/3, 0, 1)", 0.0, 1.0, 1e-9, DEFAULT_MAX_EVALS,
     "QuadratureError"),  # jump: cannot refine
    ("log(1+x)", 1.0, _ulps(1.0, 3), 1e-11, DEFAULT_MAX_EVALS, "value"),  # one panel
    ("if(x < 1.0000000000000002, 0, 1e300)", 1.0, _ulps(1.0, 3), 1e-11,
     DEFAULT_MAX_EVALS, "QuadratureError"),  # one panel over a jump: cannot refine
    ("exp(x)", 0.0, 1.0, 1e-11, 0, "BudgetExhausted"),  # budget: none
    ("exp(x)", 0.0, 1.0, 1e-11, 2, "BudgetExhausted"),  # ... under the first panel's three
    ("exp(x)", 0.0, 1.0, 1e-11, 4, "BudgetExhausted"),  # ... one short of a panel
    ("exp(x)", 0.0, 1.0, 1e-11, 6, "BudgetExhausted"),  # ... one more, then none
    ("exp(x)", 0.0, 1.0, 1e-3, 5, "value"),  # ... exactly enough
    ("0*(x*1e300*1e300)", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS,
     "NonFiniteIntegrand"),  # NaN from 0 * inf
    ("x*1e300*1e300", -1.0, 1.0, 1e-11, DEFAULT_MAX_EVALS, "NonFiniteIntegrand"),  # -inf at lo
    ("if(x < 0.5, 0*(x*1e300*1e300), 1/(x-0.75))", 0.0, 1.0, 1e-11, DEFAULT_MAX_EVALS,
     "NonFiniteIntegrand"),  # g(lm) NaN, then g(rm) raising: NonFiniteIntegrand at lm
    ("x^0.5", -1.0, 1.0, 1e-11, DEFAULT_MAX_EVALS,
     "EvalDomainError"),  # fractional power of -1
])
def test_loop_matches_the_reference_on_edge_integrands(source, lo, hi, tol, budget, outcome):
    assert _loop_matches_reference(_compiled(source), lo, hi, tol, budget) == outcome
