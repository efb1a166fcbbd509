import doctest
import math
import struct
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import simpvex.expr
from simpvex.errors import EvalDomainError, ParseError
from simpvex.expr import (
    FUNCTIONS,
    Expr,
    Bin,
    Call,
    If,
    Neg,
    Num,
    Var,
    check_derivative,
    compile_expr,
    evaluate,
    parse,
    pretty,
)

X = frozenset({"x"})


def ev(source, **bindings):
    return evaluate(parse(source, bindings.keys()), bindings)


def test_literals_and_variables():
    assert ev("3", x=0.0) == 3.0
    assert ev("3.5e2", x=0.0) == 350.0
    assert ev(".25", x=0.0) == 0.25
    assert ev("x", x=-2.0) == -2.0


def test_precedence_golden():
    assert ev("1+2*3", x=0.0) == 7.0
    assert ev("(1+2)*3", x=0.0) == 9.0
    assert ev("2*3^2", x=0.0) == 18.0
    assert ev("-2^2", x=0.0) == -4.0
    assert ev("2^-3", x=0.0) == 0.125
    assert ev("2^3^2", x=0.0) == 512.0
    assert ev("6/3/2", x=0.0) == 1.0
    assert ev("1-2-3", x=0.0) == -4.0
    assert ev("-x^2 + x", x=3.0) == -6.0


def test_comparisons_evaluate_to_indicator():
    assert ev("1 < 2", x=0.0) == 1.0
    assert ev("2 <= 1", x=0.0) == 0.0
    assert ev("x >= 0", x=0.0) == 1.0
    assert ev("x == 1", x=1.0) == 1.0
    assert ev("x == 1", x=1.0 + 1e-12) == 0.0


def test_boolean_connectives():
    assert ev("1 < 2 and 3 > 2", x=0.0) == 1.0
    assert ev("1 < 2 and 3 < 2", x=0.0) == 0.0
    assert ev("1 > 2 or x == 0", x=0.0) == 1.0
    assert ev("0 or 0", x=0.0) == 0.0


def test_conditional_selects_branch():
    assert ev("if(x < 0, 0-x, x)", x=-3.0) == 3.0
    assert ev("if(x < 0, 0-x, x)", x=4.0) == 4.0


def test_conditional_untaken_branch_is_lazy():
    # log(x) at x = -1 would raise if it were evaluated
    assert ev("if(x > 0, log(x), 0)", x=-1.0) == 0.0
    with pytest.raises(EvalDomainError):
        ev("log(x)", x=-1.0)


def test_functions():
    assert ev("sin(0)", x=0.0) == 0.0
    assert ev("cos(0)", x=0.0) == 1.0
    assert ev("exp(1)", x=0.0) == math.e
    assert ev("log(exp(2))", x=0.0) == pytest.approx(2.0, abs=1e-15)
    assert ev("abs(x)", x=-7.5) == 7.5
    assert ev("sqrt(x)", x=9.0) == 3.0


def test_domain_guards():
    with pytest.raises(EvalDomainError):
        ev("1/x", x=0.0)
    with pytest.raises(EvalDomainError):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(EvalDomainError):
        ev("log(x)", x=0.0)
    with pytest.raises(EvalDomainError):
        ev("x^0.5", x=-1.0)
    with pytest.raises(EvalDomainError):
        ev("x^-1", x=0.0)
    with pytest.raises(EvalDomainError):
        ev("exp(x)", x=1e9)
    with pytest.raises(EvalDomainError):
        ev("10^x", x=400.0)


def test_domain_error_carries_context():
    with pytest.raises(EvalDomainError) as info:
        ev("1 + log(x)", x=-2.0)
    assert info.value.value == -2.0
    assert "log" in info.value.expr_text


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse("2*", X)
    assert info.value.position == 2

    with pytest.raises(ParseError) as info:
        parse("2 + $", X)
    assert info.value.position == 4
    assert "$" in info.value.reason

    with pytest.raises(ParseError) as info:
        parse("sin(3", X)
    assert info.value.position == 5

    with pytest.raises(ParseError) as info:
        parse("1 2", X)
    assert info.value.position == 2


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError) as info:
        parse("foo(3)", X)
    assert "foo" in info.value.reason
    assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        parse("y + 1", X)
    assert "y" in info.value.reason


def test_parse_rejects_chained_comparisons():
    with pytest.raises(ParseError) as info:
        parse("0 < x < 1", X)
    assert "chained" in info.value.reason


def test_parse_rejects_reserved_variable_names():
    with pytest.raises(ValueError):
        parse("x", {"x", "if"})
    with pytest.raises(ValueError):
        parse("x", {"sin"})


def test_compile_respects_positional_order():
    tree = parse("u - v", {"u", "v"})
    fn = compile_expr(tree, ("v", "u"))
    assert fn(1.0, 5.0) == 4.0


def test_evaluate_binds_by_name():
    tree = parse("v - 2*u", {"u", "v"})
    assert evaluate(tree, {"v": 10.0, "u": 3.0}) == 4.0


def test_pretty_examples():
    assert pretty(parse("x+1", X)) == "(x + 1.0)"
    assert pretty(parse("-x^2", X)) == "(-(x ^ 2.0))"
    assert pretty(parse("if(x<0, 1, -1)", X)) == "if((x < 0.0), 1.0, (-1.0))"


_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
    st.sampled_from(["x", "y"]).map(Var),
)


def _extend(children):
    arith = st.sampled_from(["+", "-", "*", "/", "^"])
    logical = st.sampled_from(["<", "<=", ">", ">=", "==", "and", "or"])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, arith, children, children),
        st.builds(Bin, logical, children, children),
        st.builds(Call, st.sampled_from(list(FUNCTIONS)), children),
        st.builds(If, children, children, children),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves, _extend, max_leaves=25))
def test_pretty_reparses_to_same_ast(tree):
    assert parse(pretty(tree), {"x", "y"}) == tree


def test_check_derivative_accepts_true_derivative():
    report = check_derivative(parse("x^2", X), parse("2*x", X), (0.0, 1.0))
    assert report.verdict == "verified_on_samples"
    assert report.witness is None
    assert report.worst_violation < 1e-4


def test_check_derivative_rejects_wrong_derivative():
    report = check_derivative(parse("x^2", X), parse("x", X), (0.0, 1.0))
    assert report.verdict == "violated"
    x, claimed, observed = report.witness
    assert 0.0 < x < 1.0
    assert abs(claimed - observed) > 1e-3


def test_check_derivative_interval_validation():
    with pytest.raises(ValueError):
        check_derivative(parse("x", X), parse("1", X), (1.0, 1.0))
    with pytest.raises(ValueError):
        check_derivative(parse("x", X), parse("1", X), (0.0, 1.0), points=2)


# Reference evaluator: the closure tree compile_expr built before it
# compiled each AST to one Python function.  Kept here, and only here, to
# pin the compiled code to the same results and the same raises.

def _ref_log(x, text):
    if x <= 0.0:
        raise EvalDomainError(text, x, "log of non-positive argument")
    return math.log(x)


def _ref_sqrt(x, text):
    if x < 0.0:
        raise EvalDomainError(text, x, "square root of negative argument")
    return math.sqrt(x)


def _ref_exp(x, text):
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalDomainError(text, x, "overflow in exp") from None


def _ref_trig(fn, x, text):
    if math.isinf(x):
        raise EvalDomainError(text, x, f"{fn.__name__} of infinite argument")
    return fn(x)


_REF_CALL = {
    "sin": lambda x, text: _ref_trig(math.sin, x, text),
    "cos": lambda x, text: _ref_trig(math.cos, x, text),
    "exp": _ref_exp,
    "log": _ref_log,
    "abs": lambda x, text: abs(x),
    "sqrt": _ref_sqrt,
}


def _build(e: Expr, index):
    if isinstance(e, Num):
        v = e.value
        return lambda a: v
    if isinstance(e, Var):
        try:
            i = index[e.name]
        except KeyError:
            raise ValueError(f"unbound variable {e.name!r}") from None
        return lambda a: a[i]
    if isinstance(e, Neg):
        c = _build(e.operand, index)
        return lambda a: -c(a)
    if isinstance(e, Bin):
        op = e.op
        left = _build(e.left, index)
        right = _build(e.right, index)
        if op == "and":
            return lambda a: (1.0 if right(a) != 0.0 else 0.0) if left(a) != 0.0 else 0.0
        if op == "or":
            return lambda a: 1.0 if left(a) != 0.0 else (1.0 if right(a) != 0.0 else 0.0)
        if op == "+":
            return lambda a: left(a) + right(a)
        if op == "-":
            return lambda a: left(a) - right(a)
        if op == "*":
            return lambda a: left(a) * right(a)
        if op == "/":
            text = pretty(e)
            def _div(a):
                den = right(a)
                if den == 0.0:
                    raise EvalDomainError(text, den, "division by zero")
                return left(a) / den
            return _div
        if op == "^":
            text = pretty(e)
            def _pow(a):
                base = left(a)
                exponent = right(a)
                if base < 0.0 and exponent != math.floor(exponent):
                    raise EvalDomainError(text, base, "fractional power of negative base")
                if base == 0.0 and exponent < 0.0:
                    raise EvalDomainError(text, base, "zero raised to a negative power")
                try:
                    return base ** exponent
                except OverflowError:
                    raise EvalDomainError(text, base, "overflow in power") from None
            return _pow
        if op == "<":
            return lambda a: 1.0 if left(a) < right(a) else 0.0
        if op == "<=":
            return lambda a: 1.0 if left(a) <= right(a) else 0.0
        if op == ">":
            return lambda a: 1.0 if left(a) > right(a) else 0.0
        if op == ">=":
            return lambda a: 1.0 if left(a) >= right(a) else 0.0
        if op == "==":
            return lambda a: 1.0 if left(a) == right(a) else 0.0
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(e, Call):
        impl = _REF_CALL[e.name]
        arg = _build(e.arg, index)
        text = pretty(e)
        return lambda a: impl(arg(a), text)
    if isinstance(e, If):
        cond = _build(e.cond, index)
        then = _build(e.then, index)
        other = _build(e.other, index)
        return lambda a: then(a) if cond(a) != 0.0 else other(a)
    raise TypeError(f"not an expression node: {e!r}")


def _reference(e, var_order):
    root = _build(e, {name: i for i, name in enumerate(var_order)})
    return lambda *args: root(args)


def _outcome(fn, *args):
    """Bit pattern of the result (any NaN counts as one), or the raise."""
    try:
        r = fn(*args)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    if r != r:
        return ("nan",)
    return ("value", struct.pack("<d", r))


_special_inputs = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, -1.0, -0.5, -3.0, 0.5, 2.0])
_inputs = st.one_of(_special_inputs, st.floats(min_value=-1e3, max_value=1e3))
_diff_leaves = st.one_of(_leaves, st.sampled_from([0.0, math.inf, 709.0]).map(Num))


@settings(max_examples=400, deadline=None)
@given(st.recursive(_diff_leaves, _extend, max_leaves=25),
       st.lists(st.tuples(_inputs, _inputs), min_size=8, max_size=8))
def test_compiled_matches_closure_reference(tree, points):
    fn = compile_expr(tree, ("x", "y"))
    ref = _reference(tree, ("x", "y"))
    for x, y in points:
        assert _outcome(fn, x, y) == _outcome(ref, x, y), (pretty(tree), x, y)


def test_unbound_variable_raises_at_compile_time():
    tree = Bin("+", Var("x"), Bin("*", Var("z"), Var("w")))
    with pytest.raises(ValueError) as info:
        compile_expr(tree, ("x",))
    assert str(info.value) == "unbound variable 'z'"


def test_infinite_literal_compiles():
    assert ev("1e999", x=0.0) == math.inf
    assert ev("x - 1e999", x=0.0) == -math.inf


def test_division_checks_denominator_before_numerator():
    with pytest.raises(EvalDomainError) as info:
        ev("log(x)/(x-x)", x=-1.0)
    assert info.value.reason == "division by zero"
    assert str(info.value) == "division by zero in (log(x) / (x - x)) at 0.0"


def test_untaken_operands_are_not_evaluated():
    assert ev("0 and log(x)", x=-1.0) == 0.0
    assert ev("1 or log(x)", x=-1.0) == 1.0
    assert ev("if(x>0, log(x), 0)", x=-1.0) == 0.0
    with pytest.raises(EvalDomainError):
        ev("1 and log(x)", x=-1.0)
    with pytest.raises(EvalDomainError):
        ev("0 or log(x)", x=-1.0)


def test_power_checks_and_overflow_keep_their_texts():
    with pytest.raises(EvalDomainError) as info:
        ev("x^0.5", x=-4.0)
    assert str(info.value) == "fractional power of negative base in (x ^ 0.5) at -4.0"
    with pytest.raises(EvalDomainError) as info:
        ev("x^2", x=1e200)
    assert str(info.value) == "overflow in power in (x ^ 2.0) at 1e+200"
    with pytest.raises(EvalDomainError) as info:
        ev("exp(x)", x=709.79)
    assert str(info.value) == "overflow in exp in exp(x) at 709.79"
    assert ev("exp(x)", x=709.0) == math.exp(709.0)


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_trig_of_an_infinite_argument_names_the_sub_expression(name):
    for x in (math.inf, -math.inf):
        with pytest.raises(EvalDomainError) as info:
            ev(f"1 + {name}(2*x)", x=x)
        assert str(info.value) == f"{name} of infinite argument in {name}((2.0 * x)) at {x!r}"
    assert math.isnan(ev(f"{name}(x)", x=math.nan))
    assert ev(f"{name}(x)", x=1e308) == getattr(math, name)(1e308)


def test_deep_trees_match_reference():
    total = Var("x")
    for _ in range(299):
        total = Bin("+", total, Var("x"))
    negated = Var("x")
    for _ in range(300):
        negated = Neg(negated)
    for tree, want in ((total, 300 * 0.1), (negated, 0.1)):
        got = compile_expr(tree, ("x",))(0.1)
        assert got == _reference(tree, ("x",))(0.1)
        assert got == pytest.approx(want)
    assert ev("+".join(["x"] * 300), x=1.0) == 300.0


def test_python_keywords_are_legal_variable_names():
    tree = parse("None - 2*lambda", {"None", "lambda"})
    assert evaluate(tree, {"None": 1.0, "lambda": 3.0}) == -5.0
    assert compile_expr(tree, ("lambda", "None"))(3.0, 1.0) == -5.0


def test_one_python_call_per_evaluation():
    fn = compile_expr(parse("6.283185307179586*cos(6.283185307179586*x)", X), ("x",))
    fn(0.25)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for _ in range(5):
            fn(0.25)
    finally:
        sys.setprofile(None)
    assert len(calls) == 5, calls


def test_module_doctests_pass():
    results = doctest.testmod(simpvex.expr)
    assert results.attempted >= 2
    assert results.failed == 0
