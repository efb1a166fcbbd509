import doctest
import hashlib
import math
import os
import pathlib
import random
import re
import struct
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import simpvex.expr
from simpvex.errors import EvalDomainError, ParseError
from simpvex.invexity import Domain, EtaMap, check_derivative, hypothesis_pair
from simpvex.expr import (
    FUNCTIONS,
    Expr,
    Bin,
    Call,
    If,
    Neg,
    Num,
    Var,
    compile_expr,
    evaluate,
    parse,
    pretty,
)

X = frozenset({"x"})


def ev(source, **bindings):
    """evaluate's value, once compile_expr's function is seen to give the same
    value (up to the sign of a NaN) or raise the same error."""
    tree = parse(source, bindings.keys())
    fn = compile_expr(tree, tuple(bindings))
    assert _outcome(fn, *map(float, bindings.values())) == _outcome(evaluate, tree, bindings)
    return evaluate(tree, bindings)


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


# tokens that can start an operand, tokens that can follow one, and characters
# outside the language; names and spacing vary, so some pieces run together
_OPERANDS = ["x", "y", "x", "y", "1", "2.5", ".5", "3e2", "1e-3", "7.", "(", "(", "-", "if(",
             "sin(", "exp(", "sqrt(", "abs(", "x", "1", "z", "or", "cosh("]
_INFIX = ["+", "-", "*", "/", "^", "+", "*", ")", ")", ",", "<", "<=", ">", ">=", "==",
          "and", "or", "+", "-", "*", "^", ")", ","]
_BAD = ["@", "!", "[", "#", "\u00e9", "$", "="]


def _token_strings(seed, count):
    """Seeded random strings, mostly alternating operands and operators, with
    a few pieces drawn from anywhere and closing parentheses often balanced."""
    rng = random.Random(seed)
    for _ in range(count):
        pieces, operand, depth = [], True, 0
        for _ in range(rng.randint(1, 16)):
            roll = rng.random()
            pool = (_BAD if roll < 0.004 else _OPERANDS + _INFIX if roll < 0.06
                    else _OPERANDS if operand else _INFIX)
            piece = rng.choice(pool)
            depth += piece.endswith("(") - (piece == ")")
            operand = piece[-1] in "(-,+*/^<>=" or piece in ("and", "or")
            pieces.append(piece + rng.choice(("", "", " ")))
        if not operand and rng.random() < 0.7:
            pieces.append(")" * depth)
        yield "".join(pieces)


def _parse_outcome(source):
    try:
        return "ok " + pretty(parse(source, {"x", "y"}))
    except ParseError as exc:
        return f"error {exc.position} {exc.reason}"


def test_parse_outcomes_of_random_token_strings_are_pinned():
    # 3,000 strings: 252 parse, and every ParseError reason occurs; the digest
    # was recorded with the one-method-per-level parser the table replaced
    outcomes = [_parse_outcome(s) for s in _token_strings(27, 3000)]
    assert sum(o.startswith("ok ") for o in outcomes) == 252
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == (
        "3d304ce1d6abc2836dc6be515f464773cd061a72e5662892bce994f78c830c97")


def test_grammar_binary_levels_are_the_parser_table():
    text = (pathlib.Path(__file__).parents[1] / "docs" / "grammar.ebnf").read_text()
    rules = dict(re.findall(r"^(\w+)\s*=\s*(.*?);", text, re.M | re.S))
    levels = []
    for rule in ("expression", "and_expr", "comparison", "sum", "term"):
        body = re.sub(r"\bcmp_op\b", rules["cmp_op"], rules[rule])
        levels.append(set(re.findall(r'"([^"]+)"', body)))
    assert levels == [set(ops) for ops in simpvex.expr._LEVELS]


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


def _x_fn(source):
    return compile_expr(parse(source, X), ("x",))


def test_check_derivative_accepts_true_derivative():
    report = check_derivative(_x_fn("x^2"), _x_fn("2*x"), (0.0, 1.0))
    assert report.verdict == "verified_on_samples"
    assert report.witness is None
    assert report.worst_violation < 1e-4


def test_check_derivative_rejects_wrong_derivative():
    report = check_derivative(_x_fn("x^2"), _x_fn("x"), (0.0, 1.0))
    assert report.verdict == "violated"
    x, claimed, observed = report.witness
    assert 0.0 < x < 1.0
    assert abs(claimed - observed) > 1e-3


def test_check_derivative_rejects_a_derivative_that_is_nan_everywhere():
    # (x - x) * inf is NaN at every x: no mismatch compares, so each must count
    report = check_derivative(_x_fn("x"), _x_fn("1 + (x-x)*1e999"), (0.0, 1.0))
    assert report.verdict == "violated"
    assert report.worst_violation == math.inf
    x, claimed, observed = report.witness
    assert x == 1.0 / 12.0 and math.isnan(claimed) and observed == pytest.approx(1.0)


def test_check_derivative_interval_validation():
    with pytest.raises(ValueError):
        check_derivative(_x_fn("x"), _x_fn("1"), (1.0, 1.0))
    with pytest.raises(ValueError):
        check_derivative(_x_fn("x"), _x_fn("1"), (0.0, 1.0), points=2)


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
                if base < 0.0 and math.isfinite(exponent) and exponent != math.floor(exponent):
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
    checked = _checked(tree, ("x", "y"))
    ref = _reference(tree, ("x", "y"))
    for x, y in points:
        want = _outcome(ref, x, y)
        assert _outcome(fn, x, y) == want, (pretty(tree), x, y)
        assert _outcome(checked, x, y) == want, (pretty(tree), x, y)


# The fast form against the checked evaluator: compile_expr's function runs
# the fast form and falls back to the evaluator only when the fast one
# raises, so any point where the fast form returns a value the evaluator
# would not (or raises nothing where it raises) shows up as a mismatch here.

_EXPONENTS = [2.0, 3.0, 0.0, -1.0, -2.0, 0.5, 1.5, -0.5, 1e300, math.inf]


def _fast_trees(names):
    """Trees over ``names`` with every operator, every function, if, and
    powers whose exponent is a literal (integral, negative, fractional,
    huge, infinite), a negated literal, or any subtree."""
    leaves = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0, 709.0, 709.5, 710.0, 1e300,
                         math.inf]).map(Num),
        st.sampled_from(names).map(Var),
    )

    def extend(children):
        exponent = st.one_of(
            st.sampled_from(_EXPONENTS).map(Num),
            st.sampled_from(_EXPONENTS).map(lambda c: Neg(Num(c))),
            children,
        )
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^", "<", "<=", ">", ">=", "==",
                                            "and", "or"]), children, children),
            st.builds(Bin, st.just("^"), children, exponent),
            st.builds(Call, st.sampled_from(list(FUNCTIONS)), children),
            st.builds(If, children, children, children),
        )

    trees = st.recursive(leaves, extend, max_leaves=12)
    exponents = st.one_of(st.sampled_from(_EXPONENTS).map(Num),
                          st.sampled_from(_EXPONENTS).map(lambda c: Neg(Num(c))),
                          st.sampled_from(names).map(Var), trees)
    # a power at the root meets the special points unmasked
    return st.one_of(trees, st.builds(Bin, st.just("^"), trees, exponents))


_FAST_POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, -2.0, -0.5, -1.0, 1.0, 2.0, 0.5,
                709.0, 709.5, 709.79, 710.0, 710.5, 1e200, -1e200, 1e-320, 1e154]
_fast_points = st.one_of(st.sampled_from(_FAST_POINTS), st.floats(709.0, 710.5),
                         st.floats(-1e3, 1e3))
# (base, exponent) pairs where Python's ** and the guards part ways
_POWER_PAIRS = [(0.0, -math.inf), (-0.0, -math.inf), (-2.0, 0.5), (-math.inf, 0.5),
                (-2.0, math.inf), (-2.0, math.nan), (0.0, -1.0), (1e200, 2.0), (2.0, 1e300)]
_fast_pairs = st.one_of(st.tuples(_fast_points, _fast_points), st.sampled_from(_POWER_PAIRS))


def _checked(tree, var_order):
    return lambda *args: simpvex.expr._checked(tree, dict(zip(var_order, args)))


@settings(max_examples=500, deadline=None)
@given(_fast_trees(["x", "y"]),
       st.lists(_fast_pairs, min_size=8, max_size=8))
def test_fast_form_matches_guarded_form(tree, points):
    fast = compile_expr(tree, ("x", "y"))
    checked = _checked(tree, ("x", "y"))
    for x, y in points:
        assert _outcome(fast, x, y) == _outcome(checked, x, y), (pretty(tree), x, y)


def _abs_outcome(fn, x):
    got = _outcome(fn, x)
    return ("value", struct.pack("<d", abs(fn(x)))) if got[0] == "value" else got


@settings(max_examples=200, deadline=None)
@given(_fast_trees(["x"]), st.lists(_fast_points, min_size=1, max_size=12))
def test_batch_form_matches_point_by_point_abs(tree, points):
    fn = compile_expr(tree, ("x",))
    batch = simpvex.expr.abs_batch(fn)
    outcomes = [_abs_outcome(fn, x) for x in points]
    try:
        values = batch(points)
    except Exception:
        # the batch raises where the fast form raises, also where the checked
        # evaluator then gives a value (1 ^ -inf is 1.0): at some point on its own
        assert any(_outcome(lambda x: batch([x])[0], x)[0] == "raise" for x in points), (
            pretty(tree), points)
    else:
        assert type(values) is list
        assert [_outcome(lambda v: v, v) for v in values] == outcomes, (pretty(tree), points)


def test_abs_batch_serves_only_one_variable_compiled_functions():
    fn = compile_expr(parse("x - 2", X), ("x",))
    batch = simpvex.expr.abs_batch(fn)
    assert batch([1.0, 3.0]) == [1.0, 1.0]
    assert simpvex.expr.abs_batch(fn) is batch  # compiled once
    wrapped = lambda x: fn(x)
    wrapped.source = fn.source
    assert simpvex.expr.abs_batch(wrapped) is None
    assert simpvex.expr.abs_batch(batch) is None
    assert simpvex.expr.abs_batch(compile_expr(parse("x", X), ("x", "y"))) is None


def test_abs_batch_is_none_where_compiling_the_batch_form_recurses_too_deep(monkeypatch):
    calls = []

    def too_deep(*source):
        calls.append(source)
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(simpvex.expr, "_batch_form", too_deep)
    fn = compile_expr(parse("3*x^2 - 7*x + 0.125", X), ("x",))
    assert simpvex.expr.abs_batch(fn) is None
    assert simpvex.expr.abs_batch(fn) is None
    assert len(calls) == 1  # remembered: compiled at most once
    # the sweeps then run the fast form point by point, to the same reports
    eta, K = EtaMap(lambda v, u: v - u, "unshared difference"), Domain(0.0, 1.0)
    got = hypothesis_pair(SimpleNamespace(df_fn=fn), eta, K, 1.5)
    want = hypothesis_pair(SimpleNamespace(df_fn=lambda x: fn(x)), eta, K, 1.5)
    assert repr(got) == repr(want)


_DEEP_DERIVATIVE_CASE = """\
from simpvex.runner import load_case, run_case
n = 494
case = load_case({"name": "deep", "f": f"{n}*x^2/2", "df": "+".join(["x"] * n),
                  "eta": {"kind": "difference"}, "K": [0, 1], "a": 0, "b": 1,
                  "q": [1], "theorems": ["T3.1"]})
print(run_case(case).verdict)
"""


def test_a_derivative_too_deep_for_the_batch_form_still_gets_a_verdict():
    # in a fresh interpreter a 494-term f' compiles at load, but its batch
    # form, compiled inside run_case's deeper stack, recursed too deep
    package_root = str(pathlib.Path(simpvex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _DEEP_DERIVATIVE_CASE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["hypothesis_unmet"]


def test_fast_form_raises_where_python_would_not():
    # a negative base to a fractional power (Python gives a complex number),
    # zero to the power -inf (Python gives inf) and an infinite or NaN exponent
    # of a negative base (math.floor raises) keep the checked evaluator's outcome
    for source, x, y, want in [
        ("x^0.5", -4.0, 0.0, "fractional power of negative base in (x ^ 0.5) at -4.0"),
        ("x^y", -4.0, 0.5, "fractional power of negative base in (x ^ y) at -4.0"),
        ("x^y", 0.0, -math.inf, "zero raised to a negative power in (x ^ y) at 0.0"),
        ("x^y", -0.0, -math.inf, "zero raised to a negative power in (x ^ y) at -0.0"),
        ("x^(-1e999)", 0.0, 0.0, "zero raised to a negative power in (x ^ (-inf)) at 0.0"),
    ]:
        fn = compile_expr(parse(source, {"x", "y"}), ("x", "y"))
        with pytest.raises(EvalDomainError) as info:
            fn(x, y)
        assert str(info.value) == want
        assert info.value.__context__ is None
    power = compile_expr(parse("x^y", {"x", "y"}), ("x", "y"))
    assert power(2.0, -math.inf) == 0.0 and power(-2.0, 3.0) == -8.0
    # ** of a negative base and an infinite or NaN exponent, which the fast
    # form's math.floor cannot test
    assert power(-2.0, math.inf) == math.inf and power(-0.5, math.inf) == 0.0
    assert power(-1.0, -math.inf) == 1.0 and math.isnan(power(-2.0, math.nan))


def test_fast_form_calls_no_helper():
    fn = compile_expr(parse("x^4 - 2*x^2 + x^0.5 + x^x + 1/(x+0.5) + exp(-x) + log(x)"
                            " + sqrt(x) + sin(x) + cos(x) + abs(x)", X), ("x",))
    fn(0.25)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(0.25)
    finally:
        sys.setprofile(None)
    assert calls == ["_fast"], calls


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
    # the fast form raises at x = -1, so the checked evaluator walks the
    # whole sum before it names the failing log
    failing = Bin("+", total, Call("log", Var("x")))
    got = _outcome(compile_expr(failing, ("x",)), -1.0)
    assert got == _outcome(_reference(failing, ("x",)), -1.0)
    assert got[1:] == (EvalDomainError, "log of non-positive argument in log(x) at -1.0")


_TWO_PARSES = """\
import math
from simpvex.expr import compile_expr, parse
source = "+".join(["x"] * 494) + "+log(x)"
first = compile_expr(parse(source, {"x"}), ("x",))
second = compile_expr(parse(source, {"x"}), ("x",))
assert second(2.0) == first(2.0) == 988.0 + math.log(2.0)
"""


def test_equal_deep_trees_from_two_parses_each_compile_and_evaluate():
    # 495 terms, in a fresh interpreter: compiling recurses two frames per
    # level, too deep for the stack a test runs on
    package_root = str(pathlib.Path(simpvex.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _TWO_PARSES], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_compiling_keeps_no_process_wide_state():
    runtime = dict(simpvex.expr._RUNTIME)
    tree = parse("if(x > 0, log(x), x^2.5)", X)
    fn = compile_expr(tree, ("x",))
    assert compile_expr(tree, ("x",)) is not fn  # each call builds its own
    assert simpvex.expr.abs_batch(fn)([1.0, 4.0]) == [0.0, math.log(4.0)]
    with pytest.raises(EvalDomainError):  # the fallback goes with the function
        fn(-1.0)
    assert simpvex.expr._RUNTIME == runtime
    dropped = weakref.ref(fn)
    del fn
    assert dropped() is None  # freed at once, batch form and fallback included


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
