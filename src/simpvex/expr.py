"""Arithmetic expressions over declared real variables.

Small expression language used for function definitions in corpus cases:
literals, variables, + - * / ^ (right-associative), unary minus, the
functions sin cos exp log abs sqrt, and a lazy three-way conditional
if(cond, then, else) whose condition may combine comparisons with
"and"/"or".  Precedence, loosest to tightest:

    or < and < comparisons < + - < * / < unary minus < ^

The full grammar ships in docs/grammar.ebnf.  Comparisons evaluate to
1.0/0.0 and "if" treats any non-zero condition as true; only the taken
branch of a conditional is evaluated, so the untaken branch may be
outside its domain.

``compile_expr`` turns an AST into one Python function, generated as a
Python ``ast`` tree, so that grid-scale sampling pays one interpreter
frame per evaluation; a domain error raises EvalDomainError naming the
failing sub-expression.  Evaluation is pure and deterministic: the same
AST evaluated at the same inputs returns the same bit pattern, except
for the sign of a NaN, which CPython's adaptive float arithmetic may
flip from one call to the next (reports write every NaN as ``NaN``).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Tuple, Union

from .errors import EvalDomainError, ParseError
from .reports import VERIFIED, VIOLATED, PropertyReport

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Bin",
    "Call",
    "If",
    "parse",
    "evaluate",
    "compile_expr",
    "pretty",
    "check_derivative",
    "FUNCTIONS",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call, If]

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")
_KEYWORDS = ("if", "and", "or")
_CMP_OPS = ("<", "<=", ">", ">=", "==")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|[-+*/^(),<>])
    """,
    re.VERBOSE,
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(source, pos, f"unexpected character {source[pos]!r}")
        if m.lastgroup == "number":
            tokens.append(("number", m.group(), pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: frozenset):
        self.source = source
        self.variables = variables
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops):
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            return self.advance()
        return None

    def accept_name(self, *names):
        kind, text, _ = self.peek()
        if kind == "name" and text in names:
            return self.advance()
        return None

    def expect_op(self, op, what):
        tok = self.accept_op(op)
        if tok is None:
            _, text, pos = self.peek()
            raise ParseError(self.source, pos, f"expected {what}")
        return tok

    def fail_here(self, reason):
        _, _, pos = self.peek()
        raise ParseError(self.source, pos, reason)

    # grammar, loosest binding first

    def parse_expression(self):
        node = self.parse_and()
        while self.accept_name("or"):
            node = Bin("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_comparison()
        while self.accept_name("and"):
            node = Bin("and", node, self.parse_comparison())
        return node

    def parse_comparison(self):
        node = self.parse_sum()
        kind, text, _ = self.peek()
        if kind == "op" and text in _CMP_OPS:
            self.advance()
            node = Bin(text, node, self.parse_sum())
            kind, text, _ = self.peek()
            if kind == "op" and text in _CMP_OPS:
                self.fail_here("chained comparisons are not supported")
        return node

    def parse_sum(self):
        node = self.parse_term()
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return node
            node = Bin(tok[1], node, self.parse_term())

    def parse_term(self):
        node = self.parse_factor()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return node
            node = Bin(tok[1], node, self.parse_factor())

    def parse_factor(self):
        if self.accept_op("-"):
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.accept_op("^"):
            # exponent re-enters at factor level: ^ is right-associative
            # and 2^-3 parses as 2^(-3)
            node = Bin("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            return Num(float(text))
        if kind == "op" and text == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_op(")", "')'")
            return node
        if kind == "name":
            if text == "if":
                self.advance()
                self.expect_op("(", "'(' after 'if'")
                cond = self.parse_expression()
                self.expect_op(",", "',' after the condition")
                then = self.parse_expression()
                self.expect_op(",", "',' after the second branch")
                other = self.parse_expression()
                self.expect_op(")", "')'")
                return If(cond, then, other)
            if text in ("and", "or"):
                self.fail_here("expected an operand")
            self.advance()
            if self.accept_op("("):
                if text not in FUNCTIONS:
                    raise ParseError(self.source, pos, f"unknown function {text!r}")
                arg = self.parse_expression()
                self.expect_op(")", "')'")
                return Call(text, arg)
            if text not in self.variables:
                raise ParseError(self.source, pos, f"unknown variable {text!r}")
            return Var(text)
        self.fail_here("expected an operand")


def parse(source: str, variables: Iterable[str]) -> Expr:
    """Parse ``source`` into an AST over the declared ``variables``.

    Any name that is not a declared variable, a known function, or one of
    the keywords if/and/or raises ParseError, carrying the 0-based offset
    of the failure (``position`` is at most ``len(source)``).

    Example:
        >>> e = parse("if(v<=0 and u<=0, v-u, u-v)", {"v", "u"})
        >>> evaluate(e, {"v": -1.0, "u": -2.0})
        1.0
    """
    declared = frozenset(variables)
    reserved = declared.intersection(FUNCTIONS + _KEYWORDS)
    if reserved:
        raise ValueError(f"variable names collide with reserved words: {sorted(reserved)}")
    parser = _Parser(source, declared)
    node = parser.parse_expression()
    kind, text, pos = parser.peek()
    if kind != "eof":
        raise ParseError(source, pos, f"unexpected trailing input {text!r}")
    return node


def pretty(e: Expr) -> str:
    """Render ``e`` fully parenthesised so reparsing gives the same AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{pretty(e.operand)})"
    if isinstance(e, Bin):
        return f"({pretty(e.left)} {e.op} {pretty(e.right)})"
    if isinstance(e, Call):
        return f"{e.name}({pretty(e.arg)})"
    if isinstance(e, If):
        return f"if({pretty(e.cond)}, {pretty(e.then)}, {pretty(e.other)})"
    raise TypeError(f"not an expression node: {e!r}")


def _fail(text, value, reason):
    raise EvalDomainError(text, value, reason)


def _guarded_exp(x, text):
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalDomainError(text, x, "overflow in exp") from None


def _guarded_trig(fn, x, text):
    try:
        return fn(x)
    except ValueError:  # math.sin and math.cos at +-inf
        raise EvalDomainError(text, x, f"{fn.__name__} of infinite argument") from None


def _guarded_pow(base, exponent, text):
    if base < 0.0 and exponent != math.floor(exponent):
        raise EvalDomainError(text, base, "fractional power of negative base")
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError(text, base, "zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise EvalDomainError(text, base, "overflow in power") from None


# globals of every compiled function; names start with "_" and never
# clash with the argument slots (_a<i>) or the temporaries (_t<i>)
_RUNTIME = {
    "__builtins__": {},
    "_fail": _fail,
    "_pow": _guarded_pow,
    "_exp_guarded": _guarded_exp,
    "_trig_guarded": _guarded_trig,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_sin": math.sin,
    "_cos": math.cos,
    "_abs": abs,
}
_ARITH = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_COMPARE = {"<": ast.Lt, "<=": ast.LtE, ">": ast.Gt, ">=": ast.GtE, "==": ast.Eq}
_LOGIC = {"and": ast.And, "or": ast.Or}
# function -> (comparison with 0.0 that puts its argument out of domain, reason)
_DOMAIN = {
    "log": (ast.LtE, "log of non-positive argument"),
    "sqrt": (ast.Lt, "square root of negative argument"),
}


def _node(cls, *fields):
    # compile() needs a position on every node that can carry one; setting
    # it here is much cheaper than ast.fix_missing_locations afterwards
    return cls(*fields, lineno=1, col_offset=0)


def _name(ident):
    return _node(ast.Name, ident, ast.Load())


def _const(value):
    return _node(ast.Constant, value)


def _call(fn, *args):
    return _node(ast.Call, _name(fn), list(args), [])


def _compare(node, op, value):
    return _node(ast.Compare, node, [op()], [value])


def _choose(test, then, other):
    return _node(ast.IfExp, test, then, other)


def _nonzero(node):
    # exact IEEE test, as "if" and "and"/"or" read their operands
    return _compare(node, ast.NotEq, _const(0.0))


def _indicator(test):
    return _choose(test, _const(1.0), _const(0.0))


def _failure(text, value, reason):
    return _call("_fail", _const(text), value, _const(reason))


class _Compiler:
    """Turn an AST into one Python expression over argument slots.

    Operands evaluate left to right, except that "/" evaluates and checks
    its denominator first; only the taken branch of "if", "and" and "or"
    runs.  Guard failures call ``_fail``, so the generated code stays a
    single expression and error texts are fixed at compile time.
    """

    def __init__(self, index: Mapping[str, int]):
        self.index = index
        self.temps = 0

    def bind(self, value):
        """(fresh local ``x``, an expression that evaluates ``value`` into it)."""
        ident = f"_t{self.temps}"
        self.temps += 1
        return _name(ident), _node(ast.NamedExpr, _node(ast.Name, ident, ast.Store()), value)

    def guard(self, value, op, limit, unsafe, safe):
        """``unsafe(x)`` if ``value op limit`` holds, else ``safe(x)``.

        ``value`` is evaluated once, into a fresh local ``x``.
        """
        x, bind = self.bind(value)
        return _choose(_compare(bind, op, _const(limit)), unsafe(x), safe(x))

    def build(self, e):
        if isinstance(e, Num):
            return _const(e.value)
        if isinstance(e, Var):
            try:
                return _name(f"_a{self.index[e.name]}")
            except KeyError:
                raise ValueError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Neg):
            return _node(ast.UnaryOp, ast.USub(), self.build(e.operand))
        if isinstance(e, Bin):
            return self.binary(e)
        if isinstance(e, Call):
            return self.call(e)
        if isinstance(e, If):
            cond = self.build(e.cond)
            then = self.build(e.then)
            other = self.build(e.other)
            return _choose(_nonzero(cond), then, other)
        raise TypeError(f"not an expression node: {e!r}")

    def binary(self, e):
        op = e.op
        left = self.build(e.left)
        right = self.build(e.right)
        if op in _LOGIC:
            # Python's and/or short-circuit: the right operand is lazy
            return _indicator(_node(ast.BoolOp, _LOGIC[op](), [_nonzero(left), _nonzero(right)]))
        if op in _ARITH:
            return _node(ast.BinOp, left, _ARITH[op](), right)
        if op in _COMPARE:
            return _indicator(_compare(left, _COMPARE[op], right))
        if op == "/":
            text = pretty(e)
            return self.guard(right, ast.Eq, 0.0,
                              lambda den: _failure(text, den, "division by zero"),
                              lambda den: _node(ast.BinOp, left, ast.Div(), den))
        if op == "^":
            return _call("_pow", left, right, _const(pretty(e)))
        raise ValueError(f"unknown operator {op!r}")

    def call(self, e):
        name = e.name
        arg = self.build(e.arg)
        direct = lambda x: _call(f"_{name}", x)
        if name == "abs":
            return direct(arg)
        text = pretty(e)
        if name in ("sin", "cos"):
            # a finite argument calls math directly; +-inf (and NaN, whose
            # result stays NaN) goes through the helper
            x, bind = self.bind(arg)
            finite = _node(ast.Compare, _const(-math.inf), [ast.Lt(), ast.Lt()],
                           [bind, _const(math.inf)])
            return _choose(finite, direct(x), _call("_trig_guarded", _name(f"_{name}"), x,
                                                    _const(text)))
        if name == "exp":
            # exp(709.0) is finite: at or below it, and at NaN, math.exp
            # cannot overflow and is called directly
            return self.guard(arg, ast.Gt, 709.0,
                              lambda x: _call("_exp_guarded", x, _const(text)), direct)
        op, reason = _DOMAIN[name]
        return self.guard(arg, op, 0.0, lambda x: _failure(text, x, reason), direct)


@lru_cache(maxsize=None)
def compile_expr(e: Expr, var_order: Tuple[str, ...]) -> Callable[..., float]:
    """Compile ``e`` into a positional callable over ``var_order``.

    The AST becomes one Python function, built as a Python ``ast`` tree
    and passed to ``compile()``: an evaluation runs in a single frame,
    with helpers called only for "^", for exp above 709, for sin and cos
    off the finite floats and on a domain error.  Variables bind to
    argument slots by position, so any declared name is safe.  An unbound
    variable raises ValueError here.
    """
    index = {name: i for i, name in enumerate(var_order)}
    body = _Compiler(index).build(e)
    params = [_node(ast.arg, f"_a{i}") for i in range(len(var_order))]
    tree = ast.Expression(_node(ast.Lambda,
                                ast.arguments([], params, None, [], [], None, []), body))
    return eval(compile(tree, "<simpvex expression>", "eval"), _RUNTIME)


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate ``e`` with the given variable bindings."""
    order = tuple(sorted(bindings))
    fn = compile_expr(e, order)
    return fn(*(float(bindings[name]) for name in order))


def check_derivative(f: Expr, df: Expr, interval: Tuple[float, float],
                     points: int = 11, tol: float = 1e-4) -> PropertyReport:
    """Cross-check ``df`` against central finite differences of ``f``.

    Samples ``points`` equispaced interior points of ``interval`` and
    compares df(x) with (f(x+h) - f(x-h)) / (2h), h = max(1e-6, 1e-6|x|).
    The mismatch is measured relative to max(1, |df(x)|, |fd|), which
    keeps the gate meaningful where the derivative passes through zero.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    if points < 3:
        raise ValueError("need at least 3 sample points")
    f_fn = compile_expr(f, ("x",))
    df_fn = compile_expr(df, ("x",))
    worst = -math.inf
    witness = None
    for i in range(points):
        x = lo + (i + 1) * (hi - lo) / (points + 1)
        h = max(1e-6, 1e-6 * abs(x))
        fd = (f_fn(x + h) - f_fn(x - h)) / (2.0 * h)
        want = df_fn(x)
        mismatch = abs(want - fd) / max(1.0, abs(want), abs(fd))
        if mismatch > worst:
            worst = mismatch
            witness = (x, want, fd)
    if worst > tol:
        return PropertyReport("derivative", VIOLATED, worst, witness, points)
    return PropertyReport("derivative", VERIFIED, worst, None, points)
