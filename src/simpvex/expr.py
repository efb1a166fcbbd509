"""Arithmetic expressions over declared real variables.

Small expression language used for function definitions in corpus cases:
literals, variables, + - * / ^ (right-associative), unary minus, the
functions sin cos exp log abs sqrt, and a lazy three-way conditional
if(cond, then, else) whose condition may combine comparisons with
"and"/"or".  Precedence, loosest to tightest:

    or < and < comparisons < + - < * / < unary minus < ^

The parser reads the five binary levels from one table, ``_LEVELS``, and
builds each with the same left-associative loop; comparisons do not
chain.  The full grammar ships in docs/grammar.ebnf, whose binary rules a
test holds equal to the table.  Comparisons evaluate to
1.0/0.0 and "if" treats any non-zero condition as true; only the taken
branch of a conditional is evaluated, so the untaken branch may be
outside its domain.

``compile_expr`` turns an AST into one Python function, generated as a
Python ``ast`` tree, so that grid-scale sampling pays one interpreter
frame per evaluation and no helper call; where that fast form raises, a
checked tree evaluator gives the value or raises EvalDomainError naming
the failing sub-expression.  A one-variable expression has one more
compiled form, built on first use and kept on the compiled function:
``abs_batch`` gives |f| at a list of points, from one list
comprehension.  This is the one module that generates code, and it
holds only the language and its generator.  Nothing else is cached: each
``compile_expr`` call builds a new function, which its owner (a
``FunctionModel`` or an ``EtaMap``) keeps.  Evaluation is pure and
deterministic: the same AST evaluated at the same inputs returns the same
bit pattern, except for the sign of a NaN, which CPython's adaptive float
arithmetic may flip from one call to the next (reports write every NaN as
``NaN``).
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import EvalDomainError, ParseError
from .record import Record

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
    "abs_batch",
    "pretty",
    "FUNCTIONS",
]


class Num(Record):
    value: float


class Var(Record):
    name: str


class Neg(Record):
    operand: "Expr"


class Bin(Record):
    op: str
    left: "Expr"
    right: "Expr"


class Call(Record):
    name: str
    arg: "Expr"


class If(Record):
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call, If]

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")
_KEYWORDS = ("if", "and", "or")
# each operator's Python function (for _checked) and ast operator (for _Compiler)
_ARITH = {"+": (operator.add, ast.Add), "-": (operator.sub, ast.Sub),
          "*": (operator.mul, ast.Mult)}
_COMPARE = {"<": (operator.lt, ast.Lt), "<=": (operator.le, ast.LtE), ">": (operator.gt, ast.Gt),
            ">=": (operator.ge, ast.GtE), "==": (operator.eq, ast.Eq)}
_CMP_OPS = tuple(_COMPARE)
# the left-associative binary levels, loosest first; unary minus and the
# right-associative ^ bind tighter, in _Parser.parse_factor
_LEVELS = (("or",), ("and",), _CMP_OPS, ("+", "-"), ("*", "/"))

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
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
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

    def accept(self, texts):
        """The next token's text, consumed, if it is one of the tuple ``texts``,
        else None: numbers, names and operators never share a text."""
        text = self.tokens[self.i][1]
        if text in texts:
            self.i += 1
            return text
        return None

    def expect(self, text, what):
        if self.accept((text,)) is None:
            self.fail_here(f"expected {what}")

    def fail_here(self, reason):
        raise ParseError(self.source, self.peek()[2], reason)

    def parse_expression(self, level=0):
        """A left-associative chain of ``_LEVELS[level]`` operators over the
        tighter levels; comparisons do not chain."""
        if level == len(_LEVELS):
            return self.parse_factor()
        ops = _LEVELS[level]
        node = self.parse_expression(level + 1)
        while True:
            op = self.accept(ops)
            if op is None:
                return node
            node = Bin(op, node, self.parse_expression(level + 1))
            if ops is _CMP_OPS and self.peek()[1] in ops:
                self.fail_here("chained comparisons are not supported")

    def parse_factor(self):
        if self.accept(("-",)):
            return Neg(self.parse_factor())
        node = self.parse_atom()
        if self.accept(("^",)):
            # exponent re-enters at factor level: ^ is right-associative
            # and 2^-3 parses as 2^(-3)
            node = Bin("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        kind, text, pos = self.peek()
        if kind == "number":
            self.i += 1
            return Num(float(text))
        if self.accept(("(",)):
            node = self.parse_expression()
            self.expect(")", "')'")
            return node
        if kind != "name" or text in ("and", "or"):
            self.fail_here("expected an operand")
        self.i += 1
        if text == "if":
            self.expect("(", "'(' after 'if'")
            cond = self.parse_expression()
            self.expect(",", "',' after the condition")
            then = self.parse_expression()
            self.expect(",", "',' after the second branch")
            other = self.parse_expression()
            self.expect(")", "')'")
            return If(cond, then, other)
        if self.accept(("(",)):
            if text not in FUNCTIONS:
                raise ParseError(self.source, pos, f"unknown function {text!r}")
            arg = self.parse_expression()
            self.expect(")", "')'")
            return Call(text, arg)
        if text not in self.variables:
            raise ParseError(self.source, pos, f"unknown variable {text!r}")
        return Var(text)


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


def _guarded_pow(base, exponent, text):
    # ** gives a complex number only for a finite fractional exponent
    if base < 0.0 and math.isfinite(exponent) and exponent != math.floor(exponent):
        raise EvalDomainError(text, base, "fractional power of negative base")
    if base == 0.0 and exponent < 0.0:
        raise EvalDomainError(text, base, "zero raised to a negative power")
    try:
        return base ** exponent
    except OverflowError:
        raise EvalDomainError(text, base, "overflow in power") from None


def _reject():
    # a fast form's inline check failed; _checked decides what to raise
    raise ArithmeticError("outside the fast form's domain")


_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
         "sqrt": math.sqrt, "abs": abs}


def _checked(e, env):
    """Evaluate ``e`` at the bindings ``env``, checking every domain.

    A compiled function runs this whenever its fast form raises, so every
    error, and every value where the fast form raises, comes from here.
    Operands evaluate left to right, except that "/" evaluates and checks
    its denominator first, and only the taken branch of "if", "and" and
    "or" runs.  A failed check raises EvalDomainError naming the
    sub-expression as ``pretty`` renders it.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -_checked(e.operand, env)
    if isinstance(e, If):
        return _checked(e.then if _checked(e.cond, env) != 0.0 else e.other, env)
    if isinstance(e, Call):
        x = _checked(e.arg, env)
        if e.name == "log" and x <= 0.0:
            reason = "log of non-positive argument"
        elif e.name == "sqrt" and x < 0.0:
            reason = "square root of negative argument"
        else:
            try:
                return _MATH[e.name](x)
            except OverflowError:  # exp
                reason = "overflow in exp"
            except ValueError:  # sin and cos at +-inf
                reason = f"{e.name} of infinite argument"
        raise EvalDomainError(pretty(e), x, reason)
    op = e.op
    if op == "/":
        den = _checked(e.right, env)
        if den == 0.0:
            raise EvalDomainError(pretty(e), den, "division by zero")
        return _checked(e.left, env) / den
    left = _checked(e.left, env)
    if op == "and":
        return 1.0 if left != 0.0 and _checked(e.right, env) != 0.0 else 0.0
    if op == "or":
        return 1.0 if left != 0.0 or _checked(e.right, env) != 0.0 else 0.0
    right = _checked(e.right, env)
    if op == "^":
        return _guarded_pow(left, right, pretty(e))
    if op in _ARITH:
        return _ARITH[op][0](left, right)
    return 1.0 if _COMPARE[op][0](left, right) else 0.0


# the globals an expression's body reads.  Names start with "_" and never
# clash with the argument slots (_a<i>), the temporaries (_t<i>) or the
# parameter _points
_NAMES = {
    "_Exception": Exception,
    "_reject": _reject,
    "_floor": math.floor,
    **{f"_{name}": fn for name, fn in _MATH.items()},
}
# globals of every batch form; each fast form runs in its own copy, which
# adds its fallback as _fallback
_RUNTIME = {"__builtins__": {}, **_NAMES}
_FILENAME = "<simpvex expression>"
_LOGIC = {"and": ast.And, "or": ast.Or}


def _node(cls, *fields, **named):
    # compile() needs a position on every node that can carry one; setting
    # it here is much cheaper than ast.fix_missing_locations afterwards
    return cls(*fields, **named, lineno=1, col_offset=0)


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


def _power(base, exponent):
    return _node(ast.BinOp, base, ast.Pow(), exponent)


def _literal(e):
    """The float a literal or a negated literal evaluates to, else None."""
    if isinstance(e, Neg):
        value = _literal(e.operand)
        return None if value is None else -value
    return e.value if isinstance(e, Num) and type(e.value) is float else None


class _Compiler:
    """Turn an AST into the fast form: one Python expression over argument slots.

    The fast form leaves the domain checks to Python's operators and
    ``math``, which raise where ``_checked``'s checks fail, and raises
    something at every argument where ``_checked`` raises, so running
    ``_checked`` whenever the fast form raises reproduces every value and
    every error.  Only the taken branch of "if", "and" and "or" runs.
    """

    def __init__(self, slots: Mapping[str, str]):
        self.slots = slots  # variable name -> the local that holds its value
        self.temps = 0

    def bind(self, value):
        """(fresh local ``x``, an expression that evaluates ``value`` into it)."""
        ident = f"_t{self.temps}"
        self.temps += 1
        return _name(ident), _node(ast.NamedExpr, _node(ast.Name, ident, ast.Store()), value)

    def build(self, e):
        if isinstance(e, Num):
            return _const(e.value)
        if isinstance(e, Var):
            try:
                return _name(self.slots[e.name])
            except KeyError:
                raise ValueError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Neg):
            return _node(ast.UnaryOp, ast.USub(), self.build(e.operand))
        if isinstance(e, Bin):  # in this frame: one frame per tree level, as in _checked
            op = e.op
            left = self.build(e.left)
            right = self.build(e.right)
            if op in _LOGIC:
                # Python's and/or short-circuit: the right operand is lazy
                return _indicator(
                    _node(ast.BoolOp, _LOGIC[op](), [_nonzero(left), _nonzero(right)]))
            if op in _ARITH:
                return _node(ast.BinOp, left, _ARITH[op][1](), right)
            if op in _COMPARE:
                return _indicator(_compare(left, _COMPARE[op][1], right))
            if op == "/":  # ZeroDivisionError where _checked fails
                return _node(ast.BinOp, left, ast.Div(), right)
            if op == "^":
                return self.power(left, right, _literal(e.right))
            raise ValueError(f"unknown operator {op!r}")
        if isinstance(e, Call):  # math raises where _checked fails
            return _call(f"_{e.name}", self.build(e.arg))
        if isinstance(e, If):
            cond = self.build(e.cond)
            then = self.build(e.then)
            other = self.build(e.other)
            return _choose(_nonzero(cond), then, other)
        raise TypeError(f"not an expression node: {e!r}")

    def power(self, base, exponent, literal):
        """Fast ``base ** exponent``; ``literal`` is the exponent's value if fixed.

        ** raises OverflowError, and ZeroDivisionError for zero to a finite
        negative power, where _guarded_pow fails.  It returns a complex
        number for a negative base and a fractional exponent, and a value
        for zero to the power -inf, so those two raise here.
        """
        if literal is not None and math.isfinite(literal):
            if literal == math.floor(literal):
                return _power(base, _const(literal))
            b, bind = self.bind(base)
            return _choose(_compare(bind, ast.Lt, _const(0.0)), _call("_reject"),
                           _power(b, _const(literal)))
        # the exponent first: either order gives the same value, and a raise
        # goes to _checked; floor raises for an infinite or NaN exponent
        x, bind_x = self.bind(exponent)
        b, bind_b = self.bind(base)
        integral = _compare(_call("_floor", x), ast.Eq, x)
        return _choose(_compare(bind_x, ast.NotEq, _const(-math.inf)),
                       _choose(_compare(bind_b, ast.Lt, _const(0.0)),
                               _choose(integral, _power(b, x), _call("_reject")),
                               _power(b, x)),
                       _call("_reject"))

def _params(names):
    return ast.arguments([], [_node(ast.arg, n) for n in names], None, [], [], None, [])


def _function(name, params, body):
    extra = {"type_params": []} if "type_params" in ast.FunctionDef._fields else {}
    return _node(ast.FunctionDef, name, _params(params), body, [], **extra)


def _slots(var_order):
    return [f"_a{i}" for i in range(len(var_order))]


def _body(e, var_order):
    return _Compiler(dict(zip(var_order, _slots(var_order)))).build(e)


def _batch_form(e, var_order):
    """A lambda: the list of abs of the fast form at each point of a sequence."""
    (slot,) = _slots(var_order)
    each = ast.comprehension(_node(ast.Name, slot, ast.Store()), _name("_points"), [], 0)
    tree = ast.Expression(_node(ast.Lambda, _params(["_points"]), _node(
        ast.ListComp, _call("_abs", _body(e, var_order)), [each])))
    return eval(compile(tree, _FILENAME, "eval"), _RUNTIME)


def compile_expr(e: Expr, var_order: Tuple[str, ...]) -> Callable[..., float]:
    """Compile ``e`` into a new positional callable over ``var_order``.

    The AST becomes one new Python function on every call, built as a
    Python ``ast`` tree, which only the caller keeps: an evaluation runs
    in a single frame, inside ``try``, with plain ``/``, ``**`` and
    ``math`` calls and no Python helper on the way to a value.  Python
    raises where a domain check would fail, and the one inline check left
    stops a negative base with a fractional exponent (and, for an
    exponent that is not a finite literal, the power -inf).  When the
    fast form raises, a checked tree evaluator runs on the same
    arguments: every value and every EvalDomainError text, naming the
    failing sub-expression, are its own.  Variables bind to argument
    slots by position, so any declared name is safe.  An unbound variable
    raises ValueError here.
    """
    # the fallback is a global of the function's own copy of _RUNTIME (cheaper per
    # call than a closure), run after the except clause so an EvalDomainError has no
    # fast-form context; fn goes in namespace, not its globals: no cycle to collect
    slots = _slots(var_order)
    definition = _function("_fast", slots, [
        _node(ast.Try, [_node(ast.Return, _body(e, var_order))],
              [_node(ast.ExceptHandler, _name("_Exception"), None, [_node(ast.Pass)])], [], []),
        _node(ast.Return, _call("_fallback", *map(_name, slots))),
    ])
    runtime = dict(_RUNTIME, _fallback=lambda *args: _checked(e, dict(zip(var_order, args))))
    namespace = {}
    exec(compile(ast.Module([definition], []), _FILENAME, "exec"), runtime, namespace)
    fn = namespace["_fast"]
    fn.source, fn.batch = (e, var_order), None  # read by abs_batch
    return fn


def abs_batch(fn) -> Optional[Callable[[Sequence[float]], List[float]]]:
    """The batch form of a one-variable ``compile_expr`` function, else None.

    ``abs_batch(fn)(points)`` returns the list of ``abs(fn(x))`` for each
    x of the sequence ``points``, from one list comprehension: one frame,
    no call per point.  It raises where fn's fast form raises, without
    the checked evaluator's error: call fn point by point to find the
    failing point and its EvalDomainError.  Compiled on first use and kept
    on fn; None from then on if compiling recurses too deep, so fn runs
    point by point.
    """
    source = getattr(fn, "source", None)
    if source is None or fn.__code__.co_filename != _FILENAME or len(source[1]) != 1:
        return None
    form = fn.batch
    if form is None:
        try:
            form = _batch_form(*source)
        except RecursionError:  # _Compiler.build and compile recurse per tree level
            form = False
        fn.batch = form
    return form or None


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate ``e`` once with the given variable bindings, by the checked
    evaluator: a compiled function gives the same value or error.  A
    binding missing where evaluation reaches its variable raises KeyError."""
    return _checked(e, {name: float(value) for name, value in bindings.items()})
