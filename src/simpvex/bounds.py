"""Simpson defect of a function along an eta step, and its upper bounds.

For a function f on [a, a + eta] the defect is

    (1/6) [f(a) + 4 f(a + eta/2) + f(a + eta)] - (1/eta) integral f,

i.e. the gap between the 1-4-1 Simpson combination and the mean of f.
An integration-by-parts identity expresses the defect as
eta * integral_0^1 m(t) f'(a + t*eta) dt with the piecewise kernel from
:mod:`simpvex.kernel`; ``lemma_rhs`` evaluates that side numerically.

The bound evaluators return the right-hand sides of closed-form
inequalities that dominate |defect| under sampled hypotheses on |f'|^q:

    T3.1           (5/72) eta (|f'(a)| + |f'(b)|)            preinvex, q = 1
    T3.2, T3.3     Hoelder splits with the p-th kernel moment preinvex, q > 1
    T3.4           power-mean form with weights 61,29/1296    preinvex, q >= 1
    T4.1 (C4.1)    (5/36) eta max(...)                        prequasiinvex, q >= 1
    T4.2, T4.3     Hoelder variants of T4.1                   prequasiinvex, q > 1
    C4.2           midpoint-vs-mean gap when f(a) = f(mid) = f(end)
    CLASSICAL      sup|f''''| eta^4 / 2880

Each BoundValue carries slack = rhs - lhs - quadrature_error, lhs being
|defect| (C4.2: |f(a + eta/2) - mean of f|).  Without an antiderivative,
quadrature_error is the adaptive quadrature's |S2 - S1|/15 panel
estimate, a heuristic and not a bound on the true error (Gander & Gautschi, "Adaptive quadrature - revisited", BIT 40,
2000).  The slack accounts for that estimate only; ``run_case`` counts a
bound violated when slack < -(2*quadrature_error + tol.slack), a
counterexample up to the estimate's reliability; certified verdicts are
an open roadmap item.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import expr as expr_mod
from . import kernel, quadrature
from .errors import (
    CaseConfigError,
    DomainError,
    EvalDomainError,
    InvalidEta,
    MissingFourthDerivative,
    NonFiniteIntegrand,
    PreconditionUnmet,
    QuadratureError,
)
from .invexity import Domain, check_derivative
from .quadrature import QuadratureResult
from .record import Record

__all__ = [
    "FunctionModel",
    "SimpsonDefect",
    "BoundValue",
    "Theorem",
    "THEOREMS",
    "simpson_defect",
    "lemma_rhs",
    "midpoint_gap",
    "fourth_derivative_sup",
    "bound_T3_1",
    "bound_T3_2",
    "bound_T3_3",
    "bound_T3_4",
    "bound_T4_1",
    "bound_T4_2",
    "bound_T4_3",
    "bound_C4_2_midpoint",
    "bound_classical",
]

_LARGE_EXPONENT = 100.0
_TINY = 2.0 ** -1022  # the least normal float: a power below it has lost bits
_PRECONDITION_TOL = 1e-9  # C4.2's f(a) = f(a + eta/2) = f(a + eta), to within this

# kernel constants, taken once; float(Fraction(n, d)) == n / d exactly
_M1 = float(kernel.moment_p_exact(1))  # 5/72
_HALF_NEAR, _HALF_FAR = (float(w) for w in kernel.half_weights())  # 3/8, 1/8
_W_END, _W_FAR, _, _ = (float(w) for w in kernel.weighted_moments())  # 61/1296, 29/1296


def _config_float(value, field: str) -> float:
    """float(value) of a config number; CaseConfigError naming ``field`` if it overflows."""
    try:
        return float(value)
    except OverflowError:
        raise CaseConfigError(f"{field} is an integer too large for a float") from None


class FunctionModel(Record):
    """A named function f with its derivative and optional extras.

    ``df`` must survive a central finite-difference cross-check and, when
    an antiderivative ``F`` is supplied, F must agree with quadrature;
    both gates run in :meth:`validate`, which case loading always calls.
    ``d4sup`` is a user-supplied sup of |f''''| on the case interval and
    unlocks the classical bound; ValueError unless it is None or a finite
    value >= 0.
    """

    name: str
    f: expr_mod.Expr
    df: expr_mod.Expr
    domain: Domain
    F: Optional[expr_mod.Expr] = None
    d4sup: Optional[float] = None

    def __post_init__(self):
        d4sup = self.d4sup
        if d4sup is not None and not (math.isfinite(d4sup) and d4sup >= 0.0):
            raise ValueError(f"d4sup must be a finite value >= 0, got {d4sup!r}")

    @cached_property
    def f_fn(self):
        return expr_mod.compile_expr(self.f, ("x",))

    @cached_property
    def df_fn(self):
        return expr_mod.compile_expr(self.df, ("x",))

    @cached_property
    def F_fn(self):
        if self.F is None:
            return None
        return expr_mod.compile_expr(self.F, ("x",))

    @classmethod
    def from_config(cls, cfg: dict) -> "FunctionModel":
        try:
            f = expr_mod.parse(cfg["f"], {"x"})
            df = expr_mod.parse(cfg["df"], {"x"})
            F = expr_mod.parse(cfg["F"], {"x"}) if cfg.get("F") is not None else None
        except expr_mod.ParseError as exc:
            raise CaseConfigError(f"bad expression in case {cfg.get('name')!r}: {exc}") from exc
        d4sup = cfg.get("d4sup")
        if d4sup is not None:
            d4sup = _config_float(d4sup, "d4sup")
        lo, hi = cfg["K"]
        try:
            domain = Domain(_config_float(lo, "K[0]"), _config_float(hi, "K[1]"))
        except ValueError as exc:
            raise CaseConfigError(f"bad K in case {cfg.get('name')!r}: {exc}") from exc
        try:
            return cls(cfg["name"], f, df, domain, F, d4sup)
        except ValueError as exc:  # a d4sup that __post_init__ rejects
            raise CaseConfigError(str(exc)) from None

    def validate(self, interval=None, quad_tol: float = quadrature.DEFAULT_ABS_TOL) -> None:
        """Run the load-time gates; raises CaseConfigError on failure, also
        where f, df or F fails at a point a gate reads.

        The derivative gate samples 33 points of the whole domain (mismatch
        1e-4); the antiderivative gate integrates f to ``quad_tol`` over
        ``interval`` (the case interval) when given, the domain otherwise (1e-9).
        """
        try:
            gate = check_derivative(self.f_fn, self.df_fn, (self.domain.lo, self.domain.hi),
                                    33, 1e-4)
        except EvalDomainError as exc:
            raise CaseConfigError(f"model {self.name!r}: derivative gate: {exc}") from exc
        if gate.violated:
            x, want, got = gate.witness
            raise CaseConfigError(
                f"model {self.name!r}: df disagrees with finite differences of f "
                f"at x={x!r} (df={want!r}, fd~{got!r}, mismatch {gate.worst_violation:.3e})"
            )
        if self.F_fn is not None:
            lo, hi = interval if interval is not None else (self.domain.lo, self.domain.hi)
            try:
                qr = quadrature.integrate(self.f_fn, lo, hi, quad_tol)
                direct = self.F_fn(hi) - self.F_fn(lo)
            except QuadratureError as exc:
                raise CaseConfigError(
                    f"model {self.name!r}: cannot integrate f on [{lo!r}, {hi!r}] "
                    f"to check F: {exc}") from exc
            except EvalDomainError as exc:
                raise CaseConfigError(
                    f"model {self.name!r}: antiderivative gate: {exc}") from exc
            if abs(direct - qr.value) > 1e-9:
                raise CaseConfigError(
                    f"model {self.name!r}: antiderivative F disagrees with quadrature "
                    f"on [{lo!r}, {hi!r}]: {direct!r} vs {qr.value!r}"
                )


class SimpsonDefect(Record):
    """Signed Simpson-minus-mean gap with its quadrature error share."""

    simpson_value: float
    mean_integral: float
    defect: float
    quadrature_error: float
    evaluations: int
    f_values: Tuple[float, float, float]  # f(a), f(mid), f(end) of the sum


class BoundValue(Record):
    """One evaluated bound.  slack < 0 beyond tolerance means violation."""

    theorem: str
    q: Optional[float]
    p: Optional[float]
    rhs: float
    slack: Optional[float]

    def __post_init__(self):
        if not self.rhs >= 0.0:
            raise ValueError(f"bound {self.theorem} produced negative rhs {self.rhs!r}")

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "q": self.q, "p": self.p,
                "rhs": self.rhs, "slack": self.slack}


def _require_step(eta_val: float) -> float:
    eta_val = float(eta_val)
    if not (math.isfinite(eta_val) and eta_val > 0.0):
        raise InvalidEta(f"eta step must be positive, got {eta_val!r}")
    return eta_val


def _require_path(a: float, eta_val: float, domain: Domain) -> float:
    """The checked step; DomainError unless a and a + step lie in ``domain``."""
    eta_val = _require_step(eta_val)
    for endpoint in (a, a + eta_val):
        if not domain.contains(endpoint):
            raise DomainError(
                f"path endpoint {endpoint!r} outside [{domain.lo!r}, {domain.hi!r}]")
    return eta_val


def _simpson(f, a: float, steps: Sequence[float]):
    """(f(a), [f(mid)], [f(end)], [Simpson value]) on [a, end = a + step] per step
    of ``steps``, f called at a, then at each mid, then at each end: the one home
    of the Simpson sum, unchecked: the caller has checked each step > 0 and that
    a and a + step lie in the model's domain, as ``simpson_defect`` does."""
    fa = f(a)
    fmids = [f(a + 0.5 * step) for step in steps]
    fends = [f(a + step) for step in steps]
    return fa, fmids, fends, [(fa + 4.0 * fmid + fend) / 6.0 for fmid, fend in zip(fmids, fends)]


def _mean(model: FunctionModel, a: float, step: float, abs_tol: float):
    """(mean of f on [a, a + step], its quadrature error share, evaluations): the
    one home of the mean, unchecked, as ``_simpson``; F's where given."""
    end = a + step
    F = model.F_fn
    if F is not None:
        return (F(end) - F(a)) / step, 0.0, 0
    value, error, evaluations = quadrature._integrate_unchecked(model.f_fn, a, end, abs_tol)
    return value / step, error / step, evaluations


def simpson_defect(model: FunctionModel, a: float, eta_val: float,
                   abs_tol: float = quadrature.DEFAULT_ABS_TOL) -> SimpsonDefect:
    """Compute the Simpson-vs-mean defect of ``model`` on [a, a + eta_val].

    Uses the supplied antiderivative for the mean when available (then
    quadrature_error is 0), numeric integration otherwise.
    """
    eta_val = _require_path(a, eta_val, model.domain)
    fa, (fmid,), (fend,), (simpson_value,) = _simpson(model.f_fn, a, (eta_val,))
    mean, qerr, evals = _mean(model, a, eta_val, abs_tol)
    return SimpsonDefect(simpson_value, mean, simpson_value - mean, qerr, evals, (fa, fmid, fend))


def lemma_rhs(model: FunctionModel, a: float, eta_val: float,
              abs_tol: float = quadrature.DEFAULT_ABS_TOL) -> QuadratureResult:
    """Kernel-integral side of the defect identity, as a QuadratureResult.

    Evaluates eta * integral_0^1 m(t) f'(a + t*eta) dt.  The kernel
    jumps at t = 1/2, so the halves are integrated separately with the
    correct one-sided branch; sampling eval_m at the shared endpoint
    would feed the quadrature a spurious endpoint discontinuity.  The
    value equals the signed defect up to the reported error estimate.
    A NonFiniteIntegrand, or a QuadratureError for a panel too narrow to
    split, names points x = a + t*eta of K, not t.
    """
    eta_val = _require_path(a, eta_val, model.domain)
    df = model.df_fn

    def left(t: float) -> float:
        return (t - 1.0 / 6.0) * df(a + t * eta_val)

    def right(t: float) -> float:
        return (t - 5.0 / 6.0) * df(a + t * eta_val)

    half_tol = 0.5 * abs_tol
    budget = quadrature.DEFAULT_MAX_EVALS  # the right half gets what the left leaves
    try:
        qa = quadrature.integrate(left, 0.0, 0.5, half_tol, budget)
        qb = quadrature.integrate(right, 0.5, 1.0, half_tol, budget - qa.evaluations)
    except NonFiniteIntegrand as exc:
        raise NonFiniteIntegrand(a + exc.abscissa * eta_val, exc.value) from None
    except QuadratureError as exc:
        if exc.interval is None:  # BudgetExhausted names no point
            raise
        raise QuadratureError.unrefinable(*(a + t * eta_val for t in exc.interval)) from None
    return QuadratureResult(
        eta_val * (qa.value + qb.value),
        eta_val * (qa.error_estimate + qb.error_estimate),
        qa.evaluations + qb.evaluations,
    )


def midpoint_gap(model: FunctionModel, a: float, eta_val: float,
                 abs_tol: float = quadrature.DEFAULT_ABS_TOL):
    """|f(a + eta/2) - mean of f| building block of the midpoint bound.

    Returns (gap, quadrature_error).
    """
    eta_val = _require_path(a, eta_val, model.domain)
    _, (fmid,), _, _ = _simpson(model.f_fn, a, (eta_val,))
    mean, qerr, _ = _mean(model, a, eta_val, abs_tol)
    return fmid - mean, qerr


def fourth_derivative_sup(model: FunctionModel) -> float:
    """The model's d4sup, the classical bound's input; MissingFourthDerivative without one."""
    if model.d4sup is None:
        raise MissingFourthDerivative(
            f"model {model.name!r} has no d4sup; the classical bound needs one")
    return model.d4sup


def _conjugate(q: float) -> float:
    if not q > 1.0:
        raise ValueError(f"this bound needs q > 1, got {q!r}")
    return q / (q - 1.0)


def _moment_root(p: float, scale: float = 1.0) -> float:
    """(scale * moment_p(p))^(1/p), stable for the huge p that q near 1 produces."""
    if p > 50.0:
        return math.exp((math.log(scale) + kernel.log_moment_p(p)) / p)
    return (scale * kernel.moment_p(p)) ** (1.0 / p)


def _power_means(scale: float, w1: float, w2: float, q: float, mirrored: bool):
    """rhs(x1, x2, step) = step * scale * (w1 x1^q + w2 x2^q)^(1/q), plus the same
    with w1, w2 swapped if ``mirrored``; x1^q, then x2^q, once per call.  The
    powers are rescaled by m = max(x1, x2), as m * ((x1/m)^q ...)^(1/q), for
    q > 100 and wherever a plain power leaves the normal float range: below
    _TINY (0.0 or subnormal) from a base above 0, or inf (an overflow).  Every
    other rhs takes the plain powers' float operations.  The rhs is 0 at m = 0
    and inf at m = inf, as the plain formula gives."""
    r = 1.0 / q
    rescale = q > _LARGE_EXPONENT

    def rhs(x1, x2, step):
        if not rescale:
            try:
                p1 = x1 ** q
                p2 = x2 ** q
            except OverflowError:
                p1 = p2 = math.inf
            if not (p1 < _TINY and x1 > 0.0 or p2 < _TINY and x2 > 0.0
                    or p1 == math.inf or p2 == math.inf):
                s = (w1 * p1 + w2 * p2) ** r
                return step * scale * (s + (w2 * p1 + w1 * p2) ** r if mirrored else s)
        m = max(x1, x2)
        if m == 0.0 or m == math.inf:
            return step * scale * m
        p1 = (x1 / m) ** q
        p2 = (x2 / m) ** q
        s = m * (w1 * p1 + w2 * p2) ** r
        return step * scale * (s + m * (w2 * p1 + w1 * p2) ** r if mirrored else s)

    return rhs


# rhs_for(q) -> rhs(x1, x2, step) over x1 = |f'(a)|, x2 = |f'(b)|: each
# bound's formula with its q-only factors taken once.  They do not check
# q; the (q, p) labels of THEOREMS do.

def _rhs_T3_1(q):
    return lambda x1, x2, step: _M1 * step * (x1 + x2)


def _rhs_T3_2(q: float):
    return _power_means(_moment_root(_conjugate(q)), _HALF_NEAR, _HALF_FAR, q, True)


def _rhs_T3_3(q: float):
    return _power_means(_moment_root(_conjugate(q), 2.0), 0.5, 0.5, q, False)


def _rhs_T3_4(q: float):
    return _power_means(_M1 ** (1.0 - 1.0 / q), _W_END, _W_FAR, q, True)


def _max_rhs(x1, x2, step):
    """(5/36) eta max(|f'(a)|, |f'(b)|), the rhs of T4.1, C4.1 and C4.2: no q in it."""
    return 2.0 * _M1 * step * (x2 if x2 > x1 else x1)


def _rhs_T4_1(q):
    """``_max_rhs`` itself for every q, so a scan ranks its pairs' cells once."""
    return _max_rhs


def _rhs_T4_2(q: float):
    root, half = _moment_root(_conjugate(q)), 0.5 ** (1.0 / q)
    return lambda x1, x2, step: 2.0 * step * root * (x2 if x2 > x1 else x1) * half


def _rhs_T4_3(q: float):
    root, half = _moment_root(_conjugate(q), 2.0), 0.5 ** (1.0 / q)
    return lambda x1, x2, step: step * root * (x2 if x2 > x1 else x1) * half


def _rhs_classical(d4sup: float):
    """sup|f''''| eta^4 / 2880: takes d4sup in the place of q, reads no magnitudes."""
    return lambda x1, x2, step: d4sup * step ** 4 / 2880.0


def _midpoint_cells(fa: float, fmids: Sequence[float], fends: Sequence[float]) -> List[int]:
    """The k where C4.2's precondition f(a) = fmids[k] = fends[k] holds within
    _PRECONDITION_TOL, for the Simpson values of cells sharing their a."""
    return [k for k, (fmid, fend) in enumerate(zip(fmids, fends))
            if not (abs(fa - fmid) > _PRECONDITION_TOL or abs(fmid - fend) > _PRECONDITION_TOL)]


class Theorem(NamedTuple):
    """One bound of the paper: plain values, and the one function rhs_for.

    mode: the property |f'|^q must have on samples; None for no hypothesis.
    qs: the q it takes from a case's q list: "1" (q = 1 alone), ">1", ">=1" (all), "" (none).
    rhs_for: q -> rhs(|f'(a)|, |f'(b)|, step), prepared for q; CLASSICAL takes d4sup.
    labelled: False where its BoundValue's (q, p) is (None, None).
    midpoint: rhs dominates |f(a + eta/2) - mean of f| (C4.2), not |defect|.
    """

    mode: Optional[str]
    qs: str
    rhs_for: Callable[[Optional[float]], Callable[[float, float, float], float]]
    labelled: bool = True
    midpoint: bool = False

    def exponents(self, q_list: Sequence[float]) -> List[Optional[float]]:
        """The q values the bound takes from ``q_list``, in its order."""
        if self.qs == ">1":
            return [q for q in q_list if q > 1.0]
        return list(q_list) if self.qs == ">=1" else [1.0] if self.qs else [None]

    def labels(self, q: Optional[float]) -> Tuple[Optional[float], Optional[float]]:
        """The (q, p) of its BoundValue; ValueError for a q out of its range."""
        if not self.labelled:
            return None, None
        if self.qs == ">1":
            return q, _conjugate(q)
        if q < 1.0:
            raise ValueError(f"this bound needs q >= 1, got {q!r}")
        return q, None


# The one theorem table: the bound_* wrappers, runner.run_case and
# runner.tightness_scan all reach each bound through it.
THEOREMS: Dict[str, Theorem] = {
    "T3.1": Theorem("preinvex", "1", _rhs_T3_1, labelled=False),
    "T3.2": Theorem("preinvex", ">1", _rhs_T3_2),
    "T3.3": Theorem("preinvex", ">1", _rhs_T3_3),
    "T3.4": Theorem("preinvex", ">=1", _rhs_T3_4),
    "T4.1": Theorem("prequasiinvex", ">=1", _rhs_T4_1),
    "T4.2": Theorem("prequasiinvex", ">1", _rhs_T4_2),
    "T4.3": Theorem("prequasiinvex", ">1", _rhs_T4_3),
    "C4.1": Theorem("prequasiinvex", "1", _rhs_T4_1),
    "C4.2": Theorem("prequasiinvex", "1", _rhs_T4_1, labelled=False, midpoint=True),
    "CLASSICAL": Theorem(None, "", _rhs_classical, labelled=False),
}


def _bound(theorem: str, model: FunctionModel, a: float, b: float, eta_val: float,
           q: Optional[float], defect: Optional[SimpsonDefect]) -> BoundValue:
    """The BoundValue of THEOREMS[theorem], the one home of a bound's lhs and slack.

    Checks the step, then q, then, given a defect, takes |defect| or C4.2's
    midpoint gap (PreconditionUnmet off its precondition), then reads f'
    (EvalDomainError naming a or b where |f'| is NaN there), or for
    CLASSICAL (q None) d4sup (MissingFourthDerivative without one).
    slack = rhs - lhs - defect.quadrature_error; None without a defect.
    """
    row = THEOREMS[theorem]
    eta_val = _require_step(eta_val)
    q_label, p = row.labels(q)
    lhs = None if defect is None else abs(defect.defect)
    if defect is not None and row.midpoint:  # C4.2: |f(mid) - mean|, on its precondition
        fa, fmid, fend = defect.f_values
        if not _midpoint_cells(fa, (fmid,), (fend,)):
            raise PreconditionUnmet("midpoint bound needs f(a) = f(mid) = f(end); got "
                                    + ", ".join(map(repr, defect.f_values)))
        lhs = abs(fmid - defect.mean_integral)
    if row.mode is None:  # CLASSICAL: d4sup in the place of q, and no f'
        q, x1, x2 = fourth_derivative_sup(model), None, None
    else:
        x1, x2 = abs(model.df_fn(a)), abs(model.df_fn(b))
        for x, magnitude in ((a, x1), (b, x2)):
            if magnitude != magnitude:
                raise EvalDomainError(expr_mod.pretty(model.df), x, "NaN value")
    rhs = row.rhs_for(q)(x1, x2, eta_val)
    slack = None if defect is None else rhs - lhs - defect.quadrature_error
    return BoundValue(theorem, q_label, p, rhs, slack)


def bound_T3_1(model: FunctionModel, a: float, b: float, eta_val: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Endpoint-mean bound (5/72) eta (|f'(a)| + |f'(b)|)."""
    return _bound("T3.1", model, a, b, eta_val, None, defect)


def bound_T3_2(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Half-split Hoelder bound with weights 3/8 and 1/8, q > 1."""
    return _bound("T3.2", model, a, b, eta_val, q, defect)


def bound_T3_3(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Whole-interval Hoelder bound with the plain endpoint mean, q > 1."""
    return _bound("T3.3", model, a, b, eta_val, q, defect)


def bound_T3_4(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Power-mean bound with the 61/1296, 29/1296 weights, q >= 1."""
    return _bound("T3.4", model, a, b, eta_val, q, defect)


def bound_T4_1(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Max-endpoint bound (5/36) eta max(|f'(a)|^q, |f'(b)|^q)^(1/q).

    The q-th root of the max of q-th powers is the max of the
    magnitudes, so the rhs is computed that way; q = 1 is Corollary C4.1.
    """
    return _bound("T4.1", model, a, b, eta_val, q, defect)


def bound_T4_2(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Hoelder variant 2 eta M_p^(1/p) (max/2)^(1/q), q > 1."""
    return _bound("T4.2", model, a, b, eta_val, q, defect)


def bound_T4_3(model: FunctionModel, a: float, b: float, eta_val: float, q: float,
               defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Hoelder variant eta (2 M_p)^(1/p) (max/2)^(1/q), q > 1.

    Never exceeds the T4.2 value: in exact arithmetic
    T4.2 / T4.3 = 2 / 2^(1/p) = 2^(1/q), which is > 1 for every q > 1.
    """
    return _bound("T4.3", model, a, b, eta_val, q, defect)


def bound_C4_2_midpoint(model: FunctionModel, a: float, b: float, eta_val: float,
                        abs_tol: float = quadrature.DEFAULT_ABS_TOL) -> BoundValue:
    """Midpoint-vs-mean bound under f(a) = f(a + eta/2) = f(a + eta).

    Step, path and quadrature errors come first, as ``simpson_defect``
    raises them; then PreconditionUnmet unless the three values agree
    within 1e-9.  The slack takes the midpoint gap |f(a + eta/2) - mean
    of f| as the left-hand side.
    """
    return _bound("C4.2", model, a, b, eta_val, None,
                  simpson_defect(model, a, eta_val, abs_tol))


def bound_classical(model: FunctionModel, a: float, eta_val: float,
                    defect: Optional[SimpsonDefect] = None) -> BoundValue:
    """Classical Simpson bound sup|f''''| eta^4 / 2880."""
    return _bound("CLASSICAL", model, a, None, eta_val, None, defect)
