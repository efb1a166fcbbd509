import math
import random
import struct
from dataclasses import replace
from itertools import chain
from operator import sub
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from simpvex.errors import ParseError
from simpvex.expr import compile_expr, parse
from simpvex.invexity import (
    DEFAULT_GRID,
    Domain,
    EtaMap,
    SampleGrid,
    _plan,
    check_invex_set,
    check_preinvex,
    check_prequasiinvex,
    hypothesis_pair,
)
from simpvex.reports import VERIFIED, VIOLATED, PropertyReport


def fn(source):
    return compile_expr(parse(source, {"x"}), ("x",))


def test_domain_basics():
    d = Domain(-1.0, 2.0)
    assert d.contains(-1.0)
    assert d.contains(2.0 + 1e-13)
    assert not d.contains(2.1)
    assert d.grid(3) == [-1.0, 0.5, 2.0]
    with pytest.raises(ValueError):
        Domain(1.0, 1.0)
    with pytest.raises(ValueError):
        Domain(0.0, math.inf)
    with pytest.raises(ValueError):
        d.grid(1)


def test_default_grid_shape():
    assert DEFAULT_GRID == SampleGrid(41, 41, 21, 2000, 170167)


@pytest.mark.parametrize("bad", [dict(nt=1), dict(nu=1), dict(nv=0), dict(nu=-3),
                                 dict(random_triples=-5)])
def test_sample_grid_rejects_degenerate_shapes(bad):
    with pytest.raises(ValueError, match="sample grid needs"):
        SampleGrid(**bad)


def test_smallest_sample_grid_is_usable():
    grid = SampleGrid(nu=2, nv=2, nt=2, random_triples=0)
    report = check_invex_set(Domain(0.0, 1.0), EtaMap.difference(), grid)
    assert report.verdict == VERIFIED
    assert report.samples == 8


def test_eta_difference():
    eta = EtaMap.difference()
    assert eta(3.0, 1.0) == 2.0
    assert eta(-1.0, 4.0) == -5.0
    assert eta.kind == "difference"


def test_eta_abs_example_branches():
    eta = EtaMap.abs_example()
    # same sign: plain difference
    assert eta(-1.0, -2.0) == 1.0
    assert eta(2.0, 0.5) == 1.5
    # zero counts as both signs
    assert eta(0.0, -1.0) == 1.0
    assert eta(2.0, 0.0) == 2.0
    # mixed signs flip the direction
    assert eta(1.0, -2.0) == -3.0
    assert eta(-2.0, 1.0) == 3.0


def test_eta_expression():
    eta = EtaMap.from_expression("v - 2*u")
    assert eta(5.0, 1.0) == 3.0
    assert eta.source == "v - 2*u"
    with pytest.raises(ParseError):
        EtaMap.from_expression("v - w")


def test_eta_from_config_errors():
    with pytest.raises(ValueError):
        EtaMap.from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        EtaMap.from_config({"kind": "expression"})
    assert EtaMap.from_config({"kind": "expression", "value": "v-u"})(3.0, 1.0) == 2.0


def test_builtin_eta_maps_are_shared_values():
    # one instance per built-in kind, so the kept sample plan serves every case on its K
    assert EtaMap.from_config({"kind": "difference"}) is EtaMap.difference()
    assert EtaMap.from_config({"kind": "abs_example"}) is EtaMap.abs_example()


def test_invex_set_difference_always_holds():
    report = check_invex_set(Domain(-2.0, 3.0), EtaMap.difference())
    assert report.verdict == VERIFIED
    assert report.worst_violation <= 0.0
    assert report.witness is None


def test_invex_set_abs_example_fails_on_mixed_interval():
    report = check_invex_set(Domain(-1.0, 1.0), EtaMap.abs_example())
    assert report.verdict == VIOLATED
    assert report.worst_violation == 2.0
    assert report.witness == (-1.0, 1.0, 1.0)


def test_invex_set_abs_example_holds_on_negative_interval():
    report = check_invex_set(Domain(-1.0, 0.0), EtaMap.abs_example())
    assert report.verdict == VERIFIED
    assert report.worst_violation == 0.0


def test_cube_is_not_preinvex_for_difference():
    report = check_preinvex(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert report.verdict == VIOLATED
    assert report.worst_violation == 0.49907812500000004
    assert report.witness == (-1.0, 0.5, 0.35)
    assert report.samples == 41 * 41 * 21 + 2000


def test_cube_excess_at_named_point():
    g = fn("x^3")
    u, v, t = -1.0, 0.0, 0.5
    excess = g(u + t * (v - u)) - ((1.0 - t) * g(u) + t * g(v))
    assert excess == 0.375


def test_neg_square_is_not_prequasiinvex():
    report = check_prequasiinvex(fn("-(x^2)"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert report.verdict == VIOLATED
    assert report.worst_violation == 1.0
    assert report.witness == (-1.0, 1.0, 0.5)


def test_sqrt_fails_preinvex_but_not_prequasiinvex():
    K = Domain(0.0, 1.0)
    pre = check_preinvex(fn("sqrt(x)"), EtaMap.difference(), K)
    assert pre.verdict == VIOLATED
    assert pre.worst_violation == 0.25
    assert pre.witness == (0.0, 1.0, 0.25)
    # monotone on the path, so the max-form inequality survives
    quasi = check_prequasiinvex(fn("sqrt(x)"), EtaMap.difference(), K)
    assert quasi.verdict == VERIFIED


def test_neg_abs_is_preinvex_for_abs_example():
    report = check_preinvex(fn("-abs(x)"), EtaMap.abs_example(), Domain(-1.0, 1.0))
    assert report.verdict == VERIFIED
    assert report.worst_violation <= 1e-12


def test_convex_square_passes_both_checks():
    pre = check_preinvex(fn("x^2"), EtaMap.difference(), Domain(-1.0, 1.0))
    quasi = check_prequasiinvex(fn("x^2"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert pre.verdict == VERIFIED
    assert quasi.verdict == VERIFIED


def test_checks_are_deterministic():
    a = check_preinvex(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
    b = check_preinvex(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert a == b


def test_hypothesis_pair_uses_derivative_magnitude():
    # -x^2 is neither preinvex nor prequasiinvex on [-1, 1]; |-x^2|^2 = x^4 is both
    model = SimpleNamespace(df_fn=fn("-(x^2)"))
    pre, quasi = hypothesis_pair(model, EtaMap.difference(), Domain(-1.0, 1.0), 2.0)
    assert (pre.property, pre.verdict, pre.exponent_q) == ("preinvex", VERIFIED, 2.0)
    assert (quasi.property, quasi.verdict, quasi.exponent_q) == ("prequasiinvex", VERIFIED, 2.0)


def test_hypothesis_pair_validates_arguments():
    model = SimpleNamespace(df_fn=lambda x: x)
    for q in (0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"exponent q must be finite and >= 1, got {q!r}"):
            hypothesis_pair(model, EtaMap.difference(), Domain(-1.0, 1.0), q)


def test_hypothesis_pair_matches_single_checks():
    df = fn("3*x^2")
    K = Domain(-1.0, 1.0)
    pre, quasi = hypothesis_pair(SimpleNamespace(df_fn=df), EtaMap.difference(), K, 1.0)

    def g(x):
        return abs(df(x))

    assert pre == replace(check_preinvex(g, EtaMap.difference(), K), exponent_q=1.0)
    assert quasi == replace(check_prequasiinvex(g, EtaMap.difference(), K), exponent_q=1.0)


def test_random_layer_ties_go_to_the_smallest_triple():
    # the 2x2x2 grid's path points are 0 and 1, off the bump, so only random
    # triples see it: 19 of them tie at excess 1.0
    grid = SampleGrid(2, 2, 2, random_triples=200, seed=5)
    K, eta = Domain(0.0, 1.0), EtaMap.difference()
    smallest = (0.04855216354845626, 0.9866991087842674, 0.5335307413608343)
    for check in (check_preinvex, check_prequasiinvex):
        report = check(_bump, eta, K, grid)
        assert (report.verdict, report.worst_violation) == (VIOLATED, 1.0)
        assert report.witness == smallest


def test_property_report_validation():
    with pytest.raises(ValueError):
        PropertyReport("preinvex", VIOLATED, 1.0, None, 10)
    with pytest.raises(ValueError):
        PropertyReport("preinvex", "maybe", 0.0, None, 10)
    ok = PropertyReport("preinvex", VERIFIED, 0.0, None, 10)
    assert not ok.violated
    assert ok.to_dict()["samples"] == 10


class _RefWorst:
    """The per-sample running maximum the plan-based sweeps must agree with."""

    def __init__(self):
        self.excess = -math.inf
        self.witness = None

    def offer(self, excess, u, v, t):
        if excess > self.excess or (excess == self.excess
                                    and self.witness is not None
                                    and (u, v, t) < self.witness):
            self.excess = excess
            self.witness = (u, v, t)


def _ref_triples(K, grid):
    us = K.grid(grid.nu)
    vs = K.grid(grid.nv)
    ts = [i / (grid.nt - 1) for i in range(grid.nt)]
    for u in us:
        for v in vs:
            for t in ts:
                yield u, v, t
    rng = random.Random(grid.seed)
    span = K.hi - K.lo
    for _ in range(grid.random_triples):
        u = K.lo + span * rng.random()
        v = K.lo + span * rng.random()
        t = rng.random()
        yield u, v, t


def _ref_report(prop, worst, samples, tol, q=None):
    if worst.excess > tol:
        return PropertyReport(prop, VIOLATED, worst.excess, worst.witness, samples, q)
    return PropertyReport(prop, VERIFIED, worst.excess, None, samples, q)


def _ref_invex_set(K, eta, grid, tol):
    worst = _RefWorst()
    samples = 0
    for u, v, t in _ref_triples(K, grid):
        x = u + t * eta(v, u)
        worst.offer(max(K.lo - x, x - K.hi), u, v, t)
        samples += 1
    return _ref_report("invex_set", worst, samples, tol)


def _ref_pair(g, eta, K, grid, tol, q=None):
    """(preinvex, prequasiinvex) reports from one per-sample sweep."""
    pre, quasi = _RefWorst(), _RefWorst()
    samples = 0
    for u, v, t in _ref_triples(K, grid):
        gu, gv, gx = g(u), g(v), g(u + t * eta(v, u))
        pre.offer(gx - ((1.0 - t) * gu + t * gv), u, v, t)
        quasi.offer(gx - max(gu, gv), u, v, t)
        samples += 1
    return (_ref_report("preinvex", pre, samples, tol, q),
            _ref_report("prequasiinvex", quasi, samples, tol, q))


def _steps(x):
    # flat pieces: many samples tie at the maximum excess
    return 1.0 if x < 0.25 else (2.0 if x < 0.75 else 0.5)


def _nan_left(x):
    return math.nan if x < 0.1 else x * x


def _inf_right(x):
    return math.inf if x > 0.9 else -x


def _infs(x):
    return -math.inf if x < -0.5 else (math.inf if x > 1.2 else x)


def _bump(x):
    # flat with a step up and down: random triples tie at the maximum excess
    return 1.0 if 0.4 < x < 0.6 else 0.0


_GS = [fn("x^3"), fn("-(x^2)"), fn("-abs(x)"), fn("0*x"), fn("x^2 - 3*x"), _steps, _nan_left,
       _inf_right, _infs, lambda x: -0.0, _bump]
_ETAS = [EtaMap.difference(), EtaMap.abs_example(), EtaMap.from_expression("0.5*(v - u)"),
         EtaMap.from_expression("v - 2*u")]


@st.composite
def _problems(draw):
    grid = SampleGrid(nu=draw(st.integers(2, 6)), nv=draw(st.integers(2, 6)),
                      nt=draw(st.integers(2, 5)), random_triples=draw(st.integers(0, 12)),
                      seed=draw(st.integers(0, 3)))
    lo = draw(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5]))
    K = Domain(lo, lo + draw(st.sampled_from([0.5, 1.0, 2.5])))
    return (K, draw(st.sampled_from(_ETAS)), grid, draw(st.sampled_from(_GS)),
            draw(st.sampled_from([0.0, 1e-12, 0.5])))


@settings(max_examples=150)
@given(_problems(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_plan_sweeps_match_per_sample_reference(problem, q):
    K, eta, grid, g, tol = problem
    assert repr(check_invex_set(K, eta, grid, tol)) == repr(_ref_invex_set(K, eta, grid, tol))
    pre, quasi = _ref_pair(g, eta, K, grid, tol)
    assert repr(check_preinvex(g, eta, K, grid, tol)) == repr(pre)
    assert repr(check_prequasiinvex(g, eta, K, grid, tol)) == repr(quasi)
    # the same g again on the same plan reads its kept values
    assert repr(check_preinvex(g, eta, K, grid, tol)) == repr(pre)

    model = SimpleNamespace(df_fn=g)
    h = (lambda x: abs(g(x))) if q == 1.0 else (lambda x: abs(g(x)) ** q)
    want = _ref_pair(h, eta, K, grid, tol, q)
    assert repr(hypothesis_pair(model, eta, K, q, grid, tol)) == repr(want)


@pytest.mark.parametrize("g, eta", [(fn("x^3"), _ETAS[0]), (fn("sqrt(x + 4)"), _ETAS[1]),
                                    (_steps, _ETAS[2]), (_nan_left, _ETAS[0])],
                         ids=["cube", "sqrt-abs_example", "steps-expression", "nan"])
def test_plan_sweeps_match_reference_on_default_grid(g, eta):
    K = Domain(-1.0, 1.0)
    assert check_invex_set(K, eta) == _ref_invex_set(K, eta, DEFAULT_GRID, 1e-12)
    pre, quasi = _ref_pair(g, eta, K, DEFAULT_GRID, 1e-12)
    assert check_preinvex(g, eta, K) == pre
    assert check_prequasiinvex(g, eta, K) == quasi
    model = SimpleNamespace(df_fn=g)
    for q in (1.0, 2.5):
        h = (lambda x: abs(g(x)) ** q) if q != 1.0 else (lambda x: abs(g(x)))
        assert hypothesis_pair(model, eta, K, q) == _ref_pair(h, eta, K, DEFAULT_GRID, 1e-12, q)


def test_derivative_runs_once_per_plan_point_across_exponents():
    df_calls = [0]
    eta_calls = [0]
    square = fn("3*x^2")

    def df(x):
        df_calls[0] += 1
        return square(x)

    def step(v, u):
        eta_calls[0] += 1
        return v - u

    model = SimpleNamespace(df_fn=df)
    eta = EtaMap("difference", step, "counted difference")
    K = Domain(-1.0, 1.0)
    assert check_invex_set(K, eta).verdict == VERIFIED
    for q in (1.0, 1.5, 2.0, 3.0):
        hypothesis_pair(model, eta, K, q)
    assert df_calls[0] == 41 + 41 + 41 * 41 * 21 + 3 * 2000
    assert eta_calls[0] == 41 * 41 + 2000


def _raised(model, eta, K, q):
    with pytest.raises((OverflowError, ZeroDivisionError)) as info:
        hypothesis_pair(model, eta, K, q)
    return type(info.value), info.value.args


def test_first_failure_in_point_order_is_raised():
    # |1/x|^300 overflows at grid points just left of x = 0, where f' fails
    model = SimpleNamespace(df_fn=lambda x: 1.0 / x)
    eta, K = EtaMap.difference(), Domain(-1.0, 1.0)
    _plan.cache_clear()
    with pytest.raises(OverflowError):
        hypothesis_pair(model, eta, K, 300.0)
    with pytest.raises(ZeroDivisionError):
        hypothesis_pair(model, eta, K, 1.5)
    with pytest.raises(OverflowError):
        hypothesis_pair(model, eta, K, 300.0)
    assert _plan(K, eta, DEFAULT_GRID)._distinct is None
    raised = [_raised(model, eta, K, q) for q in (1.0, 1.5, 300.0)]
    assert [r[0] for r in raised] == [ZeroDivisionError, ZeroDivisionError, OverflowError]

    # as the plan's second function, 1/x runs once per distinct point: the same errors
    hypothesis_pair(SimpleNamespace(df_fn=fn("x")), eta, K, 1.0)
    assert [_raised(model, eta, K, q) for q in (1.0, 1.5, 300.0)] == raised
    assert _plan(K, eta, DEFAULT_GRID)._distinct is not None


def _counting(g, calls):
    def df(x):
        calls[0] += 1
        return g(x)

    return SimpleNamespace(df_fn=df)


def test_a_reused_plan_runs_a_later_function_once_per_distinct_point():
    first_calls, second_calls = [0], [0]
    eta = EtaMap("difference", sub, "unshared difference")  # a plan of its own
    K = Domain(0.0, 1.0)
    first, second = _counting(fn("3*x^2"), first_calls), _counting(fn("2*x - 1"), second_calls)
    for model in (first, second):
        for q in (1.0, 1.5, 2.0, 3.0):
            hypothesis_pair(model, eta, K, q)
    plan = _plan(K, eta, DEFAULT_GRID)
    distinct = {struct.pack("<d", x) for x in chain(plan.us, plan.vs, plan.grid_x)}
    assert first_calls[0] == 41 + 41 + 41 * 41 * 21 + 3 * 2000
    assert second_calls[0] == len(distinct) + 3 * 2000 == 8110


@pytest.mark.parametrize("g, eta, K", [
    (fn("x^3 - x"), EtaMap.difference(), Domain(0.0, 1.0)),
    (fn("sqrt(x + 4) - 2*x"), EtaMap.abs_example(), Domain(-1.0, 1.0)),
    (_steps, EtaMap.from_expression("0.5*(v - u)"), Domain(0.0, 1.0)),
], ids=["difference", "abs_example", "expression"])
def test_a_reused_plans_later_function_matches_the_reference(g, eta, K):
    _plan.cache_clear()
    hypothesis_pair(SimpleNamespace(df_fn=fn("x")), eta, K, 1.0)  # the plan's first function
    model = SimpleNamespace(df_fn=g)
    for q in (1.0, 1.5, 2.5):
        h = (lambda x: abs(g(x)) ** q) if q != 1.0 else (lambda x: abs(g(x)))
        want = _ref_pair(h, eta, K, DEFAULT_GRID, 1e-12, q)
        assert repr(hypothesis_pair(model, eta, K, q)) == repr(want)
    assert _plan(K, eta, DEFAULT_GRID)._distinct is not None


def test_a_plan_keeps_its_invex_set_reports_per_K_and_tol():
    eta = EtaMap("difference", sub, "unshared difference")
    grid = SampleGrid(5, 5, 3, 20)
    K = Domain(0.0, 1.0)
    report = check_invex_set(K, eta, grid)
    assert check_invex_set(K, eta, grid) is report
    assert check_invex_set(K, eta, grid, tol=0.5) is not report
    # K = [-0.0, 1] equals K and is served by its plan, but its excess at 0 is -0.0
    signed = Domain(-0.0, 1.0)
    assert repr(check_invex_set(signed, eta, grid)) == repr(
        _ref_invex_set(signed, eta, grid, 1e-12))
    assert repr(report) != repr(check_invex_set(signed, eta, grid))
    assert len(_plan(K, eta, grid).invex_set) == 3
