import functools
import json
import math
import random
import tracemalloc
from array import array
from itertools import chain
from operator import sub
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from simpvex import bounds, invexity
from simpvex.bounds import FunctionModel
from simpvex.errors import EvalDomainError, ParseError
from simpvex.expr import compile_expr, parse
from simpvex.invexity import (
    DEFAULT_GRID,
    VERIFIED,
    VIOLATED,
    Domain,
    EtaMap,
    PropertyReport,
    SampleGrid,
    SamplePlan,
    _plan,
    check_invex_set,
    check_pair,
    hypothesis_pair,
    spaced,
)
from simpvex.record import replace


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


def test_domain_rejects_a_width_that_overflows():
    # hi - lo = inf would put the derivative gate's samples at x = inf
    with pytest.raises(ValueError, match=r"domain width hi - lo overflows, got \[-1e\+308, 1e\+308\]"):
        Domain(-1e308, 1e308)
    assert Domain(-1e308, 0.0).hi - Domain(-1e308, 0.0).lo == 1e308


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 200))
@example(0.0, 1e307, 41)
@example(0.0, 1e307, 81)
@example(-1.0, 1.0, 2)
def test_spaced_is_the_spacing_formula_wherever_its_product_is_finite(lo, hi, n):
    span = hi - lo
    assume(math.isfinite(span))
    points = spaced(lo, hi, n)
    assert len(points) == n and all(map(math.isfinite, points))
    assert [x.hex() for i, x in enumerate(points) if math.isfinite(i * span)] == [
        (lo + i * (hi - lo) / (n - 1)).hex() for i in range(n) if math.isfinite(i * span)]
    assert points == sorted(points, reverse=lo > hi)


def test_a_wide_interval_is_spaced_without_infinity():
    # i * (hi - lo) overflows from i = 18 on: the spacing formula gave 23 infinities
    # in a 41-point grid of [0, 1e307] and 63 in an 81-step scan axis
    grid = Domain(0.0, 1e307).grid(41)
    assert grid[:18] == [i * 1e307 / 40 for i in range(18)]
    assert grid[-1] == 1e307 and all(map(math.isfinite, grid))
    assert all(map(math.isfinite, spaced(0.0, 1e307, 81)))
    assert spaced(0.0, 1.0, 21) == [i / 20 for i in range(21)]


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
    assert eta.name == "difference"


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
    assert eta.name == "v - 2*u"
    with pytest.raises(ParseError):
        EtaMap.from_expression("v - w")


def test_eta_from_config_errors():
    with pytest.raises(ValueError):
        EtaMap.from_config({"kind": "nope"})
    with pytest.raises(ValueError):
        EtaMap.from_config({"kind": "expression"})
    assert EtaMap.from_config({"kind": "expression", "value": "v-u"})(3.0, 1.0) == 2.0


@pytest.mark.parametrize("kind", ["difference", "abs_example"])
def test_a_builtin_eta_kind_takes_no_value(kind):
    # the value would be ignored: the case would run with v - u, not the map it states
    with pytest.raises(ValueError, match=f"eta kind '{kind}' takes no 'value'"):
        EtaMap.from_config({"kind": kind, "value": "0.5*(v-u)"})


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
    report, _ = check_pair(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
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
    _, report = check_pair(fn("-(x^2)"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert report.verdict == VIOLATED
    assert report.worst_violation == 1.0
    assert report.witness == (-1.0, 1.0, 0.5)


def test_sqrt_fails_preinvex_but_not_prequasiinvex():
    K = Domain(0.0, 1.0)
    pre, quasi = check_pair(fn("sqrt(x)"), EtaMap.difference(), K)
    assert pre.verdict == VIOLATED
    assert pre.worst_violation == 0.25
    assert pre.witness == (0.0, 1.0, 0.25)
    # monotone on the path, so the max-form inequality survives
    assert quasi.verdict == VERIFIED


def test_neg_abs_is_preinvex_for_abs_example():
    report, _ = check_pair(fn("-abs(x)"), EtaMap.abs_example(), Domain(-1.0, 1.0))
    assert report.verdict == VERIFIED
    assert report.worst_violation <= 1e-12


def test_convex_square_passes_both_checks():
    pre, quasi = check_pair(fn("x^2"), EtaMap.difference(), Domain(-1.0, 1.0))
    assert pre.verdict == VERIFIED
    assert quasi.verdict == VERIFIED


def test_checks_are_deterministic():
    a = check_pair(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
    b = check_pair(fn("x^3"), EtaMap.difference(), Domain(-1.0, 1.0))
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


def test_hypothesis_pair_matches_check_pair():
    df = fn("3*x^2")
    K = Domain(-1.0, 1.0)
    pre, quasi = hypothesis_pair(SimpleNamespace(df_fn=df), EtaMap.difference(), K, 1.0)

    def g(x):
        return abs(df(x))

    plain_pre, plain_quasi = check_pair(g, EtaMap.difference(), K)
    assert pre == replace(plain_pre, exponent_q=1.0)
    assert quasi == replace(plain_quasi, exponent_q=1.0)


def test_random_layer_ties_go_to_the_smallest_triple():
    # the 2x2x2 grid's path points are 0 and 1, off the bump, so only random
    # triples see it: 19 of them tie at excess 1.0
    grid = SampleGrid(2, 2, 2, random_triples=200, seed=5)
    K, eta = Domain(0.0, 1.0), EtaMap.difference()
    smallest = (0.04855216354845626, 0.9866991087842674, 0.5335307413608343)
    for report in check_pair(_bump, eta, K, grid):
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


def _nan_right(x):
    # max(g(u), NaN) is g(u): a sample whose g(v) is NaN keeps a finite excess
    return math.nan if x > 0.9 else x * x


def _inf_right(x):
    return math.inf if x > 0.9 else -x


def _infs(x):
    return -math.inf if x < -0.5 else (math.inf if x > 1.2 else x)


def _bump(x):
    # flat with a step up and down: random triples tie at the maximum excess
    return 1.0 if 0.4 < x < 0.6 else 0.0


def _signed_zero(x):
    # equal floats, different bits: a u value above 0.5 must not take the tops of one below
    return 0.0 if x < 0.5 else -0.0


_GS = [fn("x^3"), fn("-(x^2)"), fn("-abs(x)"), fn("0*x"), fn("x^2 - 3*x"), _steps, _nan_left,
       _nan_right, _inf_right, _infs, lambda x: -0.0, _bump, _signed_zero, lambda x: math.nan,
       lambda x: math.inf]
_ETAS = [EtaMap.difference(), EtaMap.abs_example(), EtaMap.from_expression("0.5*(v - u)"),
         EtaMap.from_expression("v - 2*u")]
# steps that are negative, infinite, NaN or -0.0: along each grid row the
# path points still run monotone in t, NaN only at t = 0 or in every point
_ODD_ETAS = [
    EtaMap(lambda v, u: u - v - 0.25, "negative"),
    EtaMap(lambda v, u: math.inf if v > u else -math.inf if v < u else 0.0, "infinite"),
    EtaMap(lambda v, u: math.nan if v > u else v - u, "nan"),
    EtaMap(lambda v, u: -0.0, "negative zero"),
]


@st.composite
def _problems(draw):
    grid = SampleGrid(nu=draw(st.integers(2, 6)), nv=draw(st.integers(2, 6)),
                      nt=draw(st.integers(2, 5)), random_triples=draw(st.integers(0, 12)),
                      seed=draw(st.integers(0, 3)))
    # near 1e15 the spacing of doubles is 0.125, so rounding merges u and v values
    lo = draw(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1e15]))
    # K = [-0.0, ...] or [..., -0.0] signs the zero excesses at that end
    K = draw(st.one_of(st.builds(Domain, st.just(lo), st.sampled_from([0.5, 1.0, 2.5]).map(
        lambda span: lo + span)), st.sampled_from([Domain(-1.0, -0.0), Domain(-2.5, -0.0)])))
    return (K, draw(st.sampled_from(_ETAS + _ODD_ETAS)), grid, draw(st.sampled_from(_GS)),
            draw(st.sampled_from([0.0, 1e-12, 0.5])))


@settings(max_examples=300)
@given(_problems(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
# a NaN g(v) beside a finite g(u), -0.0 ends, infinite and NaN steps
@example((Domain(-1.0, 1.0), _ETAS[0], SampleGrid(3, 3, 3, 20), _nan_right, 0.0), 1.0)
@example((Domain(0.5, 1.0), _ETAS[0], SampleGrid(2, 2, 2, 40), _nan_right, 0.0), 1.0)
@example((Domain(-1.0, -0.0), _ODD_ETAS[1], SampleGrid(3, 4, 3, 20), _infs, 0.0), 2.0)
@example((Domain(-0.0, 1.0), _ODD_ETAS[2], SampleGrid(4, 3, 3, 20), _nan_left, 0.0), 1.5)
# a -0.0 step puts every path point at its u: a piecewise-constant g reuses the tops of
# some u values and not of others
@example((Domain(0.0, 1.0), _ODD_ETAS[3], SampleGrid(6, 3, 3, 10), _steps, 0.0), 1.0)
@example((Domain(0.0, 1.0), _ODD_ETAS[3], SampleGrid(6, 4, 2, 10), _signed_zero, 0.0), 2.0)
@example((Domain(-1.0, 1.0), _ODD_ETAS[3], SampleGrid(6, 3, 3, 10), _bump, 0.5), 1.5)
@example((Domain(0.0, 1.0), _ODD_ETAS[3], SampleGrid(4, 3, 2, 10), _nan_left, 0.0), 1.0)
def test_plan_sweeps_match_per_sample_reference(problem, q):
    K, eta, grid, g, tol = problem
    assert repr(check_invex_set(K, eta, grid, tol)) == repr(_ref_invex_set(K, eta, grid, tol))
    want = repr(_ref_pair(g, eta, K, grid, tol))
    assert repr(check_pair(g, eta, K, grid, tol)) == want
    # the same g again on the same plan
    assert repr(check_pair(g, eta, K, grid, tol)) == want

    model = SimpleNamespace(df_fn=g)
    h = (lambda x: abs(g(x))) if q == 1.0 else (lambda x: abs(g(x)) ** q)
    want = _ref_pair(h, eta, K, grid, tol, q)
    assert repr(hypothesis_pair(model, eta, K, q, grid, tol)) == repr(want)


_SPECIAL_FLOATS = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0,
                                   -1.0, 5e-324, 1.7976931348623157e308])
_ANY_FLOAT = st.one_of(_SPECIAL_FLOATS, st.floats())
_PAIRS = st.one_of(st.tuples(_ANY_FLOAT, _ANY_FLOAT), _ANY_FLOAT.map(lambda x: (x, x)))


@given(_PAIRS)
def test_conditional_max_and_min_are_the_builtins_bit_for_bit(pair):
    # the sweeps and the T4 rhs write max(x, y) as ``y if y > x else x`` and
    # min(x, y) as ``y if y < x else x``: the first item is kept unless a
    # later one compares greater (less), so NaN, +-0.0 and ties come out alike
    x, y = pair
    assert (y if y > x else x).hex() == max(x, y).hex()
    assert (y if y < x else x).hex() == min(x, y).hex()
    for theorem in ("T4.1", "T4.2", "T4.3"):
        for q in (1.5, 2.5):
            assert bounds.THEOREMS[theorem].rhs_for(q)(x, y, 0.25).hex() == (
                _rhs_with_builtin_max(theorem, q, x, y, 0.25).hex())


def _rhs_with_builtin_max(theorem, q, x1, x2, step):
    """The T4 rhs as written with the builtin max."""
    if theorem == "T4.1":
        return 2.0 * bounds._M1 * step * max(x1, x2)
    half = 0.5 ** (1.0 / q)
    if theorem == "T4.2":
        return 2.0 * step * bounds._moment_root(bounds._conjugate(q)) * max(x1, x2) * half
    return step * bounds._moment_root(bounds._conjugate(q), 2.0) * max(x1, x2) * half


@pytest.mark.parametrize("g, eta, K", [
    (fn("x^3"), _ETAS[0], Domain(-1.0, 1.0)),
    (fn("sqrt(x + 4)"), _ETAS[1], Domain(-1.0, 1.0)),
    (_steps, _ETAS[2], Domain(-1.0, 1.0)),
    (_nan_left, _ETAS[0], Domain(-1.0, 1.0)),
    (_nan_right, _ETAS[0], Domain(-1.0, 1.0)),
    # K.grid(41) merges u and v values: merged rows tie, the first in stream order wins
    (fn("x^2 - 3*x"), _ODD_ETAS[0], Domain(1e15, 1e15 + 1.0)),
    (_bump, _ODD_ETAS[1], Domain(-1.0, 1.0)),
    (fn("-abs(x)"), _ODD_ETAS[2], Domain(-1.0, 1.0)),
    (fn("x^3"), _ODD_ETAS[3], Domain(-0.0, 1.0)),
    # f of the corpus's abs_branch_neg and poly_x1 cases on their K and eta, then their
    # constant |f'|, which sweeps one u value
    (fn("-abs(x)"), _ETAS[1], Domain(-1.0, 0.0)),
    (fn("x"), _ETAS[0], Domain(0.0, 1.0)),
    (fn("if(x<0, 1, -1)"), _ETAS[1], Domain(-1.0, 0.0)),
    (fn("0*x + 1"), _ETAS[0], Domain(0.0, 1.0)),
    (_signed_zero, _ODD_ETAS[3], Domain(0.0, 1.0)),
], ids=["cube", "sqrt-abs_example", "steps-expression", "nan", "nan-right", "merged-negative",
        "infinite", "nan-step", "negative-zero", "neg-abs-abs_example", "identity",
        "abs-branch-df", "constant", "signed-zero"])
def test_plan_sweeps_match_reference_on_default_grid(g, eta, K):
    assert repr(check_invex_set(K, eta)) == repr(_ref_invex_set(K, eta, DEFAULT_GRID, 1e-12))
    assert repr(check_pair(g, eta, K)) == repr(_ref_pair(g, eta, K, DEFAULT_GRID, 1e-12))
    model = SimpleNamespace(df_fn=g)
    for q in (1.0, 2.5):
        h = (lambda x: abs(g(x)) ** q) if q != 1.0 else (lambda x: abs(g(x)))
        want = _ref_pair(h, eta, K, DEFAULT_GRID, 1e-12, q)
        assert repr(hypothesis_pair(model, eta, K, q)) == repr(want)


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
    eta = EtaMap(step, "counted difference")
    K = Domain(-1.0, 1.0)
    assert check_invex_set(K, eta).verdict == VERIFIED
    for q in (1.0, 1.5, 2.0, 3.0):
        hypothesis_pair(model, eta, K, q)
    assert df_calls[0] == 41 + 41 + 41 * 41 * 21 + 3 * 2000
    assert eta_calls[0] == 41 * 41 + 2000


def _sweep_subs(monkeypatch, sweep):
    """How many times ``sweep()`` calls invexity.sub: nv*nt + nv per grid u value swept."""
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return a - b

    monkeypatch.setattr(invexity, "sub", counted)
    sweep()
    monkeypatch.undo()
    return calls[0]


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_a_u_value_with_the_last_ones_bits_reuses_its_tops(monkeypatch, q):
    one_u = 41 * 21 + 41

    def subs(df, eta, K):
        model = SimpleNamespace(df_fn=fn(df))
        check_invex_set(K, eta)  # builds the plan outside the count
        return _sweep_subs(monkeypatch, lambda: hypothesis_pair(model, eta, K, q))

    # a constant |f'|: one grid u value's arithmetic serves all 41
    assert subs("1", EtaMap.difference(), Domain(0.0, 1.0)) == one_u
    assert subs("if(x<0, 1, -1)", EtaMap.abs_example(), Domain(-1.0, 0.0)) == one_u
    assert subs("3*x^2", EtaMap.difference(), Domain(0.0, 1.0)) == 41 * one_u


def test_the_reuse_compares_bits_not_floats(monkeypatch):
    # every path point is at its u; g is 0.0 below 0.5 and -0.0 from there on, so the
    # u values fall in two runs of equal bits, each swept once
    K = Domain(0.0, 1.0)
    check_invex_set(K, _ODD_ETAS[3])
    assert _sweep_subs(monkeypatch, lambda: check_pair(
        _signed_zero, _ODD_ETAS[3], K)) == 2 * (41 * 21 + 41)
    # a NaN g(u) never reuses
    assert _sweep_subs(monkeypatch, lambda: check_pair(
        lambda x: math.nan, _ODD_ETAS[3], K)) == 41 * (41 * 21 + 41)


def _ref_tops(plan, g):
    """The bits of each grid row's largest preinvex and prequasiinvex excess of g, row by row."""
    nv, nt = len(plan.vs), len(plan.ts)
    pre, quasi = [], []
    for i, u in enumerate(plan.us):
        for j, v in enumerate(plan.vs):
            gu, gv = g(u), g(v)
            at = plan.x_at + (i * nv + j) * nt
            gxs = [g(x) for x in plan.points[at:at + nt]]
            pre.append(max([gx - ((1.0 - t) * gu + t * gv) for gx, t in zip(gxs, plan.ts)]))
            quasi.append(max(gxs) - max(gu, gv))
    return [_bits(pre), _bits(quasi)]


@pytest.mark.parametrize("g, eta, K, grid", [
    (_steps, _ODD_ETAS[3], Domain(0.0, 1.0), SampleGrid(6, 3, 3, 10)),
    (_signed_zero, _ODD_ETAS[3], Domain(0.0, 1.0), SampleGrid(6, 4, 2, 10)),
    (_bump, _ODD_ETAS[3], Domain(-1.0, 1.0), SampleGrid(9, 5, 3, 10)),
    (_nan_left, _ODD_ETAS[3], Domain(0.0, 1.0), SampleGrid(21, 3, 2, 10)),
    (lambda x: math.inf, _ETAS[0], Domain(0.0, 1.0), SampleGrid(5, 3, 3, 10)),
    (fn("0*x + 1"), _ETAS[0], Domain(0.0, 1.0), DEFAULT_GRID),
    (fn("if(x<0, 1, -1)"), _ETAS[1], Domain(-1.0, 0.0), DEFAULT_GRID),
    (fn("3*x^2"), _ETAS[0], Domain(0.0, 1.0), DEFAULT_GRID),
], ids=["steps", "signed-zero", "bump", "nan", "inf", "constant", "abs-branch", "square"])
def test_the_tops_each_sweep_ranks_are_the_rows_own(monkeypatch, g, eta, K, grid):
    # a u value that reuses tops must hand SamplePlan.worst its own rows' tops, bit for bit
    seen = []
    worst = SamplePlan.worst

    def recording(self, tops, row, excesses):
        seen.append(_bits(tops))
        return worst(self, tops, row, excesses)

    plan = _plan(K, eta, grid)
    monkeypatch.setattr(SamplePlan, "worst", recording)
    check_pair(g, eta, K, grid)
    assert seen == _ref_tops(plan, g)
    for q in (1.0, 2.0):
        del seen[:]
        hypothesis_pair(SimpleNamespace(df_fn=g), eta, K, q, grid)
        assert seen == _ref_tops(plan, lambda x: abs(g(x)) ** q)


def test_a_later_exponent_makes_no_plan_sized_temporary():
    # |f'|^q is listed one grid u value's path points at a time, never for every point at once
    model = SimpleNamespace(df_fn=fn("3*x^2 - 1"))
    eta, K = EtaMap.difference(), Domain(-1.0, 1.0)
    _plan.cache_clear()
    hypothesis_pair(model, eta, K, 1.0)  # fills the plan's kept |f'| values
    plan_values = 41 + 41 + 41 * 41 * 21 + 3 * 2000
    assert len(_plan(K, eta, DEFAULT_GRID).values(model.df_fn)) == plan_values
    tracemalloc.start()
    try:
        hypothesis_pair(model, eta, K, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * plan_values


def _raised(model, eta, K, q):
    """(type, message) of what hypothesis_pair raises, which chains no other error."""
    with pytest.raises(Exception) as info:
        hypothesis_pair(model, eta, K, q)
    assert info.value.__context__ is None
    return type(info.value), str(info.value)


@pytest.mark.parametrize("df, error", [
    (fn("1/x"), (EvalDomainError, "division by zero in (1.0 / x) at 0.0")),  # batch form first
    (lambda x: 1.0 / x, (ZeroDivisionError, "float division by zero")),
], ids=["compiled", "plain"])
def test_first_failure_in_point_order_is_raised(df, error):
    # |1/x|^300 overflows at grid points just left of x = 0, where f' fails
    overflow = (OverflowError, "(34, 'Numerical result out of range')")
    model = SimpleNamespace(df_fn=df)
    eta, K = EtaMap.difference(), Domain(-1.0, 1.0)
    want = [overflow, error, error, overflow]
    _plan.cache_clear()
    assert [_raised(model, eta, K, q) for q in (300.0, 1.0, 1.5, 300.0)] == want
    # a failed pass keeps no values: the same call evaluates f' again and raises again
    assert [_raised(model, eta, K, q) for q in (1.0, 1.0, 1.5, 1.5)] == [error] * 4

    # as the plan's second function, 1/x raises the same errors
    hypothesis_pair(SimpleNamespace(df_fn=fn("x")), eta, K, 1.0)
    assert [_raised(model, eta, K, q) for q in (300.0, 1.0, 1.5, 300.0)] == want


def test_a_failing_value_pass_stops_at_its_first_failing_point():
    # a plain f' runs point by point once: at q = 300, |1/x|^300 first overflows at the
    # grid's 20th point, x = -0.05; at q = 1.5 and 1, 1/x fails at the 21st, x = 0
    calls = []

    def df(x):
        calls.append(x)
        return 1.0 / x

    eta, K = EtaMap.difference(), Domain(-1.0, 1.0)
    _plan.cache_clear()
    for q, want in ((300.0, 20), (1.5, 21), (1.0, 21)):
        del calls[:]
        _raised(SimpleNamespace(df_fn=df), eta, K, q)  # chains no other error
        assert len(calls) == want


def test_a_batch_failure_in_a_later_chunk_raises_that_points_own_error():
    g = fn("sqrt(x) + 1")
    points = [0.25 * i for i in range(invexity._CHUNK + 37)]  # not a multiple of _CHUNK

    def values(points):  # SamplePlan.values on a plan whose points are ``points``
        plan = SamplePlan.__new__(SamplePlan)
        plan.points, plan._memo = array("d", points), (None, None)
        return plan.values(g)

    assert values(points).tolist() == [abs(g(x)) for x in points]
    points[invexity._CHUNK + 3] = -1.0  # the first failure, in the second chunk
    points[invexity._CHUNK + 20] = -4.0
    with pytest.raises(EvalDomainError) as info:
        values(points)
    assert str(info.value) == "square root of negative argument in sqrt(x) at -1.0"


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


def test_invex_set_reports_on_one_plan_follow_their_own_K_and_tol():
    eta = EtaMap(sub, "unshared difference")
    grid = SampleGrid(5, 5, 3, 20)
    K, signed = Domain(0.0, 1.0), Domain(-0.0, 1.0)
    _plan.cache_clear()
    # K = [-0.0, 1] equals K and is served by its plan, but its excess at 0 is -0.0
    for domain, tol in ((K, 1e-12), (K, 0.5), (signed, 1e-12), (K, 1e-12)):
        assert repr(check_invex_set(domain, eta, grid, tol)) == repr(
            _ref_invex_set(domain, eta, grid, tol))
    assert _plan.cache_info().misses == 1
    assert repr(check_invex_set(K, eta, grid)) != repr(check_invex_set(signed, eta, grid))


# Reference plan construction: SamplePlan as it was built before
# every plan shared one sorted list of unit draws.  Kept here, and only here,
# to pin the shared draws to the same samples, bit for bit, and to the same
# eta calls in the same order.

def _ref_plan(K, eta, grid):
    """(points, random u, v, t, x) of the plan for (K, eta, grid)."""
    us = K.grid(grid.nu)
    vs = K.grid(grid.nv)
    ts = [i / (grid.nt - 1) for i in range(grid.nt)]
    grid_x = []
    for u in us:
        for v in vs:
            step = eta(v, u)
            grid_x.extend([u + t * step for t in ts])
    rng = random.Random(grid.seed)
    lo, span = K.lo, K.hi - K.lo
    draws = ((lo + span * rng.random(), lo + span * rng.random(), rng.random())
             for _ in range(grid.random_triples))
    ru, rv, rt, rx = [], [], [], []
    for u, v, t in sorted(draws):
        ru.append(u)
        rv.append(v)
        rt.append(t)
        rx.append(u + t * eta(v, u))
    points = list(chain(us, vs, grid_x, chain.from_iterable(zip(ru, rv, rx))))
    return points, ru, rv, rt, rx


def _recording(eta):
    """A fresh EtaMap (so a plan of its own) that logs each (v, u) it is called at."""
    calls = []

    def step(v, u):
        calls.append((v, u))
        return eta(v, u)

    return EtaMap(step, f"recorded {eta.name}"), calls


def _bits(xs):
    return array("d", xs).tobytes()


def _corpus_plans():
    from simpvex import runner
    plans = []
    for entry in sorted(runner._corpus_dir().iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            cfg = json.loads(entry.read_text(encoding="utf-8"))
            plans.append((Domain(*map(float, cfg["K"])), EtaMap.from_config(cfg["eta"]),
                          DEFAULT_GRID))
    return plans


@pytest.mark.parametrize("K, eta, grid", _corpus_plans() + [
    (Domain(1e15, 1e15 + 1.0), EtaMap.difference(), DEFAULT_GRID),  # rounding merges u
    (Domain(-3.0, 2.0), EtaMap.abs_example(), SampleGrid(5, 4, 3, 0)),
    (Domain(0.0, 1.0), EtaMap.from_expression("0.5*(v-u)"), SampleGrid(3, 3, 2, 7, seed=5)),
])
def test_plan_matches_the_reference_construction(K, eta, grid):
    recorded, calls = _recording(eta)
    plan = SamplePlan(K, recorded, grid)
    ref_recorded, ref_calls = _recording(eta)
    points, ru, rv, rt, rx = _ref_plan(K, ref_recorded, grid)
    assert _bits(plan.points) == _bits(points)
    assert [_bits(c) for c in (plan.ru, plan.rv, plan.rt, plan.points[plan.at + 2::3])] == [
        _bits(c) for c in (ru, rv, rt, rx)]
    assert _bits(chain.from_iterable(calls)) == _bits(chain.from_iterable(ref_calls))
    assert len(calls) == grid.nu * grid.nv + grid.random_triples


def test_merged_u_values_take_the_sorting_path():
    plan = SamplePlan(Domain(1e15, 1e15 + 1.0), EtaMap.difference(), DEFAULT_GRID)
    assert len(set(plan.ru)) < len(plan.ru)  # rounding merged some u values
    assert list(zip(plan.ru, plan.rv, plan.rt)) == sorted(zip(plan.ru, plan.rv, plan.rt))


def test_traced_counters_see_every_eta_and_derivative_call(monkeypatch, make_model):
    # wrapped as perfbench/spans.py wraps them: a faster path that skipped the
    # wrappers would make traced counts drop silently
    counts = {"eta": 0, "df": 0}
    eta_call = EtaMap.__call__

    def counted_eta(self, v, u):
        counts["eta"] += 1
        return eta_call(self, v, u)

    compile_df = FunctionModel.__dict__["df_fn"].func

    def make(model):
        df = compile_df(model)

        def counted(*args):
            counts["df"] += 1
            return df(*args)

        return counted

    prop = functools.cached_property(make)
    prop.__set_name__(FunctionModel, "df_fn")
    monkeypatch.setattr(EtaMap, "__call__", counted_eta)
    monkeypatch.setattr(FunctionModel, "df_fn", prop)
    model = make_model("x^4", "4*x^3", K=(0.0, 1.0))
    K = Domain(0.0, 1.0)
    for eta in (EtaMap.difference(), EtaMap.abs_example(), EtaMap.from_expression("v-u")):
        _plan.cache_clear()
        counts.update(eta=0, df=0)
        check_invex_set(K, eta)
        assert counts == {"eta": 41 * 41 + 2000, "df": 0}
        hypothesis_pair(model, eta, K, 2.0)
        assert counts == {"eta": 41 * 41 + 2000, "df": 41 + 41 + 41 * 41 * 21 + 3 * 2000}
        assert counts["df"] == 41383
