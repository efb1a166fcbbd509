import itertools
import math
import random
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from simpvex import bounds, kernel, scan
from simpvex.bounds import (
    BoundValue,
    FunctionModel,
    bound_C4_2_midpoint,
    bound_classical,
    bound_T3_1,
    bound_T3_2,
    bound_T3_3,
    bound_T3_4,
    bound_T4_1,
    bound_T4_2,
    bound_T4_3,
    lemma_rhs,
    midpoint_gap,
    simpson_defect,
)
from simpvex.errors import (
    BudgetExhausted,
    CaseConfigError,
    DomainError,
    EvalDomainError,
    InvalidEta,
    MissingFourthDerivative,
    PreconditionUnmet,
    QuadratureError,
)

TWO_PI = 6.283185307179586


def endpoint_stub(x1, x2, a=0.0, b=1.0):
    """Model stand-in exposing just |f'| magnitudes at the endpoints."""
    return SimpleNamespace(df_fn=lambda x: x1 if x == a else x2)


@pytest.fixture
def sin_model(make_model):
    return make_model(f"sin({TWO_PI}*x)", f"{TWO_PI}*cos({TWO_PI}*x)",
                      f"-cos({TWO_PI}*x)/{TWO_PI}", K=(0.0, 1.0), name="sin_period")


def test_defect_vanishes_for_cubic(make_model):
    model = make_model("x^3", "3*x^2", "(x^4)/4")
    d = simpson_defect(model, 0.0, 1.0)
    assert d.defect == 0.0
    assert d.quadrature_error == 0.0
    assert d.evaluations == 0


def test_defect_quartic_value(make_model):
    model = make_model("x^4", "4*x^3", "(x^5)/5")
    d = simpson_defect(model, 0.0, 1.0)
    assert d.defect == pytest.approx(1.0 / 120.0, abs=1e-15)
    assert d.simpson_value == pytest.approx(1.25 / 6.0, abs=1e-15)
    assert d.mean_integral == pytest.approx(0.2, abs=1e-15)


def test_defect_exp_value(exp_model):
    d = simpson_defect(exp_model, 0.0, 1.0)
    want = (1.0 + 4.0 * math.exp(0.5) + math.e) / 6.0 - (math.e - 1.0)
    assert d.defect == pytest.approx(want, rel=1e-12)
    assert d.defect == pytest.approx(0.000579323417547735, abs=1e-14)


def test_defect_without_antiderivative_uses_quadrature(make_model):
    model = make_model("exp(x)", "exp(x)")
    d = simpson_defect(model, 0.0, 1.0)
    assert d.evaluations > 0
    assert d.quadrature_error > 0.0
    assert d.defect == pytest.approx(0.000579323417547735, abs=1e-11)


def test_identity_exp_signed(exp_model):
    d = simpson_defect(exp_model, 0.0, 1.0)
    lem = lemma_rhs(exp_model, 0.0, 1.0)
    assert lem.evaluations > 0
    assert d.defect > 0.0
    assert lem.value > 0.0
    assert abs(d.defect - lem.value) <= 1e-9 + d.quadrature_error + lem.error_estimate


def test_identity_holds_with_negative_defect(make_model):
    model = make_model("-(x^4)", "-4*x^3", "-(x^5)/5")
    d = simpson_defect(model, 0.0, 1.0)
    lem = lemma_rhs(model, 0.0, 1.0)
    assert d.defect == pytest.approx(-1.0 / 120.0, abs=1e-15)
    assert lem.value < 0.0
    assert abs(d.defect - lem.value) <= 1e-9 + lem.error_estimate


def test_identity_across_shifted_interval(exp_model):
    d = simpson_defect(exp_model, -2.0, 0.75)
    lem = lemma_rhs(exp_model, -2.0, 0.75)
    assert abs(d.defect - lem.value) <= 1e-9 + d.quadrature_error + lem.error_estimate


def test_midpoint_gap_square(square_model):
    gap, qerr = midpoint_gap(square_model, 0.0, 1.0)
    assert gap == pytest.approx(0.25 - 1.0 / 3.0, abs=1e-15)
    assert qerr == 0.0


def test_endpoint_mean_bound_square(square_model):
    bv = bound_T3_1(square_model, 0.0, 1.0, 1.0)
    assert bv.theorem == "T3.1"
    assert bv.rhs == pytest.approx(5.0 / 36.0, rel=1e-15)
    assert bv.q is None and bv.p is None
    assert bv.slack is None


def test_half_split_hoelder_bound_square(square_model):
    bv = bound_T3_2(square_model, 0.0, 1.0, 1.0, 2.0)
    want = math.sqrt(1.0 / 72.0) * (math.sqrt(0.5) + math.sqrt(1.5))
    assert bv.rhs == pytest.approx(want, rel=1e-13)
    assert bv.p == 2.0


def test_whole_interval_hoelder_bound_square(square_model):
    bv = bound_T3_3(square_model, 0.0, 1.0, 1.0, 2.0)
    want = math.sqrt(2.0 / 72.0) * math.sqrt(2.0)
    assert bv.rhs == pytest.approx(want, rel=1e-13)


def test_power_mean_bound_square(square_model):
    bv = bound_T3_4(square_model, 0.0, 1.0, 1.0, 2.0)
    want = math.sqrt(5.0 / 72.0) * (math.sqrt(116.0 / 1296.0) + math.sqrt(244.0 / 1296.0))
    assert bv.rhs == pytest.approx(want, rel=1e-13)


def test_max_endpoint_bound_square(square_model):
    for q in (1.0, 2.0, 7.0):
        bv = bound_T4_1(square_model, 0.0, 1.0, 1.0, q)
        assert bv.rhs == pytest.approx(5.0 / 18.0, rel=1e-15)


def test_hoelder_max_bounds_square(square_model):
    bv2 = bound_T4_2(square_model, 0.0, 1.0, 1.0, 2.0)
    assert bv2.rhs == pytest.approx(2.0 * math.sqrt(1.0 / 72.0) * 2.0 * math.sqrt(0.5),
                                    rel=1e-13)
    bv3 = bound_T4_3(square_model, 0.0, 1.0, 1.0, 2.0)
    assert bv3.rhs == pytest.approx(math.sqrt(2.0 / 72.0) * 2.0 * math.sqrt(0.5),
                                    rel=1e-13)


def test_exp_bound_values(exp_model):
    vals = {
        "T3.1": bound_T3_1(exp_model, 0.0, 1.0, 1.0).rhs,
        "T3.2": bound_T3_2(exp_model, 0.0, 1.0, 1.0, 2.0).rhs,
        "T3.3": bound_T3_3(exp_model, 0.0, 1.0, 1.0, 2.0).rhs,
        "T4.1": bound_T4_1(exp_model, 0.0, 1.0, 1.0, 2.0).rhs,
        "T4.2": bound_T4_2(exp_model, 0.0, 1.0, 1.0, 2.0).rhs,
        "T4.3": bound_T4_3(exp_model, 0.0, 1.0, 1.0, 2.0).rhs,
    }
    frozen = {
        "T3.1": 0.25821401586521147,
        "T3.2": 0.33485143092008058,
        "T3.3": 0.34134244980767258,
        "T4.1": 0.37753914284153406,
        "T4.2": 0.45304697140984086,
        "T4.3": 0.32035258567992639,
    }
    for key, want in frozen.items():
        assert vals[key] == pytest.approx(want, rel=1e-13)


def test_slack_dominates_defect(exp_model):
    d = simpson_defect(exp_model, 0.0, 1.0)
    for bv in (
        bound_T3_1(exp_model, 0.0, 1.0, 1.0, d),
        bound_T3_2(exp_model, 0.0, 1.0, 1.0, 2.0, d),
        bound_T3_4(exp_model, 0.0, 1.0, 1.0, 1.5, d),
        bound_T4_1(exp_model, 0.0, 1.0, 1.0, 1.0, d),
        bound_classical(exp_model, 0.0, 1.0, d),
    ):
        assert bv.slack is not None
        assert bv.slack >= 0.0
        assert bv.slack == pytest.approx(bv.rhs - abs(d.defect), abs=1e-15)


def test_power_mean_bound_reduces_to_endpoint_mean_at_one():
    rng = random.Random(41)
    for _ in range(20):
        stub = endpoint_stub(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        base = bound_T3_1(stub, 0.0, 1.0, 1.0).rhs
        reduced = bound_T3_4(stub, 0.0, 1.0, 1.0, 1.0).rhs
        assert reduced == pytest.approx(base, rel=1e-14)


def test_single_split_never_beats_double_split():
    rng = random.Random(43)
    for q in (1.1, 2.0, 5.0):
        for _ in range(10):
            stub = endpoint_stub(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
            tighter = bound_T4_3(stub, 0.0, 1.0, 1.0, q).rhs
            looser = bound_T4_2(stub, 0.0, 1.0, 1.0, q).rhs
            assert tighter <= looser * (1.0 + 1e-14)
            assert looser / tighter == pytest.approx(2 ** (1 / q), rel=1e-14)


def test_hoelder_variants_agree_at_equal_magnitudes():
    rng = random.Random(47)
    for q in (1.5, 2.0, 4.0):
        for _ in range(10):
            c = rng.uniform(0.1, 10.0)
            stub = endpoint_stub(c, c)
            split = bound_T3_2(stub, 0.0, 1.0, 1.0, q).rhs
            whole = bound_T3_3(stub, 0.0, 1.0, 1.0, q).rhs
            assert split == pytest.approx(whole, rel=1e-13)


def test_bounds_survive_extreme_exponents():
    stub = endpoint_stub(1e8, 3e8)
    for q in (150.0, 1e4):
        for bound in (bound_T3_2, bound_T3_3, bound_T3_4, bound_T4_2, bound_T4_3):
            rhs = bound(stub, 0.0, 1.0, 1.0, q).rhs
            assert math.isfinite(rhs)
            assert rhs > 0.0
    zero = endpoint_stub(0.0, 0.0)
    assert bound_T3_2(zero, 0.0, 1.0, 1.0, 200.0).rhs == 0.0


@pytest.mark.parametrize("x1, x2", [(math.inf, 2.0), (2.0, math.inf), (math.inf, math.inf)])
def test_an_infinite_magnitude_gives_an_infinite_rhs_above_q_100(x1, x2):
    # above q = 100 the powers are rescaled by max(x1, x2); the rhs stays the unscaled inf
    for q in (100.0, 150.0):
        for theorem, bound in (("T3.2", bound_T3_2), ("T3.3", bound_T3_3), ("T3.4", bound_T3_4)):
            assert bounds.THEOREMS[theorem].rhs_for(q)(x1, x2, 0.4) == math.inf
            assert bound(endpoint_stub(x1, x2), 0.0, 1.0, 0.4, q).rhs == math.inf


def test_exponents_near_one_stay_stable():
    stub = endpoint_stub(1.0, 2.0)
    # q = 1 + 1e-3 gives conjugate p ~ 1000, far past the overflow knee
    rhs = bound_T3_2(stub, 0.0, 1.0, 1.0, 1.0 + 1e-3).rhs
    assert math.isfinite(rhs)
    assert 0.0 < rhs < 1.0


def test_midpoint_bound_sin(sin_model):
    bv = bound_C4_2_midpoint(sin_model, 0.0, 1.0, 1.0)
    assert bv.theorem == "C4.2"
    assert bv.rhs == pytest.approx(5.0 * math.pi / 18.0, rel=1e-12)
    assert bv.slack == pytest.approx(bv.rhs, abs=1e-12)
    gap, qerr = midpoint_gap(sin_model, 0.0, 1.0)
    assert abs(gap) < 1e-14
    assert qerr == 0.0


def test_midpoint_bound_precondition(square_model, make_model):
    with pytest.raises(PreconditionUnmet):
        bound_C4_2_midpoint(square_model, 0.0, 1.0, 1.0)
    # 4x(x - 1/2)(x - 1) meets the precondition, and max(|f'(0)|, |f'(1)|) = 2 as for x^2
    cubic = make_model("4*x^3 - 6*x^2 + 2*x", "12*x^2 - 12*x + 2", "x^4 - 2*x^3 + x^2")
    bv = bound_C4_2_midpoint(cubic, 0.0, 1.0, 1.0)
    assert bv.rhs == pytest.approx(5.0 / 18.0, rel=1e-13)
    assert bv.slack == bv.rhs


# x(1 - x)(2x - 1)^2 + 1e-10 x^2: f(0), f(1/2) and f(1) differ by less than
# C4.2's 1e-9, but not by zero, so |defect| and |f(1/2) - mean| differ
NEAR_LEVEL = ("-4*x^4 + 8*x^3 - 5*x^2 + x + 1e-10*x^2",
              "-16*x^3 + 24*x^2 - 10*x + 1 + 2e-10*x",
              "-0.8*x^5 + 2*x^4 - (5/3)*x^3 + 0.5*x^2 + (1e-10/3)*x^3")


@pytest.mark.parametrize("with_F", [True, False])
def test_midpoint_slack_takes_the_midpoint_gap(make_model, with_F):
    f, df, F = NEAR_LEVEL
    model = make_model(f, df, F if with_F else None)
    d = simpson_defect(model, 0.0, 1.0)
    fa, fmid, fend = d.f_values
    assert 0.0 < max(abs(fa - fmid), abs(fmid - fend)) < 1e-9
    bv = bounds._bound("C4.2", model, 0.0, 1.0, 1.0, None, d)
    assert bv.slack == bv.rhs - abs(fmid - d.mean_integral) - d.quadrature_error
    assert bv.slack != bv.rhs - abs(d.defect) - d.quadrature_error
    assert bound_C4_2_midpoint(model, 0.0, 1.0, 1.0) == bv


def test_midpoint_bound_calls_f_three_times_with_an_antiderivative(sin_model):
    f, calls = sin_model.f_fn, []
    sin_model.__dict__["f_fn"] = lambda x: calls.append(x) or f(x)  # a cached property
    bound_C4_2_midpoint(sin_model, 0.0, 1.0, 1.0)
    assert calls == [0.0, 0.5, 1.0]


def test_midpoint_bound_checks_the_path_before_the_precondition(square_model):
    # x^2 misses the precondition on [9, 11], whose end lies outside K = [-10, 10]
    with pytest.raises(DomainError):
        bound_C4_2_midpoint(square_model, 9.0, 11.0, 2.0)


def test_classical_bound(exp_model, square_model):
    bv = bound_classical(exp_model, 0.0, 1.0)
    assert bv.rhs == pytest.approx(math.e / 2880.0, rel=1e-15)
    with pytest.raises(MissingFourthDerivative):
        bound_classical(square_model, 0.0, 1.0)


def test_step_validation(square_model):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidEta):
            simpson_defect(square_model, 0.0, bad)
        with pytest.raises(InvalidEta):
            bound_T3_1(square_model, 0.0, 1.0, bad)


def test_path_must_stay_inside_domain(make_model):
    model = make_model("x^2", "2*x", "(x^3)/3", K=(0.0, 1.0))
    with pytest.raises(DomainError):
        simpson_defect(model, 0.5, 1.0)
    with pytest.raises(DomainError):
        lemma_rhs(model, 0.5, 1.0)


def test_exponent_validation(square_model):
    for bound in (bound_T3_2, bound_T3_3, bound_T4_2, bound_T4_3):
        with pytest.raises(ValueError):
            bound(square_model, 0.0, 1.0, 1.0, 1.0)
    for bound in (bound_T3_4, bound_T4_1):
        with pytest.raises(ValueError):
            bound(square_model, 0.0, 1.0, 1.0, 0.5)


def test_bound_value_rejects_negative_rhs():
    with pytest.raises(ValueError):
        BoundValue("T3.1", None, None, -0.1, None)


@pytest.mark.parametrize("at", [0.0, 0.75], ids=["a", "b"])
def test_a_nan_derivative_at_a_or_b_is_an_eval_domain_error(make_model, at):
    model = make_model("x", f"if(x == {at!r}, 0*(1e308*10), 1)", K=(0.0, 1.0))
    for bound in (lambda: bound_T3_1(model, 0.0, 0.75, 0.375),
                  lambda: bound_T4_1(model, 0.0, 0.75, 0.375, 2.0)):
        with pytest.raises(EvalDomainError) as info:
            bound()
        assert str(info.value) == (f"NaN value in if((x == {at!r}), (0.0 * (1e+308 * 10.0)), "
                                   f"1.0) at {at!r}")


def test_a_lemma_panel_too_narrow_to_split_is_named_by_its_points_of_K(make_model):
    # |f'| = 1e200 at a alone: the panel at t = 0 cannot shrink enough
    a, K = 0.3, (0.0, 1.0)
    model = make_model("x^2", "if(x == 0.3, 1e200, 2*x)", K=K)
    with pytest.raises(QuadratureError) as info:
        lemma_rhs(model, a, 0.6)
    lo, hi = info.value.interval
    assert type(info.value) is QuadratureError and K[0] <= lo <= hi <= K[1]
    assert abs(lo - a) < 1e-15 and abs(hi - a) < 1e-15
    assert str(info.value) == (f"cannot refine interval [{lo!r}, {hi!r}] further; "
                               f"tolerance unreachable")


def test_lemma_keeps_a_budget_error_as_it_is(make_model, monkeypatch):
    # BudgetExhausted names no point, so the lemma raises it unchanged
    monkeypatch.setattr(bounds.quadrature, "DEFAULT_MAX_EVALS", 5)
    with pytest.raises(BudgetExhausted) as info:
        lemma_rhs(make_model("exp(x)", "exp(x)", K=(0.0, 1.0)), 0.0, 1.0)
    assert info.value.interval is None


def test_from_config_validation():
    with pytest.raises(CaseConfigError):
        FunctionModel.from_config({"name": "bad", "f": "x +", "df": "1", "K": [0, 1]})
    with pytest.raises(CaseConfigError):
        FunctionModel.from_config(
            {"name": "bad", "f": "x", "df": "1", "K": [0, 1], "d4sup": -1.0})


@pytest.mark.parametrize("d4sup", [-1.0, -0.0 - 1e-300, math.inf, -math.inf, math.nan])
def test_a_model_built_directly_rejects_a_bad_d4sup(make_model, d4sup):
    model = make_model("x^2", "2*x", K=(0.0, 1.0))
    message = f"d4sup must be a finite value >= 0, got {d4sup!r}"
    with pytest.raises(ValueError) as direct:
        FunctionModel(model.name, model.f, model.df, model.domain, None, d4sup)
    with pytest.raises(CaseConfigError) as configured:
        FunctionModel.from_config({"name": "m", "f": "x^2", "df": "2*x", "K": [0, 1],
                                   "d4sup": d4sup})
    assert str(direct.value) == str(configured.value) == message
    # zero, and no d4sup at all, are accepted
    assert FunctionModel(model.name, model.f, model.df, model.domain, None, 0.0).d4sup == 0.0
    assert FunctionModel(model.name, model.f, model.df, model.domain).d4sup is None


def test_validate_gates(make_model):
    make_model("x^2", "2*x", "(x^3)/3").validate()
    with pytest.raises(CaseConfigError) as info:
        make_model("x^2", "x").validate()
    assert "disagrees" in str(info.value)
    with pytest.raises(CaseConfigError) as info:
        make_model("x^2", "2*x", "x^3").validate(interval=(0.0, 1.0))
    assert "antiderivative" in str(info.value)


def test_derivative_gate_samples_a_wide_domain_at_finite_points(make_model):
    # (i + 1) * (hi - lo) overflows on [0, 1e307]: the gate once read f and df at x = inf
    make_model("2*x", "2", K=(0.0, 1e307)).validate()


def _old_q_mean(w1, x1, w2, x2, q):
    """(w1 x1^q + w2 x2^q)^(1/q) with the float operations the bounds used
    before their rhs forms were prepared per q.  Where a plain power at
    q <= 100 leaves the normal float range (underflows from a base above 0,
    or overflows), the old forms lost bits, gave 0.0 or raised; the rescaled
    form of q > 100 stands in there."""
    if q == 1.0:
        return w1 * x1 + w2 * x2
    if q <= 100.0:
        try:
            p1, p2 = x1 ** q, x2 ** q
        except OverflowError:
            p1 = p2 = math.inf
        tiny = 2.0 ** -1022  # the least normal float
        if not (0.0 < x1 and p1 < tiny or 0.0 < x2 and p2 < tiny or math.inf in (p1, p2)):
            return (w1 * x1 ** q + w2 * x2 ** q) ** (1.0 / q)
    m = max(x1, x2)
    if m == 0.0:
        return 0.0
    return m * (w1 * (x1 / m) ** q + w2 * (x2 / m) ** q) ** (1.0 / q)


# The bound formulas as each bound_* computed them before they moved into
# the shared rhs functions; the wrappers must give the same floats.
_REFERENCE_RHS = {
    "T3.1": lambda x1, x2, e, q: bounds._M1 * e * (x1 + x2),
    "T3.2": lambda x1, x2, e, q: e * bounds._moment_root(q / (q - 1.0)) * (
        _old_q_mean(bounds._HALF_NEAR, x1, bounds._HALF_FAR, x2, q)
        + _old_q_mean(bounds._HALF_FAR, x1, bounds._HALF_NEAR, x2, q)),
    "T3.3": lambda x1, x2, e, q: e * bounds._moment_root(q / (q - 1.0), 2.0)
    * _old_q_mean(0.5, x1, 0.5, x2, q),
    "T3.4": lambda x1, x2, e, q: e * bounds._M1 ** (1.0 - 1.0 / q) * (
        _old_q_mean(bounds._W_END, x1, bounds._W_FAR, x2, q)
        + _old_q_mean(bounds._W_FAR, x1, bounds._W_END, x2, q)),
    "T4.1": lambda x1, x2, e, q: 2.0 * bounds._M1 * e * max(x1, x2),
    "T4.2": lambda x1, x2, e, q: 2.0 * e * bounds._moment_root(q / (q - 1.0))
    * max(x1, x2) * 0.5 ** (1.0 / q),
    "T4.3": lambda x1, x2, e, q: e * bounds._moment_root(q / (q - 1.0), 2.0)
    * max(x1, x2) * 0.5 ** (1.0 / q),
}
_MAGNITUDES = st.one_of(st.sampled_from((0.0, 5e-324, 1.0, 1e8, 1e150)),
                        st.floats(0.0, 1e3, allow_nan=False))


@given(_MAGNITUDES, _MAGNITUDES, st.floats(1e-6, 10.0),
       st.one_of(st.sampled_from((1.0, 1.0000001, 1.001, 2.0, 100.0, 100.5, 149.9, 1e4)),
                 st.floats(1.0, 200.0)))
@settings(max_examples=300)
def test_bound_wrappers_keep_the_old_float_operations(x1, x2, eta_val, q):
    stub = endpoint_stub(x1, x2)
    got = {
        "T3.1": lambda: bound_T3_1(stub, 0.0, 1.0, eta_val),
        "T3.2": lambda: bound_T3_2(stub, 0.0, 1.0, eta_val, q),
        "T3.3": lambda: bound_T3_3(stub, 0.0, 1.0, eta_val, q),
        "T3.4": lambda: bound_T3_4(stub, 0.0, 1.0, eta_val, q),
        "T4.1": lambda: bound_T4_1(stub, 0.0, 1.0, eta_val, q),
        "T4.2": lambda: bound_T4_2(stub, 0.0, 1.0, eta_val, q),
        "T4.3": lambda: bound_T4_3(stub, 0.0, 1.0, eta_val, q),
    }
    # each table row's rhs prepared for q, called as tightness_scan calls it
    prepared = {theorem: (lambda t=theorem: bounds.THEOREMS[t].rhs_for(q)(x1, x2, eta_val))
                for theorem in (*_REFERENCE_RHS, "C4.1", "C4.2")}

    def outcome(compute):
        try:
            return compute().hex()
        except OverflowError as exc:
            return repr(exc)

    for theorem, want in _REFERENCE_RHS.items():
        if q == 1.0 and theorem in ("T3.2", "T3.3", "T4.2", "T4.3"):
            continue
        expected = outcome(lambda: want(x1, x2, eta_val, q))
        assert outcome(lambda: got[theorem]().rhs) == expected, theorem
        assert outcome(prepared[theorem]) == expected, theorem
    for theorem in ("C4.1", "C4.2"):
        assert outcome(prepared[theorem]) == outcome(lambda: _REFERENCE_RHS["T4.1"](
            x1, x2, eta_val, q)), theorem
    model = SimpleNamespace(d4sup=x1, name="m")
    want = (x1 * eta_val ** 4 / 2880.0).hex()
    assert bound_classical(model, 0.0, eta_val).rhs.hex() == want
    assert bounds.THEOREMS["CLASSICAL"].rhs_for(x1)(None, None, eta_val).hex() == want


_WIDE_MAGNITUDES = st.one_of(st.sampled_from((0.0, 5e-324, 1e-310, 1e-200, 1e200, 1e300)),
                             st.floats(0.0, 1e300, allow_nan=False))


@given(st.sampled_from([t for t, row in bounds.THEOREMS.items() if row.mode is not None]),
       _WIDE_MAGNITUDES, _WIDE_MAGNITUDES, st.floats(1e-3, 1e3),
       st.one_of(st.sampled_from((1.0, 1.5, 2.0, 3.0, 60.0, 100.0)), st.floats(1.0, 100.0)))
@settings(max_examples=500)
def test_every_rhs_is_positive_and_finite_where_its_value_is(theorem, x1, x2, step, q):
    # each row's constant factor lies within [1e-3, 10], so where max(x1, x2) *
    # step lies within [1e-280, 1e280] the exact rhs is a positive normal float;
    # a power x^q that underflows or overflows on the way must not make it 0 or inf
    row = bounds.THEOREMS[theorem]
    if not row.exponents([q]):
        return  # q = 1 for a row that needs q > 1
    assume(1e-280 <= max(x1, x2) * step <= 1e280)
    rhs = row.rhs_for(q)(x1, x2, step)
    assert 0.0 < rhs < math.inf, (x1, x2, step, q, rhs)


_RISES = st.sampled_from((0.0, 2.0 ** -52, 1e-9, 1e-3, 1.0, 1e6))


@given(st.sampled_from(list(bounds.THEOREMS)), _MAGNITUDES, _MAGNITUDES, st.booleans(),
       st.floats(1e-6, 1e3), st.tuples(_RISES, _RISES, _RISES),
       st.one_of(st.sampled_from((1.0, 1.0000001, 2.0, 100.0, 100.5, 149.9, 1e4)),
                 st.floats(1.0, 1e4)))
@settings(max_examples=500)
def test_every_rhs_is_nondecreasing_in_each_magnitude_and_the_step(
        theorem, x1, x2, tied, step, rises, q):
    # a scan bounds a block of cells by the rhs at its least and largest
    # (|f'(a)|, |f'(b)|, step), so each rhs must rise with each argument; the q > 100
    # rescale by max(x1, x2) rounds a few ulps off monotone where x1 and x2 are
    # near each other, which scan._WIDEN covers.  An OverflowError counts as inf.
    row = bounds.THEOREMS[theorem]
    if row.mode is not None and not row.exponents([q]):
        return  # q = 1 for a row that needs q > 1
    rhs = row.rhs_for(q)  # CLASSICAL takes q as its d4sup
    low = (x1, x1 if tied else x2, step)
    high = tuple(v + rise * v if v else rise for v, rise in zip(low, rises))

    def value(point):
        try:
            return rhs(*point)
        except OverflowError:
            return math.inf

    at_low, at_high = value(low), value(high)
    assert not (math.isnan(at_low) or math.isnan(at_high))
    assert at_low <= at_high * scan._WIDEN, (low, high, at_low, at_high)


# The rule functions THEOREMS rows held before they became values: the reference
# for Theorem.exponents and Theorem.labels.
def _q_one(q_list):
    return [1.0]


def _q_above_one(q_list):
    return [q for q in q_list if q > 1.0]


def _q_all(q_list):
    return list(q_list)


def _q_none(q_list):
    return [None]


def _no_labels(q):
    return None, None


def _q_and_conjugate(q):
    if not q > 1.0:
        raise ValueError(f"this bound needs q > 1, got {q!r}")
    return q, q / (q - 1.0)


def _q_at_least_one(q):
    if q < 1.0:
        raise ValueError(f"this bound needs q >= 1, got {q!r}")
    return q, None


_FORMER_RULES = {
    "T3.1": (_q_one, _no_labels),
    "T3.2": (_q_above_one, _q_and_conjugate),
    "T3.3": (_q_above_one, _q_and_conjugate),
    "T3.4": (_q_all, _q_at_least_one),
    "T4.1": (_q_all, _q_at_least_one),
    "T4.2": (_q_above_one, _q_and_conjugate),
    "T4.3": (_q_above_one, _q_and_conjugate),
    "C4.1": (_q_one, _q_at_least_one),
    "C4.2": (_q_one, _no_labels),
    "CLASSICAL": (_q_none, _no_labels),
}
_Q_POOL = (1.0, 1.0000001, 1.5, 2.0, 3.0, 149.9, 150.0)


def _rule_outcome(rule, arg):
    try:
        return repr(rule(arg))
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("theorem", list(_FORMER_RULES))
def test_theorem_rows_take_and_label_q_as_the_former_rule_functions(theorem):
    row = bounds.THEOREMS[theorem]
    exponents, labels = _FORMER_RULES[theorem]
    for n in range(4):  # every ordered q list of up to 3 distinct q's of the pool
        for q_list in itertools.permutations(_Q_POOL, n):
            assert row.exponents(q_list) == exponents(q_list), q_list
            assert row.exponents(list(q_list)) == exponents(list(q_list)), q_list
    for q in _Q_POOL + (None, 0.5, 0.9999999, -2.0):
        assert _rule_outcome(row.labels, q) == _rule_outcome(labels, q), q


def test_theorem_labels_raise_for_q_out_of_range():
    for theorem in ("T3.2", "T3.3", "T4.2", "T4.3"):
        for q in (1.0, 0.5):
            with pytest.raises(ValueError, match=f"this bound needs q > 1, got {q!r}"):
                bounds.THEOREMS[theorem].labels(q)
    for theorem in ("T3.4", "T4.1", "C4.1"):
        assert bounds.THEOREMS[theorem].labels(1.0) == (1.0, None)
        with pytest.raises(ValueError, match="this bound needs q >= 1, got 0.9999999"):
            bounds.THEOREMS[theorem].labels(0.9999999)


def test_theorem_rows_hold_no_function_but_rhs_for():
    for row in bounds.THEOREMS.values():
        assert [name for name, value in row._asdict().items() if callable(value)] == ["rhs_for"]


def test_t4_3_falls_below_a_defect_its_premise_allows():
    """Pins a finding, not a fix: T4.3's rhs is below a |defect| that its
    premise alone allows, where T4.1 and T4.2 hold.

    On K = [0, 1] with a = 0 and eta = 1, f' = tanh(200(x - 1/6)) tanh(200(x - 1/2))
    tanh(200(x - 5/6)) has |f'(a)| = |f'(b)| = 1 and |f'| <= 1 on the segment,
    the T4.x premise with max = 1.  The defect is the kernel integral of f',
    taken by scipy split at the three steep points.  (Since |f'| dips to 0
    at each sign change, |f'|^q is not prequasiinvex and run_case skips T4.x.)
    """
    integrate = pytest.importorskip("scipy.integrate")

    def df(x):
        return math.tanh(200.0 * (x - 1 / 6)) * math.tanh(200.0 * (x - 0.5)) * math.tanh(
            200.0 * (x - 5 / 6))

    assert abs(df(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert abs(df(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert max(abs(df(i / 200000)) for i in range(200001)) <= 1.0
    ends = (0.0, 1 / 6, 0.5, 5 / 6, 1.0)
    defect = sum(integrate.quad(lambda t: kernel.eval_m(t) * df(t), lo, hi, epsabs=1e-13,
                                epsrel=1e-13, limit=200)[0] for lo, hi in zip(ends, ends[1:]))
    assert defect == pytest.approx(0.136558, abs=1e-6)
    qs = (1.5, 2.0, 3.0)
    rhs = {theorem: {q: bounds.THEOREMS[theorem].rhs_for(q)(1.0, 1.0, 1.0) for q in qs}
           for theorem in ("T4.1", "T4.2", "T4.3")}
    assert [round(rhs["T4.3"][q], 4) for q in qs] == [0.1179, 0.1179, 0.1222]
    assert all(defect > value for value in rhs["T4.3"].values())
    assert all(defect < value for value in rhs["T4.2"].values())
    assert all(round(value, 4) == 0.1389 and defect < value for value in rhs["T4.1"].values())
