import math
import time
from fractions import Fraction

import pytest

from simpvex import quadrature
from simpvex.kernel import (
    eval_m,
    half_weights,
    log_moment_p,
    moment_p,
    moment_p_exact,
    weighted_moments,
)


def test_eval_m_branch_values():
    assert eval_m(0.0) == pytest.approx(-1.0 / 6.0, abs=1e-16)
    assert eval_m(1.0 / 6.0) == 0.0
    assert eval_m(1.0 / 3.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert eval_m(5.0 / 6.0) == 0.0
    assert eval_m(1.0) == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_eval_m_jump_at_half():
    # right branch applies at exactly 1/2
    assert eval_m(0.5) == pytest.approx(-1.0 / 3.0, abs=1e-16)
    assert eval_m(0.5 - 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-11)


def test_eval_m_range_checked():
    with pytest.raises(ValueError):
        eval_m(-0.01)
    with pytest.raises(ValueError):
        eval_m(1.01)


def test_breakpoints_cover_kinks_and_jump():
    # |m| kinks where m changes sign, at 1/6 and 5/6, and m jumps at 1/2;
    # between grid neighbours |m| has slope +-1 unless one of these lies between them
    breakpoints = (1.0 / 6.0, 0.5, 5.0 / 6.0)
    grid = [(i + 0.5) / 50.0 for i in range(50)]
    bent = []
    for u, v in zip(grid, grid[1:]):
        slope = (abs(eval_m(v)) - abs(eval_m(u))) / (v - u)
        if abs(abs(slope) - 1.0) > 1e-9:
            bent.append((u, v))
    assert len(bent) == len(breakpoints)
    for (u, v), point in zip(bent, breakpoints):
        assert u < point < v


def test_exact_moments():
    assert moment_p_exact(1) == Fraction(5, 72)
    assert moment_p_exact(2) == Fraction(1, 72)
    assert moment_p_exact(3) == Fraction(17, 5184)


def test_moment_p_matches_exact_for_integone():
    for p in (1, 2, 3, 4, 10):
        assert moment_p(float(p)) == float(moment_p_exact(p))


def test_moment_p_keeps_exact_values_up_to_its_cap_and_is_fast_past_it():
    for p in range(51, 1001):
        assert moment_p(float(p)) == float(moment_p_exact(p)), p
    # past the cap the log route answers, and both routes have underflowed
    for p in (1001, 1500):
        assert moment_p(float(p)) == float(moment_p_exact(p)) == 0.0
    start = time.perf_counter()
    assert moment_p(1e7) == 0.0
    assert time.perf_counter() - start < 0.5  # the exact route takes minutes


def test_moment_p_rejects_small_order():
    with pytest.raises(ValueError):
        moment_p(0.5)
    with pytest.raises(ValueError):
        moment_p_exact(0)
    with pytest.raises(ValueError):
        log_moment_p(0.9)


@pytest.mark.parametrize("fn", [moment_p, log_moment_p])
@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_moment_orders_that_are_not_finite_are_rejected(fn, p):
    # moment_p raised from math.floor or overflowed, and log_moment_p returned nan
    with pytest.raises(ValueError) as info:
        fn(p)
    assert str(info.value) == f"moment order must be finite and >= 1, got {p!r}"


def _split_integral(g, lo, kink, hi):
    """The integral of g over [lo, hi], one call per side of its kink, 5e-14 each."""
    return (quadrature.integrate(g, lo, kink, 5e-14).value
            + quadrature.integrate(g, kink, hi, 5e-14).value)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0, 10.0])
def test_moment_p_agrees_with_quadrature(p):
    value = _split_integral(lambda t: abs(t - 1.0 / 6.0) ** p, 0.0, 1.0 / 6.0, 0.5)
    assert abs(moment_p(p) - value) <= 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_right_half_moment_equals_left_by_symmetry(p):
    right = _split_integral(lambda t: abs(t - 5.0 / 6.0) ** p, 0.5, 5.0 / 6.0, 1.0)
    assert abs(right - moment_p(p)) <= 1e-12


def test_moment_p_strictly_decreasing():
    # |t - 1/6| <= 1/3 on [0, 1/2], so higher powers shrink the integral
    ps = [1.0, 1.25, 2.0, 3.0, 10.0, 40.0, 80.0]
    values = [moment_p(p) for p in ps]
    for smaller, larger in zip(values[1:], values):
        assert smaller < larger


def test_log_moment_matches_direct_log():
    for p in (1.0, 2.5, 10.0, 40.0):
        assert log_moment_p(p) == pytest.approx(math.log(moment_p(p)), rel=1e-12)


def test_large_p_stays_finite_and_positive():
    v = moment_p(400.0)
    assert v > 0.0
    assert math.isfinite(v)
    # 6^401 overflows floats; the log-space route must not
    assert log_moment_p(400.0) < 0.0


def test_weighted_moments_exact():
    w = weighted_moments()
    assert w == (Fraction(61, 1296), Fraction(29, 1296),
                 Fraction(29, 1296), Fraction(61, 1296))
    assert w[0] + w[1] == Fraction(5, 72)
    assert w[2] + w[3] == Fraction(5, 72)


def test_weighted_moments_against_quadrature():
    pairs = [
        (lambda t: abs(t - 1.0 / 6.0) * (1.0 - t), 0.0, 0.5, 1.0 / 6.0, Fraction(61, 1296)),
        (lambda t: abs(t - 1.0 / 6.0) * t, 0.0, 0.5, 1.0 / 6.0, Fraction(29, 1296)),
        (lambda t: abs(t - 5.0 / 6.0) * (1.0 - t), 0.5, 1.0, 5.0 / 6.0, Fraction(29, 1296)),
        (lambda t: abs(t - 5.0 / 6.0) * t, 0.5, 1.0, 5.0 / 6.0, Fraction(61, 1296)),
    ]
    for g, lo, hi, kink, want in pairs:
        assert abs(_split_integral(g, lo, kink, hi) - float(want)) <= 1e-12


def test_half_weights():
    near, far = half_weights()
    assert near == Fraction(3, 8)
    assert far == Fraction(1, 8)
    # they are integral_0^{1/2} (1-t) dt and integral_0^{1/2} t dt
    assert near + far == Fraction(1, 2)
