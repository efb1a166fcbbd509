"""Every ``bounds.THEOREMS`` rhs against its stated formula, in mpmath at 40 digits.

Each row's formula is written out below from the ``bounds`` docstrings, over
x1 = |f'(a)|, x2 = |f'(b)|, the step eta and p = q/(q - 1), with the kernel
moment M_p = (1 + 2^(p+1)) / (6^(p+1) (p + 1)) in closed form, so the oracle
shares no code with ``bounds`` or ``kernel``.  ``rhs_for(q)(x1, x2, step)``
must lie within ULPS units in the last place of it at seeded random draws,
with q near 1 (p in the thousands) and q above 100, where ``bounds``
rescales the powers so they cannot overflow.
"""

import math
import random
import sys

import pytest

from simpvex import bounds

mp = pytest.importorskip("mpmath")

DPS = 40
ULPS = 16
DRAWS = 100  # per row
_MAX = sys.float_info.max
Q_SET = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 7.0)


def _moment(p):
    return (1 + mp.mpf(2) ** (p + 1)) / (mp.mpf(6) ** (p + 1) * (p + 1))


def _power_sum(w1, w2, x1, x2, q):
    return (w1 * x1 ** q + w2 * x2 ** q) ** (1 / q)


def _half_max(x1, x2, q):
    return (max(x1 ** q, x2 ** q) / 2) ** (1 / q)


# theorem -> want(x1, x2, eta, q, p); CLASSICAL's x1 is d4sup
FORMULAS = {
    "T3.1": lambda x1, x2, eta, q, p: mp.mpf(5) / 72 * eta * (x1 + x2),
    "T3.2": lambda x1, x2, eta, q, p: eta * _moment(p) ** (1 / p) * (
        _power_sum(mp.mpf(3) / 8, mp.mpf(1) / 8, x1, x2, q)
        + _power_sum(mp.mpf(1) / 8, mp.mpf(3) / 8, x1, x2, q)),
    "T3.3": lambda x1, x2, eta, q, p: eta * (2 * _moment(p)) ** (1 / p) * _power_sum(
        mp.mpf(1) / 2, mp.mpf(1) / 2, x1, x2, q),
    "T3.4": lambda x1, x2, eta, q, p: eta * (mp.mpf(5) / 72) ** (1 - 1 / q) * (
        _power_sum(mp.mpf(61) / 1296, mp.mpf(29) / 1296, x1, x2, q)
        + _power_sum(mp.mpf(29) / 1296, mp.mpf(61) / 1296, x1, x2, q)),
    "T4.1": lambda x1, x2, eta, q, p: mp.mpf(5) / 36 * eta * max(x1, x2),
    "T4.2": lambda x1, x2, eta, q, p: 2 * eta * _moment(p) ** (1 / p) * _half_max(x1, x2, q),
    "T4.3": lambda x1, x2, eta, q, p: eta * (2 * _moment(p)) ** (1 / p) * _half_max(x1, x2, q),
    "C4.1": lambda x1, x2, eta, q, p: mp.mpf(5) / 36 * eta * max(x1, x2),
    "C4.2": lambda x1, x2, eta, q, p: mp.mpf(5) / 36 * eta * max(x1, x2),
    "CLASSICAL": lambda x1, x2, eta, q, p: x1 * eta ** 4 / 2880,
}


def _draw_q(rng, row):
    """A q the row takes (None for CLASSICAL): from Q_SET, near 1 or in (100, 200]."""
    taken = []
    while not taken:
        kind = rng.random()
        if kind < 0.6:
            q = rng.choice(Q_SET)
        elif kind < 0.8:
            q = 1.0 + 10.0 ** rng.uniform(-4.0, -1.0)
        else:
            q = rng.uniform(100.0, 200.0)
        taken = row.exponents([q])
    return taken[0]


def _draw_magnitude(rng):
    return 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-3.0, 3.0)


def test_every_theorem_has_a_formula():
    assert list(FORMULAS) == list(bounds.THEOREMS)


@pytest.mark.parametrize("theorem", list(FORMULAS))
def test_rhs_matches_its_formula_to_40_digits(theorem):
    row = bounds.THEOREMS[theorem]
    rng = random.Random(f"rhs-oracle-{theorem}")
    for _ in range(DRAWS):
        q = _draw_q(rng, row)
        x1, x2 = _draw_magnitude(rng), _draw_magnitude(rng)
        eta = 10.0 ** rng.uniform(-2.0, 1.0)
        if q is None:  # CLASSICAL takes d4sup in the place of q
            got = row.rhs_for(x1)(None, None, eta)
        else:
            got = row.rhs_for(q)(x1, x2, eta)
        with mp.workdps(DPS):
            mq = None if q is None else mp.mpf(q)
            p = mq / (mq - 1) if q is not None and q > 1.0 else None
            want = FORMULAS[theorem](mp.mpf(x1), mp.mpf(x2), mp.mpf(eta), mq, p)
            err = abs(mp.mpf(got) - want)
            ulps = float(err / math.ulp(float(want))) if want else float(err)
        assert ulps <= ULPS, (theorem, q, x1, x2, eta, got, want)


@pytest.mark.parametrize("theorem", ["T3.2", "T3.3", "T3.4"])
def test_rhs_whose_plain_powers_leave_the_float_range_matches_its_formula(theorem):
    # magnitudes from 1e-300 to 1e300 at q up to 7, kept where x1^q or x2^q
    # underflows below the least normal float or overflows: there the powers are
    # rescaled by max(x1, x2)
    row = bounds.THEOREMS[theorem]
    rng = random.Random(f"rhs-oracle-range-{theorem}")
    for _ in range(DRAWS):
        while True:
            q = rng.choice([q for q in Q_SET if row.exponents([q])])
            x1, x2 = (0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-300.0, 300.0)
                      for _ in range(2))
            if any(x and not 2.0 ** -1022 <= mp.mpf(x) ** q <= mp.mpf(_MAX) for x in (x1, x2)):
                break
        eta = 10.0 ** rng.uniform(-2.0, 1.0)
        got = row.rhs_for(q)(x1, x2, eta)
        with mp.workdps(DPS):
            mq = mp.mpf(q)
            p = mq / (mq - 1) if q > 1.0 else None
            want = FORMULAS[theorem](mp.mpf(x1), mp.mpf(x2), mp.mpf(eta), mq, p)
            ulps = float(abs(mp.mpf(got) - want) / math.ulp(float(want))) if want else got
        assert ulps <= ULPS, (theorem, q, x1, x2, eta, got, want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_rhs_whose_power_sum_lies_far_from_1_matches_its_formula():
    # the plain path (q <= 100, no power out of range) rounds r = 1/q, and the
    # error of sum^r grows with ln(sum): T3.4 here is 193 ulps off, T3.2 45
    off = {}
    for theorem, q, x1, x2 in (("T3.4", 1.5, 2.055e-104, 4.689e202),
                               ("T3.2", 3.0, 2.91e56, 8.82e-35)):
        got = bounds.THEOREMS[theorem].rhs_for(q)(x1, x2, 1.0)
        with mp.workdps(DPS):
            mq = mp.mpf(q)
            want = FORMULAS[theorem](mp.mpf(x1), mp.mpf(x2), mp.mpf(1), mq, mq / (mq - 1))
            off[theorem] = float(abs(mp.mpf(got) - want) / math.ulp(float(want)))
    assert max(off.values()) <= ULPS, off


@pytest.mark.parametrize("q2", [60.0, 100.0])
def test_run_case_passes_where_the_powers_of_t3_2_underflow(q2):
    # |f'| = 1e-6 e^x on [0, 1]: |f'|^q2 underflows to 0.0 at every sample for
    # q2 >= 60, where an rhs of 0.0 once read as a violation
    from simpvex import runner

    cfg = {"name": "tiny_exp", "f": "1e-6*exp(x)", "df": "1e-6*exp(x)", "F": "1e-6*exp(x)",
           "eta": {"kind": "difference"}, "K": [0, 1], "a": 0, "b": 1, "q": [1, q2],
           "theorems": ["T3.2"]}
    case = runner.load_case(cfg)
    result = runner.run_case(case)
    (bound,) = result.bounds
    assert (result.verdict, bound.q) == ("pass", q2)
    x1, x2 = abs(case.model.df_fn(0.0)), abs(case.model.df_fn(1.0))
    with mp.workdps(DPS):
        mq = mp.mpf(q2)
        want = FORMULAS["T3.2"](mp.mpf(x1), mp.mpf(x2), mp.mpf(1.0), mq, mq / (mq - 1))
        assert abs(mp.mpf(bound.rhs) - want) <= 4 * math.ulp(float(want))
