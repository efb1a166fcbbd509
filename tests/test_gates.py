"""A scan's q > 1 hypothesis gates: which ones the q = 1 sweep implies, which
q are swept, and the implied verdicts against the sampled ones."""

import importlib.util
import itertools
import math
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from simpvex import invexity, runner
from simpvex.errors import EvalDomainError
from simpvex.invexity import DEFAULT_GRID, DEFAULT_TOL, PropertyReport

# perfbench/inputs.py, read without putting perfbench/ on the path
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inputs)

_MODES = ("preinvex", "prequasiinvex")


def _report(mode, violated, q=1.0):
    if violated:
        return PropertyReport(mode, "violated", 1.0, (0.0, 1.0, 0.5), 10, q)
    return PropertyReport(mode, "verified_on_samples", 0.0, None, 10, q)


@pytest.mark.parametrize("pre_fails, quasi_fails, implied", [
    (False, False, {"preinvex": True, "prequasiinvex": True}),
    (True, False, {"preinvex": None, "prequasiinvex": True}),
    (False, True, {"preinvex": False, "prequasiinvex": False}),  # only rounding gives this
    (True, True, {"preinvex": False, "prequasiinvex": False}),
])
def test_q1_decides_every_gate_but_preinvex_where_only_preinvex_fails(
        pre_fails, quasi_fails, implied):
    # the open gate reads the q = 1 preinvex witness at q: an excess above tol
    # there fails it with no sweep, and one within tol sweeps q
    at_q1 = {"preinvex": _report("preinvex", pre_fails),
             "prequasiinvex": _report("prequasiinvex", quasi_fails)}
    for mode, swept_fails, witness_fails in itertools.product(_MODES, (False, True),
                                                                (False, True)):
        swept, witnessed = [], []

        def lookup(m, q):
            if q == 1.0:
                return at_q1[m]
            swept.append((m, q))
            return _report(m, swept_fails, q)

        def exceeds(witness, q):
            witnessed.append((witness, q))
            return witness_fails

        got = runner._holds(lookup, exceeds, mode, 2.0)
        want = implied[mode]
        opened = want is None and not witness_fails  # the witness leaves q open
        assert got == (not swept_fails if opened else bool(want))
        assert swept == ([(mode, 2.0)] if opened else [])
        assert witnessed == ([((0.0, 1.0, 0.5), 2.0)] if want is None else [])
    for mode in _MODES:  # q = 1 itself is always its own sweep
        assert runner._holds(lambda m, q: at_q1[m], None, mode, 1.0) == (
            not at_q1[mode].violated)


def _swept_q(monkeypatch, cfg, q_list, steps=9, theorems=runner.THEOREM_IDS):
    """The q of each ``hypothesis_pair`` call of the config's scan, and its
    outcome: the results, or the type of what it raised."""
    qs = []
    real = runner.hypothesis_pair

    def pair(model, eta, K, q, *args):
        qs.append(q)
        return real(model, eta, K, q, *args)

    monkeypatch.setattr(runner, "hypothesis_pair", pair)
    case = runner.load_case(cfg)
    a_range, b_range, _, _ = inputs.scan_args(cfg)
    try:
        outcome = runner.tightness_scan(case.model, case.eta, case.model.domain, a_range,
                                        b_range, q_list, steps, theorems)
    except Exception as exc:  # the raise is the outcome
        outcome = type(exc).__name__
    return qs, outcome


@pytest.mark.parametrize("name, qs", [
    ("scan_00000_poly", [1.0]), ("scan_00001_exp", [1.0]), ("scan_00002_log", [1.0]),
    ("scan_00003_power", [1.0]), ("scan_00004_sin", [1.0]), ("scan_00005_abs", [1.0]),
    ("scan_00006_eta_expr", [1.0])])
def test_pool_models_sweep_only_the_q_that_q1_leaves_open(monkeypatch, name, qs):
    # poly, exp, log and abs pass both modes at q = 1 and sin fails
    # prequasiinvex there, so q = 1 decides every gate; eta_expr's |f'| is
    # prequasiinvex but not preinvex, so its preinvex pairs read the q = 1
    # witness at each q > 1, which fails them all (excess 5.75, 10.4 and 33.5
    # at q = 1.5, 2 and 3) with no sweep.  The power model's f' fails at 0, in
    # its q = 1 sweep
    (cfg,) = [cfg for cfg in inputs.scan_pool() if cfg["name"] == name]
    got, outcome = _swept_q(monkeypatch, cfg, list(inputs.SCAN_Q))
    assert got == qs
    assert (outcome == "EvalDomainError") == name.endswith("_power")


def test_a_request_without_q1_takes_its_gates_from_the_q1_sweep(monkeypatch):
    # q = 1 is not listed, but every q > 1 gate sweeps it first, as T3.1, C4.1
    # and C4.2 do for their own; the poly model's |f'| passes both modes there,
    # so no listed q is swept
    (cfg,) = [cfg for cfg in inputs.scan_pool() if cfg["name"] == "scan_00000_poly"]
    qs, outcome = _swept_q(monkeypatch, cfg, [1.5, 2.0, 3.0])
    assert qs == [1.0] and not isinstance(outcome, str)
    qs, outcome = _swept_q(monkeypatch, cfg, [1.5, 2.0, 3.0], theorems=("T3.2", "T4.2"))
    assert qs == [1.0] and not isinstance(outcome, str)


def test_an_implied_q_that_would_overflow_ranks_on_the_rescaled_rhs():
    # |f'|^2 = 1e400 leaves the float range, so a sweep at q = 2 overflows, and
    # run_case, which sweeps every q, gives input_error; a scan takes q = 2
    # from the q = 1 sweep, q = 1 listed or not, and ranks each cell on T3.2's
    # and T3.3's rescaled rhs, skipping only the cells T3.1 and T3.4 skip at
    # q = 1 (no step at a = b, or an own integral whose absolute tolerance
    # these magnitudes cannot reach)
    cfg = dict(name="huge_line", f="1e200*x", df="1e200", K=[0, 1], a=0, b=1,
               eta={"kind": "difference"}, q=[1, 2], theorems=["T3.2", "T3.3"])
    case = runner.load_case(cfg)
    result = runner.run_case(case)
    assert (result.verdict, result.error) == (
        "input_error", "OverflowError: hypothesis sweep of |f'|^q at q=2.0: "
                       "|f'|^q exceeds the float range")
    args = (case.model, case.eta, case.model.domain, (0.0, 0.5), (0.5, 1.0))
    at_q1 = runner.tightness_scan(*args, [1.0], 9, ("T3.1", "T3.4"))
    for q_list in ([2.0], [1.0, 2.0]):
        implied = runner.tightness_scan(*args, q_list, 9, ("T3.2", "T3.3"))
        assert [(r.status, r.at_q, r.cells) for r in implied] == [("ok", 2.0, 81)] * 2
        assert [r.skipped for r in implied] == [r.skipped for r in at_q1] == [20, 20]
        assert all(0.0 < r.ratio < 1.0 for r in implied)


# the families whose |f'| is drawn prequasiinvex but not preinvex at q = 1 for
# some seeds: power and sin on the difference eta, eta_expr on an expression eta
_OPEN = [i for i, family in enumerate(inputs.FAMILIES) if family in ("power", "sin", "eta_expr")]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(_OPEN), st.integers(0, 3),
       st.sampled_from((1.5, 2.0, 3.0)))
@settings(max_examples=60)
def test_a_gate_the_witness_fails_fails_its_sweep_too(seed, family, lap, q):
    # the q = 1 preinvex witness is one sample of the sweep at q, so wherever its
    # excess fails the gate, the sweep flags |f'|^q by at least that excess
    index = family + lap * len(inputs.FAMILIES)
    cfg = inputs.generate_case(random.Random(seed), index, "gate", False, [1.0, q])
    case = runner.load_case(cfg)
    model, eta, K = case.model, case.eta, case.model.domain
    try:
        at_q1 = dict(zip(_MODES, invexity.hypothesis_pair(model, eta, K, 1.0)))
    except EvalDomainError:  # f' fails on the samples (a power law at 0)
        assume(False)
    excesses, swept = [], []

    def exceeds(witness, p):
        excesses.append(invexity.preinvex_excess(model.df_fn, eta, witness, p))
        return excesses[-1] > DEFAULT_TOL

    def lookup(mode, p):
        if p != 1.0:
            swept.append(p)
        return at_q1[mode]

    try:
        held = runner._holds(lookup, exceeds, "preinvex", q)
    except OverflowError:  # at the witness: the sweep overflows too
        with pytest.raises(OverflowError):
            invexity.hypothesis_pair(model, eta, K, q)
        return
    assume(excesses and not swept)  # the witness settled the gate
    sampled = invexity.hypothesis_pair(model, eta, K, q)[0]
    assert not held and sampled.violated and sampled.worst_violation >= excesses[0]


def test_the_witness_fails_every_open_gate_of_the_eta_expr_pool_model():
    # its |f'| is prequasiinvex but not preinvex at q = 1, and the excess at
    # the q = 1 witness, above tol at each q > 1, is at most the sweep's worst
    (cfg,) = [cfg for cfg in inputs.scan_pool() if cfg["name"] == "scan_00006_eta_expr"]
    case = runner.load_case(cfg)
    model, eta, K = case.model, case.eta, case.model.domain
    pre, quasi = invexity.hypothesis_pair(model, eta, K, 1.0)
    assert pre.violated and not quasi.violated
    assert [round(x, 3) for x in pre.witness] == [2.201, 0.248, 1.0]
    for q, want in ((1.5, 5.75), (2.0, 10.4), (3.0, 33.5)):
        excess = invexity.preinvex_excess(model.df_fn, eta, pre.witness, q)
        assert excess == pytest.approx(want, rel=1e-2)
        assert excess <= invexity.hypothesis_pair(model, eta, K, q)[0].worst_violation


def _carried_band(q, M, tol):
    """How far a sweep of |f'|^q may exceed tol where |f'| passes at q = 1 on the
    same samples: an excess of at most tol, raised to q, is one of at most
    q (M + tol)^(q - 1) tol, plus the rounding of values up to M^q."""
    return q * (M + tol) ** (q - 1.0) * tol + 16 * math.ulp(M ** q)


def _differing_modes(cfg, q):
    """The modes whose implied verdict at q differs from the sampled one for the
    config's |f'|, each checked to differ only within the carried tolerance."""
    case = runner.load_case(cfg)
    model, eta, K, tol = case.model, case.eta, case.model.domain, DEFAULT_TOL
    try:
        at_q1 = dict(zip(_MODES, invexity.hypothesis_pair(model, eta, K, 1.0)))
    except EvalDomainError:  # f' fails on the samples (a power law at 0)
        return None
    M = max(invexity._plan(K, eta, DEFAULT_GRID).values(model.df_fn))
    if not M ** q < 1e300:  # a sweep at q could overflow
        return None
    sampled = dict(zip(_MODES, invexity.hypothesis_pair(model, eta, K, q)))
    differing = []
    for mode in _MODES:
        implied = runner._holds(lambda m, p: at_q1[m] if p == 1.0 else sampled[m],
                                lambda w, p: invexity.preinvex_excess(model.df_fn, eta, w, p) > tol,
                                mode, q)
        holds = not sampled[mode].violated
        if implied and not holds:
            # q = 1 passes within tol: the sweep at q flags no more than the carry
            assert sampled[mode].worst_violation <= _carried_band(q, M, tol), mode
        elif holds and not implied:
            # q = 1 flags prequasiinvexity: at its witness x, with H the larger of
            # |f'(u)| and |f'(v)| and e > tol its excess, |f'|^q exceeds H^q by at
            # least q H^(q - 1) e and e^q, which a passing sweep at q must keep
            # within tol and rounding
            u, v, t = at_q1["prequasiinvex"].witness
            high = max(abs(model.df_fn(u)), abs(model.df_fn(v)))
            e = at_q1["prequasiinvex"].worst_violation
            carried = max(q * high ** (q - 1.0) * e, e ** q)
            assert carried <= tol + 16 * math.ulp(M ** q), mode
        if implied != holds:
            differing.append(mode)
    return differing


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4 * len(inputs.FAMILIES) - 1),
       st.sampled_from((1.5, 2.0, 3.0)))
@settings(max_examples=150)
def test_implied_verdicts_equal_the_sampled_ones_up_to_the_carried_tolerance(seed, index, q):
    cfg = inputs.generate_case(random.Random(seed), index, "gate", False, [1.0, q])
    assume(_differing_modes(cfg, q) is not None)


@pytest.mark.parametrize("seed, name", [(4242, "fresh_4242_00007_poly"),
                                        (7, "fresh_7_00021_poly")])
def test_the_ledger_scans_that_moved_differ_only_within_the_carried_tolerance(seed, name):
    # |f'| of these polynomials is preinvex at q = 1, and a sweep at q = 3 flags
    # |f'|^3 by rounding (7.3e-12 and 1.4e-12, against a carry of 5.8e-9 and
    # 1.0e-9): their ledger scans rank the q = 3 cells they once skipped
    (cfg,) = [cfg for cfg in inputs.fresh_cases(seed, 0, 28)[0] if cfg["name"] == name]
    assert "preinvex" in _differing_modes(cfg, 3.0)
