"""``scan.rank`` on synthetic cell tables, with no model, plan or sweep, against a
per-cell reference; and the shape of the scan's code."""

import ast
import copy
import inspect
import math
from array import array

import hypothesis.strategies as st
from hypothesis import given, settings

from simpvex import bounds, runner, scan
from simpvex.errors import QuadratureError

nan, inf = math.nan, math.inf
_STEPS = (0.5, 1.0, 2.0)
# |f'| values: 0 gives a zero rhs, 1e200's cube makes T3.2 rescale, inf makes the
# product rhs below NaN against a 0
_MAGNITUDES = (0.0, 1.0, 2.0, 1e200, inf)
_VALUES = (0.0, 0.5, 1.0, 2.0)  # sums, true means and f values, few so that ratios tie
# a cell's enclosure: its own mean (radius 0), a failed own mean (NaN, radius 0),
# none (radius inf or NaN), one of radius 0.25 or 1 with the true mean up to
# three quarters of a radius off its centre, one so wide that its cell is always
# integrated, or a tight one about a Simpson sum so large that its cell's low end
# lifts the floor above every other ratio, off C4.2's precondition; the last two
# fail their own integrals
_KINDS = ("own", "failed", "none", "nan", "finite", "wide", "high")


def _product_rhs(x1, x2, step):
    """Nondecreasing in each argument where finite; NaN at inf * 0."""
    return step * x1 * x2


# (rhs, whether the lhs is C4.2's |f(mid) - mean|, reads f'), as
# ``runner.tightness_scan`` keys them
_RANKINGS = (
    (bounds._max_rhs, False, True),
    (bounds.THEOREMS["T3.2"].rhs_for(3.0), False, True),
    (_product_rhs, False, True),
    (bounds.THEOREMS["CLASSICAL"].rhs_for(0.0), False, False),  # 0 at every cell
    (bounds.THEOREMS["CLASSICAL"].rhs_for(24.0), False, False),
    (bounds._max_rhs, True, True),
)


@st.composite
def _tables(draw):
    """(table, true mean per cell, cells whose own integral fails): 2 to 12 rows of
    10 to 12 b values, so several 9 x 9 blocks, the last ones partial.  A cell with
    a finite enclosure fails its own integral only where every ranking that can
    rank it integrates it: a wide or high one whose |f'| are at most 2."""
    n_a, n_b = draw(st.integers(2, 12)), draw(st.integers(10, 12))
    pick = draw(st.randoms(use_true_random=False)).choice  # one draw: the cells are many
    table = scan.CellTable([0.5 * i for i in range(n_a)], [0.25 * j for j in range(n_b)],
                           [0], [], [], array("i"), array("i"),
                           *(array("d") for _ in range(9)))
    truth, failing = [], set()
    for i in range(n_a):
        fa, x1 = pick(_VALUES), pick(_MAGNITUDES + (nan,))
        table.fas.append(fa)
        table.x1s.append(x1)
        for j in range(n_b):
            if not pick(range(8)):  # no usable cell here
                continue
            kind, mean, total = pick(_KINDS), pick(_VALUES), pick(_VALUES + (nan,))
            x2 = nan if x1 != x1 else pick(_MAGNITUDES + (nan,))
            if kind in ("wide", "high") and (x1 > 2.0 or x2 > 2.0):
                kind = "finite"
            radius = {"own": 0.0, "failed": 0.0, "none": inf, "nan": nan, "wide": 1e300,
                      "finite": pick((0.25, 1.0)), "high": 0.25}[kind]
            centre = (mean + pick((-0.75, 0.0, 0.75)) * radius if kind == "finite"
                      else nan if kind in ("failed", "none") else mean)
            if kind == "high" or kind in ("none", "nan", "wide") and pick((False, True)):
                failing.add(len(truth))
            truth.append(mean)
            total = 1e6 if kind == "high" else total
            step, fmid = pick(_STEPS) + j / 1024, pick((fa, fa + 1.0, nan))  # unique in its row
            fmid = fa + 1.0 if kind == "high" else fmid
            for column, value in zip(
                    (table.at_a, table.at_b, table.steps, table.ends, table.sums, table.fmids,
                     table.fends, table.x2s, table.means, table.radii, table.defects),
                    (i, j, step, table.a_vals[i] + step, total, fmid,
                     pick((fmid, fa, fa + 2.0)), x2, centre, radius, abs(total - centre))):
                column.append(value)
        table.rows.append(len(truth))
    return table, truth, failing


def _reference(table, truth, failing, rhs_of, midpoint, uses_df):
    """[best ratio, its (a, b) or None, ranked cells] of a walk over every cell in
    order, each cell's ratio from its true mean (NaN where its own integral fails),
    ties to the first cell; C4.2's lhs only where f(a), f(mid) and f(end) agree
    within 1e-9 (a NaN among them agrees)."""
    t = table
    best, at, ranked = -inf, None, 0
    for k in range(len(truth)):
        i = t.at_a[k]
        if uses_df and t.x2s[k] != t.x2s[k]:
            continue
        if midpoint and (abs(t.fas[i] - t.fmids[k]) > 1e-9 or abs(t.fmids[k] - t.fends[k]) > 1e-9):
            continue
        try:
            rhs = rhs_of(t.x1s[i], t.x2s[k], t.steps[k])
        except OverflowError:
            continue
        if t.radii[k] == 0.0:
            mean = t.means[k]
        else:
            mean = nan if k in failing else truth[k]
        lhs = abs((t.fmids if midpoint else t.sums)[k] - mean)
        if not rhs > 0.0 or lhs / rhs != lhs / rhs:
            continue
        ranked += 1
        if lhs / rhs > best:
            best, at = lhs / rhs, k
    return [best, None if at is None else (t.a_vals[t.at_a[at]], t.b_vals[t.at_b[at]]), ranked]


def _rank_logged(table, truth, failing, picks):
    """Run ``scan.rank`` over the rankings ``picks`` of _RANKINGS; return the rankings
    and the log of its calls: ("rhs", ranking) and ("integrate", cell)."""
    log, cell_at = [], {(table.a_vals[i], step): k
                        for k, (i, step) in enumerate(zip(table.at_a, table.steps))}

    def logged(n, rhs_of):
        def rhs(*point):
            log.append(("rhs", n))
            return rhs_of(*point)
        return rhs

    def integrate(a, step):
        k = cell_at[a, step]
        log.append(("integrate", k))
        if k in failing:
            raise QuadratureError("the own integral fails here")
        return truth[k]

    rankings = {(logged(n, _RANKINGS[n][0]),) + _RANKINGS[n][1:]: [-inf, None, 0]
                for n in picks}
    scan.rank(table, rankings, integrate)
    return rankings, log


@given(_tables(), st.lists(st.integers(0, len(_RANKINGS) - 1), min_size=1, unique=True))
@settings(max_examples=300)
def test_rank_matches_a_walk_over_every_cell_with_true_means(drawn, picks):
    table, truth, failing = drawn
    want = [_reference(table, truth, failing, *_RANKINGS[n]) for n in picks]
    rankings, log = _rank_logged(table, truth, failing, picks)
    assert list(rankings.values()) == want
    # no cell integrates twice, and each ranking takes its own integrals, which
    # follow its rhs calls, in (a, b) order
    owned = [k for event, k in log if event == "integrate"]
    assert len(owned) == len(set(owned))
    run = []
    for event, k in log + [("rhs", None)]:
        if event == "rhs":
            assert run == sorted(run)
            run = []
        else:
            run.append(k)


@given(_tables(), st.lists(st.integers(0, len(_RANKINGS) - 1), min_size=1, unique=True))
@settings(max_examples=100)
def test_rank_does_not_depend_on_the_block_size(drawn, picks):
    table, truth, failing = drawn
    got = []
    real = scan._BLOCK
    try:
        for size in (1, 9, 13):  # 13: one block larger than any drawn table
            scan._BLOCK = size
            rankings, log = _rank_logged(copy.deepcopy(table), truth, failing, picks)
            got.append((list(rankings.values()), [k for event, k in log if event == "integrate"]))
    finally:
        scan._BLOCK = real
    assert got[0] == got[1] == got[2]


def _one_row(cells):
    """A table of one row, a = 0 with f(a) = 0 and |f'(a)| = 1, of a cell per
    (sum, mean, radius) at b index j, with step 1 + j / 1024, f(mid) = f(end) = 0,
    |f'(b)| = 1 and |defect| = |sum - mean|."""
    n_b = len(cells)
    table = scan.CellTable([0.0], [0.25 * j for j in range(n_b)], [0, n_b], [0.0], [1.0],
                           array("i", [0] * n_b), array("i", range(n_b)),
                           *(array("d") for _ in range(9)))
    for j, (total, mean, radius) in enumerate(cells):
        step = 1.0 + j / 1024
        for column, value in zip(
                (table.steps, table.ends, table.sums, table.fmids, table.fends, table.x2s,
                 table.means, table.radii, table.defects),
                (step, step, total, 0.0, 0.0, 1.0, mean, radius, abs(total - mean))):
            column.append(value)
    return table


def _settled(cells, walked, owned):
    """Rank the one row ``cells`` (``_one_row``) by _max_rhs, its first 9 cells one
    block, the rest another, each cell's true mean its enclosure's centre; check
    that the ranking equals the reference, that the rhs is called at the 2
    corners of each block and then at the ``walked`` cells only, and that the
    cells ``owned`` integrate on their own, in order."""
    table = _one_row(cells)
    truth = [mean for _, mean, _ in cells]
    rankings, log = _rank_logged(table, truth, set(), [0])
    assert list(rankings.values()) == [_reference(table, truth, set(), *_RANKINGS[0])]
    assert log == [("rhs", 0)] * (2 * 2 + walked) + [("integrate", k) for k in owned]


def test_a_block_of_own_means_below_the_floor_is_settled_by_its_corners():
    # the second block is visited first: its enclosed cell lifts the floor to
    # about 9 (its own mean, ratio 0.5, lifts it less), so the first block, its 9
    # own ratios about 1 and its bound below the floor, is settled; the enclosed
    # cell then integrates and wins
    _settled([(1.0, 0.0, 0.0)] * 9 + [(10.0, 0.0, 1.0), (0.5, 0.0, 0.0)], walked=2, owned=[9])


def test_an_enclosed_block_below_the_best_is_settled_by_its_corners():
    # the first block's own means lift the floor to the best, 10; the second
    # block's enclosed cells lie below it
    _settled([(10.0, 0.0, 0.0)] + [(0.0, 0.0, 0.0)] * 8 + [(1.0, 0.0, 0.5)] * 2, walked=9,
             owned=[])


def test_a_tie_across_blocks_goes_to_the_first_cell_though_its_block_is_walked_last():
    # cells 0 and 9 tie at ratio 1 / rhs(step 1); cell 10's step of 0.5 halves the
    # second block's least corner, so its bound is twice the first's and it is
    # walked first: cell 9's ratio lifts the floor before cell 0 is walked
    one, zero = (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)  # (sum, mean, radius 0): own means
    table = _one_row([one] + [zero] * 8 + [one, zero])
    table.steps[:] = table.ends[:] = array("d", [1.0] * 10 + [0.5])
    steps = []

    def rhs(x1, x2, step):
        steps.append(step)
        return bounds._max_rhs(x1, x2, step)

    rankings = {(rhs, False, True): [-inf, None, 0]}
    scan.rank(table, rankings, None)  # every cell has its own mean
    # the corners of the two blocks, then cells 9 and 10, then the first block
    assert steps == [1.0, 1.0, 0.5, 1.0] + [1.0, 0.5] + [1.0] * 9
    want = _reference(table, [0.0] * 11, set(), bounds._max_rhs, False, True)
    assert list(rankings.values()) == [want] and want[1] == (0.0, 0.0)


def test_a_failed_cell_with_a_finite_enclosure_ranks_every_ranking_again():
    # one row of 10 cells, every one enclosed; the last, whose enclosure is wide,
    # fails its own integral, so the one ranking runs a second round, in which the
    # corner calls of its two blocks come again
    n_b = 10
    table = _one_row([(1.0, 0.0, 0.25)] * (n_b - 1) + [(1.0, 0.0, 1e300)])
    truth = [0.0] * n_b
    picks = [0]
    rankings, log = _rank_logged(table, truth, {n_b - 1}, picks)
    assert list(rankings.values()) == [_reference(table, truth, {n_b - 1}, *_RANKINGS[0])]
    owned = [k for event, k in log if event == "integrate"]
    assert owned[-1] == n_b - 1 and len(owned) == n_b
    # round one: 2 corner calls per block, then the cells; round two: the corners again
    assert log[:4] == [("rhs", 0)] * 4 and log.count(("rhs", 0)) > 4 + n_b
    assert table.radii.tolist() == [0.0] * n_b and math.isnan(table.means[-1])


def _nested(tree):
    """The functions and lambdas defined inside the function ``tree``."""
    return [node for node in ast.walk(tree) if node is not tree
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def test_the_scan_defines_no_closure():
    functions = [node for node in ast.parse(inspect.getsource(scan)).body
                 if isinstance(node, ast.FunctionDef)]
    assert {"cells", "enclose", "rank"} <= {node.name for node in functions}
    scan_fn = ast.parse(inspect.getsource(runner.tightness_scan)).body[0]
    for tree in functions + [scan_fn]:
        assert _nested(tree) == [], tree.name
