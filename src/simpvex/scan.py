"""The cell half of ``runner.tightness_scan``: ``cells`` builds one table of its
grid's cells, ``enclose`` encloses each cell's mean and ``rank`` ranks the cells.
Gap integrals go through ``quadrature._integrate_unchecked``, looked up at each
call; ``rank`` takes a cell's own mean from the function it is passed."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from contextlib import suppress
from operator import add, itemgetter, sub
from typing import List, Optional, Tuple

from . import bounds, quadrature
from .errors import EvalDomainError, QuadratureError
from .record import Record

# How far a scan widens the enclosure of a cell's mean past the stated errors
# (Simpson's |S2 - S1|/15 estimate is a heuristic, not a bound: Gander &
# Gautschi, BIT 40, 2000), and the rounding it allows per unit of magnitude summed
_SAFETY = 1000.0
_ROUNDING = 16.0 * math.ulp(1.0)
# A ranking whose lhs is |defect| bounds the ratios of each block of _BLOCK x
# _BLOCK axis indices at once (the side chosen with tools/stage_time.py), each
# bound widened by _WIDEN so that an rhs a few ulps off monotone (pow need not
# round correctly) never prunes a cell that can win
_BLOCK = 9
_WIDEN = 1.0 + 2.0 ** -30


class TightnessResult(Record):
    """Best |defect| / rhs ratio for one theorem over a scan grid."""

    theorem: str
    status: str  # "ok" or "all_skipped"
    ratio: Optional[float]
    at_a: Optional[float]
    at_b: Optional[float]
    at_q: Optional[float]
    cells: int
    skipped: int


class CellTable(Record):
    """A scan's usable cells in (a, b) order, as columns, over the axes a_vals and
    b_vals.  Per row i of a: rows[i], its first cell (rows[-1]: the cell count),
    f(a) and |f'(a)| (NaN where f' fails or is NaN, or no ranking reads it).  Per
    cell: axis indices, step, end a + step, Simpson sum, f(mid), f(end), |f'(b)|
    (NaN where f' fails or is NaN at a or b), its mean within radius (NaN or inf
    with no finite enclosure, 0 once it is the cell's own, NaN if that failed), |sum - mean|."""

    a_vals: list
    b_vals: list
    rows: list
    fas: list
    x1s: list
    at_a: array
    at_b: array
    steps: array
    ends: array
    sums: array
    fmids: array
    fends: array
    x2s: array
    means: array
    radii: array
    defects: array


def _abs_df(df, df_at: dict, x: float) -> float:
    """|f'(x)|, kept in ``df_at`` from its first use on; NaN where f' fails."""
    if x not in df_at:
        try:
            df_at[x] = abs(df(x))
        except EvalDomainError:
            df_at[x] = math.nan
    return df_at[x]


def _extend(table: CellTable, model, eta, K, i, js, b_inside, df_at, reads_df) -> None:
    """Extend the columns by row i's usable cells among the b indices ``js``: eta
    at each, then f as ``bounds._simpson`` calls it, then f' at a and at each b,
    so for one index in a walk's order.  A raise extends nothing.  A cell is usable
    where ``bounds._require_path`` passes its path and b lies in K, checked row by
    row with no call per cell."""
    a, b_vals, domain = table.a_vals[i], table.b_vals, model.domain
    same = K == domain  # whether a point of K needs no second check
    row_steps = [eta(b_vals[j], a) for j in js]
    usable = [(j, step) for j, step in zip(js, row_steps)
              if step > 0.0 and b_inside[j] and K.contains(a + step)
              and (same or domain.contains(a + step))
              ] if K.contains(a) and (same or domain.contains(a)) else ()
    if usable:
        js, row_steps = map(list, zip(*usable))
        fa, row_mids, row_ends, row_sums = bounds._simpson(model.f_fn, a, row_steps)
        x1 = _abs_df(model.df_fn, df_at, a) if reads_df else math.nan
        x2 = ([_abs_df(model.df_fn, df_at, b_vals[j]) for j in js] if x1 == x1
              else [math.nan] * len(js))
        table.fas[i], table.x1s[i] = fa, x1
        for column, values in zip(
                (table.at_a, table.at_b, table.steps, table.ends, table.sums, table.fmids,
                 table.fends, table.x2s),
                ([i] * len(js), js, row_steps, [a + step for step in row_steps], row_sums,
                 row_mids, row_ends, x2)):
            column.fromlist(values)  # a list: array.extend takes any iterable item by item


def cells(model, eta, K, a_vals: list, b_vals: list, reads_df: bool) -> CellTable:
    """The table of the usable cells of the grid a_vals x b_vals, its enclosures
    unfilled, built one row of a at a time: eta at each b, then f at a once and
    at each usable cell's mid and end (``bounds._simpson``), then, if
    ``reads_df``, f' at a and at each b, each axis value's f' read once.  A row
    where any of them raises is built again cell by cell, where an
    EvalDomainError skips its cell and any other error propagates from the
    first cell that raises it."""
    table = CellTable(a_vals, b_vals, [0], [math.nan] * len(a_vals), [math.nan] * len(a_vals),
                      array("i"), array("i"), *(array("d") for _ in range(9)))
    b_inside = [K.contains(b) for b in b_vals]
    df_at = {}  # |f'(x)| per axis value x, read at its first use; NaN where f' fails
    for i in range(len(a_vals)):
        try:
            _extend(table, model, eta, K, i, range(len(b_vals)), b_inside, df_at, reads_df)
        except Exception:  # replayed cell by cell: the first error in (a, b) order propagates
            for j in range(len(b_vals)):
                with suppress(EvalDomainError):  # eta or f fails at the cell
                    _extend(table, model, eta, K, i, (j,), b_inside, df_at, reads_df)
        table.rows.append(len(table.sums))
    return table


def enclose(table: CellTable, model, abs_tol: float) -> None:
    """Fill each cell's mean, radius and |defect| from one table of running sums.

    The nodes are every usable cell's a and end a + step, none with F, whose
    means are exact and cheap.  f is integrated once over each gap between
    consecutive nodes, and one table keeps, per node, the run it lies in and
    the running sums from that run's first node of the gap integrals, of
    their estimates and of their magnitudes; a gap whose integral fails
    starts a new run at its right node.  A cell whose a and end lie in one
    run has its mean enclosed in m +- d: m the difference of the sums at its
    end and at a, over step, and d _SAFETY (1000) times ``abs_tol``, the
    estimates from a to the end and a rounding floor on the magnitudes summed
    up to the end, over step.  Any other cell has no finite enclosure: its a
    and end lie in different runs (mean NaN, radius inf), the step is so small
    that d overflows (radius inf), or F is given.
    """
    t = table
    nodes = [] if model.F_fn is not None else sorted(
        {*t.ends, *(a for a, lo, hi in zip(t.a_vals, t.rows, t.rows[1:]) if lo < hi)})
    run, total, err, size = 0, 0.0, 0.0, 0.0
    sums_at = dict.fromkeys(nodes[:1], (run, total, err, size))
    for lo, hi in zip(nodes, nodes[1:]):
        try:
            value, error, _ = quadrature._integrate_unchecked(model.f_fn, lo, hi, abs_tol)
            total, err, size = total + value, err + error, size + abs(value)
        except (EvalDomainError, QuadratureError):
            run, total, err, size = run + 1, 0.0, 0.0, 0.0
        sums_at[hi] = run, total, err, size
    for a, fa, lo, hi in zip(t.a_vals, t.fas, t.rows, t.rows[1:]):  # sums_at[a] read once a row
        row_means, row_radii = [math.nan] * (hi - lo), [math.inf] * (hi - lo)  # none finite
        if sums_at and lo < hi:
            run, total, err, _ = sums_at[a]
            magnitude = abs(fa)
            for k, step, end, fmid, fend in zip(range(hi - lo), t.steps[lo:hi], t.ends[lo:hi],
                                                t.fmids[lo:hi], t.fends[lo:hi]):
                end_run, end_total, end_err, size = sums_at[end]
                if end_run == run:
                    row_means[k] = (end_total - total) / step
                    row_radii[k] = _SAFETY * ((abs_tol + end_err - err + _ROUNDING * size) / step
                                              + _ROUNDING * (magnitude + abs(fmid) + abs(fend)))
        t.means.fromlist(row_means)
        t.radii.fromlist(row_radii)
    t.defects.fromlist(list(map(abs, map(sub, t.sums, t.means))))


def _blocks(table: CellTable) -> Tuple[list, list]:
    """Per block of _BLOCK x _BLOCK axis indices, (a block, b block) in row-major
    order, the spans (lo, hi) of its cells' indices, one per row with cells there,
    and its box ((cells, cells with |f'|), least corner, largest corner), a corner
    (|f'(a)|, |f'(b)|, step): the magnitudes over the cells with |f'|, NaN with
    none, and the step over every cell."""
    t, nan, blocks, boxes = table, math.nan, [], []
    for i in range(0, len(t.a_vals), _BLOCK):
        for j in range(0, len(t.b_vals), _BLOCK):
            spans, x1s, x2s, steps = [], [], [], []
            for row, end in zip(t.rows[i:i + _BLOCK], t.rows[i + 1:i + _BLOCK + 1]):
                lo = bisect_left(t.at_b, j, row, end)
                hi = bisect_left(t.at_b, j + _BLOCK, lo, end)
                if lo < hi:
                    spans.append((lo, hi))
                    steps += t.steps[lo:hi]
                    magnitudes = [x for x in t.x2s[lo:hi] if x == x]
                    if magnitudes:
                        x1s.append(t.x1s[t.at_a[lo]])
                        x2s += magnitudes
            blocks.append(spans)
            boxes.append(((len(steps), len(x2s)),
                          (min(x1s, default=nan), min(x2s, default=nan), min(steps, default=nan)),
                          (max(x1s, default=nan), max(x2s, default=nan), max(steps, default=nan))))
    return blocks, boxes


def _bounded(table, blocks, boxes, tops, dirty, rhs_of, uses_df) -> List[Tuple[float, int]]:
    """(bound, block) per block holding a cell the ranking ranks and whose rhs at
    the largest corner is > 0, by descending bound: no ratio of its cells, nor a
    low end, lies above it; inf for a block with no bound.  Takes ``tops`` again
    in the ``dirty`` blocks first."""
    for b in dirty:
        top = []
        for lo, hi in blocks[b]:
            top += map(add, table.defects[lo:hi], table.radii[lo:hi])
        tops[b] = max(top, default=0.0) if sum(top) < math.inf else math.inf
    dirty.clear()
    visits = []
    for b, (counts, low, high) in enumerate(boxes):
        if not counts[uses_df]:
            continue
        try:
            rhs_low, rhs_high = rhs_of(*low), rhs_of(*high)
        except OverflowError:
            rhs_low = rhs_high = math.nan
        if not rhs_high <= 0.0:
            visits.append((tops[b] / rhs_low * _WIDEN
                           if rhs_low > 0.0 and rhs_high < math.inf else math.inf, b))
    visits.sort(key=itemgetter(0), reverse=True)
    return visits


def rank(table: CellTable, rankings: dict, integrate, abs_tol: float) -> None:
    """Set each ranking of (rhs, whether its lhs is C4.2's |f(mid) - mean| rather
    than |defect|, reads f') to [best ratio, its (a, b) or None, ranked cells];
    ``integrate(a, step, abs_tol)[0]`` is a cell's own mean, as ``bounds._mean``
    with its model bound gives it.

    Each distinct (rhs, lhs) bounds every cell's ratio from its enclosure, an
    own mean one of radius 0, whose top and low end are its ratio.  One rule
    ranks: a block or cell whose top lies below the floor, the largest low end
    walked, is never the best.  A cell with no finite enclosure has no upper
    bound, so the first ranking that can rank it integrates it.  A cell whose
    own integral fails gives no ratio; if it had a finite enclosure, its
    bounds may have pruned other cells, so after a round of rankings in which
    such a cell failed, every ranking runs again.  _SAFETY assumes that no
    estimate is off by 1000 times; the result is then the one integrating
    every cell gives.  It differs only where a cell's own integral, over its
    step, lies outside its enclosure, or where a cell never integrated on its
    own would fail there though its gap integrals succeed: that cell counts as
    ranked.

    A ranking whose lhs is |defect| bounds each block of _BLOCK x _BLOCK
    (9 x 9) axis indices at once.  Every rhs is nondecreasing in |f'(a)|,
    |f'(b)| and step, so no ratio of a block, nor a low end, exceeds the
    block's largest |defect| + d over the rhs at its least corner, widened by
    _WIDEN (2^-30) against an rhs a few ulps off monotone.  The blocks and
    their corners, the least and largest |f'(a)| and |f'(b)| over the cells
    with |f'| and step over every cell, are taken when ranking starts, and a
    block's largest |defect| + d again only where an own integral has landed.
    A block has no bound where a cell's |defect| + d is NaN or inf, or where
    the rhs at its least corner is not > 0 or the one at its largest is not
    finite; else each of its cells ranks.  A block whose rhs at its largest
    corner is 0 ranks no cell and is not visited.  The ranking visits the
    others by descending bound and counts as ranked, with no rhs call at its
    cells, a block whose bound lies below the floor, the prune of branch and
    bound: what it could lift the best to stays below the own ratio of the
    floor's cell, at least its low end under _SAFETY (a failed own integral
    ranks all again).  C4.2's ranking walks only the cells that meet its
    precondition, listed when ranking starts.  The walk lists each cell whose
    top reaches the floor; one pass over the list in (a, b) order skips a cell
    whose top lies below the floor or the best so far, integrates any other
    with no own mean, kept so that no cell integrates twice, and takes the
    best by a strict >: ties go to the first cell, and every result, count and
    error is the one a walk over every cell gives.
    """
    t = table
    per_row = -(-len(t.b_vals) // _BLOCK)
    blocks, boxes = _blocks(t)
    # per block: the largest |defect| + radius of its cells (inf if one is NaN or
    # inf), taken again in the dirty blocks, where an own integral landed since
    tops, dirty = [None] * len(blocks), set(range(len(blocks)))
    # the spans of the cells C4.2's lhs ranks: those that meet its precondition,
    # which does not depend on the mean
    listed = [(lo + k, lo + k + 1) for fa, lo, hi in zip(t.fas, t.rows, t.rows[1:]) if lo < hi
              for k in bounds._midpoint_cells(fa, t.fmids[lo:hi], t.fends[lo:hi])
              ] if any(midpoint for _, midpoint, _ in rankings) else []
    failed = True
    while failed:  # a failed cell's bounds may have pruned others: rank all again
        failed = False
        for (rhs_of, midpoint, uses_df), ranking in rankings.items():  # nothing here raises
            best, at, ranked = -math.inf, None, 0
            floor = -math.inf  # the best ratio is at least this
            pending = []  # (cell, rhs, top ratio) per cell that may be the best
            # (bound, block) per block, or one walk over the listed cells (block None)
            visits = ([(math.inf, None)] if midpoint
                      else _bounded(t, blocks, boxes, tops, dirty, rhs_of, uses_df))
            for bound, b in visits:
                if bound < floor:  # no cell of the block can change a result
                    ranked += boxes[b][0][uses_df]
                    continue
                for lo, hi in listed if b is None else blocks[b]:
                    x1 = t.x1s[t.at_a[lo]]  # a span lies in one row
                    for k, step, x2, lhs, radius in zip(range(lo, hi), t.steps[lo:hi],
                                                        t.x2s[lo:hi], t.defects[lo:hi],
                                                        t.radii[lo:hi]):
                        if midpoint:
                            lhs = abs(t.fmids[k] - t.means[k])
                        if uses_df and x2 != x2:  # no |f'|
                            continue
                        try:
                            rhs = rhs_of(x1, x2, step)
                        except OverflowError:  # CLASSICAL's step^4 overflows: no ratio, as NaN
                            continue
                        if not rhs > 0.0:  # zero or NaN: no ratio to rank
                            continue
                        # radius: 0 for an own mean; NaN or inf with no finite enclosure: top inf
                        top = (lhs + radius) / rhs if radius < math.inf else math.inf
                        if top != top:  # NaN: never a witness, as in invexity's sweeps
                            continue
                        low = (lhs - radius) / rhs
                        if low > floor:
                            floor = low
                        if top >= floor:  # else never the best
                            pending.append((k, rhs, top))
                        ranked += 1
            # in (a, b) order, so that the own integrals are those, in the order,
            # of a walk over every cell, and ties go to the first cell
            for k, rhs, top in sorted(pending):
                if top < floor or top < best:  # below another cell's ratio: never the best
                    continue
                if t.radii[k]:  # no own mean yet; with it, top is its ratio
                    try:
                        mean = integrate(t.a_vals[t.at_a[k]], t.steps[k], abs_tol)[0]
                    except (EvalDomainError, QuadratureError):  # marked as giving no ratio
                        mean = math.nan
                        # with a finite enclosure its bounds may have pruned other cells
                        failed = failed or t.radii[k] < math.inf
                    t.means[k], t.radii[k], t.defects[k] = mean, 0.0, abs(t.sums[k] - mean)
                    dirty.add(t.at_a[k] // _BLOCK * per_row + t.at_b[k] // _BLOCK)
                    top = (abs(t.fmids[k] - mean) if midpoint else t.defects[k]) / rhs
                    if top != top:  # NaN (a failed own integral, say): not ranked after all
                        ranked -= 1
                        continue
                if top > best:
                    best, at = top, k
            ranking[:] = (best, None if at is None else (t.a_vals[t.at_a[at]],
                                                         t.b_vals[t.at_b[at]]), ranked)
