"""Sampled checks for invex sets and generalised convexity.

A direction map eta(v, u) generalises the straight-line displacement
v - u.  An interval K is invex for eta when u + t*eta(v, u) stays in K
for all u, v in K and t in [0, 1]; g is preinvex when

    g(u + t*eta(v, u)) <= (1 - t) g(u) + t g(v)

and prequasiinvex when the right side is replaced by max(g(u), g(v)).
With eta(v, u) = v - u these reduce to ordinary convexity and
quasiconvexity.

All checks here are sampling-based: one stream of samples, a
deterministic grid over K x K x [0, 1] and then a fixed-seed uniform
layer.  Verdicts are therefore "verified_on_samples", never proofs.  The
reported worst violation is the exact maximum over the samples, with ties
broken by lexicographic (u, v, t) order, so re-running a check
reproduces it bit for bit.  Ties are broken by order: the random layer is
sorted and the grid ascends in (u, v, t), so in each of the two, one pass
apiece, the first largest excess is at the smallest witness (grid rows
that rounding merges hold the same samples).  The invex-set check reads
the two ends of each grid row, t = 0 and t = 1, where its path points
are least and largest; it reads a whole row only for the row that wins
and for a row whose ends give NaN.  The seeded draws on [0, 1) are sorted once per (seed, count) and every plan
maps them onto its K, sorting again only where rounding merges two u
values.  eta and f' run in sorted order within the random layer, so an
f' failure that only random triples reach is raised at the first of them
in sorted order.

Every check is a view of one ``SamplePlan`` per (K, eta, grid): the
sample stream and its path points, with eta called once per grid (u, v)
pair and once per random triple.  The last plan is kept, so a case's
invex-set check and its hypothesis checks at every q share one plan, as
do consecutive cases on the same K and built-in eta.  The plan keeps its
invex-set report and the values of the last |f'| swept over it, which it
evaluates once per sample point, in stream order.  ``check_pair``
evaluates a plain g at every sample point, outside that memo.  |f'| of a
compiled expression runs in its batch form, one list comprehension
per list of points rather than one call per point; any other callable is
called per point.  Each further q costs only arithmetic, once per value.
The arithmetic is the per-sample formula's, so
verdicts, worst violations and witnesses are unchanged.  max(x, y) is
written ``y if y > x else x`` (min with <), the builtin's own rule, so
NaN, -0.0 and ties come out the same, without a call per sample.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from itertools import chain, cycle, islice, repeat
from operator import add, lt, sub
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import expr as expr_mod
from .record import Record
from .reports import VERIFIED, VIOLATED, PropertyReport

__all__ = [
    "Domain",
    "SampleGrid",
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "EtaMap",
    "check_invex_set",
    "check_pair",
    "hypothesis_pair",
]

DEFAULT_TOL = 1e-12
_RANDOM_SEED = 170167


class Domain(Record):
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"domain needs lo < hi, got [{self.lo!r}, {self.hi!r}]")

    def contains(self, x: float) -> bool:
        """Whether x lies in [lo, hi], widened by DEFAULT_TOL at each end."""
        return self.lo - DEFAULT_TOL <= x <= self.hi + DEFAULT_TOL

    def grid(self, n: int) -> List[float]:
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        span = self.hi - self.lo
        return [self.lo + i * span / (n - 1) for i in range(n)]


class SampleGrid(Record):
    """Sampling plan: nu x nv x nt grid plus a seeded uniform layer."""

    nu: int = 41
    nv: int = 41
    nt: int = 21
    random_triples: int = 2000
    seed: int = _RANDOM_SEED

    def __post_init__(self):
        if min(self.nu, self.nv, self.nt) < 2 or self.random_triples < 0:
            raise ValueError(
                f"sample grid needs nu, nv, nt >= 2 and random_triples >= 0, got "
                f"nu={self.nu!r}, nv={self.nv!r}, nt={self.nt!r}, "
                f"random_triples={self.random_triples!r}")


DEFAULT_GRID = SampleGrid()


class EtaMap:
    """Direction map eta(v, u), callable with signature (v, u) -> float.

    Built-in kinds:
      * "difference":  eta(v, u) = v - u
      * "abs_example": v - u when u, v share a sign (zero counts as
        both), u - v otherwise; the map under which -|u| is preinvex
      * "expression":  any parsed expression over the variables {v, u}

    ``difference()`` and ``abs_example()`` each return one shared value.
    """

    def __init__(self, fn: Callable[[float, float], float], name: str):
        self.name = name
        self._fn = fn

    def __call__(self, v: float, u: float) -> float:
        return self._fn(v, u)

    def __repr__(self):
        return f"EtaMap({self.name!r})"

    @classmethod
    def difference(cls) -> "EtaMap":
        return _DIFFERENCE

    @classmethod
    def abs_example(cls) -> "EtaMap":
        return _ABS_EXAMPLE

    @classmethod
    def from_expression(cls, source: str) -> "EtaMap":
        tree = expr_mod.parse(source, {"v", "u"})
        fn = expr_mod.compile_expr(tree, ("v", "u"))
        return cls(fn, source)

    @classmethod
    def from_config(cls, cfg: dict) -> "EtaMap":
        kind = cfg.get("kind")
        if kind == "difference":
            return cls.difference()
        if kind == "abs_example":
            return cls.abs_example()
        if kind == "expression":
            value = cfg.get("value")
            if not isinstance(value, str):
                raise ValueError("expression eta needs a string 'value'")
            return cls.from_expression(value)
        raise ValueError(f"unknown eta kind {kind!r}")


def _abs_example(v: float, u: float) -> float:
    if (v <= 0.0 and u <= 0.0) or (v >= 0.0 and u >= 0.0):
        return v - u
    return u - v


_DIFFERENCE = EtaMap(sub, "difference")
_ABS_EXAMPLE = EtaMap(_abs_example, "abs_example")


_Found = Tuple[float, Optional[Tuple[float, float, float]]]  # (excess, witness)


def _first_worst(tops: List[float], row: Callable[[int], Sequence[float]],
                 witness: Callable[[int, int], Tuple[float, float, float]]) -> Optional[_Found]:
    """The first largest excess of rows of samples, with its witness.

    row(j)[k] is the excess at witness(j, k).  The witnesses ascend in
    (j, k), rows with equal witnesses holding equal excesses, so the first
    largest excess is at the smallest witness, the earliest of equal ones.  tops[j] is the largest non-NaN excess of
    row(j), or NaN.  A NaN excess never wins; None if none beats -inf.
    """
    total = sum(tops)
    if total != total:  # a NaN top (or tops holding inf and -inf)
        tops = [t if t == t else max([e for e in row(j) if e == e], default=-math.inf)
                for j, t in enumerate(tops)]
    top = max(tops, default=-math.inf)
    if top == -math.inf:
        return None
    j = tops.index(top)
    excesses = row(j)
    k = excesses.index(top)
    return excesses[k], witness(j, k)


@lru_cache(maxsize=None)
def _unit_draws(seed: int, count: int) -> Tuple[array, array, array]:
    """The seeded (u, v, t) draws on [0, 1), sorted: shared, read only, by
    every plan of (seed, count)."""
    draw = random.Random(seed).random
    triples = sorted((draw(), draw(), draw()) for _ in range(count))
    return tuple(array("d", [triple[i] for triple in triples]) for i in range(3))


class _Layer:
    """The seeded random (u, v, t) samples, sorted, with their path points.

    Every plan maps the same sorted unit draws onto its K, u and v by
    ``lo + span * r``.  Rounding is monotone, so the samples come out
    sorted unless it merges two u values; then they are sorted again.
    """

    __slots__ = ("u", "v", "t", "x", "points", "at")

    def __init__(self, K: Domain, eta: EtaMap, grid: SampleGrid, at: int):
        ru, rv, rt = _unit_draws(grid.seed, grid.random_triples)
        lo, span = K.lo, K.hi - K.lo
        self.u = array("d", [lo + span * r for r in ru])
        self.v = array("d", [lo + span * r for r in rv])
        self.t = array("d", rt)
        if not all(map(lt, self.u, self.u[1:])):
            self.u, self.v, self.t = (array("d", column) for column in
                                      zip(*sorted(zip(self.u, self.v, self.t))))
        self.x = array("d", [u + t * eta(v, u) for u, v, t in zip(self.u, self.v, self.t)])
        self.points = array("d", bytes(24 * len(self.t)))  # u, v, x of each triple in turn
        self.points[::3], self.points[1::3], self.points[2::3] = self.u, self.v, self.x
        self.at = at  # index of the first triple's g(u) in SamplePlan.values

    def __len__(self) -> int:
        return len(self.t)

    def values(self, g: array) -> Iterator[Tuple[float, float, float]]:
        """(g(u), g(v), g(x)) per triple."""
        it = iter(g[self.at:self.at + 3 * len(self)])
        return zip(it, it, it)


_CHUNK = 2048  # values per list or slice: few of them, none near a plan's size


def _filled(values: Iterable[float]) -> array:
    """array("d") of ``values``, filled a list of _CHUNK of them at a time.

    Built from an iterator, an array type-checks each value twice, one
    append at a time; from a list it checks each once, into space sized
    once.
    """
    out = array("d")
    values = iter(values)
    while chunk := list(islice(values, _CHUNK)):
        out.fromlist(chunk)
    return out


def _evaluate(fn: Callable[[float], float], parts: Sequence[Sequence[float]]) -> array:
    """abs(fn) at the points of each of ``parts`` in turn.

    For a compiled expression this runs in its batch form, one frame per
    slice of _CHUNK points; if that raises, or for any other fn, fn is
    called point by point, so a failure raises at the first failing point
    with its own error.
    """
    batch = expr_mod.abs_batch(fn)
    if batch is not None:
        out = array("d")
        try:
            for part in parts:
                for i in range(0, len(part), _CHUNK):
                    out.fromlist(batch(part[i:i + _CHUNK]))
            return out
        except Exception:
            pass
    return _filled(map(abs, map(fn, chain.from_iterable(parts))))


class SamplePlan:
    """The sample stream of one (K, eta, grid), with its path points.

    Stream order: the nu x nv x nt grid (u, then v, then t), then the
    sorted seeded random triples.  eta is called once per grid (u, v)
    pair and once per random triple.  Every sampled check is a sweep of
    ``worst`` over one plan.  The plan keeps the invex-set reports made
    on it (``invex_set``) and the values of the last |f'| swept over it.
    """

    def __init__(self, K: Domain, eta: EtaMap, grid: SampleGrid):
        self.us = K.grid(grid.nu)
        self.vs = K.grid(grid.nv)
        self.ts = [i / (grid.nt - 1) for i in range(grid.nt)]
        self.grid_x = array("d")
        for u in self.us:
            self.grid_x.fromlist([u + t * step for step in [eta(v, u) for v in self.vs]
                                  for t in self.ts])
        self.x_at = len(self.us) + len(self.vs)
        self.random = _Layer(K, eta, grid, self.x_at + len(self.grid_x))
        self.parts = (array("d", self.us + self.vs), self.grid_x, self.random.points)  # points()
        self.samples = len(self.grid_x) + len(self.random)
        self.invex_set = {}  # check_invex_set's reports, by the bit pattern of (K, tol)
        self._memo = (None, None)

    def points(self) -> Iterator[float]:
        """Every point a sweep reads g at, in the order of ``values``."""
        return chain.from_iterable(self.parts)

    def values(self, fn: Callable[[float], float]) -> array:
        """abs(fn) at ``points``, called in that order.

        Layout: g at the grid's u values; at its v values; at its path
        points (from ``x_at``); then g(u), g(v), g(x) of each random
        triple.  The values of the last fn are kept, so fn must be pure.
        """
        memo_fn, values = self._memo
        if memo_fn is not fn:
            values = _evaluate(fn, self.parts)
            self._memo = (fn, values)
        return values

    def power(self, q: float) -> array:
        """The values last returned by ``values``, each raised to q."""
        return _filled(map(pow, self._memo[1], repeat(q)))

    def grid_values(self, g: array) -> Tuple[memoryview, memoryview, memoryview]:
        """g at the grid's u values, at its v values and at its path points, uncopied."""
        g, v_at = memoryview(g), len(self.us)
        return g[:v_at], g[v_at:self.x_at], g[self.x_at:self.x_at + len(self.grid_x)]

    def worst(self, tops: List[float], row: Callable[[int], Sequence[float]],
              excesses: List[float]) -> _Found:
        """(excess, witness) of the worst sample of the stream.

        ``tops`` and ``row`` cover the grid's nu*nv rows as _first_worst
        takes them: row(i*nv + j)[k] is the excess at (us[i], vs[j], ts[k]).
        ``excesses`` holds the random layer's, one per triple.  The
        largest excess wins, then the smallest witness, then the earliest;
        (-inf, None) if none beats -inf.
        """
        us, vs, ts, nv, layer = self.us, self.vs, self.ts, len(self.vs), self.random
        found = (_first_worst(tops, row, lambda j, k: (us[j // nv], vs[j % nv], ts[k])),
                 _first_worst(excesses, lambda j: (excesses[j],),
                              lambda j, k: (layer.u[j], layer.v[j], layer.t[j])))
        return min(filter(None, found), key=lambda f: (-f[0], f[1]), default=(-math.inf, None))


# the last plan is kept, so a case's checks at every q share one
_plan = lru_cache(maxsize=1)(SamplePlan)


def _report(prop: str, worst: _Found, samples: int, tol: float,
            q: Optional[float] = None) -> PropertyReport:
    excess, witness = worst
    if excess > tol:
        return PropertyReport(prop, VIOLATED, excess, witness, samples, q)
    return PropertyReport(prop, VERIFIED, excess, None, samples, q)


def check_invex_set(K: Domain, eta: EtaMap, grid: SampleGrid = DEFAULT_GRID,
                    tol: float = DEFAULT_TOL) -> PropertyReport:
    """Check that u + t*eta(v, u) stays in K on all samples.

    The violation measure is the distance by which the path point leaves
    K (negative when inside).  The report is kept on the plan, so a
    further case on the same plan and tol reads it.
    """
    plan = _plan(K, eta, grid)
    # a plan serves every K equal to its own, and -0.0 == 0.0 moves an excess's sign
    key = array("d", (K.lo, K.hi, tol)).tobytes()
    if key not in plan.invex_set:
        plan.invex_set[key] = _report("invex_set", _invex_set_worst(plan, K), plan.samples, tol)
    return plan.invex_set[key]


def _invex_set_worst(plan: SamplePlan, K: Domain) -> _Found:
    """Worst distance by which a path point of ``plan`` leaves K."""
    lo, hi = K.lo, K.hi
    nt, grid_x = len(plan.ts), plan.grid_x

    def excess(xs):  # max(lo - x, x - hi) per point
        return [b if (b := x - hi) > (a := lo - x) else a for x in xs]

    # rounding is monotone, so a row's least and largest x are its ends (t = 0, 1); a NaN x
    # is at t = 0 (step +-inf) or everywhere, so min/max of (t = 0, t = 1) match the row's
    tops = [b if (b := (y if y > x else x) - hi) > (a := lo - (y if y < x else x)) else a
            for x, y in zip(grid_x[::nt], grid_x[nt - 1::nt])]
    return plan.worst(tops, lambda j: excess(grid_x[j * nt:(j + 1) * nt]),
                      excess(plan.random.x))


def _preinvex(plan: SamplePlan, g: array) -> _Found:
    """Worst excess g(x) - ((1 - t) g(u) + t g(v)) over values ``g``."""
    gus, gvs, gxs = plan.grid_values(g)
    ts, nt, nv = plan.ts, len(plan.ts), len(gvs)
    omts = [1.0 - t for t in ts]
    tgvs = [t * gv for gv in gvs for t in ts]
    omtgus = chain.from_iterable([a * gu for a in omts] * nv for gu in gus)  # (1 - t) g(u)
    tops = list(map(max, zip(*[map(sub, gxs, map(add, omtgus, cycle(tgvs)))] * nt)))

    def row(j):  # the same arithmetic, for the samples of row j alone
        gu, gv = gus[j // nv], gvs[j % nv]
        return [gx - (a * gu + t * gv) for gx, a, t in zip(gxs[j * nt:(j + 1) * nt], omts, ts)]

    layer = plan.random
    return plan.worst(tops, row, [gx - ((1.0 - t) * gu + t * gv)
                                  for (gu, gv, gx), t in zip(layer.values(g), layer.t)])


def _prequasiinvex(plan: SamplePlan, g: array) -> _Found:
    """Worst excess g(x) - max(g(u), g(v)) over values ``g``."""
    gus, gvs, gxs = plan.grid_values(g)
    nt = len(plan.ts)
    highs = [gv if gv > gu else gu for gu in gus for gv in gvs]
    # rounding is monotone, so a row's largest excess is its largest g(x) less its high
    tops = list(map(sub, map(max, zip(*[iter(gxs)] * nt)), highs))
    return plan.worst(tops, lambda j: [x - highs[j] for x in gxs[j * nt:(j + 1) * nt]],
                      [gx - (gv if gv > gu else gu) for gu, gv, gx in plan.random.values(g)])


def _pair(plan: SamplePlan, g: array, tol: float,
          q: Optional[float]) -> Tuple[PropertyReport, PropertyReport]:
    """The preinvex and the prequasiinvex report of the values ``g`` on ``plan``."""
    return (_report("preinvex", _preinvex(plan, g), plan.samples, tol, q),
            _report("prequasiinvex", _prequasiinvex(plan, g), plan.samples, tol, q))


def check_pair(g: Callable[[float], float], eta: EtaMap, K: Domain,
               grid: SampleGrid = DEFAULT_GRID,
               tol: float = DEFAULT_TOL) -> Tuple[PropertyReport, PropertyReport]:
    """Sampled preinvexity and prequasiinvexity checks of ``g`` on K, from one set of values.

    Assumes K is invex for ``eta`` (run check_invex_set first); ``g``
    must be defined wherever the sampled paths land.
    """
    plan = _plan(K, eta, grid)
    return _pair(plan, _filled(map(g, plan.points())), tol, None)


def _derivative_values(plan: SamplePlan, model, q: float) -> array:
    """|f'|^q at the plan's points.

    f' runs once per case and sample point, not once per q.
    """
    df_fn = model.df_fn
    try:
        h = plan.values(df_fn)
    except Exception as exc:
        if q == 1.0:
            raise
        error = exc
    else:
        return h if q == 1.0 else plan.power(q)
    # a point-by-point pass may overflow |f'|^q before f' fails: raise what it meets first
    for x in plan.points():
        abs(df_fn(x)) ** q
    raise error


def hypothesis_pair(model, eta: EtaMap, K: Domain, q: float,
                    grid: SampleGrid = DEFAULT_GRID,
                    tol: float = DEFAULT_TOL) -> Tuple[PropertyReport, PropertyReport]:
    """Check |f'|^q for preinvexity and for prequasiinvexity on K, from one set of values.

    ``model`` is any object exposing a compiled derivative ``df_fn``;
    the absolute value is applied before the exponent.
    """
    if not 1.0 <= q < math.inf:
        raise ValueError(f"exponent q must be finite and >= 1, got {q!r}")
    plan = _plan(K, eta, grid)
    return _pair(plan, _derivative_values(plan, model, q), tol, q)
