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
sorted once when the plan is built and the grid ascends in (u, v, t), so
in the random layer and in each grid block the first largest excess is at
the smallest witness.  eta and f' run in sorted order within the random
layer, so an f' failure that only random triples reach is raised at the
first of them in sorted order.

Every check is a view of one ``SamplePlan`` per (K, eta, grid): the
sample stream and its path points, with eta called once per grid (u, v)
pair and once per random triple.  The last plan is kept, so a case's
invex-set check and its hypothesis checks at every q share one plan, as
do consecutive cases on the same K and built-in eta.  The plan keeps its
invex-set report and the values of the last function swept over it.  It
evaluates its first function once per sample point; from its second
function on (a further case on the same plan) it evaluates each once per
distinct point, the grid's points merged by bit pattern, and spreads the
values back to the stream.  Each further q costs only arithmetic, once
per value (once per distinct value on a reused plan).  The arithmetic is
the per-sample formula's, so verdicts, worst violations and witnesses
are unchanged.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, repeat
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import expr as expr_mod
from .reports import VERIFIED, VIOLATED, PropertyReport

__all__ = [
    "Domain",
    "SampleGrid",
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "EtaMap",
    "check_invex_set",
    "check_preinvex",
    "check_prequasiinvex",
    "hypothesis_pair",
]

DEFAULT_TOL = 1e-12
_RANDOM_SEED = 170167


@dataclass(frozen=True)
class Domain:
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


@dataclass(frozen=True)
class SampleGrid:
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

    def __init__(self, kind: str, fn: Callable[[float, float], float],
                 name: str, source: Optional[str] = None):
        self.kind = kind
        self.name = name
        self.source = source
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
        return cls("expression", fn, source, source=source)

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


_DIFFERENCE = EtaMap("difference", sub, "difference")
_ABS_EXAMPLE = EtaMap("abs_example", _abs_example, "abs_example")


_Found = Tuple[float, Optional[Tuple[float, float, float]]]  # (excess, witness)


def _first_worst(tops: List[float], row: Callable[[int], Sequence[float]],
                 witness: Callable[[int, int], Tuple[float, float, float]]) -> Optional[_Found]:
    """The first largest excess of rows of samples, with its witness.

    row(j)[k] is the excess at witness(j, k).  The witnesses ascend in
    (j, k), so the first largest excess is at the smallest witness, the
    earliest of equal ones.  tops[j] is the largest non-NaN excess of
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


class _Layer:
    """The seeded random (u, v, t) samples, sorted, with their path points."""

    __slots__ = ("u", "v", "t", "x", "at")

    def __init__(self, triples: Iterable[Tuple[float, float, float]], eta: EtaMap, at: int):
        self.u, self.v, self.t, self.x = array("d"), array("d"), array("d"), array("d")
        for u, v, t in sorted(triples):
            self.u.append(u)
            self.v.append(v)
            self.t.append(t)
            self.x.append(u + t * eta(v, u))
        self.at = at  # index of the first triple's g(u) in SamplePlan.values

    def __len__(self) -> int:
        return len(self.t)

    def points(self) -> Iterator[float]:
        return chain.from_iterable(zip(self.u, self.v, self.x))

    def values(self, g: array) -> Iterator[Tuple[float, float, float]]:
        """(g(u), g(v), g(x)) per triple."""
        it = iter(g[self.at:self.at + 3 * len(self)])
        return zip(it, it, it)

    def witness(self, i: int) -> Tuple[float, float, float]:
        return (self.u[i], self.v[i], self.t[i])


class SamplePlan:
    """The sample stream of one (K, eta, grid), with its path points.

    Stream order: the nu x nv x nt grid (u, then v, then t), then the
    sorted seeded random triples.  eta is called once per grid (u, v)
    pair and once per random triple.  Every sampled check is a sweep of
    ``worst`` over one plan.  The plan keeps the invex-set reports made
    on it (``invex_set``) and the values of the last function swept over
    it; the first function runs once per sample point, each later one
    once per distinct point (see ``values``).
    """

    def __init__(self, K: Domain, eta: EtaMap, grid: SampleGrid):
        self.us = K.grid(grid.nu)
        self.vs = K.grid(grid.nv)
        self.ts = [i / (grid.nt - 1) for i in range(grid.nt)]
        self.grid_x = array("d")
        for u in self.us:
            for v in self.vs:
                step = eta(v, u)
                self.grid_x.extend([u + t * step for t in self.ts])
        self.x_at = len(self.us) + len(self.vs)
        rng = random.Random(grid.seed)
        lo, span = K.lo, K.hi - K.lo
        draws = ((lo + span * rng.random(), lo + span * rng.random(), rng.random())
                 for _ in range(grid.random_triples))
        self.random = _Layer(draws, eta, self.x_at + len(self.grid_x))
        self.samples = len(self.grid_x) + len(self.random)
        self.invex_set = {}  # check_invex_set's reports, by the bit pattern of (K, tol)
        self._memo = (None, None, None, None)
        self._distinct = None

    def points(self) -> Iterator[float]:
        """Every point a sweep reads g at, in the order of ``values``."""
        return chain(self.us, self.vs, self.grid_x, self.random.points())

    def _distinct_points(self) -> Tuple[array, Callable[[list], tuple]]:
        """The distinct points of ``points`` and the gather that spreads values back.

        The grid's u values, v values and path points are merged by bit
        pattern, in first-occurrence order; the random layer's points
        follow unmerged.  gather(values at the distinct points) gives the
        values at ``points``.
        """
        if self._distinct is None:
            # each temporary is dropped once used: this build sets a corpus run's peak memory
            keys = array("Q", (array("d", self.us + self.vs) + self.grid_x).tobytes())
            first = {}  # key -> the position of its first occurrence
            at = list(map(first.setdefault, keys, count()))
            del keys
            slot = dict(zip(first.values(), count()))
            distinct = array("d", array("Q", first).tobytes())
            del first
            slots = list(map(slot.__getitem__, at))
            del at, slot
            slots.extend(range(len(distinct), len(distinct) + 3 * len(self.random)))
            distinct.extend(self.random.points())
            self._distinct = (distinct, itemgetter(*slots))
        return self._distinct

    def values(self, fn: Callable[[float], float], absolute: bool = False) -> array:
        """fn (abs(fn) if ``absolute``) at ``points``.

        Layout: g at the grid's u values; at its v values; at its path
        points (from ``x_at``); then g(u), g(v), g(x) of each random
        triple.  The plan's first fn is called at ``points`` in order;
        each later one once per distinct point, in first-occurrence
        order, so either way the first point where fn fails is the first
        in stream order.  The values of the last fn are kept, so fn must
        be pure.
        """
        memo_fn, memo_absolute, values, _ = self._memo
        if memo_fn is not fn or memo_absolute != absolute:
            if memo_fn is None:
                calls = map(fn, self.points())
                values = array("d", map(abs, calls) if absolute else calls)
                distinct = None
            else:
                points, gather = self._distinct_points()
                calls = map(fn, points)
                # floats, as the array of the point-by-point pass holds them
                distinct = array("d", map(abs, calls) if absolute else calls).tolist()
                values = array("d", gather(distinct))
            self._memo = (fn, absolute, values, distinct)
        return values

    def power(self, q: float) -> array:
        """The values last returned by ``values``, each raised to q.

        pow runs once per distinct point when ``values`` ran fn so.
        """
        _, _, values, distinct = self._memo
        if distinct is None:
            return array("d", map(pow, values, repeat(q)))
        gather = self._distinct_points()[1]
        return array("d", gather(list(map(pow, distinct, repeat(q)))))

    def block(self, seq: array, i: int, start: int = 0) -> array:
        """``seq[start:]`` cut to grid block i: the nv*nt samples with u = us[i]."""
        n = len(self.vs) * len(self.ts)
        return seq[start + i * n:start + (i + 1) * n]

    def grid_values(self, g: array) -> Tuple[array, array, Callable[[int], array]]:
        """g at the grid's u values, at its v values, and block i of its path points."""
        v_at = len(self.us)
        return g[:v_at], g[v_at:self.x_at], lambda i: self.block(g, i, self.x_at)

    def worst(self, block: Callable[[int], Tuple[List[float], Callable[[int], Sequence[float]]]],
              excesses: List[float]) -> _Found:
        """(excess, witness) of the worst sample of the stream.

        ``block(i)`` gives (tops, row) for grid block i as _first_worst
        takes them: row(j)[k] is the excess at (us[i], vs[j], ts[k]).
        ``excesses`` holds the random layer's, one per triple.  The
        largest excess wins, then the smallest witness, then the earliest;
        (-inf, None) if none beats -inf.
        """
        vs, ts = self.vs, self.ts
        found = [_first_worst(*block(i), lambda j, k: (u, vs[j], ts[k]))
                 for i, u in enumerate(self.us)]
        found.append(_first_worst(excesses, lambda j: (excesses[j],),
                                  lambda j, k: self.random.witness(j)))
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
    nt = len(plan.ts)

    def excess(xs):  # max(lo - x, x - hi) per point
        return list(map(max, map(sub, repeat(lo), xs), map(sub, xs, repeat(hi))))

    def block(i):
        rows = list(zip(*[iter(plan.block(plan.grid_x, i))] * nt))
        # rounding is monotone, so a row's largest excess is at its smallest or largest x
        tops = list(map(max, map(sub, repeat(lo), map(min, rows)),
                        map(sub, map(max, rows), repeat(hi))))
        return tops, lambda j: excess(rows[j])

    return plan.worst(block, excess(plan.random.x))


def _preinvex(plan: SamplePlan, g: array) -> _Found:
    """Worst excess g(x) - ((1 - t) g(u) + t g(v)) over values ``g``."""
    gus, gvs, gxs = plan.grid_values(g)
    ts, nt = plan.ts, len(plan.ts)
    omts = [1.0 - t for t in ts]
    tgvs = [t * gv for gv in gvs for t in ts]

    def block(i):
        rows = list(zip(*[map(sub, gxs(i), map(add, [a * gus[i] for a in omts] * len(gvs),
                                                tgvs))] * nt))
        return list(map(max, rows)), rows.__getitem__

    layer = plan.random
    return plan.worst(block, [gx - ((1.0 - t) * gu + t * gv)
                              for (gu, gv, gx), t in zip(layer.values(g), layer.t)])


def _prequasiinvex(plan: SamplePlan, g: array) -> _Found:
    """Worst excess g(x) - max(g(u), g(v)) over values ``g``."""
    gus, gvs, gxs = plan.grid_values(g)
    nt = len(plan.ts)

    def block(i):
        gx = gxs(i)
        highs = [max(gus[i], gv) for gv in gvs]
        # rounding is monotone, so a row's largest excess is its largest g(x) less its high
        tops = list(map(sub, map(max, zip(*[iter(gx)] * nt)), highs))
        return tops, lambda j: [x - highs[j] for x in gx[j * nt:(j + 1) * nt]]

    return plan.worst(block, [gx - max(gu, gv) for gu, gv, gx in plan.random.values(g)])


def check_preinvex(g: Callable[[float], float], eta: EtaMap, K: Domain,
                   grid: SampleGrid = DEFAULT_GRID, tol: float = DEFAULT_TOL) -> PropertyReport:
    """Sampled preinvexity check of ``g`` on K.

    Assumes K is invex for ``eta`` (run check_invex_set first); ``g``
    must be defined wherever the sampled paths land, and pure: its values
    are kept for the next check on the same plan.
    """
    plan = _plan(K, eta, grid)
    return _report("preinvex", _preinvex(plan, plan.values(g)), plan.samples, tol)


def check_prequasiinvex(g: Callable[[float], float], eta: EtaMap, K: Domain,
                        grid: SampleGrid = DEFAULT_GRID,
                        tol: float = DEFAULT_TOL) -> PropertyReport:
    """Sampled prequasiinvexity check of ``g`` on K."""
    plan = _plan(K, eta, grid)
    return _report("prequasiinvex", _prequasiinvex(plan, plan.values(g)), plan.samples, tol)


def _derivative_values(plan: SamplePlan, model, q: float) -> array:
    """|f'|^q at the plan's points.

    f' runs once per case, not once per q: once per sample point on the
    plan's first case, once per distinct point on each later one.
    """
    df_fn = model.df_fn
    try:
        h = plan.values(df_fn, absolute=True)
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
    g = _derivative_values(plan, model, q)
    return (
        _report("preinvex", _preinvex(plan, g), plan.samples, tol, q),
        _report("prequasiinvex", _prequasiinvex(plan, g), plan.samples, tol, q),
    )
