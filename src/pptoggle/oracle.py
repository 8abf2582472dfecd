"""Brute-force enumeration and counting of configuration families.

Everything here is deliberately independent of the series/bijection code
paths. One table, `_family`, gives each family's cells, their level (zero,
the two-leg floor, or the negated two-leg ceiling; a wall off the family's
domain) and the neighbours that cap each cell's cost over its level. A
one-leg family lists only the cells whose cone (the cells a nonzero cost
forces nonzero) fits in the budget. `_runs` splits the cells into rows and
reads each cell's caps, and one row walk reads that table two ways:

- `_fill` keeps every partial filling and builds the members, in
  lexicographic order along the cells. The `enum_*` functions and
  `weighed_members` use it.
- `_count` merges the partial fillings that can complete alike into one
  count. `WeightCensus.take` uses it, so a census builds no member.

These counts are the ground truth the generating-function identities are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

from .configurations import (OneLegRPP, OneLegSPP, PlanePartition, TwoLegRPP,
                             TwoLegSPP, cfg_weight, minimal_weight,
                             two_leg_ceiling, two_leg_floor)
from .errors import DomainError, InvariantError
from .halfint import ZERO, HalfInt
from .partitions import Cell, Partition, as_partition, contains, part
from .series import TruncatedSeries


def enum_partitions(n: int) -> list[Partition]:
    """All partitions of weight exactly n, lexicographically sorted."""
    if n < 0:
        raise DomainError("weight must be nonnegative")
    if n > 40:
        raise DomainError(f"partition enumeration capped at weight 40: {n}")
    return sorted(_partitions(n, n, []))


# the recursions here are module-level functions that take their state as
# arguments: a nested function that calls itself is a reference cycle, which
# only the cyclic collector frees
def _partitions(remaining: int, cap: int, prefix: list[int]):
    if remaining == 0:
        yield tuple(prefix)
        return
    for p in range(min(cap, remaining), 0, -1):
        prefix.append(p)
        yield from _partitions(remaining - p, p, prefix)
        prefix.pop()


def partitions_up_to(n: int) -> list[Partition]:
    out = []
    for k in range(n + 1):
        out.extend(enum_partitions(k))
    return out


def count_partitions_pentagonal(n: int) -> int:
    """Partition counts by the pentagonal-number recurrence (cross-check)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


WALL = 1 << 60  # the level off a family's domain: no cap from there


def _runs(cells: list, level, before) -> list[tuple[list, list]]:
    """(run, caps) for each run of `cells` with equal row index. A cell's caps
    are the cap from its unlisted neighbours (cost 0), then (position, slack)
    of its neighbours earlier in its run and of those in the previous run;
    every n in before(x) must be one of these."""
    runs = [list(run) for _, run in groupby(cells, key=lambda x: x[0])]
    where = {x: (r, p) for r, run in enumerate(runs) for p, x in enumerate(run)}
    table = []
    for r, run in enumerate(runs):
        spec = []
        for p, x in enumerate(run):
            fixed, here, above = WALL, [], []
            for n in before(x):
                s = level(n) - level(x)
                if n not in where:
                    fixed = min(fixed, s)
                    continue
                rn, pn = where[n]
                if not (rn == r - 1 or (rn == r and pn < p)):
                    raise InvariantError("neighbour neither earlier in its run "
                                         "nor in the previous one", (x, n))
                (here if rn == r else above).append((pn, s))
            spec.append((fixed, here, above))
        table.append((run, spec))
    return table


def _fill(cells: list, level, before, budget: int, emit) -> list:
    """emit(costs) for every assignment of costs c >= 0 to `cells` with total
    <= budget and c(x) <= level(n) + c(n) - level(x) for each n in before(x),
    in lexicographic order along `cells`; `costs` holds the nonzero ones.

    One walk over the runs of `_runs`, keeping every partial filling: each
    grows by every filling of the next run that its last run's costs and the
    budget left allow. Levels must not fall from before(x) to x, so a partial
    that has spent the budget can only be completed by zeros, and stops
    growing.
    """
    filled = [((), (), 0)]  # (nonzero (cell, cost) pairs, last run, spent)
    for run, spec in _runs(cells, level, before):
        grown = []
        for pairs, prev, spent in filled:
            if spent == budget:
                grown.append((pairs, prev, spent))
                continue
            for costs, c in _run_fillings(spec, prev, budget - spent):
                nonzero = tuple((x, v) for x, v in zip(run, costs) if v)
                grown.append((pairs + nonzero, costs, spent + c))
        filled = grown
    return [emit(dict(pairs)) for pairs, _, _ in filled]


def _count(cells: list, level, before, budget: int) -> list[int]:
    """Entry k is the number of assignments `_fill` emits with total cost k.

    The same walk over runs, as a transfer over rows (Stanley, Enumerative
    Combinatorics I, 4.7): partial fillings that agree on their last run's
    costs and the cost spent complete alike, so each such class is one count.
    """
    out = [0] * (budget + 1)
    partials = {((), 0): 1}
    for _, spec in _runs(cells, level, before):
        grown: dict = {}
        for (prev, spent), n in partials.items():
            if spent == budget:
                out[spent] += n
                continue
            for costs, c in _run_fillings(spec, prev, budget - spent):
                key = (costs, spent + c)
                grown[key] = grown.get(key, 0) + n
        partials = grown
    for (_, spent), n in partials.items():
        out[spent] += n
    return out


def _run_fillings(spec: list, prev: tuple, left: int) -> list[tuple[tuple, int]]:
    """(costs, their sum) for each filling of a run with caps `spec`, under
    the previous run's costs `prev` and the budget left."""
    filled = [((), 0)]
    for fixed, here, above in spec:
        hi = min([fixed] + [s + prev[pn] for pn, s in above])
        grown = []
        for costs, spent in filled:
            top = left - spent if left - spent < hi else hi
            for pn, s in here:
                if s + costs[pn] < top:
                    top = s + costs[pn]
            grown += [(costs + (c,), spent + c) for c in range(top + 1)]
        filled = grown
    return filled


def _up_left(x: Cell):
    i, j = x
    return ((i - 1, j), (i, j - 1))


def _down_right(x: Cell):
    i, j = x
    return ((i + 1, j), (i, j + 1))


def _family(kind: str, legs, budget: int):
    """(cells, level, before, constructor) of a family whose members cost at
    most `budget` over their level: the table `_fill` enumerates from and
    `_count` counts from.

    A cell can be nonzero only if every cell of its cone (the cells that cap
    it through chains of `before` inside the family's region) is nonzero
    too, so the one-leg families list only the cells whose cone fits in the
    budget.
    """
    if kind in ("plane", "one-leg-spp", "one-leg-rpp"):
        if budget > 12:
            what = "plane-partition" if kind == "plane" else "one-leg"
            raise DomainError(f"{what} enumeration capped at weight 12")
        lam = () if kind == "plane" else as_partition(legs)
        if kind == "one-leg-rpp":
            # the cone of (i, j) is the cells of lam down and right of it,
            # max(0, lam_k - j + 1) in each row k >= i; each row it meets
            # holds >= 1 of them, so budget + 1 rows decide whether it fits
            cells = [(i, j) for i in range(len(lam), 0, -1)
                     for j in range(lam[i - 1],
                                    max(0, lam[i - 1] - budget), -1)
                     if sum(max(0, part(lam, k) - j + 1)
                            for k in range(i, i + budget + 1)) <= budget]
            return (cells, lambda x: 0 if contains(lam, x) else WALL,
                    _down_right, partial(OneLegRPP, lam))
        # outside lam the cone is the cells up and left, max(0, j - lam_k) in
        # each row k <= i; a plane partition is the decreasing filling
        # outside the empty shape, where the cone of (i, j) is i * j cells
        cells = [(i, j) for i in range(1, len(lam) + budget + 1)
                 for j in range(part(lam, i) + 1, part(lam, i) + budget + 1)
                 if sum(max(0, j - part(lam, k))
                        for k in range(max(1, i - budget), i + 1)) <= budget]

        def level(x):
            return 0 if min(x) >= 1 and not contains(lam, x) else WALL

        return (cells, level, _up_left,
                PlanePartition if kind == "plane" else partial(OneLegSPP, lam))
    if kind == "two-leg-spp":
        if budget > 8:
            raise DomainError("two-leg enumeration capped at excess 8")
        lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
        cells = [(i, j) for i in range(1, len(mu) + budget + 1)
                 for j in range(1, len(lam) + budget + 1)]

        def level(x):
            return two_leg_floor((lam, mu), *x) if min(x) >= 1 else WALL

        return cells, level, _up_left, partial(TwoLegSPP, (lam, mu))
    if kind == "two-leg-rpp":
        if budget > 8:
            raise DomainError("two-leg enumeration capped at deficit 8")
        lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
        ceiling = partial(two_leg_ceiling, (lam, mu))
        # a deficit above row 1 - budget (left of that column) repeats on
        # every cell down to row 1 (right to column 1) and exceeds the budget;
        # zero-ceiling cells hold no deficit and are left out
        cells = [(i, j) for i in range(len(mu), -budget, -1)
                 for j in range(len(lam), -budget, -1) if ceiling(i, j)]
        return (cells, lambda x: -ceiling(*x), _down_right,
                partial(TwoLegRPP, (lam, mu)))
    raise DomainError(f"unknown family {kind!r}")


def _enumerate(kind: str, legs, budget: int) -> list:
    cells, level, before, make = _family(kind, legs, budget)
    return _fill(cells, level, before, budget, make)


def enum_plane_partitions(max_weight: int) -> list[PlanePartition]:
    """All plane partitions of weight <= max_weight."""
    return _enumerate("plane", None, max_weight)


def enum_one_leg_spp(lam: Partition, max_weight: int) -> list[OneLegSPP]:
    """All decreasing fillings outside lam with weight <= max_weight."""
    return _enumerate("one-leg-spp", lam, max_weight)


def enum_one_leg_rpp(lam: Partition, max_weight: int) -> list[OneLegRPP]:
    """All increasing fillings of lam with weight <= max_weight."""
    return _enumerate("one-leg-rpp", lam, max_weight)


def enum_two_leg_spp(legs, max_excess: int) -> list[TwoLegSPP]:
    """All two-leg SPPs with excess sum <= max_excess: the excess is the cost
    over the floor."""
    return _enumerate("two-leg-spp", legs, max_excess)


def enum_two_leg_rpp(legs, max_deficit: int) -> list[TwoLegRPP]:
    """All two-leg RPPs with deficit sum <= max_deficit: the deficit is the
    cost over the negated ceiling, so values fall down and right."""
    return _enumerate("two-leg-rpp", legs, max_deficit)


def enum_configs(kind: str, legs, max_weight) -> list:
    """Complete list of configurations of a family, by weight/excess bound."""
    return _enumerate(kind, legs, int(max_weight))


@dataclass
class WeightCensus:
    """Counts of a family's members by weight, complete up to the bound.

    The counts come from `_count`, row by row, without building a member;
    `weighed_members` lists the members themselves.
    """

    family: str
    legs: tuple
    counts: dict[HalfInt, int]
    bound: HalfInt

    @staticmethod
    def take(kind: str, legs, bound) -> "WeightCensus":
        bound = HalfInt.of(bound)
        base = _base_weight(kind, legs)
        budget = _budget(base, bound)
        cells, level, before, _ = _family(kind, legs, budget)
        counts = {base + k: n
                  for k, n in enumerate(_count(cells, level, before, budget))
                  if n and base + k <= bound}
        return WeightCensus(kind, legs, counts, bound)


def weighed_members(kind: str, legs, bound) -> list[tuple[HalfInt, object]]:
    """(weight, configuration) for each member of a family with weight <=
    bound, in enumeration order."""
    bound = HalfInt.of(bound)
    budget = _budget(_base_weight(kind, legs), bound)
    weighed = ((cfg_weight(cfg), cfg)
               for cfg in enum_configs(kind, legs, budget))
    return [(w, cfg) for w, cfg in weighed if w <= bound]


def _base_weight(kind: str, legs) -> HalfInt:
    """The weight of a family's cost-0 member."""
    if kind in ("two-leg-spp", "two-leg-rpp"):
        return minimal_weight(kind.removeprefix("two-leg-"), legs)
    return ZERO


def _budget(base: HalfInt, bound: HalfInt) -> int:
    """The largest cost a member of weight base + cost <= bound can have."""
    return max(0, (bound - base).doubled // 2)


def census_series(census: WeightCensus) -> TruncatedSeries:
    """Sum of count(w) * q^w, bounded by the census bound."""
    return TruncatedSeries.from_terms(census.bound,
                                      [(w, c) for w, c in census.counts.items()])
