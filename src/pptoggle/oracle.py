"""Brute-force enumeration of configuration families.

Everything here is deliberately independent of the series/bijection code
paths. All five families go through one recursion, `_fill`: it gives each
cell of a bounding box a cost over the cell's level (zero, the two-leg
floor, or the negated two-leg ceiling; a wall off the family's domain),
capped by the neighbours that come earlier in the cell order, and emits a
configuration as soon as the weight budget is spent. These counts are the
ground truth the generating-function identities are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .configurations import (OneLegRPP, OneLegSPP, PlanePartition, TwoLegRPP,
                             TwoLegSPP, cfg_weight, minimal_weight,
                             two_leg_ceiling, two_leg_floor)
from .errors import DomainError
from .halfint import HalfInt
from .partitions import Cell, Partition, as_partition, contains, part
from .series import TruncatedSeries


def enum_partitions(n: int) -> list[Partition]:
    """All partitions of weight exactly n, lexicographically sorted."""
    if n < 0:
        raise DomainError("weight must be nonnegative")
    if n > 40:
        raise DomainError(f"partition enumeration capped at weight 40: {n}")

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            yield tuple(prefix)
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            yield from rec(remaining - p, p, prefix)
            prefix.pop()

    return sorted(rec(n, n, []))


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


def _fill(cells: list, level, before, budget: int, emit) -> list:
    """emit(costs) for every assignment of costs c >= 0 to `cells` with total
    <= budget and c(x) <= level(n) + c(n) - level(x) for each n in before(x).

    Each n in before(x) precedes x in `cells` or is not listed, and unlisted
    cells cost 0; `costs` holds the nonzero ones. Levels must not fall from
    before(x) to x, so once the budget is spent, all zeros is the only
    completion and is emitted at once.
    """
    slacks = [[(n, level(n) - level(x)) for n in before(x)] for x in cells]
    cost: dict = {}
    out = []

    def rec(idx: int, left: int):
        if idx == len(cells) or left == 0:
            out.append(emit(dict(cost)))
            return
        x = cells[idx]
        hi = left
        for n, s in slacks[idx]:
            hi = min(hi, s + cost.get(n, 0))
        rec(idx + 1, left)
        for c in range(1, hi + 1):
            cost[x] = c
            rec(idx + 1, left - c)
        cost.pop(x, None)

    rec(0, budget)
    return out


def _up_left(x: Cell):
    i, j = x
    return ((i - 1, j), (i, j - 1))


def _down_right(x: Cell):
    i, j = x
    return ((i + 1, j), (i, j + 1))


def enum_plane_partitions(max_weight: int) -> list[PlanePartition]:
    """All plane partitions of weight <= max_weight (support fits in a
    max_weight-sized square since each supporting row/column costs >= 1)."""
    if max_weight > 12:
        raise DomainError("plane-partition enumeration capped at weight 12")
    side = max_weight
    cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    return _fill(cells, lambda x: 0 if min(x) >= 1 else WALL, _up_left,
                 max_weight, PlanePartition)


def enum_one_leg_spp(lam: Partition, max_weight: int) -> list[OneLegSPP]:
    """All decreasing fillings outside lam with weight <= max_weight."""
    if max_weight > 12:
        raise DomainError("one-leg enumeration capped at weight 12")
    lam = as_partition(lam)
    rows = max_weight + len(lam)
    cols = max_weight + part(lam, 1)
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)
             if j > part(lam, i)]

    def level(x):
        return 0 if min(x) >= 1 and not contains(lam, x) else WALL

    return _fill(cells, level, _up_left, max_weight, partial(OneLegSPP, lam))


def enum_one_leg_rpp(lam: Partition, max_weight: int) -> list[OneLegRPP]:
    """All increasing fillings of lam with weight <= max_weight."""
    if max_weight > 12:
        raise DomainError("one-leg enumeration capped at weight 12")
    lam = as_partition(lam)
    # entries grow down and right, so fill from the bottom-right corner
    cells = [(i, j) for i in range(len(lam), 0, -1)
             for j in range(lam[i - 1], 0, -1)]
    return _fill(cells, lambda x: 0 if contains(lam, x) else WALL, _down_right,
                 max_weight, partial(OneLegRPP, lam))


def enum_two_leg_spp(legs, max_excess: int) -> list[TwoLegSPP]:
    """All two-leg SPPs with excess sum <= max_excess: the excess is the cost
    over the floor."""
    if max_excess > 8:
        raise DomainError("two-leg enumeration capped at excess 8")
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    rows = len(mu) + max_excess
    cols = len(lam) + max_excess
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]

    def level(x):
        return two_leg_floor((lam, mu), *x) if min(x) >= 1 else WALL

    return _fill(cells, level, _up_left, max_excess,
                 partial(TwoLegSPP, (lam, mu)))


def enum_two_leg_rpp(legs, max_deficit: int) -> list[TwoLegRPP]:
    """All two-leg RPPs with deficit sum <= max_deficit: the deficit is the
    cost over the negated ceiling, so values fall down and right."""
    if max_deficit > 8:
        raise DomainError("two-leg enumeration capped at deficit 8")
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    ceiling = partial(two_leg_ceiling, (lam, mu))
    # a deficit above row 1 - max_deficit (left of that column) repeats on
    # every cell down to row 1 (right to column 1) and exceeds the budget
    cells = [(i, j) for i in range(len(mu), -max_deficit, -1)
             for j in range(len(lam), -max_deficit, -1) if ceiling(i, j)]
    return _fill(cells, lambda x: -ceiling(*x), _down_right, max_deficit,
                 partial(TwoLegRPP, (lam, mu)))


def enum_configs(kind: str, legs, max_weight) -> list:
    """Complete list of configurations of a family, by weight/excess bound."""
    if kind == "plane":
        return enum_plane_partitions(int(max_weight))
    if kind == "one-leg-spp":
        return enum_one_leg_spp(legs, int(max_weight))
    if kind == "one-leg-rpp":
        return enum_one_leg_rpp(legs, int(max_weight))
    if kind == "two-leg-spp":
        return enum_two_leg_spp(legs, int(max_weight))
    if kind == "two-leg-rpp":
        return enum_two_leg_rpp(legs, int(max_weight))
    raise DomainError(f"unknown family {kind!r}")


@dataclass
class WeightCensus:
    """Counts of a family's members by weight, complete up to the bound."""

    family: str
    legs: tuple
    counts: dict[HalfInt, int]
    bound: HalfInt

    @staticmethod
    def take(kind: str, legs, bound) -> "WeightCensus":
        counts: dict[HalfInt, int] = {}
        for w, _ in weighed_members(kind, legs, bound):
            counts[w] = counts.get(w, 0) + 1
        return WeightCensus(kind, legs, counts, HalfInt.of(bound))


def weighed_members(kind: str, legs, bound) -> list[tuple[HalfInt, object]]:
    """(weight, configuration) for each member of a family with weight <=
    bound, in enumeration order."""
    bound = HalfInt.of(bound)
    weighed = ((cfg_weight(cfg), cfg)
               for cfg in enum_configs(kind, legs, _budget_for(kind, legs, bound)))
    return [(w, cfg) for w, cfg in weighed if w <= bound]


def _budget_for(kind: str, legs, bound) -> int:
    bound = HalfInt.of(bound)
    if kind in ("plane", "one-leg-spp", "one-leg-rpp"):
        return bound.doubled // 2
    base = minimal_weight("spp" if kind == "two-leg-spp" else "rpp", legs)
    return max(0, (bound - base).doubled // 2)


def census_series(census: WeightCensus) -> TruncatedSeries:
    """Sum of count(w) * q^w, bounded by the census bound."""
    return TruncatedSeries.from_terms(census.bound,
                                      [(w, c) for w, c in census.counts.items()])
