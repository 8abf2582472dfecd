"""Brute-force enumeration of configuration families.

Everything here is deliberately independent of the series/bijection code
paths: enumeration recurses cell by cell with monotonicity caps and a weight
budget, inside a bounding box argument recorded with each census. These
counts are the ground truth the generating-function identities are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .configurations import (OneLegRPP, OneLegSPP, PlanePartition, TwoLegRPP,
                             TwoLegSPP, cfg_weight, minimal_weight,
                             two_leg_ceiling, two_leg_floor)
from .errors import DomainError
from .halfint import HalfInt
from .partitions import Partition, as_partition, conjugate, contains, part
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


def _fill_decreasing(cells: list, cap_of, budget: int, emit, chosen: dict):
    """Recurse over cells assigning values <= caps with total <= budget."""
    if not cells:
        emit(dict(chosen))
        return
    (i, j), rest = cells[0], cells[1:]
    cap = cap_of(i, j, chosen)
    for v in range(min(cap, budget), -1, -1):
        if v:
            chosen[(i, j)] = v
        _fill_decreasing(rest, cap_of, budget - v, emit, chosen)
        chosen.pop((i, j), None)


def enum_plane_partitions(max_weight: int) -> list[PlanePartition]:
    """All plane partitions of weight <= max_weight (support fits in a
    max_weight-sized square since each supporting row/column costs >= 1)."""
    if max_weight > 12:
        raise DomainError("plane-partition enumeration capped at weight 12")
    side = max_weight
    cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    cells.sort(key=lambda c: (c[0], c[1]))
    out: list[PlanePartition] = []

    def cap_of(i, j, chosen):
        up = chosen.get((i - 1, j), 0) if i > 1 else max_weight
        left = chosen.get((i, j - 1), 0) if j > 1 else max_weight
        return min(up, left)

    _fill_decreasing(cells, cap_of, max_weight,
                     lambda entries: out.append(PlanePartition(entries)), {})
    return out


def enum_one_leg_spp(lam: Partition, max_weight: int) -> list[OneLegSPP]:
    """All decreasing fillings outside lam with weight <= max_weight."""
    if max_weight > 12:
        raise DomainError("one-leg enumeration capped at weight 12")
    lam = as_partition(lam)
    conj = conjugate(lam)
    rows = max_weight + len(lam)
    cols = max_weight + part(lam, 1)
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)
             if j > part(lam, i)]
    out: list[OneLegSPP] = []

    def cap_of(i, j, chosen):
        caps = []
        if i > 1 and not contains(lam, (i - 1, j)):
            caps.append(chosen.get((i - 1, j), 0))
        if j > 1 and not contains(lam, (i, j - 1)):
            caps.append(chosen.get((i, j - 1), 0))
        return min(caps) if caps else max_weight

    _fill_decreasing(cells, cap_of, max_weight,
                     lambda entries: out.append(OneLegSPP(lam, entries)), {})
    return out


def enum_one_leg_rpp(lam: Partition, max_weight: int) -> list[OneLegRPP]:
    """All increasing fillings of lam with weight <= max_weight."""
    lam = as_partition(lam)
    # fill bottom-right first: entries grow down and right, so the chosen
    # lower/right neighbours cap each new value from above
    cells = sorted(((i, j) for i in range(1, len(lam) + 1)
                    for j in range(1, lam[i - 1] + 1)),
                   key=lambda c: (-c[0], -c[1]))
    out: list[OneLegRPP] = []

    def rec(idx: int, budget: int, chosen: dict):
        if idx == len(cells):
            out.append(OneLegRPP(lam, dict(chosen)))
            return
        i, j = cells[idx]
        hi = budget
        if contains(lam, (i + 1, j)):
            hi = min(hi, chosen.get((i + 1, j), 0))
        if contains(lam, (i, j + 1)):
            hi = min(hi, chosen.get((i, j + 1), 0))
        for v in range(hi + 1):
            if v:
                chosen[(i, j)] = v
            rec(idx + 1, budget - v, chosen)
            chosen.pop((i, j), None)

    rec(0, max_weight, {})
    return out


def enum_two_leg_spp(legs, max_excess: int) -> list[TwoLegSPP]:
    """All two-leg SPPs with excess sum <= max_excess."""
    if max_excess > 8:
        raise DomainError("two-leg enumeration capped at excess 8")
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    rows = len(mu) + max_excess
    cols = len(lam) + max_excess
    floor = partial(two_leg_floor, (lam, mu))
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    out: list[TwoLegSPP] = []

    def rec(idx: int, budget: int, vals: dict, excess: dict):
        if idx == len(cells):
            out.append(TwoLegSPP((lam, mu), dict(excess)))
            return
        i, j = cells[idx]
        f = floor(i, j)
        up = vals.get((i - 1, j)) if i > 1 else None
        left = vals.get((i, j - 1)) if j > 1 else None
        hi = min(x for x in (up, left, f + budget) if x is not None)
        for v in range(f, hi + 1):
            vals[(i, j)] = v
            if v > f:
                excess[(i, j)] = v - f
            rec(idx + 1, budget - (v - f), vals, excess)
            vals.pop((i, j), None)
            excess.pop((i, j), None)

    rec(0, max_excess, {}, {})
    return out


def enum_two_leg_rpp(legs, max_deficit: int) -> list[TwoLegRPP]:
    """All two-leg RPPs with deficit sum <= max_deficit."""
    if max_deficit > 8:
        raise DomainError("two-leg enumeration capped at deficit 8")
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    lo_i, hi_i = 1 - max_deficit, len(mu)
    lo_j, hi_j = 1 - max_deficit, len(lam)
    ceiling = partial(two_leg_ceiling, (lam, mu))
    cells = [(i, j) for i in range(lo_i, hi_i + 1) for j in range(lo_j, hi_j + 1)
             if ceiling(i, j)]
    cellset = set(cells)
    out: list[TwoLegRPP] = []

    def rec(idx: int, budget: int, vals: dict, deficit: dict):
        if idx == len(cells):
            out.append(TwoLegRPP((lam, mu), dict(deficit)))
            return
        i, j = cells[idx]
        c = ceiling(i, j)
        hi = c
        for (ni, nj) in ((i - 1, j), (i, j - 1)):
            if (ni, nj) in cellset:
                hi = min(hi, vals[(ni, nj)])
            else:  # outside the search box: zero deficit
                fv = ceiling(ni, nj)
                if fv is not None:
                    hi = min(hi, fv)
        lo = c - budget
        for (ni, nj) in ((i + 1, j), (i, j + 1)):
            if (ni, nj) not in cellset:
                lo = max(lo, ceiling(ni, nj))
        for v in range(hi, max(lo, 0) - 1, -1):
            vals[(i, j)] = v
            if v < c:
                deficit[(i, j)] = c - v
            rec(idx + 1, budget - (c - v), vals, deficit)
            vals.pop((i, j), None)
            deficit.pop((i, j), None)

    rec(0, max_deficit, {}, {})
    return out


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
