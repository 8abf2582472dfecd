"""Brute-force enumeration and counting of configuration families.

Everything here is deliberately independent of the series/bijection code
paths. One table, `_family`, gives each family's zero member, whose `at` and
row of `configurations.FILLINGS` give each cell's level and the neighbours
that cap its cost over it, and a band of cells grown, by one expression for
every family, from the corners of that level. `_runs` keeps the cells
whose cone (the cells a nonzero cost forces nonzero) fits in the budget, one
rule for every family, splits them into rows and reads each cell's caps,
and one row walk reads that table two ways:

- `_fill` keeps every partial filling and builds the members, in
  lexicographic order along the cells. The partials that share their last
  run's costs are grown from one filling of the next run, made at the
  budget left by the least spent of them, and each takes the fillings that
  fit its own budget. Costs are nonnegative, so every prefix of a filling
  costs at most its total: these are exactly, and in order, the fillings
  it would make at its own budget. The partials keep their order, so the
  members do too, and a verify row still names the first counterexample
  in that order. The `enum_*` functions and `weighed_members` use it.
- `_count` merges the partial fillings that can complete alike into one
  count, keyed by the last run's costs and mapped to {spent: count}, and
  fills each key's next run once in the same way. `WeightCensus.take`
  uses it, so a census builds no member.

These counts are the ground truth the generating-function identities are
checked against.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby

from .configurations import (FILLINGS, WALL, OneLegRPP, OneLegSPP,
                             PlanePartition, TwoLegRPP, TwoLegSPP,
                             bounding_cells, cfg_weight, minimal_weight)
from .errors import DomainError, InvariantError, Record
from .halfint import ZERO, HalfInt
from .partitions import (Partition, as_partition, outer_corners,
                         removable_corners)
from .series import TruncatedSeries


# Most cost over the level a plane-partition or one-leg enumeration or
# census may reach. The members grow with the outer corners: at the cap,
# `enum_configs("one-leg-spp", (2, 1), 12)` builds 20,723 members in 0.29 s,
# and (3, 2, 1) 52,893 in 0.77 s (2-vCPU VM, CPython 3.11).
MAX_ONE_LEG_WEIGHT = 12

# Most excess or deficit a two-leg enumeration or census may reach: at the
# cap, `enum_configs("two-leg-spp", ((2, 1), (1, 1)), 8)` builds 2,216
# members in 0.03 s, and ((3, 2, 1), (3, 2, 1)) 7,291 in 0.12 s.
MAX_TWO_LEG_EXCESS = 8


def enum_partitions(n: int) -> list[Partition]:
    """All partitions of weight exactly n, lexicographically sorted."""
    if n < 0:
        raise DomainError("weight must be nonnegative")
    if n > 40:
        raise DomainError(f"partition enumeration capped at weight 40: {n}")
    # from (n) on in reverse lexicographic order: the last part p above 1
    # and the 1s after it become parts of p - 1 and what is left over
    out, parts = [], [n] if n else []
    while True:
        out.append(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            ones += parts.pop()
        if not parts:
            return sorted(out)
        p = parts.pop()
        q, r = divmod(p + ones, p - 1)
        parts += [p - 1] * q + ([r] if r else [])


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of weight <= n, by weight. Weight n is listed first, so
    `enum_partitions` refuses an n past its cap before any other is built."""
    heaviest_first = [enum_partitions(k) for k in range(n, -1, -1)]
    return [lam for lams in reversed(heaviest_first) for lam in lams]


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


def _runs(cells: list, zero, budget: int) -> list[tuple[list, list]]:
    """(run, caps) for each run, by row index, of the cells that can be
    nonzero at cost <= budget, level(x) = sign * zero.at(x) and before(x) =
    bounding_cells(k, x) read off zero's row (k, sign) of FILLINGS; a cell
    where zero reads WALL is off the family's domain and skipped. A cell's
    caps are the cap from its neighbours off the runs (cost 0), then
    (position, slack) of its neighbours earlier in its run and of those in
    the previous run; every n in before(x) must be one of these.

    The cone rule picks the cells. n in before(x) is tied to x when its
    slack level(n) - level(x) is 0: then c(x) <= c(n), so c(x) >= 1 forces
    c(n) >= 1. The cone of x is x and the cones of its tied neighbours, so a
    member with c(x) >= 1 costs >= 1 on all of it. Conversely cost 1 on the
    cone and 0 elsewhere meets every cap, as levels never fall from
    before(x) to x (each slack is >= 0) and the cone holds its cells' tied
    neighbours. So x can be nonzero exactly when each tied neighbour can be
    (none is off the runs) and its cone holds at most `budget` cells.
    """
    k, sign, _ = FILLINGS[type(zero)]
    at, waiting, kept, table = zero.at, set(cells), {}, []
    for _, band in groupby(cells, key=lambda x: x[0]):
        r, run, spec = len(table), [], []
        for x in band:
            waiting.discard(x)
            if (level := at(*x)) == WALL:
                continue
            lx, fixed, here, above, cone = sign * level, WALL, [], [], {x}
            for n in bounding_cells(k, x):
                if n in waiting or n in kept and kept[n][0] < r - 1:
                    raise InvariantError("neighbour neither earlier in its run "
                                         "nor in the previous one", (x, n))
                if n not in kept:
                    fixed = min(fixed, sign * at(*n) - lx)
                    continue
                rn, pn, cn, ln = kept[n]
                s = ln - lx
                (here if rn == r else above).append((pn, s))
                if s == 0:
                    cone = cone | cn
            if fixed and len(cone) <= budget:
                kept[x] = (r, len(run), cone, lx)
                run.append(x)
                spec.append((fixed, here, above))
        if run:
            table.append((run, spec))
    return table


def _fill(cells: list, zero, budget: int, emit) -> list:
    """emit(costs) for every assignment of costs c >= 0 to `cells` with total
    <= budget and c(x) <= level(n) + c(n) - level(x) for each n in before(x),
    in lexicographic order along `cells`; `costs` holds the nonzero ones.

    One walk over the runs of `_runs`, keeping every partial filling: each
    grows by every filling of the next run that its last run's costs and the
    budget left allow. Levels must not fall from before(x) to x, so a partial
    that has spent the budget can only be completed by zeros, and stops
    growing.

    The partials that share their last run's costs are filled once, at the
    budget left by the least spent of them, and each of them takes, in
    order, the fillings that fit its own budget left. That is exact: costs
    are nonnegative, so every prefix of a filling costs at most its total,
    and the fillings within L are, in the same order, those within any
    L' >= L whose total is at most L. A filling's nonzero (cell, cost)
    pairs are built once per such group. The partials grow in their own
    order, not the groups', so the members come out in lexicographic
    order, the order a verify row reads its first counterexample in.
    """
    filled = [((), (), 0)]  # (nonzero (cell, cost) pairs, last run, spent)
    for run, spec in _runs(cells, zero, budget):
        # the least spent of the partials with budget left, by last run
        least: dict = {}
        for _, prev, spent in filled:
            if spent < least.get(prev, budget):
                least[prev] = spent
        made = {}
        for prev, spent in least.items():
            made[prev] = [(costs, c, tuple((x, v) for x, v in zip(run, costs)
                                           if v))
                          for costs, c in _run_fillings(spec, prev,
                                                        budget - spent)]
        grown = []
        for pairs, prev, spent in filled:
            if spent == budget:
                grown.append((pairs, prev, spent))
                continue
            left = budget - spent
            grown += [(pairs + nonzero, costs, spent + c)
                      for costs, c, nonzero in made[prev] if c <= left]
        filled = grown
    return [emit(dict(pairs)) for pairs, _, _ in filled]


def _count(cells: list, zero, budget: int) -> list[int]:
    """Entry k is the number of assignments `_fill` emits with total cost k.

    The same walk over runs, as a transfer over rows (Stanley, Enumerative
    Combinatorics I, 4.7): partial fillings that agree on their last run's
    costs and the cost spent complete alike, so each such class is one count.
    The state is the last run's costs, mapped to {spent: count}, and each
    state's run is filled once, at the budget left by its least spent
    class; each class takes the fillings that fit its own budget left. As
    in `_fill`, that is exact, since every prefix of a filling costs at
    most its total. A class that has spent the budget can only be
    completed by zeros, so it is counted at once and stops growing.
    """
    out = [0] * (budget + 1)
    partials = {(): {0: 1}}
    for _, spec in _runs(cells, zero, budget):
        grown: dict = {}
        for prev, by_spent in partials.items():
            out[budget] += by_spent.pop(budget, 0)
            if not by_spent:
                continue
            for costs, c in _run_fillings(spec, prev, budget - min(by_spent)):
                tally = grown.setdefault(costs, {})
                for spent, n in by_spent.items():
                    if spent + c <= budget:
                        tally[spent + c] = tally.get(spent + c, 0) + n
        partials = grown
    for by_spent in partials.values():
        for spent, n in by_spent.items():
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


def _family(kind: str, legs, budget: int):
    """(cells, zero, constructor) of a family whose members cost at most
    `budget` over their level: the table `_fill` enumerates from and
    `_count` counts from.

    zero is the family's zero member, whose values (0, the two-leg floor or
    ceiling; WALL off its domain) give each cell's level and whose row
    (k, sign) of FILLINGS names the two cells that bound it. `cells` is a
    band, in row order, holding every cell that can be nonzero, and `_runs`
    keeps those its cone rule lets be.

    The band is grown from that rule. Call a cell of the level a corner when
    no bounding neighbour is tied to it (at slack 0). A kept cell x with a
    tied neighbour n needs n kept, and cone(n) lies in cone(x) without x.
    So, by induction on |cone|, a kept cell is a corner or one step past a
    kept cell of smaller cone: it lies at most |cone| - 1 <= budget - 1
    steps from a corner c, each away from the cells that bound it, at
    c + k * (a, b) with a + b < budget. Any superset of the corners serves, since `_runs`
    drops every extra cell, those off the domain included:

    - plane and one-leg SPP: the outer corners of lam, whose bounding
      neighbours both lie on lam or off the quadrant ((1, 1) for a plane
      partition);
    - one-leg RPP: the removable corners of lam, past both of whose
      bounding neighbours lam ends;
    - two-leg SPP: (i, j) with i = 1 or mu_(i-1) > mu_i, and j = 1 or
      lam_(j-1) > lam_j, the rows of each leg's outer corners: elsewhere
      the floor max(lam_j, mu_i) keeps its value from a bounding neighbour;
    - two-leg RPP: (i, j) with i = 0 or mu_i > mu_(i+1), and j = 0 or
      lam_j > lam_(j+1), the rows of each leg's removable corners:
      elsewhere the ceiling min(lam_j, mu_i), read as lam_j in rows <= 0
      and as mu_i in columns <= 0, keeps its value at a bounding neighbour.
    """
    _refuse_past_cap(kind, budget)
    if kind in ("plane", "one-leg-spp", "one-leg-rpp"):
        lam = () if kind == "plane" else as_partition(legs)
        if kind == "one-leg-rpp":
            corners, make = removable_corners(lam), partial(OneLegRPP, lam)
        else:
            # a plane partition is the one-leg SPP on the empty shape
            corners = outer_corners(lam)
            make = (PlanePartition if kind == "plane"
                    else partial(OneLegSPP, lam))
    else:
        lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
        if kind == "two-leg-spp":
            rows, cols = outer_corners(mu), outer_corners(lam)
            make = partial(TwoLegSPP, (lam, mu))
        else:
            rows = [(0, 0)] + removable_corners(mu)
            cols = [(0, 0)] + removable_corners(lam)
            make = partial(TwoLegRPP, (lam, mu))
        corners = [(i, j) for i, _ in rows for j, _ in cols]
    zero = make()
    k = FILLINGS[type(zero)][0]
    cells = sorted({(i + k * a, j + k * b) for i, j in corners
                    for a in range(budget) for b in range(budget - a)},
                   reverse=k < 0)
    return cells, zero, make


def _refuse_past_cap(kind: str, budget: int) -> None:
    """Raise DomainError for an unknown family, or for a cost budget past
    its family's cap, MAX_ONE_LEG_WEIGHT or MAX_TWO_LEG_EXCESS."""
    if kind in ("plane", "one-leg-spp", "one-leg-rpp"):
        if budget > MAX_ONE_LEG_WEIGHT:
            what = "plane-partition" if kind == "plane" else "one-leg"
            raise DomainError(f"{what} enumeration capped at weight "
                              f"{MAX_ONE_LEG_WEIGHT}")
    elif kind in ("two-leg-spp", "two-leg-rpp"):
        if budget > MAX_TWO_LEG_EXCESS:
            what = "excess" if kind == "two-leg-spp" else "deficit"
            raise DomainError(f"two-leg enumeration capped at {what} "
                              f"{MAX_TWO_LEG_EXCESS}")
    else:
        raise DomainError(f"unknown family {kind!r}")


def enum_plane_partitions(max_weight: int) -> list[PlanePartition]:
    """All plane partitions of weight <= max_weight."""
    return enum_configs("plane", None, max_weight)


def enum_one_leg_spp(lam: Partition, max_weight: int) -> list[OneLegSPP]:
    """All decreasing fillings outside lam with weight <= max_weight."""
    return enum_configs("one-leg-spp", lam, max_weight)


def enum_one_leg_rpp(lam: Partition, max_weight: int) -> list[OneLegRPP]:
    """All increasing fillings of lam with weight <= max_weight."""
    return enum_configs("one-leg-rpp", lam, max_weight)


def enum_two_leg_spp(legs, max_excess: int) -> list[TwoLegSPP]:
    """All two-leg SPPs with excess sum <= max_excess: the excess is the cost
    over the floor."""
    return enum_configs("two-leg-spp", legs, max_excess)


def enum_two_leg_rpp(legs, max_deficit: int) -> list[TwoLegRPP]:
    """All two-leg RPPs with deficit sum <= max_deficit: the deficit is the
    cost over the negated ceiling, so values fall down and right."""
    return enum_configs("two-leg-rpp", legs, max_deficit)


def enum_configs(kind: str, legs, max_weight) -> list:
    """Complete list of configurations of a family, by weight/excess bound."""
    budget = int(max_weight)
    cells, zero, make = _family(kind, legs, budget)
    return _fill(cells, zero, budget, make)


class WeightCensus(Record):
    """Counts of a family's members by weight, complete up to the bound.

    The counts come from `_count`, row by row, without building a member;
    `weighed_members` lists the members themselves.
    """

    _fields = ("family", "legs", "counts", "bound")

    def __init__(self, family: str, legs: tuple, counts: dict[HalfInt, int],
                 bound: HalfInt):
        self.family = family
        self.legs = legs
        self.counts = counts
        self.bound = bound

    @staticmethod
    def take(kind: str, legs, bound) -> "WeightCensus":
        bound = HalfInt.of(bound)
        base = _base_weight(kind, legs)
        budget = _budget(base, bound)
        cells, zero, _ = _family(kind, legs, budget)
        counts = {base + k: n
                  for k, n in enumerate(_count(cells, zero, budget))
                  if n and base + k <= bound}
        return WeightCensus(kind, legs, counts, bound)


def weighed_members(kind: str, legs, bound) -> list[tuple[HalfInt, object]]:
    """(weight, configuration) for each member of a family with weight <=
    bound, in enumeration order."""
    bound = HalfInt.of(bound)
    members = enum_configs(kind, legs, cost_budget(kind, legs, bound))
    weighed = ((cfg_weight(cfg), cfg) for cfg in members)
    return [(w, cfg) for w, cfg in weighed if w <= bound]


def cost_budget(kind: str, legs, bound) -> int:
    """The largest cost over the level that a member of the family with
    weight <= bound can have. A budget past the family's cap raises
    DomainError, as its enumeration and census would."""
    budget = _budget(_base_weight(kind, legs), HalfInt.of(bound))
    _refuse_past_cap(kind, budget)
    return budget


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
