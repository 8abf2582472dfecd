"""Finite-support representations of plane-partition-like objects.

Infinite pictures are never materialised: two-leg objects store only the
excess over (or deficit under) the leg-determined floor/ceiling, and every
read goes through the reconstruction formula. Diagonals are indexed by
n = col - row, so far-positive diagonals of a two-leg object equal the row
leg mu, far-negative ones the column leg lam. A filling's `at` reads WALL
off its domain, and FILLINGS gives its order: nothing else states either.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, zip_longest

from .errors import DomainError, FrozenRecord, InvariantError, set_field
from .halfint import HalfInt
from .partitions import (Cell, Partition, as_partition, contains, hook_length,
                         part, rows_past)

WALL = 1 << 60  # the value read off a filling's domain: it caps nothing


def two_leg_floor(legs, i: int, j: int) -> int:
    """The SPP floor max(lam_j, mu_i): lam indexes columns, mu rows."""
    lam, mu = legs
    return max(part(lam, j), part(mu, i))


def two_leg_ceiling(legs, i: int, j: int) -> int | None:
    """The RPP ceiling min(lam_j, mu_i), where a leg index <= 0 leaves that
    leg unbounded; None (no ceiling) where both indices are <= 0."""
    lam, mu = legs
    if j < 1:
        return part(mu, i) if i >= 1 else None
    if i < 1:
        return part(lam, j)
    return min(part(lam, j), part(mu, i))


def _check_support(entries: dict, what: str):
    for (i, j), v in entries.items():
        if not (isinstance(v, int) and v > 0):
            raise DomainError(f"{what} values must be positive ints: {(i, j)}: {v}")


def _normalise(cfg, name: str):
    """Store cfg's shape, or each of its legs, as a partition tuple, so that
    equal objects compare equal and read the same shape tables. A value
    that already is one is kept, so objects built on one shape share it."""
    value = getattr(cfg, name)
    if name == "legs":
        lam, mu = value
        normal = (as_partition(lam), as_partition(mu))
    else:
        normal = as_partition(value)
    if normal != value:
        object.__setattr__(cfg, name, normal)


def bounding_cells(k: int, cell: Cell) -> tuple[Cell, Cell]:
    """The two neighbours that bound cell in a filling of order k: the cells
    above and to its left (k = 1), or below and to its right (k = -1)."""
    i, j = cell
    return ((i - k, j), (i, j - k))


def _check_order(cfg, cells):
    """Reject a cell off cfg's domain (cfg.at reads WALL there), or one out
    of order with a bounding neighbour (see FILLINGS). The zero filling is
    in order, so a cell off the support, on its level, is in order with
    neighbours on or past theirs: checking the support suffices."""
    k, sign, _ = FILLINGS[type(cfg)]
    at = cfg.at
    # the two bounding_cells, written inline: every object built runs this
    for (i, j) in cells:
        v = at(i, j)
        if v == WALL:
            raise DomainError(f"cell off the domain: {(i, j)}")
        if sign * v > sign * at(i - k, j) or sign * v > sign * at(i, j - k):
            raise DomainError(f"cell out of order: {(i, j)}")


def _init_legged(cfg, key, support, what: str):
    """The body of a legged filling's `__init__`: its class's `_fields` name
    the shape or legs, set to key and stored as partitions, and the support,
    checked to hold positive values (`what` names them) in order."""
    name, stored = cfg._fields
    support = {} if support is None else support
    set_field(cfg, name, key)
    set_field(cfg, stored, support)
    _normalise(cfg, name)
    _check_support(support, what)
    _check_order(cfg, support)


class PlanePartition(FrozenRecord):
    """Finite-support filling of the quadrant, weakly decreasing both ways."""

    _fields = ("entries",)

    def __init__(self, entries: dict[Cell, int] | None = None):
        set_field(self, "entries", {} if entries is None else entries)
        _check_support(self.entries, "plane partition")
        _check_order(self, self.entries)

    @staticmethod
    def from_rows(rows) -> "PlanePartition":
        entries = {(i, j): v
                   for i, row in enumerate(rows, start=1)
                   for j, v in enumerate(row, start=1) if v}
        return PlanePartition(entries)

    def at(self, i: int, j: int) -> int:
        if i < 1 or j < 1:
            return WALL
        return self.entries.get((i, j), 0)

    def rows(self) -> list[list[int]]:
        """The entries row by row; the support is an order ideal, so each
        row up to the last holds a nonzero entry."""
        widths: dict[int, int] = {}
        for i, j in self.entries:
            if j > widths.get(i, 0):
                widths[i] = j
        return [[self.at(i, j) for j in range(1, widths[i] + 1)]
                for i in range(1, len(widths) + 1)]


class OneLegSPP(FrozenRecord):
    """Decreasing filling of the region outside `shape`, finitely supported."""

    _fields = ("shape", "entries")

    def __init__(self, shape: Partition, entries: dict[Cell, int] | None = None):
        _init_legged(self, shape, entries, "skew plane partition")

    def at(self, i: int, j: int) -> int:
        """The entry at (i, j); WALL on the shape and off the quadrant."""
        if i < 1 or j < 1 or j <= part(self.shape, i):
            return WALL
        return self.entries.get((i, j), 0)


class OneLegRPP(FrozenRecord):
    """Increasing filling of the boxes of `shape` (zero entries omitted)."""

    _fields = ("shape", "entries")

    def __init__(self, shape: Partition, entries: dict[Cell, int] | None = None):
        _init_legged(self, shape, entries, "reverse plane partition")

    def at(self, i: int, j: int) -> int:
        """The entry at (i, j); WALL off the shape's boxes."""
        if not 1 <= j <= part(self.shape, i):
            return WALL
        return self.entries.get((i, j), 0)


class TwoLegSPP(FrozenRecord):
    """Filling sitting on the two-leg floor max(lam_col, mu_row).

    Only the excess over the floor is stored, on cells of the quadrant; the
    reconstructed values must still decrease along rows and columns.
    """

    _fields = ("legs", "excess")

    def __init__(self, legs: tuple[Partition, Partition],
                 excess: dict[Cell, int] | None = None):
        _init_legged(self, legs, excess, "excess")  # lam: columns, mu: rows

    def at(self, i: int, j: int) -> int:
        if i < 1 or j < 1:
            return WALL
        return two_leg_floor(self.legs, i, j) + self.excess.get((i, j), 0)

    def excess_weight(self) -> int:
        return sum(self.excess.values())


class TwoLegRPP(FrozenRecord):
    """Filling under the two-leg ceiling min(lam_col, mu_row).

    Lives on cells with row >= 1 or col >= 1; indices <= 0 read the other
    leg's ceiling as unbounded. Only the deficit below the ceiling is stored.
    A deficit past its ceiling is refused as out of order: the negative
    value it leaves lies under a neighbour's, there or further down-right.
    """

    _fields = ("legs", "deficit")

    def __init__(self, legs: tuple[Partition, Partition],
                 deficit: dict[Cell, int] | None = None):
        _init_legged(self, legs, deficit, "deficit")

    def at(self, i: int, j: int) -> int:
        c = two_leg_ceiling(self.legs, i, j)
        if c is None:
            return WALL
        return c - self.deficit.get((i, j), 0)

    def deficit_weight(self) -> int:
        return sum(self.deficit.values())


class HookTableau(FrozenRecord):
    """Unconstrained filling weighted by hook length.

    region is "plane" (hooks of the quadrant, which has no shape), "inside"
    (hooks of shape), or "outside" (hooks of the quadrant minus shape).
    """

    _fields = ("region", "shape", "values")

    def __init__(self, region: str, shape: Partition = (),
                 values: dict[Cell, int] | None = None):
        set_field(self, "region", region)
        set_field(self, "shape", shape)
        set_field(self, "values", {} if values is None else values)
        if self.region not in ("plane", "inside", "outside"):
            raise DomainError(f"unknown tableau region {self.region!r}")
        _normalise(self, "shape")
        if self.region == "plane" and self.shape:
            raise DomainError(f"a plane tableau has no shape: {self.shape}")
        _check_support(self.values, "tableau")
        # a cell's side of the shape is read off its row's length alone;
        # only a cell on the wrong side asks for its hook, which raises
        inside, shape = self.region == "inside", self.shape
        for cell in self.values:
            if contains(shape, cell) is not inside:
                self.cell_hook(cell)

    def cell_hook(self, cell: Cell) -> int:
        return hook_length(self.shape, cell,
                           "inside" if self.region == "inside" else "outside")

    def hook_weight(self) -> int:
        return sum(v * self.cell_hook(c) for c, v in self.values.items())

    def at(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)


# Each filling's order, (k, sign, stored): sign * at(cell) may not exceed
# sign * at(n) for the two bounding_cells(k, cell) n, above and to the left
# (k = 1) or below and to the right (k = -1); `stored` names the field that
# holds the support, which moves each value off the zero filling's by
# sign. Every filling reads WALL off its domain, and its zero filling is its
# level: 0, the two-leg floor or the two-leg ceiling.
FILLINGS = {PlanePartition: (1, 1, "entries"),
            OneLegSPP: (1, 1, "entries"),
            OneLegRPP: (-1, 1, "entries"),
            TwoLegSPP: (1, 1, "excess"),
            TwoLegRPP: (-1, -1, "deficit")}


# ---------------------------------------------------------------------------
# the diagonal codec: every filling as its chain of diagonals d = col - row

def _layout(cls, key):
    """Where a cls filling with shape or legs `key` puts its diagonals:
    first(d), entry k of diagonal d, counted from 0, sitting in row
    first(d) + k. Every filling reads down-right: a decreasing one from d's
    first cell in the quadrant past the shape, a two-leg RPP from column 1
    (d >= 0) or row 1 (d < 0). A one-leg RPP has no reading; the bijections
    turn it into a one-leg SPP instead."""
    if cls is TwoLegRPP:
        return lambda d: 1 - d if d > 0 else 1
    if cls is PlanePartition or cls is TwoLegSPP:
        return lambda d: 1 - d if d < 0 else 1
    if cls is not OneLegSPP:
        raise DomainError(f"no diagonal reading for {cls.__name__}")
    # one row past the shape's last box on d: the rows meeting d at or past
    # its end, lam_i - i >= d, come first, and d starts in row max(1, 1 - d)
    return lambda d: max(1 - d, 1 + rows_past(key, d - 1))


def _level_diagonals(cls, legs, ds) -> dict[int, Partition]:
    """The diagonals ds of the zero filling cls(legs) as {d: partition},
    picked out of the window min(ds)..max(ds). Every ds the package passes
    is such a window already: range(-w, w + 1), a grid's keys or (n,)."""
    if not ds:
        return {}
    legs = (as_partition(legs[0]), as_partition(legs[1]))  # memo keys
    first = min(ds)
    window = _level_window(cls, legs, first, max(ds))
    return {d: window[d - first] for d in ds}


@lru_cache(maxsize=1 << 10)
def _level_window(cls, legs, first: int, last: int
                  ) -> tuple[Partition, ...]:
    """Level diagonals first..last of cls(legs), read off one zero filling.
    Memoised because every filling on the same legs, popped or pushed in
    the same window, reads the same level diagonals."""
    level, start = cls(legs).at, _layout(cls, legs)
    return tuple(_level_diagonal(level, start(d), d)
                 for d in range(first, last + 1))


def _level_diagonal(level, i: int, d: int) -> Partition:
    """Diagonal d of a zero filling whose `at` is level: its values, the
    cell levels, read from d's first cell, in row i as _layout places it,
    up to the first 0. The level decreases along the reading and is 0 once
    the leg indices it reads pass the legs' lengths, so the walk stops
    within max(len(lam), len(mu)) cells, whatever the size of the parts."""
    run = []
    while v := level(i, i + d):
        run.append(v)
        i += 1
    return tuple(run)


def diagonals(cfg, ds) -> dict[int, Partition]:
    """The diagonals ds of cfg as {d: partition}, read as _layout places
    them, in one pass over the support. A two-leg diagonal is its floor plus
    the excess or its ceiling less the deficit; the filling decreases along
    the reading, so its trailing zeros are all its zeros."""
    cls = type(cfg)
    if cls is TwoLegSPP or cls is TwoLegRPP:
        _, sign, stored = FILLINGS[cls]
        first = _layout(cls, cfg.legs)
        vals = {d: list(nu)
                for d, nu in _level_diagonals(cls, cfg.legs, ds).items()}
        for (i, j), v in getattr(cfg, stored).items():
            got = vals.get(j - i)
            if got is not None:
                k = i - first(j - i)
                got += [0] * (k + 1 - len(got))
                got[k] += sign * v
        return {d: as_partition(got) for d, got in vals.items()}
    if cls in (PlanePartition, OneLegSPP):
        # the support is an order ideal of the region, so sorted cells run
        # along each diagonal from its first entry without a gap
        out = dict.fromkeys(ds, ())
        for (i, j), v in sorted(cfg.entries.items()):
            if j - i in out:
                out[j - i] += (v,)
        return out
    raise DomainError(f"no diagonal reading for {cls.__name__}")


def from_diagonals(cls, key, diags: dict[int, Partition]):
    """Inverse of diagonals: the cls filling with shape or legs `key` (() for
    a plane partition) whose diagonals are diags. A two-leg diagonal not in
    diags sits on its level; one that crosses its floor or ceiling raises
    InvariantError."""
    first = _layout(cls, key)
    cells = {}
    if cls is TwoLegSPP or cls is TwoLegRPP:
        sign = FILLINGS[cls][1]
        levels = _level_diagonals(cls, key, diags)
        for d, nu in diags.items():
            base = levels[d]
            if nu == base:
                continue
            for i, (v, f) in enumerate(zip_longest(nu, base, fillvalue=0),
                                       start=first(d)):
                if v != f:
                    if sign * (v - f) < 0:
                        raise InvariantError(
                            "diagonal crosses its floor or ceiling",
                            (key, (i, i + d)))
                    cells[(i, i + d)] = sign * (v - f)
        return cls(key, cells)
    for d, nu in diags.items():
        if nu:
            for i, v in enumerate(nu, start=first(d)):
                cells[(i, i + d)] = v
    return cls(cells) if cls is PlanePartition else cls(key, cells)


def diagonal(cfg, n: int) -> Partition:
    """Entries along offset n = col - row, read as a partition by
    diagonals."""
    return diagonals(cfg, (n,))[n]


def minimal_weight(kind: str, legs) -> HalfInt:
    """Weight of the zero-excess (zero-deficit) configuration on legs
    (lam, mu), the same for both kinds:

        n(lam) + n(mu) + (|lam| + |mu|)/2 - sum_{i,j} min(lam_i, mu_j),

    where n(lam) = sum (i - 1) lam_i. The min-sum bisects mu's rising parts
    once per part of lam, so the cost follows the legs' lengths.

    The weight telescopes the operator weights over the level diagonals:
    the step between diagonals n and n+1 costs (2n+1)/2 per unit of size
    difference, outward from the centre on both sides, with the sign -1
    for an RPP. Let s_d be the size of level diagonal d and R =
    max(len(lam), len(mu)) + 1; s_R and s_-R are the legs, so summation by
    parts turns the doubled telescope into
    2 sum_{|d|<R} s_d - (2R - 1)(|lam| + |mu|). For the SPP, the floor on
    the quadrant is lam_j + mu_i - min(lam_j, mu_i), and column
    j <= len(lam) meets the diagonals |d| < R in j + R - 1 cells (row i
    likewise). For the RPP, the ceiling is min(lam_j, mu_i) on the
    quadrant, plus lam_j on the R - j cells of column j in rows <= 0 and
    mu_i on the R - i cells of row i in columns <= 0, read with the sign
    -1. Both give the value above.
    """
    if kind not in ("spp", "rpp"):
        raise DomainError(f"kind must be 'spp' or 'rpp': {kind!r}")
    lam, mu = as_partition(legs[0]), as_partition(legs[1])
    rising = mu[::-1]
    below = (0, *accumulate(rising))  # below[k]: sum of mu's k smallest parts
    meets = 0
    for a in lam:
        k = bisect_left(rising, a)
        meets += below[k] + a * (len(mu) - k)
    doubled = sum((2 * i - 1) * p for leg in (lam, mu)
                  for i, p in enumerate(leg, start=1))
    return HalfInt(doubled - 2 * meets)


def cfg_weight(cfg) -> HalfInt:
    """The weight marked by q in the matching generating function."""
    if isinstance(cfg, (PlanePartition, OneLegSPP, OneLegRPP)):
        return HalfInt.of(sum(cfg.entries.values()))
    if isinstance(cfg, TwoLegSPP):
        return minimal_weight("spp", cfg.legs) + cfg.excess_weight()
    if isinstance(cfg, TwoLegRPP):
        return minimal_weight("rpp", cfg.legs) + cfg.deficit_weight()
    if isinstance(cfg, HookTableau):
        return HalfInt.of(cfg.hook_weight())
    raise DomainError(f"no weight for {type(cfg).__name__}")
