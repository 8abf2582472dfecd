"""Finite-support representations of plane-partition-like objects.

Infinite pictures are never materialised: two-leg objects store only the
excess over (or deficit under) the leg-determined floor/ceiling, and every
read goes through the reconstruction formula. Diagonals are indexed by
n = col - row, so far-positive diagonals of a two-leg object equal the row
leg mu, far-negative ones the column leg lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

from .errors import DomainError, InvariantError
from .halfint import HalfInt
from .partitions import (Cell, Partition, as_partition, contains,
                         hook_length, part)


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


def two_leg_floor_diagonal(legs, d: int) -> Partition:
    """two_leg_floor along diagonal d = col - row, laid out as _layout
    places a two-leg SPP: entry k is max(lam_{k+d}, mu_k) for d >= 0 and
    max(lam_k, mu_{k-d}) for d < 0."""
    lam, mu = legs
    a, b = (mu, lam[d:]) if d >= 0 else (lam, mu[-d:])
    return tuple(x if x > y else y
                 for x, y in zip_longest(a, b, fillvalue=0))


def two_leg_ceiling_diagonal(legs, d: int) -> Partition:
    """The nonzero run of two_leg_ceiling along diagonal d, laid out as
    _layout places a two-leg RPP: for d >= 0 entry k is lam_k while its row
    index is <= 0 and min(lam_k, mu_{k-d}) after, and for d < 0 the same
    with lam and mu swapped and -d for d."""
    lam, mu = legs
    a, b, s = (lam, mu, d) if d >= 0 else (mu, lam, -d)
    return (*a[:s], *(x if x < y else y for x, y in zip(a[s:], b)))


def leg_reach(legs) -> int:
    """max(len(lam), len(mu), lam_1, mu_1): the legs' extent, from which
    every two-leg window is sized."""
    lam, mu = legs
    return max(len(lam), len(mu), part(lam, 1), part(mu, 1))


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


def _check_decreasing(cfg, cells):
    """Reject cells off the quadrant, and cells whose value exceeds the one
    above or to the left (cfg.at reads a wall off the quadrant)."""
    for (i, j) in cells:
        if i < 1 or j < 1:
            raise DomainError(f"cell off the quadrant: {(i, j)}")
        if cfg.at(i, j) > min(cfg.at(i - 1, j), cfg.at(i, j - 1)):
            raise DomainError(f"rows/columns must weakly decrease at {(i, j)}")


@dataclass(frozen=True)
class PlanePartition:
    """Finite-support filling of the quadrant, weakly decreasing both ways."""

    entries: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_support(self.entries, "plane partition")
        _check_decreasing(self, self.entries)

    @staticmethod
    def from_rows(rows) -> "PlanePartition":
        entries = {(i, j): v
                   for i, row in enumerate(rows, start=1)
                   for j, v in enumerate(row, start=1) if v}
        return PlanePartition(entries)

    def at(self, i: int, j: int) -> int:
        if i < 1 or j < 1:
            return 1 << 60  # virtual wall, simplifies monotonicity checks
        return self.entries.get((i, j), 0)

    def rows(self) -> list[list[int]]:
        if not self.entries:
            return []
        depth = max(i for i, _ in self.entries)
        return [[self.at(i, j) for j in range(1, part_width(self, i) + 1)]
                for i in range(1, depth + 1)]


def part_width(pp: PlanePartition, i: int) -> int:
    cols = [j for (r, j) in pp.entries if r == i]
    return max(cols) if cols else 0


@dataclass(frozen=True)
class OneLegSPP:
    """Decreasing filling of the region outside `shape`, finitely supported."""

    shape: Partition
    entries: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _normalise(self, "shape")
        _check_support(self.entries, "skew plane partition")
        for (i, j) in self.entries:
            if contains(self.shape, (i, j)):
                raise DomainError(f"support must avoid the shape: {(i, j)}")
            for (pi, pj) in ((i - 1, j), (i, j - 1)):
                if pi >= 1 and pj >= 1 and not contains(self.shape, (pi, pj)):
                    if self.at(pi, pj) < self.at(i, j):
                        raise DomainError(
                            f"rows/columns must weakly decrease at {(i, j)}")

    def at(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)


@dataclass(frozen=True)
class OneLegRPP:
    """Increasing filling of the boxes of `shape` (zero entries omitted)."""

    shape: Partition
    entries: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _normalise(self, "shape")
        _check_support(self.entries, "reverse plane partition")
        for (i, j) in self.entries:
            if not contains(self.shape, (i, j)):
                raise DomainError(f"support must lie in the shape: {(i, j)}")
        for (i, j) in list(self.entries):
            for (ni, nj) in ((i + 1, j), (i, j + 1)):
                if contains(self.shape, (ni, nj)) and self.at(ni, nj) < self.at(i, j):
                    raise DomainError(f"rows/columns must weakly increase at {(i, j)}")

    def at(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)


@dataclass(frozen=True)
class TwoLegSPP:
    """Filling sitting on the two-leg floor max(lam_col, mu_row).

    Only the excess over the floor is stored, on cells of the quadrant; the
    reconstructed values must still decrease along rows and columns. The
    floor decreases, so a cell exceeding its upper or left neighbour has
    more excess than that neighbour: checking the support suffices.
    """

    legs: tuple[Partition, Partition]  # (lam indexes columns, mu indexes rows)
    excess: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _normalise(self, "legs")
        _check_support(self.excess, "excess")
        _check_decreasing(self, self.excess)

    def at(self, i: int, j: int) -> int:
        if i < 1 or j < 1:
            return 1 << 60
        return two_leg_floor(self.legs, i, j) + self.excess.get((i, j), 0)

    def excess_weight(self) -> int:
        return sum(self.excess.values())


@dataclass(frozen=True)
class TwoLegRPP:
    """Filling under the two-leg ceiling min(lam_col, mu_row).

    Lives on cells with row >= 1 or col >= 1; indices <= 0 read the other
    leg's ceiling as unbounded. Only the deficit below the ceiling is stored.
    The ceiling decreases, so a cell below its lower or right neighbour has
    more deficit than that neighbour: checking the support suffices.
    """

    legs: tuple[Partition, Partition]
    deficit: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _normalise(self, "legs")
        _check_support(self.deficit, "deficit")
        for (i, j) in self.deficit:
            if i < 1 and j < 1:
                raise DomainError(f"cell outside the bent domain: {(i, j)}")
            v = self.at(i, j)
            if v < 0:
                raise DomainError(f"deficit exceeds the ceiling at {(i, j)}")
            if v < max(self.at(i + 1, j), self.at(i, j + 1)):
                raise DomainError(f"rows/columns must weakly decrease at {(i, j)}")

    def at(self, i: int, j: int) -> int:
        c = two_leg_ceiling(self.legs, i, j)
        if c is None:
            return 1 << 60
        return c - self.deficit.get((i, j), 0)

    def deficit_weight(self) -> int:
        return sum(self.deficit.values())


@dataclass(frozen=True)
class HookTableau:
    """Unconstrained filling weighted by hook length.

    region is "plane" (hooks of the quadrant, which has no shape), "inside"
    (hooks of shape), or "outside" (hooks of the quadrant minus shape).
    """

    region: str
    shape: Partition = ()
    values: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.region not in ("plane", "inside", "outside"):
            raise DomainError(f"unknown tableau region {self.region!r}")
        _normalise(self, "shape")
        if self.region == "plane" and self.shape:
            raise DomainError(f"a plane tableau has no shape: {self.shape}")
        _check_support(self.values, "tableau")
        for cell in self.values:
            self.cell_hook(cell)  # raises if the cell is off-region

    def cell_hook(self, cell: Cell) -> int:
        return hook_length(self.shape, cell,
                           "inside" if self.region == "inside" else "outside")

    def hook_weight(self) -> int:
        return sum(v * self.cell_hook(c) for c, v in self.values.items())

    def at(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)


Configuration = (PlanePartition | OneLegSPP | OneLegRPP | TwoLegSPP
                 | TwoLegRPP | HookTableau)


# ---------------------------------------------------------------------------
# the diagonal codec: every filling as its chain of diagonals d = col - row

# two-leg fillings: the level each diagonal sits on, the stored field that
# moves it, and the sign it moves it by
_LEVELS = {TwoLegSPP: (two_leg_floor_diagonal, "excess", 1),
           TwoLegRPP: (two_leg_ceiling_diagonal, "deficit", -1)}


def _layout(cls, key):
    """Where a cls filling with shape or legs `key` puts its diagonals:
    (first, step), entry k of diagonal d, counted from 0, sitting in row
    first(d) + step * k. Decreasing fillings read down-right from d's first
    cell in the quadrant past the shape, a one-leg RPP up-left from the
    shape's last box on d, and a two-leg RPP down-right from column 1
    (d >= 0) or row 1 (d < 0)."""
    if cls is TwoLegRPP:
        return (lambda d: 1 - d if d > 0 else 1), 1
    if cls is PlanePartition or cls is TwoLegSPP:
        return (lambda d: 1 - d if d < 0 else 1), 1
    # one row past the shape's last box on each diagonal it meets; the shape
    # is an order ideal, so its boxes on d run from d's first cell
    past = {j - i: i + 1 for i, p in enumerate(key, start=1)
            for j in range(1, p + 1)}
    if cls is OneLegRPP:
        return (lambda d: past.get(d, 1) - 1), -1
    return (lambda d: past.get(d, 1 - d if d < 0 else 1)), 1


def diagonals(cfg, ds) -> dict[int, Partition]:
    """The diagonals ds of cfg as {d: partition}, read as _layout places
    them, in one pass over the support. A two-leg diagonal is its floor plus
    the excess or its ceiling less the deficit; the filling decreases along
    the reading, so its trailing zeros are all its zeros."""
    cls = type(cfg)
    if cls in _LEVELS:
        level, stored, sign = _LEVELS[cls]
        first, _ = _layout(cls, cfg.legs)
        vals = {d: list(level(cfg.legs, d)) for d in ds}
        for (i, j), v in getattr(cfg, stored).items():
            got = vals.get(j - i)
            if got is not None:
                k = i - first(j - i)
                got += [0] * (k + 1 - len(got))
                got[k] += sign * v
        return {d: as_partition(got) for d, got in vals.items()}
    if cls in (PlanePartition, OneLegSPP, OneLegRPP):
        # the support is an order ideal of the region, so sorted cells run
        # along each diagonal from its first entry without a gap
        out = dict.fromkeys(ds, ())
        for (i, j), v in sorted(cfg.entries.items(),
                                reverse=cls is OneLegRPP):
            if j - i in out:
                out[j - i] += (v,)
        return out
    raise DomainError(f"no diagonal reading for {cls.__name__}")


def from_diagonals(cls, key, diags: dict[int, Partition]):
    """Inverse of diagonals: the cls filling with shape or legs `key` (() for
    a plane partition) whose diagonals are diags. A two-leg diagonal not in
    diags sits on its level; one that crosses its floor or ceiling raises
    InvariantError."""
    first, step = _layout(cls, key)
    cells = {}
    if cls in _LEVELS:
        level, _, sign = _LEVELS[cls]
        for d, nu in diags.items():
            base = level(key, d)
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
            i = first(d)
            for r, v in zip(range(i, i + step * len(nu), step), nu):
                cells[(r, r + d)] = v
    return cls(cells) if cls is PlanePartition else cls(key, cells)


def diagonal(cfg, n: int) -> Partition:
    """Entries along offset n = col - row, read as a partition by
    diagonals."""
    return diagonals(cfg, (n,))[n]


def minimal_weight(kind: str, legs) -> HalfInt:
    """Weight of the zero-excess (zero-deficit) configuration.

    Telescopes the operator weights over the stabilised diagonals: the step
    between consecutive diagonals n and n+1 costs (2n+1)/2 per unit of size
    difference, outward from the centre on both sides. The value depends
    only on (kind, legs), so it is memoised on the normalised legs.
    """
    lam, mu = legs
    return _minimal_weight(kind, (as_partition(lam), as_partition(mu)))


@lru_cache(maxsize=1 << 10)
def _minimal_weight(kind: str, legs: tuple[Partition, Partition]) -> HalfInt:
    if kind not in ("spp", "rpp"):
        raise DomainError(f"kind must be 'spp' or 'rpp': {kind!r}")
    level, _, sign = _LEVELS[TwoLegSPP if kind == "spp" else TwoLegRPP]
    reach = leg_reach(legs) + 2
    size = {d: sum(level(legs, d)) for d in range(-reach, reach + 1)}
    doubled = 0
    for n in range(reach):
        doubled += (2 * n + 1) * (size[n] - size[n + 1])
        doubled += (2 * n + 1) * (size[-n] - size[-n - 1])
    return HalfInt(sign * doubled)


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


def minimal_config(kind: str, legs) -> tuple[Configuration, HalfInt]:
    """The zero-excess/deficit configuration and the minimal exponent of the
    matching vertex-operator series (computed from the series itself)."""
    from . import series  # local import: series imports this module

    legs = (as_partition(legs[0]), as_partition(legs[1]))
    cfg = TwoLegSPP(legs) if kind == "spp" else TwoLegRPP(legs)
    low = series.minimal_exponent(kind, legs)
    return cfg, low

