"""Finite-support representations of plane-partition-like objects.

Infinite pictures are never materialised: two-leg objects store only the
excess over (or deficit under) the leg-determined floor/ceiling, and every
read goes through the reconstruction formula. Diagonals are indexed by
n = col - row, so far-positive diagonals of a two-leg object equal the row
leg mu, far-negative ones the column leg lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import DomainError
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


def leg_reach(legs) -> int:
    """max(len(lam), len(mu), lam_1, mu_1): the legs' extent, from which
    every two-leg window is sized."""
    lam, mu = legs
    return max(len(lam), len(mu), part(lam, 1), part(mu, 1))


def _check_support(entries: dict, what: str):
    for (i, j), v in entries.items():
        if not (isinstance(v, int) and v > 0):
            raise DomainError(f"{what} values must be positive ints: {(i, j)}: {v}")


@dataclass(frozen=True)
class PlanePartition:
    """Finite-support filling of the quadrant, weakly decreasing both ways."""

    entries: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_support(self.entries, "plane partition")
        for (i, j) in self.entries:
            if i < 1 or j < 1:
                raise DomainError(f"cell off the quadrant: {(i, j)}")
            if self.at(i, j) > min(self.at(i - 1, j), self.at(i, j - 1)):
                raise DomainError(f"rows/columns must weakly decrease at {(i, j)}")

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

    Only the excess over the floor is stored; the reconstructed values must
    still decrease along rows and columns.
    """

    legs: tuple[Partition, Partition]  # (lam indexes columns, mu indexes rows)
    excess: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_support(self.excess, "excess")
        span = 2 + max([leg_reach(self.legs)]
                       + [max(i, j) for (i, j) in self.excess])
        for i in range(1, span + 1):
            for j in range(1, span + 1):
                v = self.at(i, j)
                if i > 1 and self.at(i - 1, j) < v:
                    raise DomainError(f"column increases at {(i, j)}")
                if j > 1 and self.at(i, j - 1) < v:
                    raise DomainError(f"row increases at {(i, j)}")

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
    """

    legs: tuple[Partition, Partition]
    deficit: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        _check_support(self.deficit, "deficit")
        lam, mu = self.legs
        ext = max([0] + [abs(i) + abs(j) for (i, j) in self.deficit])
        span = 2 + ext + max(len(lam), len(mu), 1)
        for (i, j) in self.deficit:
            if i < 1 and j < 1:
                raise DomainError(f"cell outside the bent domain: {(i, j)}")
            if two_leg_ceiling(self.legs, i, j) is None:
                raise DomainError(f"no ceiling to remove from at {(i, j)}")
            if self.at(i, j) < 0:
                raise DomainError(f"deficit exceeds the ceiling at {(i, j)}")
        for i in range(-span, span + 1):
            for j in range(-span, span + 1):
                if i < 1 and j < 1:
                    continue
                v = self.at(i, j)
                for (ni, nj) in ((i + 1, j), (i, j + 1)):
                    if (ni >= 1 or nj >= 1) and self.at(ni, nj) > v:
                        raise DomainError(f"rows/columns must weakly decrease "
                                          f"at {(i, j)}")

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

    region is "plane" (hooks of the quadrant), "inside" (hooks of shape), or
    "outside" (hooks of the quadrant minus shape).
    """

    region: str
    shape: Partition = ()
    values: dict[Cell, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.region not in ("plane", "inside", "outside"):
            raise DomainError(f"unknown tableau region {self.region!r}")
        _check_support(self.values, "tableau")
        for cell in self.values:
            self.cell_hook(cell)  # raises if the cell is off-region

    def cell_hook(self, cell: Cell) -> int:
        if self.region == "plane":
            return hook_length((), cell, "outside")
        return hook_length(self.shape, cell,
                           "inside" if self.region == "inside" else "outside")

    def hook_weight(self) -> int:
        return sum(v * self.cell_hook(c) for c, v in self.values.items())

    def at(self, i: int, j: int) -> int:
        return self.values.get((i, j), 0)


Configuration = (PlanePartition | OneLegSPP | OneLegRPP | TwoLegSPP
                 | TwoLegRPP | HookTableau)


def diagonal(cfg, n: int) -> Partition:
    """Entries along offset n = col - row, read as a partition.

    Decreasing configurations are read top-left to bottom-right; reverse
    plane partitions are read the opposite way so the result is again weakly
    decreasing.
    """
    if isinstance(cfg, PlanePartition):
        vals = _ray(lambda i, j: cfg.at(i, j), n, start_above=False)
    elif isinstance(cfg, OneLegSPP):
        def val(i, j):
            return cfg.at(i, j) if not contains(cfg.shape, (i, j)) else None
        vals = _ray(val, n, start_above=False, skip_none=True)
    elif isinstance(cfg, OneLegRPP):
        cells = [(i, j) for (i, j) in _shape_diag(cfg.shape, n)]
        vals = [cfg.at(i, j) for (i, j) in reversed(cells)]
    elif isinstance(cfg, TwoLegSPP):
        vals = _ray(lambda i, j: cfg.at(i, j), n, start_above=False)
    elif isinstance(cfg, TwoLegRPP):
        vals = _ray(lambda i, j: cfg.at(i, j), n, start_above=True)
    else:
        raise DomainError(f"no diagonal reading for {type(cfg).__name__}")
    return as_partition(vals)


def _shape_diag(shape: Partition, n: int) -> list[Cell]:
    out = []
    k = 1
    while True:
        i, j = (k, k + n) if n >= 0 else (k - n, k)
        if not contains(shape, (i, j)):
            break
        out.append((i, j))
        k += 1
    return out


def _ray(val, n: int, start_above: bool, skip_none: bool = False) -> list[int]:
    # start at the first in-domain cell of the offset-n diagonal and read
    # down-right until the values hit zero for good
    out = []
    if start_above:
        i, j = (1 - n, 1) if n >= 0 else (1, 1 + n)
    else:
        i, j = (1, 1 + n) if n >= 0 else (1 - n, 1)
    guard = 0
    while True:
        v = val(i, j)
        if v is not None:
            if v == 0:
                break
            out.append(v)
        elif not skip_none:
            break
        i, j = i + 1, j + 1
        guard += 1
        if guard > 10000:
            raise AssertionError("diagonal read did not terminate")
    return out


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
    if kind == "spp":
        level, start_above, sign = two_leg_floor, False, 1
    elif kind == "rpp":
        level, start_above, sign = two_leg_ceiling, True, -1
    else:
        raise DomainError(f"kind must be 'spp' or 'rpp': {kind!r}")
    val = partial(level, legs)
    reach = leg_reach(legs) + 2
    size = {d: sum(_ray(val, d, start_above))
            for d in range(-reach, reach + 1)}
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
    from . import series  # local import; series has no configuration deps

    legs = (as_partition(legs[0]), as_partition(legs[1]))
    cfg = TwoLegSPP(legs) if kind == "spp" else TwoLegRPP(legs)
    low = series.minimal_exponent(kind, legs)
    return cfg, low


def transpose(rho: TwoLegRPP) -> TwoLegRPP:
    """Reflect across the main diagonal, swapping the legs."""
    lam, mu = rho.legs
    return TwoLegRPP((mu, lam), {(j, i): v for (i, j), v in rho.deficit.items()})
