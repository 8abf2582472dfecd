"""Integer partitions, interlacing, and hooks inside or outside a Young diagram.

A partition is a tuple of weakly decreasing positive ints (no trailing zeros);
indexing past the end reads 0. Cells are 1-indexed (row, col) pairs, matching
the usual matrix picture of a Young diagram with row 1 on top. The *outside*
region of a diagram is the complement of the diagram inside the positive
quadrant; hooks are defined in both regions.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError

Partition = tuple[int, ...]
Cell = tuple[int, int]

EMPTY: Partition = ()


def as_partition(seq) -> Partition:
    """Validate and normalise a part sequence (strips trailing zeros)."""
    parts = list(seq)
    while parts and parts[-1] == 0:
        parts.pop()
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise DomainError(f"parts must weakly decrease: {seq!r}")
    if parts and parts[-1] < 0:
        raise DomainError(f"parts must be nonnegative: {seq!r}")
    return tuple(parts)


def part(lam: Partition, i: int) -> int:
    """1-indexed part, zero past the end."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def weight(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def contains(lam: Partition, cell: Cell) -> bool:
    """Is (row, col) a box of the diagram?"""
    i, j = cell
    if i < 1 or j < 1:
        raise DomainError(f"cells are 1-indexed: {cell!r}")
    return j <= part(lam, i)


def interlaces(lam: Partition, mu: Partition) -> bool:
    """True iff lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    for i in range(1, max(len(lam), len(mu)) + 1):
        if part(lam, i) < part(mu, i):
            return False
        if part(mu, i) < part(lam, i + 1):
            return False
    return True


def arm_leg(lam: Partition, cell: Cell) -> tuple[int, int]:
    """Arm and leg sizes of a cell, in whichever region it lies."""
    i, j = cell
    conj = conjugate(lam)
    if contains(lam, cell):
        return part(lam, i) - j, part(conj, j) - i
    # outside: the arm runs back to the diagram's row end, the leg up to its
    # column end
    return j - part(lam, i) - 1, i - part(conj, j) - 1


def hook_length(lam: Partition, cell: Cell, region: str) -> int:
    """Hook length of a cell ``inside`` the diagram or ``outside`` it."""
    inside = contains(lam, cell)
    if region == "inside" and not inside:
        raise DomainError(f"{cell} is not a box of {lam}")
    if region == "outside" and inside:
        raise DomainError(f"{cell} is a box of {lam}")
    if region not in ("inside", "outside"):
        raise DomainError(f"region must be 'inside' or 'outside': {region!r}")
    arm, leg = arm_leg(lam, cell)
    return arm + leg + 1


def hook_cells(lam: Partition, cell: Cell) -> list[Cell]:
    """The pivot plus its arm and leg, as explicit cells."""
    i, j = cell
    if contains(lam, cell):
        row = [(i, jj) for jj in range(j + 1, part(lam, i) + 1)]
        col = [(ii, j) for ii in range(i + 1, part(conjugate(lam), j) + 1)]
    else:
        row = [(i, jj) for jj in range(part(lam, i) + 1, j)]
        col = [(ii, j) for ii in range(part(conjugate(lam), j) + 1, i)]
    return [cell] + row + col


def outer_corners(lam: Partition) -> list[Cell]:
    """Corners of the outside region, bottom-left to top-right.

    These are the cells not in the diagram whose upper and left neighbours are
    each either in the diagram or outside the quadrant. There are always
    (number of distinct parts) + 1 of them.
    """
    corners = []
    rows = len(lam)
    for i in range(rows + 1, 0, -1):
        j = part(lam, i) + 1
        if i == 1 or part(lam, i - 1) >= j:
            corners.append((i, j))
    return corners


def removable_corners(lam: Partition) -> list[Cell]:
    """Boxes of the diagram whose removal leaves a partition, bottom-left first."""
    out = []
    for i in range(len(lam), 0, -1):
        if lam[i - 1] > part(lam, i + 1):
            out.append((i, lam[i - 1]))
    return out


def remove_corner(lam: Partition, cell: Cell) -> Partition:
    i, j = cell
    if part(lam, i) != j or part(lam, i + 1) == j:
        raise DomainError(f"{cell} is not a removable corner of {lam}")
    parts = list(lam)
    parts[i - 1] -= 1
    return as_partition(parts)


def interlacers_below(lam: Partition, max_loss: int | None = None
                      ) -> Iterator[Partition]:
    """All mu with lam >- mu and weight(lam) - weight(mu) <= max_loss (no
    limit when max_loss is None); each mu_i ranges over an interval."""
    if max_loss is None:
        max_loss = weight(lam)
    if max_loss < 0:
        return

    def rec(i: int, budget: int, prefix: list[int]) -> Iterator[Partition]:
        if i > len(lam):
            yield as_partition(prefix)
            return
        lo, hi = part(lam, i + 1), part(lam, i)
        for v in range(hi, max(lo, hi - budget) - 1, -1):
            prefix.append(v)
            yield from rec(i + 1, budget - (hi - v), prefix)
            prefix.pop()

    yield from rec(1, max_loss, [])


def interlacers_above(lam: Partition, max_gain: int) -> Iterator[Partition]:
    """All mu >- lam with weight(mu) - weight(lam) <= max_gain."""
    if max_gain < 0:
        return

    def rec(i: int, budget: int, prefix: list[int]) -> Iterator[Partition]:
        if i > len(lam) + 1:
            yield as_partition(prefix)
            return
        lo = part(lam, i)
        hi = part(lam, i - 1) if i > 1 else lam_1_cap
        hi = min(hi, lo + budget)
        for v in range(hi, lo - 1, -1):
            prefix.append(v)
            yield from rec(i + 1, budget - (v - lo), prefix)
            prefix.pop()

    lam_1_cap = part(lam, 1) + max_gain
    yield from rec(1, max_gain, [])
