"""Integer partitions, interlacing, and hooks inside or outside a Young diagram.

A partition is a tuple of weakly decreasing positive ints (no trailing zeros);
indexing past the end reads 0. Cells are 1-indexed (row, col) pairs, matching
the usual matrix picture of a Young diagram with row 1 on top. The *outside*
region of a diagram is the complement of the diagram inside the positive
quadrant; hooks are defined in both regions.

Each shape's conjugate is computed once, in a bounded private table keyed by
the shape as a tuple; hook lengths and hook cells read row and column lengths
straight from the shape and that table. The public functions stay plain.
"""

from __future__ import annotations

from functools import lru_cache
from operator import lt
from typing import Iterator

from .errors import DomainError

Partition = tuple[int, ...]
Cell = tuple[int, int]


def as_partition(seq) -> Partition:
    """Validate and normalise a part sequence (strips trailing zeros). A
    tuple that already is a partition is returned as it is."""
    parts = tuple(seq)
    if parts and parts[-1] <= 0:
        end = len(parts)
        while end and parts[end - 1] == 0:
            end -= 1
        parts = parts[:end]
    if any(map(lt, parts, parts[1:])):
        raise DomainError(f"parts must weakly decrease: {seq!r}")
    if parts and parts[-1] < 0:
        raise DomainError(f"parts must be nonnegative: {seq!r}")
    return parts


def part(lam: Partition, i: int) -> int:
    """1-indexed part, zero past the end."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def weight(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    return _conjugate(tuple(lam))


@lru_cache(maxsize=1 << 10)
def _conjugate(lam: Partition) -> Partition:
    """The column lengths of lam, read once per shape."""
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
    """True iff lam_1 >= mu_1 >= lam_2 >= mu_2 >= ...

    Parts are positive, so this needs len(mu) <= len(lam) <= len(mu) + 1;
    past mu's last part the chain then reads only zeros."""
    n = len(mu)
    if not n <= len(lam) <= n + 1:
        return False
    for a, b, c in zip(lam, mu, (*lam[1:], 0)):
        if a < b or b < c:
            return False
    return True


def _lengths(lam: Partition, cell: Cell) -> tuple[int, int]:
    """The lengths of cell's row and column of lam, from the shape and its
    conjugate table; a cell off the quadrant raises DomainError."""
    i, j = cell
    if i < 1 or j < 1:
        raise DomainError(f"cells are 1-indexed: {cell!r}")
    conj = _conjugate(lam)
    return (lam[i - 1] if i <= len(lam) else 0,
            conj[j - 1] if j <= len(conj) else 0)


def hook_length(lam: Partition, cell: Cell, region: str) -> int:
    """Hook length of a cell ``inside`` the diagram or ``outside`` it."""
    i, j = cell
    row, col = _lengths(tuple(lam), cell)
    inside = j <= row
    if region == "inside" and not inside:
        raise DomainError(f"{cell} is not a box of {lam}")
    if region == "outside" and inside:
        raise DomainError(f"{cell} is a box of {lam}")
    if region not in ("inside", "outside"):
        raise DomainError(f"region must be 'inside' or 'outside': {region!r}")
    # arm + leg + 1; outside, the arm runs back to the diagram's row end and
    # the leg up to its column end
    return row - j + col - i + 1 if inside else j - row + i - col - 1


def hook_cells(lam: Partition, cell: Cell) -> list[Cell]:
    """The pivot plus its arm and leg, as explicit cells."""
    i, j = cell
    row, col = _lengths(tuple(lam), cell)
    if j <= row:
        arm = [(i, jj) for jj in range(j + 1, row + 1)]
        leg = [(ii, j) for ii in range(i + 1, col + 1)]
    else:
        arm = [(i, jj) for jj in range(row + 1, j)]
        leg = [(ii, j) for ii in range(col + 1, i)]
    return [cell] + arm + leg


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
    if max_loss >= 0:
        yield from _below(lam, 1, max_loss, [])


# _below and _above recurse at module level: a nested function that calls
# itself is a reference cycle, which only the cyclic collector frees
def _below(lam: Partition, i: int, budget: int, prefix: list[int]
           ) -> Iterator[Partition]:
    if i > len(lam):
        yield as_partition(prefix)
        return
    lo, hi = part(lam, i + 1), part(lam, i)
    for v in range(hi, max(lo, hi - budget) - 1, -1):
        prefix.append(v)
        yield from _below(lam, i + 1, budget - (hi - v), prefix)
        prefix.pop()


def interlacers_above(lam: Partition, max_gain: int) -> Iterator[Partition]:
    """All mu >- lam with weight(mu) - weight(lam) <= max_gain."""
    if max_gain >= 0:
        yield from _above(lam, part(lam, 1) + max_gain, 1, max_gain, [])


def _above(lam: Partition, cap: int, i: int, budget: int, prefix: list[int]
           ) -> Iterator[Partition]:
    if i > len(lam) + 1:
        yield as_partition(prefix)
        return
    lo = part(lam, i)
    hi = min(part(lam, i - 1) if i > 1 else cap, lo + budget)
    for v in range(hi, lo - 1, -1):
        prefix.append(v)
        yield from _above(lam, cap, i + 1, budget - (v - lo), prefix)
        prefix.pop()
