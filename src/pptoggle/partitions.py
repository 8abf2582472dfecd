"""Integer partitions, interlacing, and hooks inside or outside a Young diagram.

A partition is a tuple of weakly decreasing positive ints (no trailing zeros);
indexing past the end reads 0. Cells are 1-indexed (row, col) pairs, matching
the usual matrix picture of a Young diagram with row 1 on top. The *outside*
region of a diagram is the complement of the diagram inside the positive
quadrant; hooks are defined in both regions.

A shape's columns and diagonals are counted from its rows, so no table grows
with its first part: column_length bisects the decreasing parts, and
rows_past bisects the rising contents i - lam_i, held once per shape in one
bounded private memo of len(lam) ints. Hook lengths and hook cells read row
and column lengths through them; the public functions stay plain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from operator import lt, neg
from collections.abc import Iterator

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


def column_length(lam: Partition, j: int) -> int:
    """#{i : lam_i >= j}, the length of column j >= 1: a bisection of the
    decreasing parts."""
    return bisect_right(lam, -j, key=neg)


def rows_past(lam: Partition, d: int) -> int:
    """#{i <= len(lam) : lam_i - i > d}. The contents lam_i - i fall
    strictly, so these rows are the first ones, and their count a bisection
    of the rising i - lam_i."""
    return bisect_left(_rising(tuple(lam)), -d)


@lru_cache(maxsize=1 << 10)
def _rising(lam: Partition) -> tuple[int, ...]:
    """i - lam_i for each row i of lam, read once per shape."""
    return tuple(i - p for i, p in enumerate(lam, start=1))


def conjugate(lam: Partition) -> Partition:
    """The column lengths of lam, lam_1 of them."""
    return tuple(column_length(lam, j) for j in range(1, part(lam, 1) + 1))


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
    """The lengths of cell's row and column of lam; a cell off the quadrant
    raises DomainError."""
    i, j = cell
    if i < 1 or j < 1:
        raise DomainError(f"cells are 1-indexed: {cell!r}")
    return lam[i - 1] if i <= len(lam) else 0, column_length(lam, j)


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
    limit when max_loss is None); each mu_i ranges over an interval.

    Lexicographically decreasing, from mu = lam: each step lowers the last
    part that can still fall and puts the parts after it back at lam's."""
    if max_loss is None:
        max_loss = weight(lam)
    if max_loss < 0:
        return
    mu, floors, loss = list(lam), lam[1:] + (0,), 0
    while True:
        yield as_partition(mu)
        i = len(mu) - 1
        while i >= 0 and (mu[i] == floors[i] or loss == max_loss):
            loss -= lam[i] - mu[i]
            mu[i] = lam[i]
            i -= 1
        if i < 0:
            return
        mu[i] -= 1
        loss += 1


def interlacers_above(lam: Partition, max_gain: int) -> Iterator[Partition]:
    """All mu >- lam with weight(mu) - weight(lam) <= max_gain.

    Lexicographically decreasing: each step lowers the last part above lam's
    and raises the parts after it as far as the budget and lam allow."""
    if max_gain < 0:
        return
    floors = lam + (0,)
    tops = (part(lam, 1) + max_gain,) + lam
    mu, gain, i = list(floors), 0, 0
    while True:
        for k in range(i, len(mu)):
            mu[k] = min(tops[k], floors[k] + max_gain - gain)
            gain += mu[k] - floors[k]
        yield as_partition(mu)
        i = len(mu) - 1
        while i >= 0 and mu[i] == floors[i]:
            i -= 1
        if i < 0:
            return
        mu[i] -= 1
        gain -= 1
        i += 1
