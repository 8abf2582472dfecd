"""Boundary edge sequences of a Young diagram, quotients, and the hook map.

The boundary of the outside region is a staircase path read bottom-left to
top-right; edge n is the step crossing diagonal position n, with the two
steps next to the main diagonal labelled -1 and 0. Row i's vertical step
carries the label lam_i - i, and the other labels are the horizontal steps,
column 1 first. Only the window [-len(lam), lam_1 - 1] depends on lam: below
it every step is vertical, above it every step horizontal.

For hook length n, the labels of one residue mod n form a runner of the
n-abacus (James and Kerber, The Representation Theory of the Symmetric
Group, 2.7), with a bead on each vertical label. An outside n-hook is a bead
with a gap n above it (an outer corner of its runner), an n-hook of the
diagram a gap with a bead n above it (an inner corner). Signed powers,
quotients and the hook redistribution map are all read off these runners.
Whether a label is a bead, and a gap's column, are counted from lam's rows
by `rows_past`, so no table grows with lam_1; each n's runner tops are read
once, in a bounded private memo keyed by the shape and n.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, FrozenRecord, InvariantError, set_field
from .halfint import HalfInt
from .partitions import (Cell, Partition, as_partition, contains, hook_length,
                         part, rows_past)


def _column(lam: Partition, m: int) -> int | None:
    """The column of edge m if it is horizontal, None if it is vertical.
    Below the window every edge is vertical, and above it horizontal in
    column m + 1. Inside it the rows past m come first, so m is the next
    row's label or a gap, and the gap's column is one past m plus those
    rows."""
    if m < -len(lam):
        return None
    if m >= part(lam, 1):
        return m + 1
    past = rows_past(lam, m)
    if past < len(lam) and lam[past] - past - 1 == m:
        return None
    return m + 1 + past


def edge_sign(lam: Partition, n: int) -> int:
    """+1 if boundary edge n is horizontal, -1 if vertical."""
    return 1 if _column(lam, n) is not None else -1


def edge_power(lam: Partition, n: int) -> HalfInt:
    """|n + 1/2| signed by whether edge n points the way it does on the axes."""
    mag = HalfInt(abs(2 * n + 1))
    expected = 1 if 2 * n + 1 > 0 else -1
    return mag if edge_sign(lam, n) == expected else -mag


def n_quotient(lam: Partition, n: int, i: int) -> Partition:
    """The partition whose edge signs are every n-th sign of lam's, offset i.

    Runner i's position m holds label n*m + i. Re-centred so that as many
    beads lie at or above its main diagonal as gaps below it, the runner is a
    partition's boundary. Below the window it is all beads, so the centre
    is its first window position plus the beads from there on.
    """
    if n < 1 or not 0 <= i < n:
        raise DomainError(f"need modulus >= 1 and residue in range: ({n}, {i})")
    beads = [(v - i) // n for v in (p - r for r, p in enumerate(lam, start=1))
             if v % n == i]
    center = -((i + len(lam)) // n) + len(beads)
    return as_partition(m - center + k for k, m in enumerate(beads, start=1))


def _check_hook_length(n: int):
    if n < 1:
        raise DomainError(f"hook length must be >= 1: {n!r}")


def hook_pivots_outside(lam: Partition, n: int) -> list[Cell]:
    """Pivots of all n-hooks of the outside region (complete, finite): each
    row's bead with a gap n above it."""
    _check_hook_length(n)
    pivots = []
    for row in range(1, len(lam) + n + 1):
        col = _column(lam, part(lam, row) - row + n)
        if col is not None:
            pivots.append((row, col))
    return pivots


def hook_pivots_inside(lam: Partition, n: int) -> list[Cell]:
    """Pivots of all n-hooks of the diagram itself: each row's bead with a
    gap n below it, in (row, col) order."""
    _check_hook_length(n)
    pivots = []
    for row, p in enumerate(lam, start=1):
        col = _column(lam, p - row - n)
        if col is not None:
            pivots.append((row, col))
    return pivots


class HookTarget(FrozenRecord):
    """Where an outside hook lands: a box of the diagram or of the quadrant."""

    _fields = ("region", "cell")

    def __init__(self, region: str, cell: Cell):
        set_field(self, "region", region)  # "in-lambda" | "in-plane"
        set_field(self, "cell", cell)


def redistribute(lam: Partition, cell: Cell) -> HookTarget:
    """Send an outside box to the same-length hook it accounts for.

    An outside n-hook is an outer corner of its runner. Going up a runner,
    outer and inner corners alternate, starting and ending with an outer
    one. Each outer corner maps to the inner corner above it, whose bead is
    the next one up the runner; the last outer corner of each runner maps to
    the quadrant's n-th antidiagonal, read bottom-left to top-right in the
    order of the corners' labels.
    """
    if contains(lam, cell):
        raise DomainError(f"{cell} is a box of {lam}, not outside it")
    row = cell[0]
    k = part(lam, row) - row
    n = hook_length(lam, cell, "outside")
    runners = set()  # the runners with a bead above k
    for above in range(row - 1, 0, -1):
        v = part(lam, above) - above
        if (v - k) % n == 0:
            return HookTarget("in-lambda", (above, _column(lam, v - n)))
        runners.add(v % n)
    # k tops its runner, and every runner without a bead above k tops out
    # below it
    rank = n - 1 - len(runners)
    return HookTarget("in-plane", (n - rank, rank + 1))


def redistribute_inverse(lam: Partition, target: HookTarget) -> Cell:
    """The outside box mapping to a given target under redistribute."""
    if target.region not in ("in-plane", "in-lambda"):
        raise DomainError(f"unknown region {target.region!r}")
    if target.region == "in-plane":
        r, s = target.cell
        if r < 1 or s < 1:
            raise DomainError(f"cells are 1-indexed: {target.cell!r}")
        n = r + s - 1
        row = _runner_tops(tuple(lam), n)[s - 1]
        return (row, _column(lam, part(lam, row) - row + n))
    row = target.cell[0]
    if not contains(lam, target.cell):
        raise DomainError(f"{target.cell} is not a box of {lam}")
    k = lam[row - 1] - row
    n = hook_length(lam, target.cell, "inside")
    # the next bead down the runner opens the outer corner below
    for below in range(row + 1, len(lam) + n + 1):
        v = part(lam, below) - below
        if (k - v) % n == 0:
            return (below, _column(lam, v + n))
    raise InvariantError("no preceding outer corner found", (lam, target))


@lru_cache(maxsize=1 << 12)
def _runner_tops(lam: Partition, n: int) -> tuple[int, ...]:
    """The row of each n-runner's top bead, lowest label first; the
    outside n-hook on the s-th is redistribute's preimage of the quadrant's
    cell (n + 1 - s, s)."""
    # rows len(lam)+1 .. len(lam)+n hold a bead on every runner
    tops: dict[int, int] = {}
    for row in range(1, len(lam) + n + 1):
        tops.setdefault((part(lam, row) - row) % n, row)
    # labels fall as rows grow: the s-th lowest top is in the s-th highest
    # of these rows
    return tuple(sorted(tops.values(), reverse=True))
