"""Boundary edge sequences of a Young diagram, quotients, and the hook map.

The boundary of the outside region is a staircase path read bottom-left to
top-right; edge n is the step crossing diagonal position n, with the two
steps next to the main diagonal labelled -1 and 0. Horizontal steps carry the
labels {col - 1 - conj(lam)_col}, vertical steps {lam_row - row}, and together
they tile the integers. Everything else here (signed powers, quotients, the
hook redistribution map) is bookkeeping on that sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InvariantError
from .halfint import HalfInt
from .partitions import (Cell, Partition, as_partition, conjugate, contains,
                         hook_length, part)


def _vertical_label(lam: Partition, row: int) -> int:
    return part(lam, row) - row


def _horizontal_label(lam: Partition, col: int) -> int:
    return col - 1 - part(conjugate(lam), col)


def _row_of_vertical(lam: Partition, label: int) -> int:
    # lam_i - i strictly decreases in i, so scan
    i = 1
    while _vertical_label(lam, i) > label:
        i += 1
    if _vertical_label(lam, i) != label:
        raise DomainError(f"{label} is not a vertical edge label of {lam}")
    return i


def _col_of_horizontal(lam: Partition, label: int) -> int:
    j = 1
    while _horizontal_label(lam, j) < label:
        j += 1
    if _horizontal_label(lam, j) != label:
        raise DomainError(f"{label} is not a horizontal edge label of {lam}")
    return j


def edge_sign(lam: Partition, n: int) -> int:
    """+1 if boundary edge n is horizontal, -1 if vertical."""
    if n <= -len(lam) - 1:
        return -1
    for i in range(1, len(lam) + 1):
        if lam[i - 1] - i == n:
            return -1
    return 1


def edge_power(lam: Partition, n: int) -> HalfInt:
    """|n + 1/2| signed by whether edge n points the way it does on the axes."""
    mag = HalfInt(abs(2 * n + 1))
    expected = 1 if 2 * n + 1 > 0 else -1
    return mag if edge_sign(lam, n) == expected else -mag


def _sign_window(lam: Partition, n: int, i: int, radius: int) -> dict[int, int]:
    return {m: edge_sign(lam, n * m + i) for m in range(-radius, radius + 1)}


def _quotient_radius(lam: Partition, n: int) -> int:
    # all irregular signs live at labels in [-(lam_1' + n), lam_1 + n]
    return part(lam, 1) + len(lam) + n + 2


def n_quotient(lam: Partition, n: int, i: int) -> Partition:
    """The partition whose edge signs are every n-th sign of lam's, offset i.

    The subsequence determines the partition only after re-centring: the
    unique index split with equally many vertical signs at or after it as
    horizontal signs before it plays the role of the main diagonal.
    """
    if n < 1 or not 0 <= i < n:
        raise DomainError(f"need modulus >= 1 and residue in range: ({n}, {i})")
    radius = _quotient_radius(lam, n)
    signs = _sign_window(lam, n, i, radius)
    center = _recenter(signs, radius)
    verticals = sorted((m - center for m in signs if signs[m] == -1),
                       reverse=True)
    parts = []
    for idx, v in enumerate(verticals, start=1):
        p = v + idx
        if p <= 0:
            break
        parts.append(p)
    return as_partition(parts)


def _recenter(signs: dict[int, int], radius: int) -> int:
    # f(c) = #{m >= c vertical} - #{m < c horizontal} drops by one per step;
    # the tails beyond the window are regular so both counts stay finite
    for c in range(-radius, radius + 2):
        minus_ge = sum(1 for m in signs if m >= c and signs[m] == -1)
        plus_lt = sum(1 for m in signs if m < c and signs[m] == 1)
        if minus_ge == plus_lt:
            return c
    raise InvariantError("sign window too small to re-centre", (signs, radius))


def hook_pivots_outside(lam: Partition, n: int) -> list[Cell]:
    """Pivots of all n-hooks of the outside region (complete, finite)."""
    pivots = []
    for row in range(1, len(lam) + n + 1):
        v = _vertical_label(lam, row)
        if v + n >= -len(lam) and edge_sign(lam, v + n) == 1:
            pivots.append((row, _col_of_horizontal(lam, v + n)))
    return sorted(pivots)


def hook_pivots_inside(lam: Partition, n: int) -> list[Cell]:
    """Pivots of all n-hooks of the diagram itself."""
    pivots = []
    for col in range(1, part(lam, 1) + 1):
        h = _horizontal_label(lam, col)
        if edge_sign(lam, h + n) == -1 and h + n <= part(lam, 1) - 1:
            pivots.append((_row_of_vertical(lam, h + n), col))
    return sorted(pivots)


@dataclass(frozen=True)
class HookTarget:
    """Where an outside hook lands: a box of the diagram or of the quadrant."""

    region: str  # "in-lambda" | "in-plane"
    cell: Cell


def _last_corner_verticals(lam: Partition, n: int) -> list[int]:
    """Per residue class mod n, the largest vertical edge label."""
    best: dict[int, int] = {}
    for row in range(1, len(lam) + n + 1):
        v = _vertical_label(lam, row)
        r = v % n
        if r not in best or v > best[r]:
            best[r] = v
    if len(best) != n:
        raise InvariantError("one last vertical per residue class", (lam, n))
    return sorted(best.values())


def redistribute(lam: Partition, cell: Cell) -> HookTarget:
    """Send an outside box to the same-length hook it accounts for.

    Each n-hook outside the diagram is a vertical edge n steps before a
    horizontal one; within its every-n-th-sign subsequence that is an outer
    corner. Outer corners followed by an inner corner map to that inner
    corner's box of the diagram; the n leftover corners (one per subsequence)
    map, in boundary order, to the n boxes of the quadrant's n-th
    off-diagonal read bottom-left to top-right.
    """
    if contains(lam, cell):
        raise DomainError(f"{cell} is a box of {lam}, not outside it")
    row, col = cell
    k = _vertical_label(lam, row)
    ell = _horizontal_label(lam, col)
    n = ell - k
    if n != hook_length(lam, cell, "outside"):
        raise InvariantError("edge labels give the hook length", (lam, cell))
    i0 = k % n
    last_here = _last_corner_verticals(lam, n)
    if k == max(v for v in last_here if v % n == i0):
        rank = last_here.index(k)
        return HookTarget("in-plane", (n - rank, rank + 1))
    # next inner corner of the subsequence: first horizontal-then-vertical
    # adjacency after position (k - i0)/n
    m = (k - i0) // n + 1
    radius = _quotient_radius(lam, n)
    while m <= radius:
        if (edge_sign(lam, n * m + i0) == 1
                and edge_sign(lam, n * (m + 1) + i0) == -1):
            ell2 = n * m + i0
            return HookTarget(
                "in-lambda",
                (_row_of_vertical(lam, ell2 + n), _col_of_horizontal(lam, ell2)))
        m += 1
    raise InvariantError("no following inner corner found", (lam, cell))


def redistribute_inverse(lam: Partition, target: HookTarget) -> Cell:
    """The outside box mapping to a given target under redistribute."""
    if target.region == "in-plane":
        r, s = target.cell
        n = r + s - 1
        v = _last_corner_verticals(lam, n)[s - 1]
        return (_row_of_vertical(lam, v), _col_of_horizontal(lam, v + n))
    if target.region != "in-lambda":
        raise DomainError(f"unknown region {target.region!r}")
    row, col = target.cell
    if not contains(lam, target.cell):
        raise DomainError(f"{target.cell} is not a box of {lam}")
    k = _vertical_label(lam, row)
    ell = _horizontal_label(lam, col)
    n = k - ell
    i0 = k % n
    m = (ell - i0) // n - 1
    radius = _quotient_radius(lam, n)
    while m >= -radius:
        if (edge_sign(lam, n * m + i0) == -1
                and edge_sign(lam, n * (m + 1) + i0) == 1):
            v = n * m + i0
            return (_row_of_vertical(lam, v), _col_of_horizontal(lam, v + n))
        m -= 1
    raise InvariantError("no preceding outer corner found", (lam, target))
