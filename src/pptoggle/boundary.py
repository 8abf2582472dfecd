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
A shape's edge labels and each n's runner tops are read once, in bounded
private memos keyed by the shape as a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DomainError, InvariantError
from .halfint import HalfInt
from .partitions import Cell, Partition, as_partition, contains, hook_length, part


class _Edges(NamedTuple):
    """lam's edge labels, read once per shape by _edges and shared by every
    caller, so every field is read-only: `row` maps each vertical label
    lam_i - i to its row i, `labels` lists the window's horizontal labels in
    increasing order (column j's at j - 1), and `col` maps each of them to
    its column. Past the window, label h is horizontal with column h + 1."""

    lo: int
    row: Mapping[int, int]
    labels: tuple[int, ...]
    col: Mapping[int, int]

    def horizontal(self, m: int) -> bool:
        return m >= self.lo and m not in self.row

    def label_of_col(self, j: int) -> int:
        return self.labels[j - 1] if j <= len(self.labels) else j - 1

    def col_of(self, h: int) -> int:
        return self.col[h] if h in self.col else h + 1


@lru_cache(maxsize=1 << 10)
def _edges(lam: Partition) -> _Edges:
    """The edge table of lam, given as a tuple."""
    row = {p - i: i for i, p in enumerate(lam, start=1)}
    labels = tuple(m for m in range(-len(lam), part(lam, 1)) if m not in row)
    col = {h: j for j, h in enumerate(labels, start=1)}
    return _Edges(-len(lam), MappingProxyType(row), labels,
                  MappingProxyType(col))


def edge_sign(lam: Partition, n: int) -> int:
    """+1 if boundary edge n is horizontal, -1 if vertical."""
    return 1 if _edges(tuple(lam)).horizontal(n) else -1


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
    edges = _edges(tuple(lam))
    pivots = []
    for row in range(1, len(lam) + n + 1):
        h = part(lam, row) - row + n
        if edges.horizontal(h):
            pivots.append((row, edges.col_of(h)))
    return pivots


def hook_pivots_inside(lam: Partition, n: int) -> list[Cell]:
    """Pivots of all n-hooks of the diagram itself: each column's gap with
    a bead n above it."""
    _check_hook_length(n)
    edges = _edges(tuple(lam))
    return sorted((edges.row[h + n], col)
                  for col, h in enumerate(edges.labels, start=1)
                  if h + n in edges.row)


@dataclass(frozen=True)
class HookTarget:
    """Where an outside hook lands: a box of the diagram or of the quadrant."""

    region: str  # "in-lambda" | "in-plane"
    cell: Cell


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
    row, col = cell
    edges = _edges(tuple(lam))
    k = part(lam, row) - row
    n = edges.label_of_col(col) - k
    if n != hook_length(lam, cell, "outside"):
        raise InvariantError("edge labels give the hook length", (lam, cell))
    runners = set()  # the runners with a bead above k
    for above in range(row - 1, 0, -1):
        v = part(lam, above) - above
        if (v - k) % n == 0:
            return HookTarget("in-lambda", (above, edges.col[v - n]))
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
        return (row, _edges(tuple(lam)).col_of(part(lam, row) - row + n))
    row, col = target.cell
    if not contains(lam, target.cell):
        raise DomainError(f"{target.cell} is not a box of {lam}")
    edges = _edges(tuple(lam))
    k = lam[row - 1] - row
    n = k - edges.labels[col - 1]
    # the next bead down the runner opens the outer corner below
    for below in range(row + 1, len(lam) + n + 1):
        v = part(lam, below) - below
        if (k - v) % n == 0:
            return (below, edges.col[v + n])
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
