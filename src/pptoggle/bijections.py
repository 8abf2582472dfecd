"""Weight-preserving decompositions built from iterated diagonal toggles.

Forward maps empty a configuration corner by corner, recording each popped
value at the cell it left, which yields a hook-length-weighted tableau;
inverse maps push the recorded values back in exact reverse order. The
two-leg map additionally reverses the operator order on each side of the
emptied object (the palindromic pass) and transposes.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .boundary import HookTarget, redistribute, redistribute_inverse
from .configurations import (HookTableau, OneLegRPP, OneLegSPP, PlanePartition,
                             TwoLegRPP, TwoLegSPP, diagonals, from_diagonals)
from .errors import (DomainError, FrozenRecord, InvariantError,
                     ScheduleError, set_field)
from .partitions import Cell, Partition, as_partition, contains, part
from .toggles import ToggleResult, toggle_between, toggle_pop, toggle_push


class ToggleSchedule(FrozenRecord):
    """Order in which corners are popped.

    Any order is allowed as long as each cell follows its upper and left
    neighbours; the output never depends on the choice. kinds: off-diagonal
    (the canonical order), lexicographic, or seeded:<n>.
    """

    _fields = ("kind", "seed")

    def __init__(self, kind: str = "off-diagonal", seed: int = 0):
        set_field(self, "kind", kind)
        set_field(self, "seed", seed)

    @staticmethod
    def parse(text: str) -> "ToggleSchedule":
        if text in ("off-diagonal", "lexicographic"):
            return ToggleSchedule(text)
        if text.startswith("seeded:"):
            seed = text.split(":", 1)[1]
            try:
                return ToggleSchedule("seeded", seed=int(seed))
            except ValueError:
                raise ScheduleError(f"seed must be an integer: {seed!r}") from None
        raise ScheduleError(f"unknown schedule {text!r}")

    def order(self, shape: Partition, rows: int, cols: int
              ) -> tuple[Cell, ...]:
        """The cells of [1,rows]x[1,cols] outside shape in this schedule's
        order. An unknown kind raises ScheduleError on every call; a known
        one reads the order memo, shared by every schedule and grid."""
        if self.kind not in ("off-diagonal", "lexicographic", "seeded"):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        return _order(self.kind, self.seed, tuple(shape), rows, cols)


@lru_cache(maxsize=1 << 10)
def _order(kind: str, seed: int, shape: Partition, rows: int, cols: int
           ) -> tuple[Cell, ...]:
    """The one memo of cell orders: an order depends only on the schedule,
    the shape and the box, and a pass pops or pushes many objects in the
    same few boxes. Orders are tuples, so every caller may share one."""
    if kind == "seeded":
        return _seeded_order(seed, shape, rows, cols)
    region = [(i, j) for i in range(1, rows + 1)
              for j in range(part(shape, i) + 1, cols + 1)]
    key = (lambda c: (c[0] + c[1], c[0])) if kind == "off-diagonal" else None
    return tuple(sorted(region, key=key))


def _seeded_order(seed: int, shape: Partition, rows: int, cols: int
                  ) -> tuple[Cell, ...]:
    """Each next corner picked uniformly at random, from Random(seed); read
    through _order's memo, since the schedule suites replay the same seeds
    on every object of a size."""
    rng = random.Random(seed)
    extra = [0] * (rows + 1)  # popped cells beyond the shape, per row
    total = sum(max(0, cols - part(shape, i)) for i in range(1, rows + 1))
    order = []
    while len(order) < total:
        avail = []
        for i in range(1, rows + 1):
            j = part(shape, i) + extra[i] + 1
            if j > cols:
                continue
            if i == 1 or part(shape, i - 1) + extra[i - 1] >= j:
                avail.append((i, j))
        cell = avail[rng.randrange(len(avail))]
        order.append(cell)
        extra[cell[0]] += 1
    return tuple(order)


DEFAULT_SCHEDULE = ToggleSchedule()


# The grid's toggle steps, memoised: a pass over many objects repeats a few
# hundred distinct toggles tens of thousands of times. Each step calls the
# kernel by its module name, so a miss runs all of its checks, and an invalid
# triple raises on every call (lru_cache keeps no exceptions).

@lru_cache(maxsize=1 << 12)
def _pop_step(above: Partition, nu: Partition, below: Partition
              ) -> ToggleResult:
    return toggle_pop(above, nu, below)


@lru_cache(maxsize=1 << 12)
def _push_step(above: Partition, nu: Partition, below: Partition, n: int
               ) -> Partition:
    return toggle_push(above, nu, below, n)


@lru_cache(maxsize=1 << 12)
def _between_step(left: Partition, mid: Partition, right: Partition
                  ) -> Partition:
    return toggle_between(left, mid, right)


class ToggleGrid:
    """Decreasing filling of the region outside `shape`, held as its chain of
    interlacing diagonals, with a staircase of popped cells at the corner.

    `diags[d]` is the unpopped part of diagonal d = col - row, read down-right
    from its first cell outside the shape and the popped cells; `front[i]` is
    the first unpopped column of row i (1 where not stored). A pop or push at
    (i, j) toggles diagonal j - i against its neighbours j - i ± 1, which
    start at (i, j + 1) and (i + 1, j): Pak's toggles (I. Pak, "Hook length
    formula and geometric combinatorics", Sém. Lothar. Combin. 46, 2001).
    A diagonal not stored is empty. A two-leg grid stores every diagonal its
    box reads, so its legs, which the diagonals equal far out, are never
    read past the window.
    """

    def __init__(self, shape: Partition = (), diags=None):
        self.shape = shape
        self.diags: dict[int, Partition] = dict(diags or {})
        self.front = {i: p + 1 for i, p in enumerate(shape, start=1)}

    def diag(self, d: int) -> Partition:
        return self.diags.get(d, ())

    def pop(self, i: int, j: int) -> int:
        front = self.front
        if j != front.get(i, 1) or (i > 1 and front.get(i - 1, 1) <= j):
            raise ScheduleError(f"cell {(i, j)} is not a poppable corner")
        d = j - i
        above, nu, below = self.diag(d + 1), self.diag(d), self.diag(d - 1)
        n = 0
        if not above == nu == below:  # equal ones pop 0 and stay as they are
            self.diags[d], n = _pop_step(above, nu, below)
        front[i] = j + 1
        return n

    def push(self, i: int, j: int, n: int):
        front = self.front
        if j != front.get(i, 1) - 1 or j <= part(self.shape, i):
            raise ScheduleError(f"cell {(i, j)} is not pushable")
        if front.get(i + 1, 1) > j:
            raise ScheduleError(f"cell below {(i, j)} is still popped")
        d = j - i
        above, nu, below = self.diag(d + 1), self.diag(d), self.diag(d - 1)
        if n or not above == nu == below:  # pushing 0 onto equal ones is a no-op
            self.diags[d] = _push_step(above, nu, below, n)
        front[i] = j


def _two_leg_grid(sigma: TwoLegSPP, width: int) -> ToggleGrid:
    """The filling's diagonals -width..width: all that a pop of
    [1,width]^2, which toggles diagonals 1-width..width-1 against their
    neighbours, reads."""
    return ToggleGrid((), diagonals(sigma, range(-width, width + 1)))


def _pop_region(grid: ToggleGrid, rows: int, cols: int,
                schedule: ToggleSchedule) -> dict[Cell, int]:
    values = {}
    for cell in schedule.order(grid.shape, rows, cols):
        n = grid.pop(*cell)
        if n:
            values[cell] = n
    return values


def _push_box(grid: ToggleGrid, rows: int, cols: int,
              values: dict[Cell, int]):
    """Take the grid's box [1,rows]x[1,cols] as popped, its stored diagonals
    read from the box's edge, and push values back in reverse canonical
    order."""
    cells = DEFAULT_SCHEDULE.order(grid.shape, rows, cols)
    grid.front.update((i, max(cols, part(grid.shape, i)) + 1)
                      for i in range(1, rows + 1))
    for cell in reversed(cells):
        grid.push(*cell, values.get(cell, 0))


# The most cells a pop or push box, or a two-leg window, may hold: each cell
# costs a toggle step, so a box is refused where it is sized, before any of
# its toggles run. A two-leg window is sized by the legs' lengths, not their
# parts, so only a long leg or a far support reaches the cap. The suites'
# largest box is 1x300, the benchmark's 12x12.
MAX_BOX_CELLS = 1 << 16


def _box(rows: int, cols: int) -> tuple[int, int]:
    """The box [1,rows]x[1,cols]; one of over MAX_BOX_CELLS cells raises
    DomainError."""
    if rows * cols > MAX_BOX_CELLS:
        raise DomainError(f"a {rows}x{cols} box of toggles is over the cap of "
                          f"{MAX_BOX_CELLS} cells")
    return rows, cols


def _bounding_box(cells) -> tuple[int, int]:
    """Rows and columns of the smallest [1,r]x[1,c] holding the cells, read
    in one pass."""
    rows = cols = 0
    for i, j in cells:
        if i > rows:
            rows = i
        if j > cols:
            cols = j
    return _box(rows, cols)


# ---------------------------------------------------------------------------
# plane partitions and one-leg objects

# the tableau region each finite decreasing filling pops into, and how a
# wrong region is named
_REGIONS = {PlanePartition: ("plane", "on the full quadrant"),
            OneLegSPP: ("outside", "outside a shape")}


def _pop_all(cfg, schedule: ToggleSchedule) -> HookTableau:
    """Pop a plane partition or one-leg SPP until it is empty, into its hook
    tableau; the popped values, weighted by hook length, carry the full
    weight. The support's bounding box is enough: a pop at (i, j) leaves
    entry m of its diagonal, at (i+m, j+m), nonzero only if (i+m-1, j+m) and
    (i+m, j+m-1) are, so the support never leaves the box."""
    shape = () if type(cfg) is PlanePartition else cfg.shape
    rows, cols = _bounding_box(cfg.entries)
    grid = ToggleGrid(shape, diagonals(cfg, range(1 - rows, cols)))
    values = _pop_region(grid, rows, cols, schedule)
    if any(grid.diags.values()):
        raise InvariantError("popping box did not exhaust the object",
                             (shape, cfg.entries))
    return HookTableau(_REGIONS[type(cfg)][0], shape, values)


def _push_all(t: HookTableau, cls):
    """Inverse of _pop_all, into a cls filling, over the smallest box
    [1,r]x[1,c] that holds the tableau's support, whatever its values. The
    box is exact: its cells outside the shape form an order ideal of the pop
    order, so some linear extension pops them first. Pushing in reverse,
    each cell beyond the box comes first and pushes 0 onto empty diagonals,
    which changes nothing, and by schedule independence (Pak, cited at
    ToggleGrid) every push order gives the same result."""
    region, where = _REGIONS[cls]
    if t.region != region:
        raise DomainError(f"expected a tableau {where}")
    shape = t.shape if cls is OneLegSPP else ()
    grid = ToggleGrid(shape)
    _push_box(grid, *_bounding_box(t.values), t.values)
    return from_diagonals(cls, shape, grid.diags)


def pp_to_tableau(pi: PlanePartition,
                  schedule: ToggleSchedule = DEFAULT_SCHEDULE) -> HookTableau:
    """Empty a plane partition corner by corner."""
    return _pop_all(pi, schedule)


def tableau_to_pp(t: HookTableau) -> PlanePartition:
    """Inverse of pp_to_tableau."""
    return _push_all(t, PlanePartition)


def spp_to_tableau(sigma: OneLegSPP,
                   schedule: ToggleSchedule = DEFAULT_SCHEDULE) -> HookTableau:
    return _pop_all(sigma, schedule)


def tableau_to_spp(t: HookTableau) -> OneLegSPP:
    return _push_all(t, OneLegSPP)


def _rect_complement(lam: Partition) -> Partition:
    """Complement of the diagram in its bounding rectangle, rotated 180°."""
    depth, width = len(lam), part(lam, 1)
    return as_partition([width - lam[depth - i] for i in range(1, depth + 1)])


def _turn(cells: dict[Cell, int], lam: Partition) -> dict[Cell, int]:
    """The cells' values, each cell turned 180° in lam's bounding rectangle:
    this takes lam's boxes to the region outside _rect_complement(lam) in
    that rectangle, and back."""
    depth, width = len(lam), part(lam, 1)
    return {(depth + 1 - i, width + 1 - j): v for (i, j), v in cells.items()}


def shape_tableau_to_rpp(lam: Partition, values: dict[Cell, int]) -> OneLegRPP:
    """Un-toggle a hook tableau on the shape itself into an increasing filling.

    The shape's hooks point down-right, so the tableau is turned into the
    complement's outside region (preserving hook lengths), un-toggled there
    into a decreasing filling, and that filling is turned back.
    """
    lam = as_partition(lam)
    if not all(contains(lam, c) for c in values):
        raise DomainError(f"a tableau on the shape {lam} must lie in it")
    sigma = tableau_to_spp(HookTableau("outside", _rect_complement(lam),
                                       _turn(values, lam)))
    return OneLegRPP(lam, _turn(sigma.entries, lam))


def rpp_to_shape_tableau(rho: OneLegRPP,
                         schedule: ToggleSchedule = DEFAULT_SCHEDULE
                         ) -> dict[Cell, int]:
    """Inverse of shape_tableau_to_rpp."""
    lam = rho.shape
    sigma = OneLegSPP(_rect_complement(lam), _turn(rho.entries, lam))
    return _turn(spp_to_tableau(sigma, schedule).values, lam)


def one_leg_forward(sigma: OneLegSPP,
                    schedule: ToggleSchedule = DEFAULT_SCHEDULE
                    ) -> tuple[OneLegRPP, PlanePartition]:
    """Decompose a one-leg SPP into an increasing filling of its shape plus a
    plane partition, with |sigma| = |rho| + |pi|."""
    lam = sigma.shape
    t = spp_to_tableau(sigma, schedule)
    in_shape: dict[Cell, int] = {}
    in_plane: dict[Cell, int] = {}
    for cell, v in t.values.items():
        tgt = redistribute(lam, cell)
        (in_shape if tgt.region == "in-lambda" else in_plane)[tgt.cell] = v
    pi = tableau_to_pp(HookTableau("plane", (), in_plane))
    rho = shape_tableau_to_rpp(lam, in_shape)
    return rho, pi


def one_leg_inverse(rho: OneLegRPP, pi: PlanePartition) -> OneLegSPP:
    lam = rho.shape
    outside: dict[Cell, int] = {}
    for cell, v in rpp_to_shape_tableau(rho).items():
        outside[redistribute_inverse(lam, HookTarget("in-lambda", cell))] = v
    for cell, v in pp_to_tableau(pi).values.items():
        outside[redistribute_inverse(lam, HookTarget("in-plane", cell))] = v
    return tableau_to_spp(HookTableau("outside", lam, outside))


# ---------------------------------------------------------------------------
# two-leg objects

def stabilization_index(sigma: TwoLegSPP) -> int:
    """The side N of the smallest square [1,N]^2, N >= 1, holding the
    excess and every cell where both legs are nonzero: max(len(lam),
    len(mu), 1, every row and column of the excess). Outside the square the
    filling sits on one leg's value.

    The forward map pops the window [1,N+1]^2 and relies on the pops
    settling at N: popping [1,2N]^2 in canonical order gives 0 at every
    cell past [1,N]^2. That bound is verified, not proven. The `pops-settle`
    row of the `two-leg-width-stability` suite checks it on the 1,492
    fillings with legs of weight <= 3 and excess <= 3 (its defaults). The
    forward map checks the part that costs nothing: no nonzero pop in row or
    column N+1 of its window.
    """
    lam, mu = sigma.legs
    return max([len(lam), len(mu), 1] + [max(c) for c in sigma.excess])


@lru_cache(maxsize=1 << 4)
def _palindromic_slots(width: int) -> tuple[int, ...]:
    """The adjacent swaps that reverse each same-sign block of the emptied
    word, lowest exponent first, as slots p (swapping operators p, p + 1).
    Each swap is an involution that leaves its neighbours alone, so running
    the slots backwards undoes them. Memoised for the few widths a pass
    repeats; a width's slots number about width², hence the small bound."""
    return tuple([p for tgt in range(width, 2 * width - 1)
                  for p in range(2 * width - 2, tgt - 1, -1)]
                 + [p for lim in range(width - 2, -1, -1)
                    for p in range(lim + 1)])


def _toggle_slots(chain: list, slots, width: int):
    """Swap the operators at each slot in turn by toggling the diagonal
    between them: left >- mid >- right in the raising block (p < width),
    right >- mid >- left in the lowering one. Three equal diagonals are
    skipped, as ToggleGrid.pop skips them: toggle_between leaves the middle
    one fixed, since each entry's interval is the entry itself."""
    for p in slots:
        left, mid, right = chain[p:p + 3]
        if left == mid == right:
            continue
        chain[p + 1] = (_between_step(left, mid, right) if p < width
                        else _between_step(right, mid, left))


def two_leg_remnant(sigma: TwoLegSPP, width: int
                    ) -> tuple[tuple[Partition, ...], HookTableau]:
    """Pop the width-sized square off a two-leg filling; returns what is
    left of diagonals -width..width, in order, and the popped hook tableau.
    The window's end diagonals must be the legs, which every diagonal past
    them equals. A square of over MAX_BOX_CELLS cells raises DomainError
    before any of it is read."""
    _box(width, width)
    grid = _two_leg_grid(sigma, width)
    tab = _pop_region(grid, width, width, DEFAULT_SCHEDULE)
    window = tuple(grid.diags[d] for d in range(-width, width + 1))
    if window[0] != sigma.legs[0] or window[-1] != sigma.legs[1]:
        raise InvariantError("pop window too small for the leg tails",
                             (sigma.legs, sigma.excess, width))
    return window, HookTableau("plane", (), tab)


def _two_leg_image(window: tuple[Partition, ...], tab: HookTableau
                   ) -> tuple[TwoLegRPP, PlanePartition]:
    """The palindromic pass on the window, whose ends are the legs, read off
    transposed (diagonal d as -d), with the plane partition of the popped
    tableau."""
    width = (len(window) - 1) // 2
    chain = list(window)
    _toggle_slots(chain, _palindromic_slots(width), width)
    rho = from_diagonals(TwoLegRPP, (window[0], window[-1]),
                         dict(zip(range(width, -width - 1, -1), chain)))
    return rho, tableau_to_pp(tab)


def _two_leg_forward_at(sigma: TwoLegSPP, width: int
                        ) -> tuple[TwoLegRPP, PlanePartition]:
    return _two_leg_image(*two_leg_remnant(sigma, width))


def two_leg_forward(sigma: TwoLegSPP) -> tuple[TwoLegRPP, PlanePartition]:
    """Decompose a two-leg SPP into a two-leg RPP of the same shape plus a
    plane partition, with |sigma| = |rho| + |pi|.

    Pops the stabilised square into a tableau, reverses the remaining
    operator order palindromically on the eventually-constant diagonals, and
    transposes. The window is one wider than the stabilisation index and is
    popped once; the `two-leg-width-stability` suite checks that a wider one
    agrees and that the pops settle.
    """
    n = stabilization_index(sigma)
    window, tab = two_leg_remnant(sigma, n + 1)
    if any(max(c) > n for c in tab.values):
        raise InvariantError("nonzero pop past the stabilised square",
                             (sigma.legs, sigma.excess))
    return _two_leg_image(window, tab)


def _two_leg_inverse_at(rho: TwoLegRPP, pi: PlanePartition, width: int
                        ) -> TwoLegSPP:
    _box(width, width)
    lam, mu = rho.legs
    # read transposed (diagonal d as -d), as the forward map wrote it
    diags = diagonals(rho, range(-width, width + 1))
    chain = [diags[-d] for d in range(-width, width + 1)]
    _toggle_slots(chain, reversed(_palindromic_slots(width)), width)
    if chain[0] != lam or chain[-1] != mu:
        raise InvariantError("window too small for the leg tails",
                             (rho.legs, rho.deficit, width))

    grid = ToggleGrid((), dict(zip(range(-width, width + 1), chain)))
    _push_box(grid, width, width, pp_to_tableau(pi).values)
    # past the window every diagonal is a leg, which is its floor there
    return from_diagonals(TwoLegSPP, rho.legs, grid.diags)


def _two_leg_inverse_width(rho: TwoLegRPP, pi: PlanePartition) -> int:
    """One past the legs' lengths, |i| + |j| of every deficit cell and the
    plane partition's support. Past a leg's length each diagonal of rho
    equals that leg, whatever the size of its parts, so the window's ends
    are the legs."""
    lam, mu = rho.legs
    return max([len(lam), len(mu), 1]
               + [abs(i) + abs(j) for (i, j) in rho.deficit]
               + [max(c) for c in pi.entries]) + 1


def two_leg_inverse(rho: TwoLegRPP, pi: PlanePartition) -> TwoLegSPP:
    return _two_leg_inverse_at(rho, pi, _two_leg_inverse_width(rho, pi))
