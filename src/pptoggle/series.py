"""Truncated formal series in q with half-integer exponents, and a transfer
evaluator for words of raising/lowering vertex operators.

Coefficients are plain Python ints throughout; exponents are stored doubled.
A word is evaluated by folding its operators from the ket side over a state
map (partition -> series). Each step keeps a state's terms up to one limit
per size, read off one table (`_size_limits`): the bound less the least
degree the rest of the word must still add from that size. It lies past
the bound where negative exponents are still to come and below it where
positive ones are, and a size with no way to the bra keeps nothing. Raising
and lowering steps alike take a size budget from each state's lowest
exponent and the step's limits, so successors that could only contribute
past their limits are never generated, and the successor lists of a
(partition, sign, budget) query come from a memo bounded in its entries and
in each entry's length.

A word is folded once, over states no larger than a cap stated from the word
and the bound (`_state_cap`). A word whose layers of size may cost nothing
first gets one exponent-free fold at cap |bra| + |ket|, which decides whether
it diverges; a divergent word is reported at every bound.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import islice

from .errors import DomainError, FrozenRecord, NonConvergenceError, set_field
from .halfint import HalfInt
from .partitions import (Partition, as_partition, interlacers_above,
                         interlacers_below, part, weight)
from .boundary import (edge_power, edge_sign, hook_pivots_inside,
                       hook_pivots_outside)
from .configurations import minimal_weight


# Most states one transfer step may carry forward, counted as each enters the
# step's output, so a step stops at MAX_STATES + 1 states and its memory is
# bounded while it is built. `verify --suite all` stays at 60 states, and
# MacMahon's word peaks at 2,070 at degree 40 and 11,619 at degree 60. Under
# a 1 GiB address-space limit degree 60 prints its series in 6 s, and
# degrees 70 to 100 stop at this cap in 4-7 s (CPython 3.11, 2-vCPU VM).
MAX_STATES = 1 << 14

# Most operators a shape word may hold, checked before it is built: a word
# grows with the degree and, for one leg, with max(lam_1, len(lam)), and one
# of 2 * 10^8 operators runs out of memory. Every word of the tests, suites
# and benchmark holds at most 44 (the doubled one-leg (3, 1) word of
# `cutoff-stability` at degree 8), MacMahon's at degree 40 holds 80, and
# `series --one-leg 65536 --degree 2`, 131,076 operators, runs in about 1 s.
MAX_WORD_OPS = 1 << 18

# Most entries the table of per-size limits may hold, (operators + 1) *
# (state cap + 1), checked before it is built: about 14 bytes an entry. The
# largest two-leg input it admits at degree 2, `series --two-leg 1677720/1`,
# peaks at 136 MiB in 3.4-4.9 s (CPython 3.11 on a 2-vCPU VM).
MAX_FLOOR_ENTRIES = 1 << 23


class TruncatedSeries:
    """Map exponent -> integer coefficient, valid up to a degree bound."""

    __slots__ = ("bound2", "coeffs")

    def __init__(self, bound2: int, coeffs: dict[int, int] | None = None):
        self.bound2 = bound2
        self.coeffs = {e: c for e, c in (coeffs or {}).items()
                       if c != 0 and e <= bound2}

    @staticmethod
    def one(bound: HalfInt) -> "TruncatedSeries":
        return TruncatedSeries(bound.doubled, {0: 1})

    @staticmethod
    def from_terms(bound: HalfInt, terms: Iterable[tuple[HalfInt, int]]):
        return TruncatedSeries(bound.doubled,
                               {HalfInt.of(e).doubled: c for e, c in terms})

    @property
    def bound(self) -> HalfInt:
        return HalfInt(self.bound2)

    def coefficient(self, exponent) -> int:
        return self.coeffs.get(HalfInt.of(exponent).doubled, 0)

    def items(self) -> list[tuple[HalfInt, int]]:
        return [(HalfInt(e), c) for e, c in sorted(self.coeffs.items())]

    def pairs(self) -> list[list[int]]:
        """Serialisation form: sorted [doubled exponent, coefficient] pairs."""
        return [[e, c] for e, c in sorted(self.coeffs.items())]

    def min_exponent(self) -> HalfInt | None:
        return HalfInt(min(self.coeffs)) if self.coeffs else None

    def truncate(self, bound2: int) -> "TruncatedSeries":
        return TruncatedSeries(min(self.bound2, bound2), self.coeffs)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._plus(other, -1)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, to the lower of the two bounds."""
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + sign * c
        return TruncatedSeries(min(self.bound2, other.bound2), out)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound2 = min(self.bound2, other.bound2)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= bound2:
                    out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(bound2, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        bound2 = min(self.bound2, other.bound2)
        return ({e: c for e, c in self.coeffs.items() if e <= bound2}
                == {e: c for e, c in other.coeffs.items() if e <= bound2})

    def __str__(self) -> str:
        return " + ".join(f"{c}*q^{HalfInt(e)}"
                          for e, c in sorted(self.coeffs.items())) or "0"

    def __repr__(self) -> str:
        return f"<{self} (mod q^>{HalfInt(self.bound2)})>"


def geometric(step, bound) -> TruncatedSeries:
    """1 + q^a + q^2a + ... truncated; a must be positive to converge."""
    a2 = HalfInt.of(step).doubled
    if a2 <= 0:
        raise DomainError(f"geometric step must be positive: {step}")
    bound2 = HalfInt.of(bound).doubled
    return TruncatedSeries(bound2, {e: 1 for e in range(0, bound2 + 1, a2)})


# ---------------------------------------------------------------------------
# operator words

RAISE, LOWER = 1, -1


class OperatorWord(FrozenRecord):
    """A finite product of vertex operators read left (bra side) to right.

    ops entries are ("step", sign, exponent) for an interlacing sum marked by
    q^exponent, or ("weigh", scale) multiplying a state by q^(scale * weight).
    """

    _fields = ("ops", "bra", "ket")

    def __init__(self, ops: tuple, bra: Partition = (), ket: Partition = ()):
        set_field(self, "ops", ops)
        set_field(self, "bra", bra)
        set_field(self, "ket", ket)


def step_op(sign: int, exponent) -> tuple:
    return ("step", sign, HalfInt.of(exponent))

def weigh_op(scale) -> tuple:
    return ("weigh", HalfInt.of(scale))


# A series pass fills at most 156 entries and a gate pass 143 (seeds 1-3),
# so no benchmark workload evicts; each entry holds at most MAX_STATES
# successors.
@lru_cache(maxsize=1 << 8)
def _successors(kappa: Partition, sign: int, budget: int
                ) -> tuple[tuple[Partition, int], ...]:
    """(mu, size change) for each mu interlacing kappa on the sign's side
    whose size moves by at most budget, in the generator's order. More than
    MAX_STATES of them raises NonConvergenceError as the one past the cap is
    built, so one state's list is bounded as one step's output is."""
    w = weight(kappa)
    near = interlacers_above if sign == RAISE else interlacers_below
    out = tuple(islice(((mu, sign * (weight(mu) - w))
                        for mu in near(kappa, budget)), MAX_STATES + 1))
    if len(out) > MAX_STATES:
        raise NonConvergenceError(
            f"transfer step fans one state out to {MAX_STATES + 1} or more "
            f"states, over the cap of {MAX_STATES}")
    return out


def apply_vertex_op(state: dict[Partition, TruncatedSeries], sign: int,
                    exponent, limits: list) -> dict[Partition, TruncatedSeries]:
    """One transfer step: fan each state out over interlacing partitions.

    sign +1 sums over mu >- kappa with factor q^(e*(|mu|-|kappa|)), sign -1
    over mu -< kappa with q^(e*(|kappa|-|mu|)). limits holds one limit per
    size up to the step's cap, len(limits) - 1, which is as far as raising
    goes, so it must cover every state's size. A successor of size s keeps
    its terms up to limits[s]. For e > 0 the size moves by at most the
    largest delta at which the state's lowest term, shifted by e * delta,
    stays within the limit of its new size: the test each successor is kept
    by, so the successors not generated are ones that keep nothing. With
    e <= 0 raising is capped by the cap alone and lowering is not capped.
    Successor lists come from a bounded memo keyed by (kappa, sign, budget).

    A successor enters the output only once it keeps a term, and the step
    raises NonConvergenceError as state number MAX_STATES + 1 would enter,
    so a step never holds more than MAX_STATES states; a state with more
    than MAX_STATES successors raises from `_successors` before its list is
    built. A fold's coefficients are positive, so every state that enters
    is carried forward.
    """
    e2 = HalfInt.of(exponent).doubled
    cap, bound2 = len(limits) - 1, max(limits)
    out: dict[Partition, TruncatedSeries] = {}
    for kappa, ser in state.items():
        if ser.is_zero():
            continue
        w, low = weight(kappa), min(ser.coeffs)
        # lowering can lose at most |kappa|, so clipping there shares keys
        budget = cap - w if sign == RAISE else w
        if e2 > 0:
            budget = min(budget, (bound2 - low) // e2)
            while budget >= 0 and (low + e2 * budget
                                   > limits[w + sign * budget]):
                budget -= 1
        if budget < 0:
            continue
        for mu, delta in _successors(kappa, sign, budget):
            d, top = e2 * delta, limits[w + sign * delta]
            if low + d > top:
                continue
            shifted = {x + d: c for x, c in ser.coeffs.items() if x + d <= top}
            if mu in out:
                tgt = out[mu].coeffs
                for x, c in shifted.items():
                    tgt[x] = c = tgt.get(x, 0) + c
                    if not c:  # signed inputs cancelled
                        del tgt[x]
            elif len(out) == MAX_STATES:
                raise NonConvergenceError(
                    f"transfer step holds {MAX_STATES + 1} states, over the "
                    f"cap of {MAX_STATES}")
            else:
                out[mu] = TruncatedSeries(top, shifted)
    return {k: s for k, s in out.items() if not s.is_zero()}


def evaluate(word: OperatorWord, bound) -> TruncatedSeries:
    """Bra-ket coefficient of the word as a series truncated at the bound,
    from one fold over the states `_state_cap` allows.

    Each step keeps a state's terms only up to the bound less the least
    degree the rest of the word must still add from the state's size, read
    off one table (`_size_limits`). That limit sits past the bound where
    negative exponents are still to come and below it where positive ones
    are, and a size with no way to the bra keeps nothing. A divergent word
    is reported whatever the bound.
    """
    bound2 = HalfInt.of(bound).doubled
    return _evaluate_capped(word, _state_cap(word, bound2))


def _state_cap(word: OperatorWord, bound2: int) -> list[list]:
    """The size limits (`_size_limits`) at the largest state size on a fold
    path of degree <= bound2: the table the fold reads, one row of cap + 1
    limits per operator.

    Cut a path's sizes into unit layers. Above h = max(|bra|, |ket|) each
    layer is made of runs, each entered by a raise and left by a lower to
    its left, and a run adds e_raise + e_lower + the weigh scales between.
    With rho the least such sum, a path reaching size h + k has degree at
    least L + k * rho, L being the least degree of a size path capped at h
    (its clipping, read off `_size_limits` at h). With no such pair the cap
    is h. With rho <= 0 adding cells to row 1 across that run gives
    infinitely many paths from any one, and clipping each part to bra | ket
    keeps a path, so the word diverges exactly when it has a path of states
    of size <= |bra| + |ket|.
    """
    h = max(weight(word.bra), weight(word.ket))
    rho = best = float("inf")  # best: least raise-plus-weighs open so far
    for op in reversed(word.ops):
        if op[0] == "weigh":
            best += op[1].doubled
        elif op[1] == RAISE:
            best = min(best, op[2].doubled)
        else:
            rho = min(rho, best + op[2].doubled)
    if rho <= 0:
        paths = OperatorWord(tuple(step_op(op[1], 0) for op in word.ops
                                   if op[0] == "step"), word.bra, word.ket)
        small = _size_limits(paths, weight(word.bra) + weight(word.ket), 0)
        if _evaluate_capped(paths, small).coeffs:
            raise NonConvergenceError(
                "word has unboundedly many states below the degree bound")
    limits = _size_limits(word, h, bound2)
    room = limits[-1][weight(word.ket)]
    if rho <= 0 or room < rho:
        return limits
    return _size_limits(word, h + room // rho, bound2)


def _size_limits(word: OperatorWord, cap: int, bound2: int) -> list[list]:
    """limits[i][s]: bound2 less the least degree a size path adds from size
    s, with ops[:i] still to come, on the way to the bra (-inf if it cannot
    get there). A raise moves a size s to any s' in [s, cap], a lower to any
    s' in [0, s], and a weigh adds scale * s, so every path of states up to
    the cap is one of these, and the least degree a size path adds bounds
    the degree of theirs from below. A term past limits[i][s] therefore ends
    past the bound. A table of more than MAX_FLOOR_ENTRIES entries raises
    DomainError before it is built."""
    entries = (len(word.ops) + 1) * (cap + 1)
    if entries > MAX_FLOOR_ENTRIES:
        raise DomainError(
            f"a floor table of {len(word.ops)} operators by {cap + 1} sizes "
            f"({entries} entries) is over the cap of {MAX_FLOOR_ENTRIES}")
    lim = [float("-inf")] * (cap + 1)
    lim[weight(word.bra)] = bound2
    limits = [lim]
    for op in word.ops:
        if op[0] == "weigh":
            lim = [v - op[1].doubled * s for s, v in enumerate(lim)]
        else:
            _, sign, exponent = op
            e2, lim = exponent.doubled, list(lim)
            sizes = range(cap - 1, -1, -1) if sign == RAISE else range(1, cap + 1)
            for s in sizes:
                lim[s] = max(lim[s], lim[s + sign] - e2)
        limits.append(lim)
    return limits


def _evaluate_capped(word: OperatorWord, limits: list[list]
                     ) -> TruncatedSeries:
    """Fold the word from its ket over the table `limits`
    (`_size_limits(word, cap, bound2)`): states of size <= cap, the last
    size of each row, truncated at bound2, the bra's entry of row 0. While
    ops[:i] are still to come, a state of size s keeps a term x only if x
    <= limits[i][s]: every way on to the bra adds at least bound2 -
    limits[i][s], so a term past that limit ends past the bound, and a size
    with no way to the bra (limit -inf) keeps nothing. A step that would
    carry more than MAX_STATES states forward raises NonConvergenceError
    from `apply_vertex_op` before it grows past the cap; a weigh step adds
    no state."""
    state: dict[Partition, TruncatedSeries] = {
        word.ket: TruncatedSeries(limits[-1][weight(word.ket)], {0: 1})}
    for op, lim in zip(reversed(word.ops), reversed(limits[:-1])):
        if op[0] == "weigh":
            t2 = op[1].doubled
            state = {k: TruncatedSeries(lim[weight(k)],
                                        {x + t2 * weight(k): c
                                         for x, c in s.coeffs.items()})
                     for k, s in state.items()}
            state = {k: s for k, s in state.items() if not s.is_zero()}
        else:
            _, sign, exponent = op
            state = apply_vertex_op(state, sign, exponent, lim)
    return state.get(word.bra,
                     TruncatedSeries(limits[0][weight(word.bra)], {}))


# ---------------------------------------------------------------------------
# shape words

def one_leg_word(lam: Partition, cutoff: int) -> OperatorWord:
    """The word whose signs/exponents are the boundary data of `lam`,
    restricted to edges |n| < cutoff. Empty boundaries."""
    if cutoff < 1:
        raise DomainError(f"cutoff must be >= 1: {cutoff}")
    lam = as_partition(lam)
    ops = tuple(step_op(edge_sign(lam, n), edge_power(lam, n))
                for n in range(-cutoff, cutoff))
    return OperatorWord(ops)


def macmahon_word(cutoff: int) -> OperatorWord:
    return one_leg_word((), cutoff)


def _fountain(sign_left: int, cutoff: int) -> tuple:
    """Exponents (2k+1)/2 decreasing into the centre then increasing out,
    with sign_left on the left block and its negation on the right."""
    left = [step_op(sign_left, HalfInt(2 * k + 1))
            for k in range(cutoff - 1, -1, -1)]
    right = [step_op(-sign_left, HalfInt(2 * k + 1)) for k in range(cutoff)]
    return tuple(left + right)


def two_leg_spp_word(lam: Partition, mu: Partition, cutoff: int) -> OperatorWord:
    """Counts fillings over the floor max(lam_col, mu_row); bra lam, ket mu."""
    return OperatorWord(_fountain(LOWER, cutoff), bra=as_partition(lam),
                        ket=as_partition(mu))


def two_leg_rpp_word(lam: Partition, mu: Partition, cutoff: int) -> OperatorWord:
    """Counts fillings under the ceiling min(lam_col, mu_row); bra mu, ket lam."""
    return OperatorWord(_fountain(RAISE, cutoff), bra=as_partition(mu),
                        ket=as_partition(lam))


def shape_word(kind: str, legs, cutoff: int) -> OperatorWord:
    """Build the operator word for a shape family.

    kind: "one-leg" (legs is a single partition), "two-leg-spp",
    "two-leg-rpp" (legs is a pair), or "macmahon". Every word holds
    2 * cutoff operators; over MAX_WORD_OPS raises DomainError.
    """
    if 2 * cutoff > MAX_WORD_OPS:
        raise DomainError(f"a word of {2 * cutoff} operators is over the cap "
                          f"of {MAX_WORD_OPS}")
    if kind == "macmahon":
        return macmahon_word(cutoff)
    if kind == "one-leg":
        return one_leg_word(as_partition(legs), cutoff)
    lam, mu = (as_partition(legs[0]), as_partition(legs[1]))
    if kind == "two-leg-spp":
        return two_leg_spp_word(lam, mu, cutoff)
    if kind == "two-leg-rpp":
        return two_leg_rpp_word(lam, mu, cutoff)
    raise DomainError(f"unknown word kind {kind!r}")


def initial_cutoff(kind: str, legs, bound: HalfInt) -> int:
    """The cutoff stated from D = ceil(bound) past which a shape word's
    operators move no path of degree <= bound: max(1, D) for MacMahon's word
    and the two-leg words, max(1, D + max(lam_1, len(lam))) for a one-leg
    word.

    MacMahon's and the two-leg words hold the exponents (2k+1)/2, k below
    the cutoff, all positive, so a path's degree is the sum over its
    operators of e * |size change|, each term >= 0. A move at an operator
    with e > bound alone puts the path past the bound, so below the bound
    the operators with k >= D act as the identity. The legs only set the
    bra and the ket.

    A one-leg word's paths are the skew plane partitions outside lam, read
    diagonal by diagonal, and a path's degree is the partition's weight; the
    word at cutoff c holds those whose diagonals past c - 1 either way are
    empty. A nonzero entry at (i, i + n) with n >= lam_1 forces the
    i + n - lam_i >= n - lam_1 + 1 cells of its row outside lam to be
    nonzero, and one with n < -len(lam) likewise the -n - len(lam) + 1 or
    more of its column. So a partition of weight <= D has empty diagonals
    outside [-(D + len(lam) - 1), D + lam_1 - 1], and the word at
    D + max(lam_1, len(lam)) holds every one of them. For lam = () this is
    MacMahon's cutoff."""
    degree = (bound.doubled + 1) // 2
    if kind == "one-leg":
        lam = as_partition(legs)
        degree += max(part(lam, 1), len(lam))
    return max(1, degree)


def evaluate_stable(kind: str, legs, bound) -> TruncatedSeries:
    """The shape series truncated at the bound: `evaluate` of its word at
    `initial_cutoff`. Past that cutoff an operator moves no path of degree
    <= bound (proved in `initial_cutoff`), so a longer word gives the same
    series; the `cutoff-stability` suite checks the cutoff against its
    double."""
    bound = HalfInt.of(bound)
    return evaluate(shape_word(kind, legs, initial_cutoff(kind, legs, bound)),
                    bound)


def minimal_exponent(kind: str, legs) -> HalfInt:
    """Lowest exponent with a nonzero coefficient of a two-leg shape series,
    read off the series truncated at `minimal_weight`, the weight of the
    zero filling stated from the legs."""
    word_kind = "two-leg-spp" if kind == "spp" else "two-leg-rpp"
    low = evaluate_stable(word_kind, legs,
                          minimal_weight(kind, legs)).min_exponent()
    if low is None:
        raise NonConvergenceError(
            f"no nonzero coefficient up to the minimal weight for {kind} {legs}")
    return low


# ---------------------------------------------------------------------------
# hook products

def hook_product(region: str, lam: Partition, bound) -> TruncatedSeries:
    """Product of geometric(h(box)) over the region's boxes with h <= bound.

    region "plane" ignores lam; region "outside" uses the complement of lam
    and region "inside" the boxes of lam itself. Boxes with larger hooks
    contribute 1 at this truncation.
    """
    bound = HalfInt.of(bound)
    degree = bound.doubled // 2
    out = TruncatedSeries.one(bound)
    pivots = hook_pivots_outside
    if region == "plane":
        lam = ()
    elif region == "inside":
        pivots = hook_pivots_inside
    elif region != "outside":
        raise DomainError(
            f"region must be 'plane', 'outside' or 'inside': {region!r}")
    for h in range(1, degree + 1):
        g = geometric(h, bound)
        for _ in pivots(lam, h):
            out = out * g
    return out


def macmahon_series(bound) -> TruncatedSeries:
    return hook_product("plane", (), bound)
